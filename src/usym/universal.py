"""The presentation of the universal coacting bialgebra a(A) from structure
constants, plus machine verification of the bialgebra and comodule axioms at
the degree completion certified.

For an n-dimensional algebra A the defining relations on generators x[s,i] are

    sum_u tau[i,j,u] x[a,u]  =  sum_{s,t} tau[s,t,a] x[s,i] x[t,j]
    x[a,1] = delta(a,1)

for all a, i, j.  Interreduction eliminates the generators forced to scalars
(at least the whole first column) and bounded completion makes normal forms
canonical up to the requested degree.  The comultiplication, counit and the
canonical coaction are

    Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j],   eps(x[i,j]) = delta(i,j),
    eta(e_i) = sum_s e_s (x) x[s,i],

with each generator read as its image in the quotient (its substitution, if
eliminated).  The presentation tabulates Delta and eps on all n^2 generators
and eta on every basis vector, and keeps the raw relations.  The checkers
read Delta, eps and eta only from those tables; none of them evaluates the
formulas above.  Delta and eps are both algebra maps, read once per check as
int tables (``ncpoly._ints``) of 2-leg and 0-leg tensors, and one routine
applies either to a tensor leg, extended multiplicatively to words.  Each
bialgebra axiom is a zero test of an int normal form, which does not depend
on scale, so only a failing item's detail is read back as field scalars.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .algebra import FinAlgebra
from .fields import Scalar
from .report import CheckItem, CheckReport
from .ncpoly import (
    GenId,
    NCPoly,
    RewriteSystem,
    TensorPoly,
    Word,
    _accumulate,
    _ints,
    _scalars,
    _mod,
    _tensor_nf,
    complete,
    format_genid,
    gen_key,
    ideal_member_bounded,
    interreduce,
    substitute,
    tensor_normal_form,
)

DEFAULT_DEGREE_BOUND = 4


def build_relations(a: FinAlgebra) -> list[NCPoly]:
    """Raw defining relations of a(A): n^3 product relations in lexicographic
    (a, i, j) emission order, then n unit relations."""
    n = a.n
    zero, one = a.field.zero, a.field.one
    rels: list[NCPoly] = []
    for ai in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                terms: dict[Word, Scalar] = {}
                for u, c in a.basis_product(i - 1, j - 1).items():
                    w: Word = ((ai, u + 1),)
                    terms[w] = terms.get(w, zero) + c
                for (s, t, c) in a.pairs_with_result(ai - 1):
                    w = ((s + 1, i), (t + 1, j))
                    terms[w] = terms.get(w, zero) - c
                rels.append(NCPoly(terms))
    for ai in range(1, n + 1):
        terms = {((ai, 1),): one}
        if ai == 1:
            terms[()] = -one
        rels.append(NCPoly(terms))
    return rels


def _all_gens(n: int) -> list[GenId]:
    return sorted(((s, i) for s in range(1, n + 1) for i in range(1, n + 1)), key=gen_key)


@dataclass(eq=True)
class Presentation:
    """The computable face of a(A): surviving generators, substitutions and
    rules, the raw relations (``build_relations``), Delta/eps tables on all
    n^2 generators, and the canonical coaction table."""

    algebra: FinAlgebra
    degree_bound: int
    gens: tuple[GenId, ...]
    system: RewriteSystem
    relations: tuple[NCPoly, ...]
    delta: dict[GenId, TensorPoly] = field(default_factory=dict)
    eps: dict[GenId, Scalar] = field(default_factory=dict)
    # coaction[i] lists (s, poly) with eta(e_{i+1}) = sum_s e_{s+1} (x) poly
    coaction: tuple[tuple[tuple[int, NCPoly], ...], ...] = ()


def build_presentation(a: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Presentation:
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    relations = tuple(build_relations(a))
    system = complete(interreduce(relations), degree_bound)
    n = a.n
    one, zero = a.field.one, a.field.zero
    # each generator's image in the quotient: its substitution, or itself
    image = {g: NCPoly.gen(g, one) for g in _all_gens(n)}
    image.update(system.subs)
    gens = tuple(g for g in image if g not in system.subs)
    delta = {
        (i, j): sum(
            (TensorPoly.of(image[i, s], image[s, j]) for s in range(1, n + 1)), TensorPoly()
        )
        for i, j in image
    }
    eps = {(i, j): one if i == j else zero for i, j in image}
    coaction = tuple(
        tuple((s - 1, image[s, i]) for s in range(1, n + 1) if not image[s, i].is_zero())
        for i in range(1, n + 1)
    )
    return Presentation(a, degree_bound, gens, system, relations, delta, eps, coaction)


def _on_leg(table: dict, legs: int, x: tuple, leg: int, d: int, m: int) -> tuple[dict, int]:
    """Apply an algebra map out of the free algebra to leg `leg` of x =
    (terms, den), the int tensor terms / den.  The map is its int table of
    `legs`-leg tensors on the generators with denominator d (see _ints; two
    legs for Delta, none for eps), extended multiplicatively: a word goes to
    the legwise product of its generators' tensors, the empty word to the
    unit tensor.  The result's legs replace that leg in the keys.  The image
    of a word of length l has denominator d^l, so its term is scaled by
    d^(top - l), top the longest word on that leg, and the result is
    (ints, den * d^top), its ints residues mod m over GF(p)."""
    terms, den = x
    top = max((len(key[leg]) for key in terms), default=0)
    out: dict[tuple[Word, ...], int] = {}
    for key, c in terms.items():
        w = key[leg]
        image = table[w[0]] if w else {((),) * legs: 1}
        for g in w[1:]:
            image = _accumulate(
                {},
                (
                    (tuple(map(operator.add, a, b)), u * v)
                    for a, u in image.items()
                    for b, v in table[g].items()
                ),
            )
        head, tail, c = key[:leg], key[leg + 1 :], c * d ** (top - len(w))
        _accumulate(out, ((head + split + tail, c * u) for split, u in image.items()))
    return _mod(out, m), den * d**top


def _int_tables(p: Presentation) -> tuple[dict, int, dict, int, int]:
    """(delta, d, eps, e, m): Delta and eps as int tables with denominators
    d and e and modulus m (see _ints), eps as 0-leg tensors, so that
    _on_leg applies it as it applies Delta."""
    ints, d, _ = _ints({(g, k): c for g, t in p.delta.items() for k, c in t.terms.items()})
    delta = {g: {k: ints[g, k] for k in t.terms} for g, t in p.delta.items()}
    eps, e, m = _ints(p.eps)
    return delta, d, {g: {(): c} if c else {} for g, c in eps.items()}, e, m


def _one_leg(poly: NCPoly) -> tuple[dict, int]:
    """(terms, den): the ints of a polynomial as 1-leg tensor terms / den."""
    ints, den, _ = _ints(poly.terms)
    return {(w,): c for w, c in ints.items()}, den


def _minus(x: tuple, y: tuple) -> dict:
    """The ints of x - y, for x and y as (terms, den), over lcm of the dens."""
    (a, da), (b, db) = x, y
    lcm = math.lcm(da, db)
    out = {k: c * (lcm // da) for k, c in a.items()}
    return _accumulate(out, ((k, -c * (lcm // db)) for k, c in b.items()))


def _relation_labels(a: FinAlgebra) -> list[str]:
    n = a.n
    labels = [
        f"r[{ai},{i},{j}]"
        for ai in range(1, n + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    labels += [f"r[unit,{ai}]" for ai in range(1, n + 1)]
    return labels


def check_bialgebra(p: Presentation) -> CheckReport:
    """Verify that the tabulated Delta and eps are well defined on the
    quotient and satisfy the coalgebra axioms on the surviving generators."""
    delta, d, eps, e, m = _int_tables(p)
    items: list[CheckItem] = []

    for label, rel in zip(_relation_labels(p.algebra), p.relations):
        r = _one_leg(rel)
        image, den = _on_leg(delta, 2, r, 0, d, m)
        dh, dn = _tensor_nf(image, m, p.system)
        detail = dh and f"residue {TensorPoly(_scalars(dh, den * dn, m))!r}"
        items.append(CheckItem(f"delta-descends {label}", not dh, detail or ""))
        eh, den = _on_leg(eps, 0, r, 0, e, m)
        detail = eh and f"residue {_scalars(eh, den, m)[()]}"
        items.append(CheckItem(f"eps-descends {label}", not eh, detail or ""))

    for g in p.gens:
        dg = (delta[g], d)
        # NF of (Delta (x) id) Delta(g) - (id (x) Delta) Delta(g), as 3-leg tensors
        left, right = (_on_leg(delta, 2, dg, leg, d, m) for leg in (0, 1))
        coassoc = _tensor_nf(_minus(left, right), m, p.system)[0]
        items.append(CheckItem(f"coassoc {format_genid(g)}", not coassoc))
        # NF of (eps (x) id) Delta(g) - g and of (id (x) eps) Delta(g) - g
        gen = ({((g,),): 1}, 1)
        counit_ok = all(
            not _tensor_nf(_minus(_on_leg(eps, 0, dg, leg, e, m), gen), m, p.system)[0]
            for leg in (0, 1)
        )
        items.append(CheckItem(f"counit {format_genid(g)}", counit_ok))

    return CheckReport(items)


def check_comodule(p: Presentation) -> CheckReport:
    """Verify that the tabulated coaction is a coassociative, counital
    algebra map modulo the relation ideal at the certified degree."""
    a = p.algebra
    n = a.n
    one = a.field.one
    delta, d, eps, e, m = _int_tables(p)
    # eta[i][s] is the coordinate of e_{s+1} in eta(e_{i+1}); absent ones are zero
    eta = [[NCPoly()] * n for _ in range(n)]
    for i, entries in enumerate(p.coaction):
        for s, poly in entries:
            eta[i][s] = poly
    items: list[CheckItem] = []

    unit_entry = p.coaction[0]
    unit_ok = unit_entry == ((0, NCPoly.constant(one)),)
    items.append(CheckItem("coaction-unit e[1]", unit_ok))

    for i in range(n):
        ok = True
        detail = ""
        for t in range(n):
            # the coordinate e_t of (eta (x) id) eta(e_i), sum_s eta[s][t] (x) eta[i][s],
            # against that of (id (x) Delta) eta(e_i), Delta(eta[i][t])
            lhs = sum((TensorPoly.of(eta[s][t], eta[i][s]) for s in range(n)), TensorPoly())
            rhs = TensorPoly(_scalars(*_on_leg(delta, 2, _one_leg(eta[i][t]), 0, d, m), m))
            if not tensor_normal_form(lhs - rhs, p.system).is_zero():
                ok = False
                detail = f"component t={t + 1}"
                break
        items.append(CheckItem(f"coaction-coassoc e[{i + 1}]", ok, detail))

        # (eps (x) id) eta(e_i) = e_i: each coordinate e_s of it minus [s = i]
        # is 0 (over GF(p) both are residues with den 1)
        counit = [_on_leg(eps, 0, _one_leg(eta[i][s]), 0, e, m) for s in range(n)]
        counit_ok = all(not _minus(x, ({(): 1} if s == i else {}, 1)) for s, x in enumerate(counit))
        items.append(CheckItem(f"coaction-counit e[{i + 1}]", counit_ok))

    # the relation r[a,i,j] is the coordinate a of eta(e_i e_j) - eta(e_i) eta(e_j);
    # substituted first, its words are already in the word table
    for i in range(n):
        for j in range(n):
            ok = True
            detail = ""
            for ai in range(n):
                rel = substitute(p.relations[(ai * n + i) * n + j], p.system.subs)
                if not ideal_member_bounded(rel, p.system, p.degree_bound):
                    ok = False
                    detail = f"coordinate a={ai + 1}"
                    break
            items.append(CheckItem(f"coaction-mult e[{i + 1}]e[{j + 1}]", ok, detail))

    return CheckReport(items)

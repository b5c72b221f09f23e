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
and eta on every basis vector.  The checkers read Delta, eps and eta only
from those tables; none of them evaluates the formulas above.  Delta and eps
are both algebra maps, read as tables of 2-leg and 0-leg tensors, and one
routine applies either to a tensor leg, extended multiplicatively to words.
"""

from __future__ import annotations

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
    rules, Delta/eps tables on all n^2 generators, and the canonical coaction
    table."""

    algebra: FinAlgebra
    degree_bound: int
    gens: tuple[GenId, ...]
    system: RewriteSystem
    delta: dict[GenId, TensorPoly] = field(default_factory=dict)
    eps: dict[GenId, Scalar] = field(default_factory=dict)
    # coaction[i] lists (s, poly) with eta(e_{i+1}) = sum_s e_{s+1} (x) poly
    coaction: tuple[tuple[tuple[int, NCPoly], ...], ...] = ()


def build_presentation(a: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Presentation:
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    system = complete(interreduce(build_relations(a)), degree_bound)
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
    return Presentation(a, degree_bound, gens, system, delta, eps, coaction)


def _on_leg(
    table: dict[GenId, TensorPoly], legs: int, t: TensorPoly, leg: int, one: Scalar
) -> TensorPoly:
    """Apply an algebra map out of the free algebra to leg `leg` of t.  The
    map is its table of `legs`-leg tensors on the generators (two legs for
    Delta, none for eps), extended multiplicatively: a word goes to the
    legwise product of its generators' tensors, the empty word to the unit
    tensor.  The result's legs replace that leg in t's key.  A coefficient
    product with a factor one is not formed."""
    out: dict[tuple[Word, ...], Scalar] = {}
    for key, c in t.terms.items():
        w = key[leg]
        image = table[w[0]].terms if w else {((),) * legs: one}
        for g in w[1:]:
            image = _accumulate(
                {},
                (
                    (tuple(map(operator.add, a, b)), e if d == one else d if e == one else d * e)
                    for a, d in image.items()
                    for b, e in table[g].terms.items()
                ),
            )
        head, tail = key[:leg], key[leg + 1 :]
        _accumulate(
            out, ((head + split + tail, c if d == one else c * d) for split, d in image.items())
        )
    return TensorPoly(out)


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
    a = p.algebra
    one = a.field.one
    delta = p.delta
    # eps as 0-leg tensors, so that _on_leg applies it as it applies Delta
    eps = {g: TensorPoly({(): e}) for g, e in p.eps.items()}
    items: list[CheckItem] = []

    relations = build_relations(a)
    for label, rel in zip(_relation_labels(a), relations):
        r = TensorPoly.of(rel)
        dh = tensor_normal_form(_on_leg(delta, 2, r, 0, one), p.system)
        items.append(
            CheckItem(
                f"delta-descends {label}",
                dh.is_zero(),
                "" if dh.is_zero() else f"residue {dh!r}",
            )
        )
        eh = _on_leg(eps, 0, r, 0, one)
        items.append(
            CheckItem(
                f"eps-descends {label}",
                eh.is_zero(),
                "" if eh.is_zero() else f"residue {eh.terms[()]}",
            )
        )

    for g in p.gens:
        dg = delta[g]
        # (Delta (x) id) Delta(g) against (id (x) Delta) Delta(g), as 3-leg tensors
        left, right = (
            tensor_normal_form(_on_leg(delta, 2, dg, leg, one), p.system) for leg in (0, 1)
        )
        items.append(CheckItem(f"coassoc {format_genid(g)}", left == right))

        gen_nf = tensor_normal_form(TensorPoly({((g,),): one}), p.system)
        counit_ok = all(
            tensor_normal_form(_on_leg(eps, 0, dg, leg, one), p.system) == gen_nf
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
    eps = {g: TensorPoly({(): e}) for g, e in p.eps.items()}
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
            rhs = _on_leg(p.delta, 2, TensorPoly.of(eta[i][t]), 0, one)
            if not tensor_normal_form(lhs - rhs, p.system).is_zero():
                ok = False
                detail = f"component t={t + 1}"
                break
        items.append(CheckItem(f"coaction-coassoc e[{i + 1}]", ok, detail))

        counit_ok = all(
            _on_leg(eps, 0, TensorPoly.of(eta[i][s]), 0, one)
            == TensorPoly({(): one} if s == i else {})
            for s in range(n)
        )
        items.append(CheckItem(f"coaction-counit e[{i + 1}]", counit_ok))

    # the relation r[a,i,j] is the coordinate a of eta(e_i e_j) - eta(e_i) eta(e_j);
    # substituted first, its words are already in the word table
    rels = build_relations(a)
    for i in range(n):
        for j in range(n):
            ok = True
            detail = ""
            for ai in range(n):
                rel = substitute(rels[(ai * n + i) * n + j], p.system.subs)
                if not ideal_member_bounded(rel, p.system, p.degree_bound):
                    ok = False
                    detail = f"coordinate a={ai + 1}"
                    break
            items.append(CheckItem(f"coaction-mult e[{i + 1}]e[{j + 1}]", ok, detail))

    return CheckReport(items)

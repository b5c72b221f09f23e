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
from those tables, extending Delta and eps multiplicatively to words; none
of them evaluates the formulas above.
"""

from __future__ import annotations

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


def _delta_word(delta: dict[GenId, TensorPoly], w: Word, one: Scalar) -> TensorPoly:
    """Delta extended multiplicatively to a word, as the legwise product of
    the two-leg tensors of its generators; the unit tensor on the empty
    word.  A coefficient product with a factor one is not formed."""
    if not w:
        return TensorPoly.term((), (), one)
    terms = delta[w[0]].terms
    for g in w[1:]:
        terms = _accumulate(
            {},
            (
                ((a1 + b1, a2 + b2), d if c == one else c if d == one else c * d)
                for (a1, a2), c in terms.items()
                for (b1, b2), d in delta[g].terms.items()
            ),
        )
    return TensorPoly(terms)


def _delta_on_leg(
    delta: dict[GenId, TensorPoly], t: TensorPoly, leg: int, one: Scalar
) -> TensorPoly:
    """Apply Delta to one leg of t, which splits it into two legs; a split
    whose coefficient is one keeps the coefficient of t's term as it is."""
    return TensorPoly(
        _accumulate(
            {},
            (
                (legs[:leg] + split + legs[leg + 1 :], c if cc == one else c * cc)
                for legs, c in t.terms.items()
                for split, cc in _delta_word(delta, legs[leg], one).terms.items()
            ),
        )
    )


def _delta_poly(delta: dict[GenId, TensorPoly], p: NCPoly, one: Scalar) -> TensorPoly:
    """Delta of p: p as a tensor with one leg, split by Delta."""
    return _delta_on_leg(delta, TensorPoly({(w,): c for w, c in p.terms.items()}), 0, one)


def _eps_word(eps: dict[GenId, Scalar], w: Word, one: Scalar) -> Scalar:
    """eps extended multiplicatively to a word: the product of the table's
    values on its generators, one on the empty word.  A product with a
    factor one is not formed."""
    out = one
    for g in w:
        e = eps[g]
        if not e:
            return e
        out = e if out == one else out if e == one else out * e
    return out


def _eps_poly(eps: dict[GenId, Scalar], p: NCPoly, one: Scalar, zero: Scalar) -> Scalar:
    """eps of p, from the table on the generators."""
    out = zero
    for w, c in p.terms.items():
        e = _eps_word(eps, w, one)
        if e:
            out = out + (c if e == one else c * e)
    return out


def _eps_on_leg(eps: dict[GenId, Scalar], t: TensorPoly, leg: int, one: Scalar) -> NCPoly:
    """Apply eps to one leg of a two-leg tensor, which leaves the other leg;
    a leg whose eps is one keeps the coefficient of t's term as it is."""
    out: dict[Word, Scalar] = {}
    for legs, c in t.terms.items():
        e = _eps_word(eps, legs[leg], one)
        if e:
            _accumulate(out, ((legs[1 - leg], c if e == one else c * e),))
    return NCPoly(out)


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
    one, zero = a.field.one, a.field.zero
    delta, eps = p.delta, p.eps
    items: list[CheckItem] = []

    relations = build_relations(a)
    for label, rel in zip(_relation_labels(a), relations):
        dh = tensor_normal_form(_delta_poly(delta, rel, one), p.system)
        items.append(
            CheckItem(
                f"delta-descends {label}",
                dh.is_zero(),
                "" if dh.is_zero() else f"residue {dh!r}",
            )
        )
        eh = _eps_poly(eps, rel, one, zero)
        items.append(
            CheckItem(
                f"eps-descends {label}",
                not eh,
                "" if not eh else f"residue {eh}",
            )
        )

    for g in p.gens:
        dg = delta[g]
        # (Delta (x) id) Delta(g) against (id (x) Delta) Delta(g), as 3-leg tensors
        left, right = (
            tensor_normal_form(_delta_on_leg(delta, dg, leg, one), p.system) for leg in (0, 1)
        )
        items.append(CheckItem(f"coassoc {format_genid(g)}", left == right))

        gen_nf = p.system.normal_form(NCPoly.gen(g, one))
        counit_ok = all(
            p.system.normal_form(_eps_on_leg(eps, dg, leg, one)) == gen_nf for leg in (0, 1)
        )
        items.append(CheckItem(f"counit {format_genid(g)}", counit_ok))

    return CheckReport(items)


def check_comodule(p: Presentation) -> CheckReport:
    """Verify that the tabulated coaction is a coassociative, counital
    algebra map modulo the relation ideal at the certified degree."""
    a = p.algebra
    n = a.n
    one, zero = a.field.one, a.field.zero
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
            rhs = _delta_poly(p.delta, eta[i][t], one)
            if not tensor_normal_form(lhs - rhs, p.system).is_zero():
                ok = False
                detail = f"component t={t + 1}"
                break
        items.append(CheckItem(f"coaction-coassoc e[{i + 1}]", ok, detail))

        counit_vec = tuple(_eps_poly(p.eps, eta[i][s], one, zero) for s in range(n))
        want = tuple(one if s == i else zero for s in range(n))
        items.append(CheckItem(f"coaction-counit e[{i + 1}]", counit_vec == want))

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

"""The presentation of the universal coacting bialgebra a(A) from structure
constants, plus machine verification of the bialgebra and comodule axioms at
the degree completion certified.

For an n-dimensional algebra A the defining relations on generators x[s,i] are

    sum_u tau[i,j,u] x[a,u]  =  sum_{s,t} tau[s,t,a] x[s,i] x[t,j]
    x[a,1] = delta(a,1)

for all a, i, j.  Interreduction eliminates the generators forced to scalars
(at least the whole first column) and bounded completion makes normal forms
canonical up to the requested degree.  The comultiplication, counit and the
canonical coaction are tabulated on the surviving generators:

    Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j],   eps(x[i,j]) = delta(i,j),
    eta(e_i) = sum_s e_s (x) x[s,i].

The checkers extend Delta multiplicatively from one table on all n^2
generators, and eps from its value on words: 1 when every generator is
diagonal, else 0.
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


def _subst_gen(system: RewriteSystem, g: GenId, one: Scalar) -> NCPoly:
    """Image of a generator after eliminating the substituted ones."""
    rep = system.subs.get(g)
    if rep is not None:
        return rep
    return NCPoly.gen(g, one)


def _delta_formula(system: RewriteSystem, n: int, g: GenId, one: Scalar) -> TensorPoly:
    """Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j], with the substitutions applied."""
    i, j = g
    return sum(
        (
            TensorPoly.of(_subst_gen(system, (i, s), one), _subst_gen(system, (s, j), one))
            for s in range(1, n + 1)
        ),
        TensorPoly(),
    )


@dataclass(eq=True)
class Presentation:
    """The computable face of a(A): surviving generators, substitutions and
    rules, Delta/eps tables, and the canonical coaction table."""

    algebra: FinAlgebra
    degree_bound: int
    gens: tuple[GenId, ...]
    system: RewriteSystem
    delta: dict[GenId, TensorPoly] = field(default_factory=dict)
    eps: dict[GenId, Scalar] = field(default_factory=dict)
    # coaction[i] lists (s, poly) with eta(e_{i+1}) = sum_s e_{s+1} (x) poly
    coaction: tuple[tuple[tuple[int, NCPoly], ...], ...] = ()

    def eliminated(self) -> tuple[GenId, ...]:
        return self.system.eliminated()


def build_presentation(a: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Presentation:
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    system = complete(interreduce(build_relations(a)), degree_bound)
    gens = tuple(g for g in _all_gens(a.n) if g not in system.subs)
    n = a.n
    one = a.field.one
    delta = {g: _delta_formula(system, n, g, one) for g in gens}
    eps = {g: one if g[0] == g[1] else a.field.zero for g in gens}

    coaction = []
    for i in range(1, n + 1):
        entries = []
        for s in range(1, n + 1):
            poly = _subst_gen(system, (s, i), one)
            if not poly.is_zero():
                entries.append((s - 1, poly))
        coaction.append(tuple(entries))
    return Presentation(a, degree_bound, gens, system, delta, eps, tuple(coaction))


def _delta_table(p: Presentation) -> dict[GenId, TensorPoly]:
    """Delta of all n^2 generators: p's table on the surviving ones, the
    formula with the substitutions applied on the eliminated ones."""
    one = p.algebra.field.one
    table = {g: _delta_formula(p.system, p.algebra.n, g, one) for g in p.eliminated()}
    table.update(p.delta)
    return table


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


def _eps_word(w: Word) -> bool:
    """eps(w): 1 if every generator of w is diagonal, else 0."""
    return all(s == i for s, i in w)


def _eps_poly(p: NCPoly, zero: Scalar) -> Scalar:
    return sum((c for w, c in p.terms.items() if _eps_word(w)), zero)


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
    """Verify that Delta and eps are well defined on the quotient and satisfy
    the coalgebra axioms on the surviving generators."""
    a = p.algebra
    one = a.field.one
    delta = _delta_table(p)
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
        eh = _eps_poly(rel, a.field.zero)
        items.append(
            CheckItem(
                f"eps-descends {label}",
                not eh,
                "" if not eh else f"residue {eh}",
            )
        )

    for g in p.gens:
        dg = p.delta[g]
        # (Delta (x) id) Delta(g) against (id (x) Delta) Delta(g), as 3-leg tensors
        left, right = (
            tensor_normal_form(_delta_on_leg(delta, dg, leg, one), p.system) for leg in (0, 1)
        )
        items.append(CheckItem(f"coassoc {format_genid(g)}", left == right))

        gen_nf = p.system.normal_form(NCPoly.gen(g, one))
        lcounit = _accumulate({}, ((w2, c) for (w1, w2), c in dg.terms.items() if _eps_word(w1)))
        rcounit = _accumulate({}, ((w1, c) for (w1, w2), c in dg.terms.items() if _eps_word(w2)))
        counit_ok = (
            p.system.normal_form(NCPoly(lcounit)) == gen_nf
            and p.system.normal_form(NCPoly(rcounit)) == gen_nf
        )
        items.append(CheckItem(f"counit {format_genid(g)}", counit_ok))

    return CheckReport(items)


def check_comodule(p: Presentation) -> CheckReport:
    """Verify that the canonical coaction is a coassociative, counital
    algebra map modulo the relation ideal at the certified degree."""
    a = p.algebra
    n = a.n
    one, zero = a.field.one, a.field.zero
    delta = _delta_table(p)
    items: list[CheckItem] = []

    unit_entry = p.coaction[0]
    unit_ok = unit_entry == ((0, NCPoly.constant(one)),)
    items.append(CheckItem("coaction-unit e[1]", unit_ok))

    for i in range(1, n + 1):
        xi = {s: _subst_gen(p.system, (s, i), one) for s in range(1, n + 1)}
        ok = True
        detail = ""
        for t in range(1, n + 1):
            # sum_s x[t,s] (x) x[s,i] against Delta of the image of x[t,i]
            rhs = _delta_poly(delta, xi[t], one)
            if not tensor_normal_form(delta[(t, i)] - rhs, p.system).is_zero():
                ok = False
                detail = f"component t={t}"
                break
        items.append(CheckItem(f"coaction-coassoc e[{i}]", ok, detail))

        counit_vec = tuple(_eps_poly(xi[s], zero) for s in range(1, n + 1))
        want = tuple(one if s == i else zero for s in range(1, n + 1))
        items.append(CheckItem(f"coaction-counit e[{i}]", counit_vec == want))

    # the relation r[a,i,j], substituted, is the coordinate a of
    # eta(e_i e_j) - eta(e_i) eta(e_j)
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

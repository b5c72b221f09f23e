"""Presentations of the universal coacting bialgebra a(A) (and its two-algebra
variant a(A,B)) from structure constants, plus machine verification of the
bialgebra and comodule axioms at bounded degree.

For an n-dimensional algebra A the defining relations on generators x[s,i] are

    sum_u tau[i,j,u] x[a,u]  =  sum_{s,t} tau[s,t,a] x[s,i] x[t,j]
    x[a,1] = delta(a,1)

for all a, i, j.  Interreduction eliminates the generators forced to scalars
(at least the whole first column) and bounded completion makes normal forms
canonical up to the requested degree.  The comultiplication, counit and the
canonical coaction are tabulated on the surviving generators:

    Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j],   eps(x[i,j]) = delta(i,j),
    eta(e_i) = sum_s e_s (x) x[s,i].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import FinAlgebra, require_same_field
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


def build_measuring_relations(a: FinAlgebra, b: FinAlgebra) -> list[NCPoly]:
    """Raw defining relations of a(A,B): dim(A)*dim(B)^2 product relations in
    lexicographic (a, i, j) emission order, then dim(A) unit relations."""
    require_same_field(a, b)
    n, m = a.n, b.n
    one = a.field.one
    rels: list[NCPoly] = []
    for ai in range(1, n + 1):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                terms: dict[Word, Scalar] = {}
                for u, c in b.basis_product(i - 1, j - 1).items():
                    w: Word = ((ai, u + 1),)
                    terms[w] = terms.get(w, a.field.zero) + c
                for (s, t, c) in a.pairs_with_result(ai - 1):
                    w = ((s + 1, i), (t + 1, j))
                    terms[w] = terms.get(w, a.field.zero) - c
                rels.append(NCPoly(terms))
    for ai in range(1, n + 1):
        terms = {((ai, 1),): one}
        if ai == 1:
            terms[()] = -one
        rels.append(NCPoly(terms))
    return rels


def build_relations(a: FinAlgebra) -> list[NCPoly]:
    """Raw defining relations of a(A): n^3 product relations plus n unit ones."""
    return build_measuring_relations(a, a)


def _all_gens(n: int, m: int) -> list[GenId]:
    return sorted(((s, i) for s in range(1, n + 1) for i in range(1, m + 1)), key=gen_key)


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


@dataclass(eq=True)
class MeasuringPresentation:
    """Presentation of a(A,B); no coalgebra structure is attached."""

    algebra_a: FinAlgebra
    algebra_b: FinAlgebra
    degree_bound: int
    gens: tuple[GenId, ...]
    system: RewriteSystem

    def eliminated(self) -> tuple[GenId, ...]:
        return self.system.eliminated()


def build_measuring(a: FinAlgebra, b: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> MeasuringPresentation:
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    system = complete(interreduce(build_measuring_relations(a, b)), degree_bound)
    gens = tuple(g for g in _all_gens(a.n, b.n) if g not in system.subs)
    return MeasuringPresentation(a, b, degree_bound, gens, system)


def build_presentation(a: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Presentation:
    measuring = build_measuring(a, a, degree_bound)
    system, gens = measuring.system, measuring.gens
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


class _CoalgebraOps:
    """Delta/eps extended multiplicatively to the whole free algebra, with the
    substitution map applied to every generator image."""

    def __init__(self, algebra: FinAlgebra, system: RewriteSystem):
        self.n = algebra.n
        self.field = algebra.field
        self.system = system
        self._delta_gen: dict[GenId, TensorPoly] = {}

    @classmethod
    def of_presentation(cls, p: Presentation) -> "_CoalgebraOps":
        """Operations that start from the Delta table p already holds."""
        ops = cls(p.algebra, p.system)
        ops._delta_gen.update(p.delta)
        return ops

    def delta_of_gen(self, g: GenId) -> TensorPoly:
        t = self._delta_gen.get(g)
        if t is None:
            t = self._delta_gen[g] = _delta_formula(self.system, self.n, g, self.field.one)
        return t

    def delta_of_word(self, w: Word) -> TensorPoly:
        out = TensorPoly.term((), (), self.field.one)
        for g in w:
            out = out * self.delta_of_gen(g)
        return out

    def delta_of_poly(self, p: NCPoly) -> TensorPoly:
        out = TensorPoly()
        for w, c in p.terms.items():
            out = out + self.delta_of_word(w).scale(c)
        return out

    def delta_on_leg(self, t: TensorPoly, leg: int) -> TensorPoly:
        """Apply Delta to one leg of t, which splits it into two legs."""
        return TensorPoly(
            _accumulate(
                {},
                (
                    (legs[:leg] + split + legs[leg + 1 :], c * cc)
                    for legs, c in t.terms.items()
                    for split, cc in self.delta_of_word(legs[leg]).terms.items()
                ),
            )
        )

    def eps_of_word(self, w: Word) -> Scalar:
        out = self.field.one
        for (s, i) in w:
            if s != i:
                return self.field.zero
        return out

    def eps_of_poly(self, p: NCPoly) -> Scalar:
        out = self.field.zero
        for w, c in p.terms.items():
            e = self.eps_of_word(w)
            if e:
                out = out + c * e
        return out


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


def _certified_degree(p: Presentation, degree_bound: int | None) -> int:
    """The degree to check at (the presentation's own by default), refused
    when it exceeds the degree completion certified."""
    d = degree_bound if degree_bound is not None else p.degree_bound
    if p.degree_bound < d:
        raise ValueError(f"presentation certified to degree {p.degree_bound}, need {d}")
    return d


def check_bialgebra(p: Presentation, degree_bound: int | None = None) -> CheckReport:
    """Verify that Delta and eps are well defined on the quotient and satisfy
    the coalgebra axioms on the surviving generators."""
    _certified_degree(p, degree_bound)
    a = p.algebra
    ops = _CoalgebraOps.of_presentation(p)
    items: list[CheckItem] = []

    relations = build_relations(a)
    for label, rel in zip(_relation_labels(a), relations):
        dh = tensor_normal_form(ops.delta_of_poly(rel), p.system)
        items.append(
            CheckItem(
                f"delta-descends {label}",
                dh.is_zero(),
                "" if dh.is_zero() else f"residue {dh!r}",
            )
        )
        eh = ops.eps_of_poly(rel)
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
        left, right = (tensor_normal_form(ops.delta_on_leg(dg, leg), p.system) for leg in (0, 1))
        items.append(CheckItem(f"coassoc {format_genid(g)}", left == right))

        gen_nf = p.system.normal_form(NCPoly.gen(g, a.field.one))
        lcounit = NCPoly()
        rcounit = NCPoly()
        for (w1, w2), c in dg.terms.items():
            e1 = ops.eps_of_word(w1)
            if e1:
                lcounit = lcounit + NCPoly({w2: c * e1})
            e2 = ops.eps_of_word(w2)
            if e2:
                rcounit = rcounit + NCPoly({w1: c * e2})
        counit_ok = (
            p.system.normal_form(lcounit) == gen_nf
            and p.system.normal_form(rcounit) == gen_nf
        )
        items.append(CheckItem(f"counit {format_genid(g)}", counit_ok))

    return CheckReport(items)


def check_comodule(p: Presentation, degree_bound: int | None = None) -> CheckReport:
    """Verify that the canonical coaction is a coassociative, counital
    algebra map modulo the relation ideal at the certified degree."""
    d = _certified_degree(p, degree_bound)
    a = p.algebra
    n = a.n
    one, zero = a.field.one, a.field.zero
    ops = _CoalgebraOps.of_presentation(p)
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
            lhs = ops.delta_of_gen((t, i))
            rhs = ops.delta_of_poly(_subst_gen(p.system, (t, i), one))
            if not tensor_normal_form(lhs - rhs, p.system).is_zero():
                ok = False
                detail = f"component t={t}"
                break
        items.append(CheckItem(f"coaction-coassoc e[{i}]", ok, detail))

        counit_vec = tuple(ops.eps_of_poly(xi[s]) for s in range(1, n + 1))
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
                if not ideal_member_bounded(rel, p.system, d).member:
                    ok = False
                    detail = f"coordinate a={ai + 1}"
                    break
            items.append(CheckItem(f"coaction-mult e[{i + 1}]e[{j + 1}]", ok, detail))

    return CheckReport(items)

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
eliminated).  The presentation holds Delta and eps on all n^2 generators and
eta's coordinates x[s,i] -> eta[s,i] only as int tables of 2-, 0- and 1-leg
tensors (``ncpoly._on_leg`` applies them), keyed by each generator's
character and with ncpoly's str words (``ncpoly._encode``), Delta formed
once from the system's int substitutions.  The checkers read those tables
as ints, with no read-back, and none of them evaluates the formulas above.
Each axiom is a zero test of an int normal form, which does not depend on
scale; only a failing item's detail and coaction-coassoc's one difference
per (i, t), for ``tensor_normal_form``, become field scalars, as do the
views ``Presentation.delta``, ``eps`` and ``coaction``, built when read and
kept by nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra
from .fields import Scalar
from .ncpoly import (
    GenId,
    NCPoly,
    RewriteSystem,
    TensorPoly,
    _decode,
    _encode,
    _on_leg,
    _one_leg,
    _scalars,
    _sum,
    _tensor_nf,
    complete,
    format_genid,
    ideal_member_bounded,
    interreduce,
    tensor_normal_form,
)

DEFAULT_DEGREE_BOUND = 4


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CheckReport:
    items: list[CheckItem]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)


def build_relations(a: FinAlgebra) -> list[NCPoly]:
    """Raw defining relations of a(A): n^3 product relations in lexicographic
    (a, i, j) emission order, then n unit relations."""
    n, one = a.n, a.field.one
    rels: list[NCPoly] = []
    for ai in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                # distinct words: x[a,u] for each u, x[s,i] x[t,j] for each (s, t)
                terms = {((ai, u + 1),): c for u, c in a.basis_product(i - 1, j - 1).items()}
                for s, t, c in a.pairs_with_result(ai - 1):
                    terms[(s + 1, i), (t + 1, j)] = -c
                rels.append(NCPoly(terms))
    for ai in range(1, n + 1):
        terms = {((ai, 1),): one}
        if ai == 1:
            terms[()] = -one
        rels.append(NCPoly(terms))
    return rels


def _chars(n: int) -> dict[GenId, str]:
    """Each generator of a(A), in precedence order, with its character in
    the int tables (see ncpoly._encode, which refuses a dimension past its
    range)."""
    return {(s, i): _encode(((s, i),)) for i in range(1, n + 1) for s in range(1, n + 1)}


def _coproduct(i: int, j: int, n: int) -> tuple[dict, int]:
    """The free Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j] as int 2-leg terms
    over den 1 (see _on_leg)."""
    return {(_encode(((i, s),)), _encode(((s, j),))): 1 for s in range(1, n + 1)}, 1


@dataclass(eq=True)
class Presentation:
    """The computable face of a(A): surviving generators, substitutions and
    rules, the raw relations (``build_relations``), and the int tables (see
    ``ncpoly._on_leg``, over the system's modulus) of Delta and eps on all
    n^2 generators and of eta, whose entry for x[s,i] is the coordinate of
    e_s in eta(e_i), each keyed by the generator's character (``_chars``).
    ``delta``, ``eps`` and ``coaction`` are their field scalar views, built
    each time they are read."""

    algebra: FinAlgebra
    degree_bound: int
    gens: tuple[GenId, ...]
    system: RewriteSystem
    relations: tuple[NCPoly, ...]
    _delta: dict[str, tuple[dict, int]]
    _eps: dict[str, tuple[dict, int]]
    _eta: dict[str, tuple[dict, int]]

    @property
    def delta(self) -> dict[GenId, TensorPoly]:
        f, m = self.algebra.field, self.system._index.modulus
        return {_decode(g)[0]: TensorPoly(_read(x, m, f.one)) for g, x in self._delta.items()}

    @property
    def eps(self) -> dict[GenId, Scalar]:
        f, m = self.algebra.field, self.system._index.modulus
        return {
            _decode(g)[0]: _read(x, m, f.one).get((), f.zero) for g, x in self._eps.items()
        }

    @property
    def coaction(self) -> tuple[tuple[tuple[int, NCPoly], ...], ...]:
        """coaction[i] lists (s, poly) with eta(e_{i+1}) = sum_s e_{s+1} (x)
        poly, for each nonzero poly."""
        n, f, m = self.algebra.n, self.algebra.field, self.system._index.modulus
        eta, x = self._eta, _chars(n)

        def poly(image: tuple) -> NCPoly:
            return NCPoly({k[0]: c for k, c in _read(image, m, f.one).items()})

        return tuple(
            tuple((s - 1, poly(eta[x[s, i]])) for s in range(1, n + 1) if eta[x[s, i]][0])
            for i in range(1, n + 1)
        )


def _read(x: tuple, m: int, one: Scalar) -> dict:
    """The field scalars of x = (terms, den), int terms over modulus m (see
    ncpoly._scalars); a lone term equal to den, such as a generator's own
    image or eps = 1, reads as the field's one itself."""
    terms, d = x
    if len(terms) == 1 and d in terms.values():
        return dict.fromkeys(map(_decode, terms), one)
    return _scalars(terms, d, m)


def build_presentation(a: FinAlgebra, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Presentation:
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    n, chars = a.n, _chars(a.n)
    relations = tuple(build_relations(a))
    system = complete(interreduce(relations), degree_bound)
    subs, m = system._subs, system._index.modulus
    # each generator's int image in the quotient: its substitution, or itself
    eta = {c: subs[c] if c in subs else ({(c,): 1}, 1) for c in chars.values()}
    gens = tuple(g for g, c in chars.items() if c not in subs)
    # Delta(x[i,j]) = sum_s x[i,s] (x) x[s,j], substituted on both legs
    delta = {
        c: _on_leg(subs, 1, _on_leg(subs, 1, _coproduct(i, j, n), 0, m), 1, m)
        for (i, j), c in chars.items()
    }
    eps = {c: ({(): 1} if i == j else {}, 1) for (i, j), c in chars.items()}
    return Presentation(a, degree_bound, gens, system, relations, delta, eps, eta)


def _minus(x: tuple, y: tuple) -> tuple[dict, int]:
    """(ints, d) of x - y, for x and y as (terms, den), over the lcm d of
    the dens."""
    (a, da), (b, db) = x, y
    return _sum([(a.items(), da), ([(k, -c) for k, c in b.items()], db)], 0)


def _is_unit_vector(coords: list[tuple], i: int, unit: tuple) -> bool:
    """Is each coordinate s (from 1) of coords, int (terms, den), [s = i]
    times the unit term?  Over GF(p) both sides are residues with den 1."""
    return all(
        not _minus(x, ({unit: 1} if s == i else {}, 1))[0] for s, x in enumerate(coords, 1)
    )


def _relation_labels(a: FinAlgebra) -> list[str]:
    idx = range(1, a.n + 1)
    labels = [f"r[{ai},{i},{j}]" for ai in idx for i in idx for j in idx]
    return labels + [f"r[unit,{ai}]" for ai in idx]


def check_bialgebra(p: Presentation) -> CheckReport:
    """Verify that the tabulated Delta and eps are well defined on the
    quotient and satisfy the coalgebra axioms on the surviving generators."""
    delta, eps, m = p._delta, p._eps, p.system._index.modulus
    items: list[CheckItem] = []

    for label, rel in zip(_relation_labels(p.algebra), p.relations):
        r = _one_leg(rel)
        image, den = _on_leg(delta, 2, r, 0, m)
        dh, dn = _tensor_nf(image, m, p.system)
        detail = dh and f"residue {TensorPoly(_scalars(dh, den * dn, m))!r}"
        items.append(CheckItem(f"delta-descends {label}", not dh, detail or ""))
        eh, den = _on_leg(eps, 0, r, 0, m)
        detail = eh and f"residue {_scalars(eh, den, m)[()]}"
        items.append(CheckItem(f"eps-descends {label}", not eh, detail or ""))

    for g in p.gens:
        c = _encode((g,))
        dg = delta[c]
        # NF of (Delta (x) id) Delta(g) - (id (x) Delta) Delta(g), as 3-leg tensors
        left, right = (_on_leg(delta, 2, dg, leg, m) for leg in (0, 1))
        coassoc = _tensor_nf(_minus(left, right)[0], m, p.system)[0]
        items.append(CheckItem(f"coassoc {format_genid(g)}", not coassoc))
        # NF of (eps (x) id) Delta(g) - g and of (id (x) eps) Delta(g) - g
        gen = ({(c,): 1}, 1)
        counit_ok = all(
            not _tensor_nf(_minus(_on_leg(eps, 0, dg, leg, m), gen)[0], m, p.system)[0]
            for leg in (0, 1)
        )
        items.append(CheckItem(f"counit {format_genid(g)}", counit_ok))

    return CheckReport(items)


def check_comodule(p: Presentation) -> CheckReport:
    """Verify that the tabulated coaction is a coassociative, counital
    algebra map modulo the relation ideal at the certified degree."""
    n, system, m = p.algebra.n, p.system, p.system._index.modulus
    delta, eps, eta, x = p._delta, p._eps, p._eta, _chars(n)
    # eta(e_1) = e_1 (x) 1: each coordinate x[s,1] minus [s = 1] is 0
    unit_ok = _is_unit_vector([eta[x[s, 1]] for s in range(1, n + 1)], 1, ("",))
    items = [CheckItem("coaction-unit e[1]", unit_ok)]

    def coassoc(i: int, t: int) -> bool:
        # the coordinate e_t of (eta (x) id) eta(e_i), eta on both legs of the free
        # Delta(x[t,i]), against that of (id (x) Delta) eta(e_i), Delta(eta[t, i])
        lhs = _on_leg(eta, 1, _on_leg(eta, 1, _coproduct(t, i, n), 0, m), 1, m)
        diff = _minus(lhs, _on_leg(delta, 2, eta[x[t, i]], 0, m))
        return tensor_normal_form(TensorPoly(_scalars(*diff, m)), system).is_zero()

    for i in range(1, n + 1):
        t = next((t for t in range(1, n + 1) if not coassoc(i, t)), None)
        detail = "" if t is None else f"component t={t}"
        items.append(CheckItem(f"coaction-coassoc e[{i}]", t is None, detail))
        # (eps (x) id) eta(e_i) = e_i: each coordinate e_s of it minus [s = i] is 0
        counit = [_on_leg(eps, 0, eta[x[s, i]], 0, m) for s in range(1, n + 1)]
        counit_ok = _is_unit_vector(counit, i, ())
        items.append(CheckItem(f"coaction-counit e[{i}]", counit_ok))

    # the relation r[a,i,j] is the coordinate a of eta(e_i e_j) - eta(e_i) eta(e_j);
    # normal_form substitutes its eliminated generators
    def mult(ai: int, i: int, j: int) -> bool:
        return ideal_member_bounded(p.relations[(ai * n + i) * n + j], system, p.degree_bound)

    for i in range(n):
        for j in range(n):
            ai = next((ai for ai in range(n) if not mult(ai, i, j)), None)
            detail = "" if ai is None else f"coordinate a={ai + 1}"
            items.append(CheckItem(f"coaction-mult e[{i + 1}]e[{j + 1}]", ai is None, detail))

    return CheckReport(items)

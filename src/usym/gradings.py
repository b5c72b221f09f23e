"""G-gradings of a finite-dimensional algebra via bialgebra-map points.

A point is a family {P^sigma} of n x n matrices, one per group element, with
theta(x[s,i]) = sum_sigma P^sigma[s][i] sigma in k[G].  Such a theta is the
coaction rho(e_i) = sum_s e_s (x) theta(x[s,i]) of k[G] on A, and the
bialgebra-map conditions say that rho is counital (the family sums to the
identity), coassociative (its members are orthogonal idempotents) and a
unital algebra map A -> A (x) k[G], which is_algebra_map tests (Montgomery,
Hopf Algebras and Their Actions on Rings, 1993, 4.1: kG-comodule algebras
are the G-graded algebras).  The induced grading takes A_sigma = im P^sigma;
conjugating a point by an invertible point of a(A) moves the grading by the
matching automorphism, and the conjugation orbits are exactly the
isomorphism classes of gradings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, is_algebra_map
from .endomorphisms import (
    DEFAULT_MAX_SEARCH,
    EndoMonoid,
    _require_prime_field,
    _require_search_size,
    automorphism_group,
    search_points,
)
from .groups import FiniteGroup
from .linalg import (
    Matrix,
    Subspace,
    _residue_ops,
    column_space,
    count_subspaces,
    enumerate_subspaces,
)
from .unionfind import orbit_partition


@dataclass(frozen=True)
class GradingPoint:
    """One matrix per group element, in the group's element order."""

    matrices: tuple[Matrix, ...]

    def sort_key(self):
        return tuple(m.residues for m in self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)


class Grading:
    """Support map: group element index -> nonzero homogeneous component."""

    __slots__ = ("ambient", "order", "components")

    def __init__(self, ambient: int, order: int, components: dict[int, Subspace]):
        self.ambient = ambient
        self.order = order
        self.components = {k: v for k, v in sorted(components.items()) if not v.is_zero()}

    def component(self, sigma: int) -> Subspace | None:
        return self.components.get(sigma)

    def sort_key(self):
        return tuple((k, v.residues) for k, v in self.components.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grading)
            and other.ambient == self.ambient
            and other.order == self.order
            and other.components == self.components
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.order, tuple(self.components.items())))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}: {v!r}" for k, v in self.components.items())
        return f"Grading({parts})"


def _tensor_group_algebra(a: FinAlgebra, g: FiniteGroup) -> tuple[FinAlgebra, list[int]]:
    """A (x) k[G] on the basis e_s (x) sigma, in blocks of n, with
    (e_i (x) sigma)(e_j (x) tau) = (e_i e_j) (x) sigma tau, and the block
    order: G's identity first, so that e_1 (x) e is basis index 0, the unit."""
    n, e = a.n, g.identity
    order = [e] + [sigma for sigma in range(g.order) if sigma != e]
    block = {sigma: k * n for k, sigma in enumerate(order)}
    tau = {
        (block[sg] + i, block[tg] + j, block[g.mul(sg, tg)] + s): c
        for (i, j, s), c in a.tau.items() for sg in order for tg in order
    }
    return FinAlgebra(a.field, n * g.order, tau), order


def is_grading_point(a: FinAlgebra, g: FiniteGroup, point: GradingPoint) -> bool:
    """The one grading-point test: the coaction rho(e_i) =
    sum_{s,sigma} P^sigma[s][i] e_s (x) sigma is counital (the P^sigma sum to
    the identity) and coassociative (they are orthogonal idempotents), both
    checked on their residues (see linalg._residue_ops), and is an algebra map
    A -> A (x) k[G]: is_algebra_map on the P^sigma stacked in the blocks of
    _tensor_group_algebra, which tests the unit column, then the relations.
    A (x) k[G] is built on the first test for G and kept on A, so that
    enumerate_points, which re-checks every point it found, builds it once."""
    m, n = g.order, a.n
    if len(point.matrices) != m:
        raise ValueError(f"point has {len(point.matrices)} matrices, group order is {m}")
    for mat in point.matrices:
        if mat.nrows != n or mat.ncols != n:
            raise ValueError("matrix size does not match the algebra dimension")
        if mat.field != a.field:
            raise ValueError("grading point and algebra must share one field")
    P, reduce = [mat.residues for mat in point.matrices], _residue_ops(a.field).reduce

    for s in range(n):
        if reduce([sum(mat[s][i] for mat in P) for i in range(n)]) != [int(s == i) for i in range(n)]:
            return False

    columns = [list(zip(*mat)) for mat in P]
    for s in range(m):
        for t in range(m):
            for r in range(n):
                row = reduce([sum(x * y for x, y in zip(P[s][r], col)) for col in columns[t]])
                if row != list(P[s][r] if s == t else (0,) * n):
                    return False

    if g not in a._graded:
        a._graded[g] = _tensor_group_algebra(a, g)
    ag, order = a._graded[g]
    stacked = Matrix._of_residues(
        a.field, [row for sigma in order for row in point.matrices[sigma].residues]
    )
    return is_algebra_map(a, ag, stacked)


def grading_from_point(a: FinAlgebra, g: FiniteGroup, point: GradingPoint) -> Grading:
    """A_sigma = im P^sigma (the simultaneous eigenspace of the family)."""
    components = {
        sigma: column_space(mat)
        for sigma, mat in enumerate(point.matrices)
        if any(any(row) for row in mat.residues)
    }
    return Grading(a.n, g.order, components)


def validate_grading(a: FinAlgebra, g: FiniteGroup, grading: Grading) -> bool:
    """Direct-sum and multiplicativity checks by exact linear algebra, on the
    components' residue rows: each e_u e_v is formed from the algebra's
    residue table (FinAlgebra._residue_products), as in is_algebra_map."""
    if grading.ambient != a.n or grading.order != g.order:
        raise ValueError("grading shape does not match algebra/group")
    total = Subspace.zero(a.field, a.n)
    dim_sum = 0
    for comp in grading.components.values():
        new = total.sum(comp)
        if new.dim != total.dim + comp.dim:
            return False
        total = new
        dim_sum += comp.dim
    if dim_sum != a.n:
        return False
    ident = grading.component(g.identity)
    if ident is None or not ident.contains(a.unit):
        return False
    ops = _residue_ops(a.field)
    prods, n = a._residue_products, a.n
    support = {
        sigma: [[(i, x) for i, x in enumerate(row) if x] for row in comp.residues]
        for sigma, comp in grading.components.items()
    }
    for sigma, u_comp in support.items():
        for tau, v_comp in support.items():
            target = grading.component(g.mul(sigma, tau))
            for u in u_comp:
                for v in v_comp:
                    acc = [0] * n
                    for i, x in u:
                        for j, y in v:
                            for s, c in prods.get((i, j), ()):
                                acc[s] += c * x * y
                    prod = ops.reduce(acc)
                    if target is None:
                        if any(prod):
                            return False
                    elif not target._has(prod, ops.submul):
                        return False
    return True


def _projections(field, parts: list[tuple[int, Subspace]]) -> dict[int, Matrix]:
    """Projections onto each part along the sum of the others: with B the
    matrix whose columns are all the parts' residue rows, P^sigma is B's
    columns for sigma times the matching rows of B^-1."""
    basis = Matrix._of_residues(field, [v for _, comp in parts for v in comp.residues])
    binv = basis.transpose().inverse()
    out: dict[int, Matrix] = {}
    start = 0
    for sigma, comp in parts:
        stop = start + comp.dim
        cols = Matrix._of_residues(field, comp.residues).transpose()
        out[sigma] = cols * Matrix._of_residues(field, binv.residues[start:stop])
        start = stop
    return out


def point_from_grading(a: FinAlgebra, g: FiniteGroup, grading: Grading) -> GradingPoint:
    """P^sigma = projection onto A_sigma along the complementary sum."""
    if not validate_grading(a, g, grading):
        raise ValueError("not a valid grading")
    projections = _projections(a.field, list(grading.components.items()))
    zeromat = Matrix.zeros(a.field, a.n, a.n)
    mats = tuple(projections.get(sigma, zeromat) for sigma in range(g.order))
    return GradingPoint(mats)


def enumerate_points(
    a: FinAlgebra, g: FiniteGroup, max_search: int = DEFAULT_MAX_SEARCH
) -> tuple[GradingPoint, ...]:
    """All bialgebra-map points over a prime field, canonically sorted: the
    points search over G with the counit and comultiplication conditions.
    Each condition is one equation, keyed by the cells P[s][i][k] it names
    (see search_points).  The counit's is linear, so it solves an entry's
    last coefficient; a coproduct's has degree 2 and can solve any cell it
    does not square.  A solved value counts as one value tried."""
    _require_prime_field(a)
    n, m = a.n, g.order

    def counit(s: int, i: int) -> dict:
        # the coefficients of P[s][i] sum to eps(x[s,i]) = delta(s, i)
        eq = {((s, i, k),): 1 for k in range(m)}
        eq[()] = -int(s == i)
        return eq

    def coproduct(s: int, i: int, sg: int, tg: int) -> dict:
        # sum_t P^sigma[s,t] P^tau[t,i] - delta(sigma, tau) P^sigma[s,i]
        eq = {((s, t, sg), (t, i, tg)): 1 for t in range(n)}
        if sg == tg:
            eq[(s, i, sg),] = -1
        return eq

    entries = [(s, i) for s in range(n) for i in range(n)]
    conditions = [[counit(s, i)] for s, i in entries] + [
        [coproduct(s, i, sg, tg)] for s, i in entries for sg in range(m) for tg in range(m)
    ]
    found = search_points(a, g, conditions, max_search, "grading point enumeration")
    points = sorted((GradingPoint(mats) for mats in found), key=lambda pt: pt.sort_key())
    if not all(is_grading_point(a, g, pt) for pt in points):
        raise RuntimeError("search returned a family that is not a grading point")
    return tuple(points)


def _decompositions(a: FinAlgebra, g: FiniteGroup):
    """Ordered tuples of independent subspaces, one per group element (zero
    components dropped), whose direct sum is the whole space."""
    fld = _require_prime_field(a)
    n, m = a.n, g.order
    all_subspaces = list(enumerate_subspaces(fld, n))

    def rec(sigma: int, chosen: list[tuple[int, Subspace]], total: Subspace):
        if sigma == m:
            if total.dim == n:
                support = [s for s, _ in chosen]
                comps = [c for _, c in chosen]
                yield support, comps
            return
        for sub in all_subspaces:
            if sub.is_zero():
                yield from rec(sigma + 1, chosen, total)
                continue
            if total.dim + sub.dim > n:
                continue
            merged = total.sum(sub)
            if merged.dim != total.dim + sub.dim:
                continue
            chosen.append((sigma, sub))
            yield from rec(sigma + 1, chosen, merged)
            chosen.pop()

    yield from rec(0, [], Subspace.zero(fld, n))


def enumerate_gradings_oracle(
    a: FinAlgebra, g: FiniteGroup, max_search: int = DEFAULT_MAX_SEARCH
) -> tuple[Grading, ...]:
    """All G-gradings found directly from the definition: ordered direct-sum
    decompositions checked for multiplicativity.  No bialgebra machinery."""
    fld = _require_prime_field(a)
    _require_search_size(
        count_subspaces(fld.characteristic, a.n) ** g.order, max_search, "grading enumeration"
    )
    out = []
    for support, comps in _decompositions(a, g):
        grading = Grading(a.n, g.order, dict(zip(support, comps)))
        if validate_grading(a, g, grading):
            out.append(grading)
    out.sort(key=lambda gr: gr.sort_key())
    return tuple(out)


def conjugate_point(point: GradingPoint, m: Matrix, minv: Matrix) -> GradingPoint:
    """The point g * theta * g^{-1}: matrices M P^sigma M^{-1}, for the
    inverse minv of M."""
    return GradingPoint(tuple(m * mat * minv for mat in point.matrices))


def apply_automorphism(grading: Grading, m: Matrix) -> Grading:
    """Move a grading along an automorphism: A'_sigma = w(A_sigma)."""
    return Grading(
        grading.ambient,
        grading.order,
        {sigma: comp.image_under(m) for sigma, comp in grading.components.items()},
    )


@dataclass
class ClassifyResult:
    automorphisms: EndoMonoid
    point_orbits: tuple[tuple[int, ...], ...]
    grading_orbits: tuple[tuple[int, ...], ...]  # of the distinct induced gradings
    correspondence_ok: bool  # points -> gradings is one-to-one and maps orbits onto orbits

    @property
    def class_count(self) -> int:
        return len(self.point_orbits)

    @property
    def counts_agree(self) -> bool:
        return len(self.point_orbits) == len(self.grading_orbits)


def classify(
    a: FinAlgebra, points: tuple, induced: tuple, max_search: int = DEFAULT_MAX_SEARCH
) -> ClassifyResult:
    """The isomorphism classes of gradings, read off the points and Aut: the
    orbits of the points under conjugation by Aut, and Aut's orbits on the
    distinct gradings the points induce (induced[k] = grading_from_point of
    points[k]).  By the paper's main theorem the classes are the point
    orbits, so the two partitions must correspond: no two points induce one
    grading, and points k and l share an orbit exactly when their gradings
    do."""
    aut = automorphism_group(a, max_search)
    # each automorphism's inverse is the j with table[i][j] the identity
    inverses = [aut.points[row.index(aut.identity_index)] for row in aut.multiplication_table()]
    point_index = {pt: k for k, pt in enumerate(points)}
    point_orbits = orbit_partition(len(points), [
        lambda k, m=m, minv=minv: point_index[conjugate_point(points[k], m, minv)]
        for m, minv in zip(aut.points, inverses)
    ])
    gradings = tuple(dict.fromkeys(induced))  # the distinct ones, in point order
    grading_index = {gr: k for k, gr in enumerate(gradings)}
    grading_orbits = orbit_partition(len(gradings), [
        lambda k, m=m: grading_index[apply_automorphism(gradings[k], m)] for m in aut.points
    ])
    # equal partitions cover as many indices, so then no two points induce
    # one grading, gradings[k] is induced by points[k], and the orbits match
    return ClassifyResult(aut, point_orbits, grading_orbits, grading_orbits == point_orbits)

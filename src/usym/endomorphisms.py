"""Group-like points of a(A)'s finite dual, realized as matrices, and the
induced endomorphism monoid / automorphism group over prime fields.

A point is an n x n matrix M with M[s][i] = theta(x[s,i]).  Relation
r[a,i,j] evaluated at M is coordinate a of M(e_i e_j) - M(e_i) M(e_j), so M
is a point exactly when it is the matrix of a unit-preserving algebra map
A -> A (column i holds the image of e_i), and is_algebra_map(a, a, M) is the
point test.  The convolution product of points is the matrix product, giving
the monoid isomorphism with (End(A), o).  One search (search_points) finds
these points and the grading points of gradings.py.
It assigns int residues cell by cell in an order computed once from the
conditions' cell sets (next the cell that completes the most conditions),
checks each condition when its last cell is set, and gives a cell that a
condition solves (the counit's last coefficient, for grading points) its
one forced value instead of trying all p.

End's multiplication table is formed once, by integer matrix products mod p
on the points' residues.  Aut(A) is the group of units of End(A) (the
paper's first theorem), so automorphism_group reads the units off End's
table, {i : table[i][j] = table[j][i] = identity for some j}, and takes End's
table restricted to them as its own: no product is formed twice.  The
points are Matrix objects over the prime field, built from the search's
int residues and held as them (see linalg), so enumerating End builds no
FpElement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import mul

from .algebra import FinAlgebra, is_algebra_map, require_same_field
from .errors import InputError, SearchSizeError
from .fields import PrimeField
from .groups import FiniteGroup, cyclic_group
from .linalg import Matrix

DEFAULT_MAX_SEARCH = 1 << 24


def counit_point(a: FinAlgebra) -> Matrix:
    return Matrix.identity(a.field, a.n)


def _product_table(points: tuple[Matrix, ...], p: int) -> tuple:
    """table[i][j]: the index of points[i] * points[j], None when outside the
    set.  Products are formed on the residues mod p.  Row s of a * b is row s
    of a times b, so each right factor b multiplies each distinct row found
    among the points once."""
    rows = [pt.residues for pt in points]
    index = {r: k for k, r in enumerate(rows)}
    distinct = {row for r in rows for row in r}
    columns = []  # columns[j][i]: the index of points[i] * points[j]
    for b in rows:
        cols = tuple(zip(*b))
        times_b = {row: tuple(sum(map(mul, row, col)) % p for col in cols) for row in distinct}
        columns.append([index.get(tuple(times_b[row] for row in a)) for a in rows])
    return tuple(zip(*columns))


@dataclass
class EndoMonoid:
    algebra: FinAlgebra
    points: tuple[Matrix, ...]  # canonically sorted, duplicate-free
    identity_index: int
    # _table[i][j]: index of points[i] * points[j], None when outside the set;
    # formed from the points unless read off a larger table (units())
    _table: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = _require_prime_field(self.algebra).characteristic
        if self._table is None:
            self._table = _product_table(self.points, p)

    def __len__(self) -> int:
        return len(self.points)

    def is_closed(self) -> bool:
        return all(None not in row for row in self._table)

    def has_identity(self) -> bool:
        return self.points[self.identity_index] == counit_point(self.algebra)

    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_closed():
            raise KeyError("a product of points lies outside the set")
        return self._table

    def _invertible(self, e: int) -> list[int]:
        """The i with a j such that table[i][j] and table[j][i] are both e."""
        t = self._table
        return [
            i for i, row in enumerate(t) if any(t[j][i] == e for j, x in enumerate(row) if x == e)
        ]

    def inverses_in_set(self) -> bool:
        """Every member has a two-sided inverse inside the set (group check):
        a j with table[i][j] and table[j][i] both the counit point's index."""
        ident = counit_point(self.algebra)
        e = next((k for k, p in enumerate(self.points) if p == ident), None)
        return e is not None and len(self._invertible(e)) == len(self.points)

    def units(self) -> EndoMonoid:
        """The members with a two-sided inverse for identity_index, with this
        table restricted to them and re-indexed: no product is formed."""
        keep = self._invertible(self.identity_index)
        new = {i: k for k, i in enumerate(keep)}
        table = tuple(tuple(new.get(self._table[i][j]) for j in keep) for i in keep)
        return EndoMonoid(
            self.algebra, tuple(self.points[i] for i in keep), new[self.identity_index], table
        )


def _require_prime_field(a: FinAlgebra) -> PrimeField:
    if not isinstance(a.field, PrimeField):
        raise InputError("exhaustive enumeration is only available over prime fields")
    return a.field


def _require_search_size(needed: int, max_search: int, what: str) -> None:
    """Raises SearchSizeError when the needed candidate count exceeds the
    search bound."""
    if needed > max_search:
        raise SearchSizeError(needed, max_search, what)


def search_points(
    a: FinAlgebra, g: FiniteGroup, extra: list, max_search: int, what: str
) -> list[tuple[Matrix, ...]]:
    """All n x n matrices P over k[G], k a prime field, that satisfy the
    relations of a(A) with the convolution of k[G] and the extra conditions;
    each is returned as its matrices P^sigma in G's order.

    Column 0 is the unit of A at the identity of G.  The other cells (s, i, k),
    the coefficient of P[s][i] at the k-th element of G, are assigned in one
    order fixed up front from the conditions: the next cell is the one that
    completes the most conditions, ties going to the column-major first
    (the most-constrained static order of Freuder, JACM 1982, and Haralick &
    Elliott, AIJ 1980).  A condition is a set of cells and a predicate on P
    (read as P[s][i][k]), checked as soon as its last cell is assigned; it may
    carry a third item, a solver for that last cell: given P with the cell
    at 0, the one residue the cell can take.  A solved cell takes that value
    alone, any other cell every residue.  Every value assigned counts as one
    value tried, and more than max_search values tried raise SearchSizeError.
    """
    fld = a.field
    p, n, m = fld.characteristic, a.n, g.order

    def relation(ai: int, i: int, j: int):
        # sum_u tau[i,j,u] P[ai,u] = sum_{s,t} tau[s,t,ai] P[s,i] P[t,j]
        lhs = [(u, c.v) for u, c in a.basis_product(i, j).items()]
        rhs = [(s, t, c.v) for s, t, c in a.pairs_with_result(ai)]

        def holds(P: list) -> bool:
            acc = [0] * m
            for u, c in lhs:
                for k, x in enumerate(P[ai][u]):
                    acc[k] += c * x
            for s, t, c in rhs:
                y = P[t][j]
                for k1, x in enumerate(P[s][i]):
                    if x:
                        for k2, z in enumerate(y):
                            if z:
                                acc[g.table[k1][k2]] -= c * x * z
            return not any(v % p for v in acc)

        entries = {(ai, u) for u, _ in lhs} | {(s, i) for s, _, _ in rhs} | {(t, j) for _, t, _ in rhs}
        return {(s, i, k) for s, i in entries for k in range(m)}, holds

    # the caller's conditions come first: they are the cheaper ones
    conditions = extra + [relation(ai, i, j) for ai in range(n) for i in range(n) for j in range(n)]
    P = [[[int(s == i == 0 and k == g.identity) for k in range(m)] for i in range(n)] for s in range(n)]
    free = [(s, i, k) for i in range(1, n) for s in range(n) for k in range(m)]
    rank = {cell: r for r, cell in enumerate(free)}
    open_cells = [{c for c in cond[0] if c in rank} for cond in conditions]
    watch: dict = {cell: [] for cell in free}  # the conditions each free cell is in
    completes = dict.fromkeys(free, 0)  # the conditions a cell would complete next
    for q, cells in enumerate(open_cells):
        for c in cells:
            watch[c].append(q)
        if len(cells) == 1:
            completes[next(iter(cells))] += 1
        elif not cells and not conditions[q][1](P):
            return []
    order: list = []
    checks: list[list] = []  # checks[d]: the predicates completed by order[d]
    solvers: list = []  # solvers[d]: the forced value of order[d], or None
    left = set(free)
    while left:
        cell = max(left, key=lambda c: (completes[c], -rank[c]))
        left.remove(cell)
        order.append(cell)
        checks.append([])
        solvers.append(None)
        for q in watch[cell]:
            cells = open_cells[q]
            cells.remove(cell)
            if len(cells) == 1:
                completes[next(iter(cells))] += 1
            elif not cells:
                checks[-1].append(conditions[q][1])
                if len(conditions[q]) > 2 and solvers[-1] is None:
                    solvers[-1] = conditions[q][2]

    def candidates(d: int):
        """The values to try at order[d]: the forced one, or every residue."""
        if d < len(order) and solvers[d] is not None:
            s, i, k = order[d]
            P[s][i][k] = 0
            return iter((solvers[d](P),))
        return iter(range(p))

    visited = 0
    out = []
    tries = [candidates(0)]  # tries[d]: the values left for cell order[d]
    while tries:
        d = len(tries) - 1
        if d == len(order):  # every cell assigned
            out.append(tuple(Matrix._of_residues(fld, [[x[k] for x in row] for row in P]) for k in range(m)))
            tries.pop()
            continue
        s, i, k = order[d]
        for v in tries[d]:
            visited += 1
            if visited > max_search:
                raise SearchSizeError(visited, max_search, what)
            P[s][i][k] = v
            if all(holds(P) for holds in checks[d]):
                tries.append(candidates(d + 1))
                break
        else:
            tries.pop()
    return out


def enumerate_measuring_points(
    a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH
) -> tuple[Matrix, ...]:
    """All points of a(A): the points search over the trivial group."""
    _require_prime_field(a)
    found = search_points(a, cyclic_group(1), [], max_search, "point enumeration")
    return tuple(sorted((mats[0] for mats in found), key=lambda mt: mt.sort_key()))


def enumerate_endomorphisms(a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH) -> EndoMonoid:
    """All points of a(A) over a prime field, verified closed with identity."""
    points = enumerate_measuring_points(a, max_search)
    identity_index = next((k for k, p in enumerate(points) if p == counit_point(a)), None)
    if identity_index is None:
        raise RuntimeError("counit point missing from enumeration")
    monoid = EndoMonoid(a, points, identity_index)
    if not monoid.is_closed():
        raise RuntimeError("enumerated point set is not closed under convolution")
    return monoid


def automorphism_group(a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH) -> EndoMonoid:
    """The invertible points of a(A): the units of End(A), with End's table
    restricted to them; verified closed with inverses."""
    monoid = enumerate_endomorphisms(a, max_search)
    group = monoid.units()
    # cross-check: the units are exactly the points of nonzero determinant
    if group.points != tuple(p for p in monoid.points if p.is_invertible()):
        raise RuntimeError("units of End differ from its invertible points")
    if not group.is_closed() or not group.inverses_in_set():
        raise RuntimeError("invertible points do not form a group")
    for p in group.points:
        if not is_algebra_map(a, a, p.inverse()):
            raise RuntimeError("inverse of a point is not a point")
    return group


def enumerate_homs(
    b: FinAlgebra, a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH
) -> tuple[Matrix, ...]:
    """Brute-force enumeration of unit-preserving algebra maps B -> A over a
    prime field, by testing the multiplicativity of every candidate matrix.

    This is the direct route, independent of the relation machinery; for
    B = A its output must coincide with enumerate_measuring_points(A).
    """
    fld = _require_prime_field(a)
    require_same_field(a, b)
    _require_search_size(fld.characteristic ** (a.n * (b.n - 1)), max_search, "hom enumeration")
    elems = list(fld.elements())
    out = []
    for stacked in itertools.product(
        itertools.product(elems, repeat=a.n), repeat=b.n - 1
    ):
        cols = [a.unit] + list(stacked)
        m = Matrix.from_columns(a.field, cols)
        if is_algebra_map(b, a, m):
            out.append(m)
    out.sort(key=lambda mt: mt.sort_key())
    return tuple(out)

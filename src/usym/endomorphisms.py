"""Group-like points of the universal bialgebra's finite dual, realized as
matrices, and the induced endomorphism monoid / automorphism group over
prime fields.

A point is an n x n matrix M with M[s][i] = theta(x[s,i]); it satisfies the
evaluated defining relations, its first column is the unit vector, and under
gamma it *is* the matrix of the corresponding algebra endomorphism (column i
holds the image of e_i).  The convolution product of points is the matrix
product, giving the monoid isomorphism with (End(A), o).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import FinAlgebra, is_algebra_map, require_same_field
from .errors import InputError, SearchSizeError
from .fields import PrimeField
from .linalg import Matrix

DEFAULT_MAX_SEARCH = 1 << 24


def _relation_holds(a: FinAlgebra, b: FinAlgebra, cols: list[tuple], ai: int, i: int, j: int) -> bool:
    """The relation (ai, i, j) of a(A,B), evaluated on the matrix whose
    columns cols lists (cols[u][s] is the entry in row s, column u)."""
    zero = a.field.zero
    lhs = zero
    for u, c in b.basis_product(i, j).items():
        lhs = lhs + c * cols[u][ai]
    rhs = zero
    for (s, t, c) in a.pairs_with_result(ai):
        rhs = rhs + c * cols[i][s] * cols[j][t]
    return lhs == rhs


def is_measuring_point(a: FinAlgebra, b: FinAlgebra, m: Matrix) -> bool:
    """Does m (dim A rows, dim B columns) satisfy the evaluated relations of
    a(A,B)?  With B = A this is point membership for a(A)."""
    if m.nrows != a.n or m.ncols != b.n:
        raise ValueError(f"matrix shape {m.nrows}x{m.ncols}, expected {a.n}x{b.n}")
    if m.column(0) != a.unit:
        return False
    cols = [m.column(u) for u in range(b.n)]
    return all(
        _relation_holds(a, b, cols, ai, i, j)
        for ai in range(a.n)
        for i in range(b.n)
        for j in range(b.n)
    )


def is_point(a: FinAlgebra, m: Matrix) -> bool:
    return is_measuring_point(a, a, m)


def counit_point(a: FinAlgebra) -> Matrix:
    return Matrix.identity(a.field, a.n)


def gamma(a: FinAlgebra, m: Matrix) -> Matrix:
    """Read a point as the matrix of the endomorphism w(e_i) = sum_s M[s][i] e_s."""
    if not is_point(a, m):
        raise ValueError("matrix is not a point of a(A)")
    return m


def convolve(m1: Matrix, m2: Matrix) -> Matrix:
    """Convolution of points: (theta1 * theta2)(x[s,j]) = sum_t M1[s,t] M2[t,j]."""
    return m1 * m2


@dataclass
class EndoMonoid:
    algebra: FinAlgebra
    points: tuple[Matrix, ...]  # canonically sorted, duplicate-free
    identity_index: int
    # rows of each point -> its index in points
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {pt.rows: k for k, pt in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, m: Matrix) -> int | None:
        return self._index.get(m.rows)

    def is_closed(self) -> bool:
        return all((p * q).rows in self._index for p in self.points for q in self.points)

    def has_identity(self) -> bool:
        return self.points[self.identity_index] == counit_point(self.algebra)

    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self._index[(p * q).rows] for q in self.points) for p in self.points
        )

    def inverses_in_set(self) -> bool:
        """Every member has a two-sided inverse inside the set (group check)."""
        ident = counit_point(self.algebra)
        for p in self.points:
            if not p.is_invertible():
                return False
            inv = p.inverse()
            if inv.rows not in self._index:
                return False
            if p * inv != ident or inv * p != ident:
                return False
        return True


def _require_prime_field(a: FinAlgebra) -> PrimeField:
    if not isinstance(a.field, PrimeField):
        raise InputError("exhaustive enumeration is only available over prime fields")
    return a.field


def _require_search_size(needed: int, max_search: int | None, what: str) -> int:
    """The search bound (DEFAULT_MAX_SEARCH unless max_search is given);
    raises SearchSizeError when the needed candidate count exceeds it."""
    bound = max_search if max_search is not None else DEFAULT_MAX_SEARCH
    if needed > bound:
        raise SearchSizeError(needed, bound, what)
    return bound


def _matrix_search_field(
    a: FinAlgebra, b: FinAlgebra, max_search: int | None, what: str
) -> PrimeField:
    """The common prime field of a and b, once the p^(dim A (dim B - 1))
    matrices with the unit column fixed fit the search bound."""
    fld = _require_prime_field(a)
    require_same_field(a, b)
    _require_search_size(fld.characteristic ** (a.n * (b.n - 1)), max_search, what)
    return fld


def enumerate_measuring_points(
    a: FinAlgebra, b: FinAlgebra, max_search: int | None = None
) -> tuple[Matrix, ...]:
    """All matrices satisfying the evaluated relations of a(A,B), by a
    column-major search with early relation pruning."""
    fld = _matrix_search_field(a, b, max_search, "point enumeration")
    n, m = a.n, b.n
    elems = list(fld.elements())

    # relation (ai, i, j) is decidable once columns i, j and every u with
    # beta[i,j,u] != 0 have been assigned
    needed_cols: dict[int, list[tuple[int, int, int]]] = {c: [] for c in range(m)}
    for i in range(m):
        for j in range(m):
            us = [u for u in b.basis_product(i, j)]
            top = max([i, j] + us)
            for ai in range(n):
                needed_cols[top].append((ai, i, j))

    out: list[Matrix] = []

    def decided_hold(cols: list[tuple]) -> bool:
        """Do the relations that the last assigned column decides hold?"""
        return all(
            _relation_holds(a, b, cols, ai, i, j) for (ai, i, j) in needed_cols[len(cols) - 1]
        )

    def extend(cols: list[tuple]) -> None:
        if len(cols) == m:
            out.append(Matrix.from_columns(a.field, cols))
            return
        for candidate in itertools.product(elems, repeat=n):
            cols.append(candidate)
            if decided_hold(cols):
                extend(cols)
            cols.pop()

    cols0 = [a.unit]
    if decided_hold(cols0):
        extend(cols0)
    out.sort(key=lambda mt: mt.sort_key())
    return tuple(out)


def enumerate_endomorphisms(a: FinAlgebra, max_search: int | None = None) -> EndoMonoid:
    """All points of a(A) over a prime field, verified closed with identity."""
    points = enumerate_measuring_points(a, a, max_search)
    ident = counit_point(a)
    identity_index = next(
        (k for k, p in enumerate(points) if p == ident), None
    )
    if identity_index is None:
        raise RuntimeError("counit point missing from enumeration")
    monoid = EndoMonoid(a, points, identity_index)
    if not monoid.is_closed():
        raise RuntimeError("enumerated point set is not closed under convolution")
    return monoid


def automorphism_group(a: FinAlgebra, max_search: int | None = None) -> EndoMonoid:
    """The invertible points of a(A); verified closed with inverses."""
    monoid = enumerate_endomorphisms(a, max_search)
    invertible = tuple(p for p in monoid.points if p.is_invertible())
    ident = counit_point(a)
    identity_index = next(k for k, p in enumerate(invertible) if p == ident)
    group = EndoMonoid(a, invertible, identity_index)
    if not group.is_closed() or not group.inverses_in_set():
        raise RuntimeError("invertible points do not form a group")
    for p in invertible:
        if not is_point(a, p.inverse()):
            raise RuntimeError("inverse of a point is not a point")
    return group


def enumerate_homs(
    b: FinAlgebra, a: FinAlgebra, max_search: int | None = None
) -> tuple[Matrix, ...]:
    """Brute-force enumeration of unit-preserving algebra maps B -> A over a
    prime field, by testing the multiplicativity of every candidate matrix.

    This is the direct route, independent of the relation machinery; its
    output must coincide with enumerate_measuring_points(A, B).
    """
    fld = _matrix_search_field(a, b, max_search, "hom enumeration")
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

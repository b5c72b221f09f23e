"""Finite-dimensional unital associative algebras given by structure constants.

Basis index 0 is always the unit.  The constant table is sparse: only the
nonzero tau[i, j, s] with e_i e_j = sum_s tau[i,j,s] e_s are stored, and
products, validation and the algebra-map test walk it pair by pair.

is_algebra_map is the one point test: of the points of a(A), algebra maps
A -> A, and of the grading points, coactions A -> A (x) k[G].  Like linalg's
elimination it runs one loop for both fields: on the int residues of the map
and constants over GF(p), each coordinate reduced once, on Fractions over QQ.
validate_algebra's associativity loop runs on ints over both fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .fields import Field, PrimeField, Scalar
from .linalg import Matrix, Vector, _residue_ops


class FinAlgebra:
    __slots__ = (
        "field", "n", "labels", "tau", "_by_result", "_by_pair", "_residue_products", "_graded"
    )

    def __init__(
        self,
        field: Field,
        n: int,
        tau: Mapping[tuple[int, int, int], Scalar],
        labels: tuple[str, ...] | None = None,
    ):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.n = n
        self.labels = labels if labels is not None else tuple(f"e{i+1}" for i in range(n))
        if len(self.labels) != n:
            raise ValueError("label count does not match dimension")
        clean: dict[tuple[int, int, int], Scalar] = {}
        for (i, j, s), c in tau.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= s < n):
                raise ValueError(f"structure constant index out of range: {(i, j, s)}")
            c = field(c)
            if c:
                clean[(i, j, s)] = c
        self.tau = clean
        by_result: dict[int, list[tuple[int, int, Scalar]]] = {a: [] for a in range(n)}
        for (i, j, s), c in sorted(clean.items()):
            by_result[s].append((i, j, c))
        self._by_result = by_result
        by_pair: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j, s), c in clean.items():
            by_pair.setdefault((i, j), {})[s] = c
        self._by_pair = by_pair
        # the same products as {(i, j): [(s, tau[i,j,s]), ...]}, each constant
        # read as a residue (see linalg._residue_ops)
        read = _residue_ops(field).read
        self._residue_products = {
            ij: list(zip(prods, read(prods.values()))) for ij, prods in by_pair.items()
        }
        # A (x) k[G] for each group G a grading point of this algebra was
        # tested for, built on the first test (see gradings.is_grading_point)
        self._graded: dict = {}

    def tau_get(self, i: int, j: int, s: int) -> Scalar:
        return self.tau.get((i, j, s), self.field.zero)

    def pairs_with_result(self, a: int) -> list[tuple[int, int, Scalar]]:
        """All (i, j, c) with tau[i,j,a] = c nonzero."""
        return self._by_result[a]

    def basis_product(self, i: int, j: int) -> dict[int, Scalar]:
        """Sparse coordinates of e_i e_j, as a fresh dict."""
        return dict(self._by_pair.get((i, j), ()))

    def basis_vector(self, i: int) -> Vector:
        z, o = self.field.zero, self.field.one
        return tuple(o if k == i else z for k in range(self.n))

    @property
    def unit(self) -> Vector:
        return self.basis_vector(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinAlgebra)
            and other.field == self.field
            and other.n == self.n
            and other.tau == self.tau
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.tau.items()))))

    def __repr__(self) -> str:
        return f"FinAlgebra(n={self.n}, field={self.field!r})"


def require_same_field(a: FinAlgebra, b: FinAlgebra) -> None:
    if a.field != b.field:
        raise ValueError("both algebras must share one field")


@dataclass(frozen=True)
class Violation:
    """The first failing instance of an algebra or group axiom."""

    kind: str  # "unit", "associativity"; for a group also "shape", "identity", "inverses"
    where: tuple[int, ...]  # 1-based indices of the first failing instance
    detail: str


def validate_algebra(a: FinAlgebra) -> Violation | None:
    """Check the unit axiom and associativity; None means valid."""
    n = a.n
    one, zero = a.field.one, a.field.zero
    for j in range(n):
        for s in range(n):
            want = one if j == s else zero
            if a.tau_get(0, j, s) != want:
                return Violation("unit", (1, j + 1, s + 1), "left unit axiom fails")
            if a.tau_get(j, 0, s) != want:
                return Violation("unit", (j + 1, 1, s + 1), "right unit axiom fails")
    # (e_i e_j) e_l - e_i (e_j e_l) on the residue products, reduced once: its
    # first nonzero coordinate s is the first failing (i, j, l, s); it is zero
    # when e_i e_j and e_j e_l both are.  Over QQ every tau is taken times the
    # lcm d of the denominators, an int, which scales each difference by d^2
    # and keeps its zeros
    tau, reduce = a._residue_products, _residue_ops(a.field).reduce
    if not isinstance(a.field, PrimeField):
        d = math.lcm(*[c.denominator for c in a.tau.values()])
        tau = {
            ij: [(s, c.numerator * (d // c.denominator)) for s, c in prods]
            for ij, prods in tau.items()
        }
    for i in range(n):
        for j in range(n):
            ij = tau.get((i, j), ())
            for l in range(n):
                jl = tau.get((j, l), ())
                if not ij and not jl:
                    continue
                diff = [0] * n
                for u, c in ij:
                    for s, d in tau.get((u, l), ()):
                        diff[s] += c * d
                for u, c in jl:
                    for s, d in tau.get((i, u), ()):
                        diff[s] -= c * d
                bad = [s for s, v in enumerate(reduce(diff)) if v]
                if bad:
                    return Violation(
                        "associativity",
                        (i + 1, j + 1, l + 1, bad[0] + 1),
                        "(e_i e_j) e_l != e_i (e_j e_l)",
                    )
    return None


def is_algebra_map(b: FinAlgebra, a: FinAlgebra, f: Matrix) -> bool:
    """Is f (columns = images of B's basis in A) a unit-preserving algebra map
    B -> A?  This is the one point test: M is a point of a(A) exactly when
    is_algebra_map(A, A, M), and gradings.is_grading_point ends with it.

    For each (i, j), sum_u tau_B[i,j,u] f(e_u) - f(e_i) f(e_j) is formed on
    the columns of f's residues from both algebras' residue tables
    (FinAlgebra._residue_products, formed once per algebra) and each
    coordinate is reduced once."""
    if f.nrows != a.n or f.ncols != b.n:
        raise ValueError(f"map shape {f.nrows}x{f.ncols} does not match dim A={a.n}, dim B={b.n}")
    if a.field != b.field or f.field != a.field:
        raise ValueError("algebra map endpoints must share one field")
    cols, reduce = list(zip(*f.residues)), _residue_ops(a.field).reduce
    if cols[0] != tuple(int(k == 0) for k in range(a.n)):  # the unit of A
        return False
    support = [[(k, x) for k, x in enumerate(col) if x] for col in cols]
    tau_b, tau_a = b._residue_products, a._residue_products
    for i in range(b.n):
        for j in range(b.n):
            acc = [0] * a.n
            for u, c in tau_b.get((i, j), ()):
                for k, x in support[u]:
                    acc[k] += c * x
            for s, x in support[i]:
                for t, y in support[j]:
                    prods = tau_a.get((s, t))
                    if prods:
                        xy = x * y
                        for k, c in prods:
                            acc[k] -= c * xy
            if any(reduce(acc)):
                return False
    return True

"""Exact dense linear algebra over the package's scalar domains.

A Matrix and a Subspace both hold `residues`: their rows as int residues
over GF(p) and as the Fractions themselves over QQ (see _residue_ops).  All
their arithmetic (products, inverses, spans, membership and images) runs
on these rows, reduced mod p after each row operation, so one loop serves
both fields, and no other module converts their entries between residues
and field scalars.  Field scalars come in only through the public
constructors (Matrix(field, rows), identity, zeros, from_columns and
Subspace.from_vectors) and Subspace.contains, and go out only through det
and the views a caller reads, Matrix.rows and Subspace.basis, each built
every time it is read and kept by nothing.  Residues of two fields never
mix: they raise TypeError.  One elimination, _eliminate, gives the
inverse, the span of a Subspace and det.

A Subspace is held as its reduced row-echelon form with no zero rows,
which makes the representative unique: two subspaces are equal iff their
residue rows are identical.
"""

from __future__ import annotations

import functools
import itertools
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .fields import Field, FpElement, PrimeField, Scalar

Vector = tuple  # length-n tuple of scalars


class _Ops(NamedTuple):
    """Row arithmetic for one field, on residues (see _residue_ops)."""

    read: Callable  # a row of field scalars -> a list of residues
    inverse: Callable  # x -> 1/x
    reduce: Callable  # a row -> the row reduced
    submul: Callable  # (x, f, y) -> x - f*y, reduced
    back: Callable  # a row of residues -> a row of field scalars


@functools.cache  # one set of closures per field
def _residue_ops(field: Field) -> _Ops:
    """Over GF(p): scalars read as int residues, the inverse mod p, rows
    reduced mod p, and residues made FpElements.  Over QQ the same loops run
    on the Fractions themselves: read copies a row into a list, and reduce
    and back leave it as it is.  read coerces each scalar into the field
    first, so a scalar of another field raises TypeError."""
    if isinstance(field, PrimeField):
        p = field.characteristic
        return _Ops(
            lambda row: [x.v for x in map(field, row)],
            lambda x: pow(x, p - 2, p),
            lambda row: [x % p for x in row],
            lambda x, f, y: [(a - f * b) % p for a, b in zip(x, y)],
            lambda row: [FpElement(p, x) for x in row],
        )
    one = field.one
    return _Ops(
        lambda row: list(map(field, row)),
        lambda x: one / x,
        _same,
        lambda x, f, y: [a - f * b for a, b in zip(x, y)],
        _same,
    )


def _same(row: list) -> list:
    return row


def _require_same_field(x, y) -> None:
    if y.field != x.field:  # as a scalar of another field does
        raise TypeError(f"{y.field.spec_string()} residues used in {x.field.spec_string()}")


def _eliminate(rows: list, ops: _Ops) -> tuple[list, list[int], Scalar]:
    """Reduced row echelon form of rows of residues, as (new rows, pivot
    columns, det); rows is reordered in place.  det is the product of the
    pivots divided out, negated at each row swap: the determinant of a
    square matrix of full rank, as a residue (not reduced mod p)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    submul = ops.submul
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        if rows[r][c] != 1:  # every row of a Subspace has pivot 1
            det *= rows[r][c]
            inv = ops.inverse(rows[r][c])
            rows[r] = ops.reduce([x * inv for x in rows[r]])
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = submul(rows[i], rows[i][c], rows[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, det


class Matrix:
    """A matrix over QQ or GF(p), held as `residues`, its rows of residues
    (see _residue_ops), the same convention as Subspace.  `rows`, the same
    rows as field scalars, is built each time it is read.  The
    constructors read field scalars; _of_residues takes residues."""

    __slots__ = ("field", "residues")

    def __init__(self, field: Field, rows: Iterable[Iterable[Scalar]]):
        read = _residue_ops(field).read
        self.field = field
        self.residues = tuple(tuple(read(row)) for row in rows)
        if self.residues:
            width = len(self.residues[0])
            if any(len(row) != width for row in self.residues):
                raise ValueError("ragged matrix")

    @classmethod
    def _of_residues(cls, field: Field, rows: Iterable[Sequence]) -> "Matrix":
        """The matrix whose rows of residues are rows, all of one length."""
        m = cls.__new__(cls)
        m.field = field
        m.residues = tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        return cls(field, zip(*cols)) if cols else cls(field, [])

    @property
    def rows(self) -> tuple[Vector, ...]:
        back = _residue_ops(self.field).back
        return tuple(tuple(back(row)) for row in self.residues)

    @property
    def nrows(self) -> int:
        return len(self.residues)

    @property
    def ncols(self) -> int:
        return len(self.residues[0]) if self.residues else 0

    def transpose(self) -> "Matrix":
        return Matrix._of_residues(self.field, zip(*self.residues)) if self.residues else self

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        _require_same_field(self, other)
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch {self.ncols} vs {other.nrows}")
        cols = list(zip(*other.residues))
        reduce = _residue_ops(self.field).reduce
        return Matrix._of_residues(
            self.field, [reduce([sum(map(mul, row, col)) for col in cols]) for row in self.residues]
        )

    def det(self) -> Scalar:
        """The determinant, as a field scalar (see _eliminate)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, det = _eliminate([list(r) for r in self.residues], _residue_ops(self.field))
        return self.field(det) if len(pivots) == self.nrows else self.field.zero

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and bool(self.det())

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = [[*r, *i] for r, i in zip(self.residues, ident.residues)]
        rows, pivots, _ = _eliminate(aug, _residue_ops(self.field))
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._of_residues(self.field, [row[n:] for row in rows])

    def sort_key(self):
        return self.residues

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and other.residues == self.residues and other.field == self.field

    def __hash__(self) -> int:
        return hash(self.residues)

    def __repr__(self) -> str:
        return format_matrix(self)


def format_matrix(m: Matrix) -> str:
    return "[" + ",".join(format_vector(row) for row in m.residues) + "]"


def format_vector(v: Sequence[Scalar]) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


class Subspace:
    """Subspace of k^n held as its canonical RREF: `residues`, no zero rows,
    each entry an int residue over GF(p) and a Fraction over QQ, as in
    Matrix.  `basis`, the same rows as field scalars (FpElements over GF(p),
    the Fractions over QQ), is built each time it is read."""

    __slots__ = ("field", "ambient", "residues")

    def __init__(self, field: Field, ambient: int, residues: tuple[tuple, ...]):
        self.field = field
        self.ambient = ambient
        self.residues = residues

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        read = _residue_ops(field).read
        rows = [read(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise ValueError(f"ambient dimension mismatch: {len(v)} vs {ambient}")
        return cls._span(field, ambient, rows)

    @classmethod
    def _span(cls, field: Field, ambient: int, rows: list) -> "Subspace":
        """The span of rows of residues (see _residue_ops); the list rows is
        reused."""
        if not rows:
            return cls(field, ambient, ())
        rows, pivots, _ = _eliminate(rows, _residue_ops(field))
        return cls(field, ambient, tuple(tuple(r) for r in rows[: len(pivots)]))

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @property
    def basis(self) -> tuple[Vector, ...]:
        back = _residue_ops(self.field).back
        return tuple(tuple(back(row)) for row in self.residues)

    @property
    def dim(self) -> int:
        return len(self.residues)

    def is_zero(self) -> bool:
        return not self.residues

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        # a zero operand leaves the other's canonical rows as they are
        if not self.residues:
            return other
        if not other.residues:
            return self
        return Subspace._span(self.field, self.ambient, [*self.residues, *other.residues])

    def contains(self, vec: Sequence[Scalar]) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        ops = _residue_ops(self.field)
        return self._has(ops.read(vec), ops.submul)

    def _has(self, v: list, submul: Callable) -> bool:
        """Does the span hold v, a row of residues?  submul is that of
        _residue_ops(self.field)."""
        for row in self.residues:
            pivot = next(j for j, x in enumerate(row) if x)
            if v[pivot]:
                v = submul(v, v[pivot], row)
        return not any(v)

    def image_under(self, m: Matrix) -> "Subspace":
        if m.ncols != self.ambient:
            raise ValueError(f"dimension mismatch {m.ncols} vs {self.ambient}")
        _require_same_field(self, m)
        reduce = _residue_ops(self.field).reduce
        images = [
            reduce([sum(map(mul, mrow, row)) for mrow in m.residues]) for row in self.residues
        ]
        return Subspace._span(self.field, m.nrows, images)

    def sort_key(self):
        return (self.dim, self.residues)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.ambient == self.ambient
            and other.field == self.field
            and other.residues == self.residues
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.residues))

    def __repr__(self) -> str:
        return format_subspace(self)


def format_subspace(s: Subspace) -> str:
    if s.is_zero():
        return "span[]"
    return "span[" + ",".join(format_vector(v) for v in s.residues) + "]"


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.field, m.nrows, m.transpose().rows)


def enumerate_subspaces(field: PrimeField, n: int) -> Iterator[Subspace]:
    """All subspaces of GF(p)^n, by dimension then canonical basis.

    Walks RREF shapes directly: pick pivot columns, then fill the free
    entries (right of each pivot, outside other pivot columns) with residues.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("subspace enumeration requires a finite field")
    elems = range(field.characteristic)
    yield Subspace.zero(field, n)
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free_cells = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(elems, repeat=len(free_cells)):
                rows = [[0] * n for _ in range(r)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_cells, values):
                    rows[i][j] = v
                yield Subspace(field, n, tuple(tuple(row) for row in rows))


def count_subspaces(p: int, n: int) -> int:
    """Number of subspaces of GF(p)^n (sum of Gaussian binomials)."""
    total = 0
    for r in range(n + 1):
        num = den = 1
        for i in range(r):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total

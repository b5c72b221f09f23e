"""Finite groups as explicit Cayley tables."""

from __future__ import annotations

from typing import Sequence

from .algebra import Violation


class FiniteGroup:
    __slots__ = ("labels", "table", "_identity")

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]]):
        self.labels = tuple(labels)
        self.table = tuple(tuple(row) for row in table)
        self._identity: int | None = None

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    @property
    def identity(self) -> int:
        if self._identity is None:
            m = self.order
            for e in range(m):
                if all(self.table[e][j] == j and self.table[j][e] == j for j in range(m)):
                    self._identity = e
                    break
            else:
                raise ValueError("group table has no identity element")
        return self._identity

    @property
    def inverses(self) -> tuple[int, ...]:
        """Each element's two-sided inverse, found afresh on every read."""
        e, m, inv = self.identity, self.order, []
        for i in range(m):
            j = next((j for j in range(m) if self.table[i][j] == e == self.table[j][i]), None)
            if j is None:
                raise ValueError(f"element {self.labels[i]} has no inverse")
            inv.append(j)
        return tuple(inv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and other.labels == self.labels
            and other.table == self.table
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.table))

    def __repr__(self) -> str:
        return f"FiniteGroup({list(self.labels)})"


def validate_group(g: FiniteGroup) -> Violation | None:
    m = g.order
    if m == 0:
        return Violation("shape", (), "empty element list")
    if len(g.table) != m or any(len(row) != m for row in g.table):
        return Violation("shape", (), "Cayley table is not m x m")
    for i in range(m):
        for j in range(m):
            if not (0 <= g.table[i][j] < m):
                return Violation("shape", (i + 1, j + 1), "table entry out of range")
    try:
        g.identity
    except ValueError:
        return Violation("identity", (), "no two-sided identity")
    try:
        g.inverses
    except ValueError as exc:
        return Violation("inverses", (), str(exc))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if g.table[g.table[i][j]][k] != g.table[i][g.table[j][k]]:
                    return Violation(
                        "associativity", (i + 1, j + 1, k + 1), "(ij)k != i(jk)"
                    )
    return None


def cyclic_group(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("cyclic group order must be >= 1")
    labels = ["e"] + ["g" if k == 1 else f"g^{k}" for k in range(1, m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(labels, table)

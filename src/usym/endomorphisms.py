"""Group-like points of a(A)'s finite dual, realized as matrices, and the
induced endomorphism monoid / automorphism group over prime fields.

A point is an n x n matrix M with M[s][i] = theta(x[s,i]).  Relation
r[a,i,j] evaluated at M is coordinate a of M(e_i e_j) - M(e_i) M(e_j), so M
is a point exactly when it is the matrix of a unit-preserving algebra map
A -> A (column i holds the image of e_i), and is_algebra_map(a, a, M) is the
point test.  The convolution product of points is the matrix product, giving
the monoid isomorphism with (End(A), o).  One search (search_points) finds
these points and the grading points of gradings.py.
Its conditions are data: each relation, and each extra condition of a
grading point, is a list of polynomial equations of degree <= 2, keyed by
the matrix cells they name, to vanish mod p.  It assigns int residues cell
by cell in an order computed once from the cells each condition names (next
the cell that completes the most conditions), and then keys every equation
by the depths of its cells in that order.  The equations completed at a
cell are compiled once into a x^2 + b x + c in it, so a cell takes the one
value that an equation linear in it solves, or else only the residues at
which all of them vanish; a solved value counts as one value tried.

A multiplication table is formed once per point set.  Only the columns of
a few generators are integer matrix products mod p on the points'
residues; every other column is composed from known ones by lookups, as
Froidure & Pin enumerate a finite monoid (_product_table), and the table
does not depend on which points become generators.  Aut(A) is the group of
units of End(A) (the paper's first theorem), and an invertible point is a unit
exactly when its inverse matrix is a point too; so automorphism_group keeps
the points of nonzero determinant, looks each one's inverse up among all
the points, and forms the table of those units alone: no product outside
Aut.  enumerate_endomorphisms forms End's full table.  The points are
Matrix objects over the prime field, built from the search's int residues
and held as them (see linalg), so enumerating End builds no FpElement.
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


def _column(b: tuple, rows: list, distinct, index: dict, p: int) -> list:
    """The index of a * b for each a in rows, None when outside the set, by
    integer products mod p on the residues.  Row s of a * b is row s of a
    times b, so b multiplies each of the distinct rows once."""
    cols = tuple(zip(*b))
    times_b = {row: tuple(sum(map(mul, row, col)) % p for col in cols) for row in distinct}
    return [index.get(tuple(times_b[row] for row in a)) for a in rows]


def _product_table(points: tuple[Matrix, ...], p: int) -> tuple:
    """table[i][j]: the index of points[i] * points[j], None when outside the
    set.  Column j, col_j[i] = table[i][j], is formed by products (_column)
    only for the generators; every other column is read off known ones, by
    the generators-then-lookups rule of Froidure & Pin (Algorithms for
    computing finite semigroups, 1997).  In the points' order, a point with
    no column yet becomes a generator.  Then each known point b meets each
    generator g it has not met: if x = b * g is in the set and has no column
    yet, col_x[a] = col_g[col_b[a]], because a * x = (a * b) * g.  A cell
    where col_b[a] is None (a * b is outside the set, which is then not
    closed) is formed by a product instead.  Every cell is the index of the
    one matrix a * x, so the table does not depend on which points become
    generators."""
    rows = [pt.residues for pt in points]
    index = {r: k for k, r in enumerate(rows)}
    distinct = {row for r in rows for row in r}
    columns: list = [None] * len(rows)
    generators: list = []  # the columns formed by products
    known: list = []  # [b, the number of generators points[b] has met]
    for j in range(len(rows)):
        if columns[j] is not None:
            continue
        columns[j] = _column(rows[j], rows, distinct, index, p)
        generators.append(columns[j])
        known.append([j, 0])
        for entry in known:  # the points appended below are met in turn
            b, met = entry
            col_b = columns[b]
            for col_g in generators[met:]:
                x = col_g[b]
                if x is None or columns[x] is not None:
                    continue
                x_rows = rows[x]
                columns[x] = [
                    col_g[y] if y is not None else _column(x_rows, (a,), a, index, p)[0]
                    for a, y in zip(rows, col_b)
                ]
                known.append([x, 0])
            entry[1] = len(generators)
    return tuple(zip(*columns))


@dataclass
class EndoMonoid:
    algebra: FinAlgebra
    points: tuple[Matrix, ...]  # canonically sorted, duplicate-free
    identity_index: int
    # _table[i][j]: index of points[i] * points[j], None when outside the set
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = _require_prime_field(self.algebra).characteristic
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

    def inverses_in_set(self) -> bool:
        """Every member has a two-sided inverse inside the set (group check):
        a j with table[i][j] and table[j][i] both identity_index, which must
        hold the counit point."""
        e, t = self.identity_index, self._table
        return self.has_identity() and all(
            any(x == e and t[j][i] == e for j, x in enumerate(row)) for i, row in enumerate(t)
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


# where the search's list of values holds 1: a key (ONE, u) of an equation is
# a linear term in the cell at depth u, and (ONE, ONE) the constant
ONE = -1


def _compile_cell(equations: list, d: int, p: int) -> tuple[list, list]:
    """The equations completed at depth d, each written as a x^2 + b x + c in
    the value x of the cell there.  An equation is {(u, w): coefficient},
    u <= w <= d, the sum of coefficient * x[u] * x[w] over its keys, with x[u]
    the value of the cell at depth u and x[ONE] = 1.  b is kept as terms
    (k, u), read k x[u], and c as terms (k, u, w), read k x[u] x[w].  Returns
    (linear, quadratic): (b, c) of each equation with a = 0 mod p, and
    (a, b, c) of the others."""
    linear, quadratic = [], []
    for eq in equations:
        a, bterms, cterms = 0, [], []
        for (u, w), k in eq.items():
            if u == d:
                a += k
            elif w == d:
                bterms.append((k, u))
            else:
                cterms.append((k, u, w))
        if a % p:
            quadratic.append((a, bterms, cterms))
        else:
            linear.append((bterms, cterms))
    return linear, quadratic


def _cell_values(linear: list, quadratic: list, x: list, p: int):
    """The residues at which every equation of _compile_cell vanishes mod p,
    given the values x of the cells before it.  An equation with a = 0 and
    b != 0 solves the cell, and the one value is checked against the others;
    one with a = b = 0 and c != 0 leaves none; otherwise every residue is
    tried on the quadratic equations.  (Plain loops: on the few terms of an
    equation they cost a third of what generator sums do.)"""
    v = None
    for bterms, cterms in linear:
        b = c = 0
        for k, u in bterms:
            b += k * x[u]
        for k, u, w in cterms:
            c += k * x[u] * x[w]
        if v is None:
            b %= p
            if b:
                v = -c * pow(b, -1, p) % p
            elif c % p:
                return ()
        elif (b * v + c) % p:
            return ()
    values = range(p) if v is None else (v,)
    for a, bterms, cterms in quadratic:
        b = c = 0
        for k, u in bterms:
            b += k * x[u]
        for k, u, w in cterms:
            c += k * x[u] * x[w]
        values = [v for v in values if ((a * v + b) * v + c) % p == 0]
    return values


def _cell_order(named: list[set], free: list) -> list:
    """The free cells in the order the search assigns them, given the cells
    each condition names: next the cell that completes the most conditions,
    ties going to the first in free (the most-constrained static order of
    Freuder, JACM 1982, and Haralick & Elliott, AIJ 1980)."""
    rank = {cell: r for r, cell in enumerate(free)}
    # the free cells that each condition names, and that are not assigned yet
    open_cells = [{c for c in cells if c in rank} for cells in named]
    watch: dict = {cell: [] for cell in free}  # the conditions each free cell is in
    completes = dict.fromkeys(free, 0)  # the conditions a cell would complete next
    for q, cells in enumerate(open_cells):
        for c in cells:
            watch[c].append(q)
        if len(cells) == 1:
            completes[next(iter(cells))] += 1
    order: list = []
    left = set(free)
    while left:
        cell = max(left, key=lambda c: (completes[c], -rank[c]))
        left.remove(cell)
        order.append(cell)
        for q in watch[cell]:
            cells = open_cells[q]
            cells.remove(cell)
            if len(cells) == 1:
                completes[next(iter(cells))] += 1
    return order


def search_points(
    a: FinAlgebra, g: FiniteGroup, extra: list, max_search: int, what: str
) -> list[tuple[Matrix, ...]]:
    """All n x n matrices P over k[G], k a prime field, that satisfy the
    relations of a(A) with the convolution of k[G] and the extra conditions;
    each is returned as its matrices P^sigma in G's order.

    Column 0 is the unit of A at the identity of G.  The other cells (s, i, k),
    the coefficient of P[s][i] at the k-th element of G, are int residues.
    A condition is a list of polynomial equations of degree <= 2 in the
    cells, {(): c, (cell,): c, (cell, cell'): c}, that must vanish mod p, and
    its cells are the ones its keys name.  A relation r[a,i,j] is one
    condition, with one equation per element of G; its products with a
    column-0 cell fixed at 0 get no key, but its cells are those of all its
    terms.  The cells are assigned in one order fixed up front from the
    conditions' cells (_cell_order, ties going to the column-major first).
    Each equation is then keyed by the depths of its cells in that order, the
    column-0 cells folded into its constant, and compiled at the depth of its
    last cell (_compile_cell), and a cell takes only the values those
    equations allow (_cell_values).  Every value assigned counts as one value
    tried, a solved one too, and more than max_search values tried raise
    SearchSizeError.
    """
    fld = a.field
    p, n, m, e = fld.characteristic, a.n, g.order, g.identity

    def nonzero(s: int, i: int):
        # the k whose cell (s, i, k) is not fixed: all but column 0's, where
        # only the unit (0, 0, e), fixed at 1, is not 0
        return range(m) if i else (e,) if s == 0 else ()

    def relation(ai: int, i: int, j: int) -> tuple[set, list[dict]]:
        # coordinate k of sum_u tau[i,j,u] P[ai,u] - sum_{s,t} tau[s,t,ai] P[s,i] P[t,j],
        # and the cells its terms name; a product with a cell fixed at 0 names
        # its cells but gets no key
        eqs: list[dict] = [{} for _ in range(m)]
        named = set()
        for u, c in a.basis_product(i, j).items():
            for k in range(m):
                eqs[k][(ai, u, k),] = c.v
                named.add((ai, u, k))
        for s, t, c in a.pairs_with_result(ai):  # each (s, t) once, so each key once
            named.update(cell for k in range(m) for cell in ((s, i, k), (t, j, k)))
            for k1 in nonzero(s, i):
                row = g.table[k1]
                for k2 in nonzero(t, j):
                    eqs[row[k2]][(s, i, k1), (t, j, k2)] = -c.v
        return named, eqs

    conditions = [({c for eq in eqs for cells in eq for c in cells}, eqs) for eqs in extra] + [
        relation(ai, i, j) for ai in range(n) for i in range(n) for j in range(n)
    ]
    free = [(s, i, k) for i in range(1, n) for s in range(n) for k in range(m)]
    order = _cell_order([named for named, _ in conditions], free)

    # depth[cell]: its place in the order; ONE for the unit of A at G's
    # identity, and absent for the other column-0 cells, fixed at 0
    depth = {cell: d for d, cell in enumerate(order)}
    depth[0, 0, e] = ONE

    def on_depths(eq: dict) -> dict:
        """An equation, keyed by the sorted depths of its cells."""
        out: dict = {}
        for cells, c in eq.items():
            if len(cells) == 2:
                u, w = depth.get(cells[0]), depth.get(cells[1])
            else:
                u, w = ONE, depth.get(cells[0]) if cells else ONE
            if u is not None and w is not None:
                key = (u, w) if u <= w else (w, u)
                out[key] = out.get(key, 0) + c
        return out

    # each equation filed at the depth of its deepest cell; the caller's come
    # first, as they are the cheaper ones to solve a cell from
    completed: list[list] = [[] for _ in order]
    for _, eqs in conditions:
        for eq in eqs:
            eq = {key: c % p for key, c in on_depths(eq).items() if c % p}
            if eq:
                last = max(w for _, w in eq)
                if last == ONE:  # a nonzero constant
                    return []
                completed[last].append(eq)
    compiled = [_compile_cell(eqs, d, p) for d, eqs in enumerate(completed)] + [([], [])]

    x = [0] * len(order) + [1]  # x[d]: the value of order[d]; x[ONE] = 1
    visited = 0
    out = []
    tries = [iter(_cell_values(*compiled[0], x, p))]  # tries[d]: the values left for order[d]
    while tries:
        d = len(tries) - 1
        if d == len(order):  # every cell assigned: P[s][i][k] is x[depth[s, i, k]], or 0
            value = {cell: x[w] for cell, w in depth.items()}
            rows = [[[value.get((s, i, k), 0) for i in range(n)] for s in range(n)] for k in range(m)]
            out.append(tuple(Matrix._of_residues(fld, r) for r in rows))
            tries.pop()
            continue
        for v in tries[d]:
            visited += 1
            if visited > max_search:
                raise SearchSizeError(visited, max_search, what)
            x[d] = v
            tries.append(iter(_cell_values(*compiled[d + 1], x, p)))
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


def _counit_index(a: FinAlgebra, points: tuple[Matrix, ...]) -> int:
    ident = counit_point(a)
    k = next((k for k, p in enumerate(points) if p == ident), None)
    if k is None:
        raise RuntimeError("counit point missing from enumeration")
    return k


def enumerate_endomorphisms(a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH) -> EndoMonoid:
    """All points of a(A) over a prime field, verified closed with identity."""
    points = enumerate_measuring_points(a, max_search)
    monoid = EndoMonoid(a, points, _counit_index(a, points))
    if not monoid.is_closed():
        raise RuntimeError("enumerated point set is not closed under convolution")
    return monoid


def automorphism_group(a: FinAlgebra, max_search: int = DEFAULT_MAX_SEARCH) -> EndoMonoid:
    """The invertible points of a(A), with their own table: the units of
    End(A), as each one's inverse is required to be a point (found among the
    points and tested as an algebra map); verified closed with inverses."""
    points = enumerate_measuring_points(a, max_search)
    units = tuple(m for m in points if m.is_invertible())
    group = EndoMonoid(a, units, _counit_index(a, units))
    all_points = set(points)
    for m in units:
        inv = m.inverse()
        if inv not in all_points or not is_algebra_map(a, a, inv):
            raise RuntimeError("inverse of a point is not a point")
    if not group.is_closed() or not group.inverses_in_set():
        raise RuntimeError("invertible points do not form a group")
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

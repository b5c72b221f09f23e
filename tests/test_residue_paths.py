"""is_algebra_map, is_grading_point and validate_grading against the dense
versions they replaced, which run on the field's own scalars (FpElement over
GF(p), Fraction over QQ): the oracles for the point tests and the grading
check on int residues."""

import random
from fractions import Fraction

import pytest

from usym import (
    GF,
    QQ,
    Grading,
    GradingPoint,
    Matrix,
    Subspace,
    automorphism_group,
    cyclic_group,
    enumerate_measuring_points,
    enumerate_points,
    fixture_path,
    grading_from_point,
    is_algebra_map,
    is_grading_point,
    validate_grading,
)
from usym.gradings import apply_automorphism
from usym.io import group_from_dict, load_algebra
from conftest import (
    S3,
    apply,
    cyclic_group_algebra,
    dense_multiply,
    dual_numbers,
    full_matrices,
    scalar_basis,
    scalar_contains,
    triangular,
    trivial_point,
    truncated_polynomial,
    upper_triangular,
)

FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]

FIXTURE_DIR = fixture_path("dual_q.json").parent


def dense_is_algebra_map(b, a, f):
    """Is f (columns = images of B's basis in A) a unit-preserving algebra map B -> A?"""
    if f.nrows != a.n or f.ncols != b.n:
        raise ValueError(f"map shape {f.nrows}x{f.ncols} does not match dim A={a.n}, dim B={b.n}")
    if a.field != b.field or f.field != a.field:
        raise ValueError("algebra map endpoints must share one field")
    images = f.transpose().rows
    if images[0] != a.unit:
        return False
    for i in range(b.n):
        for j in range(b.n):
            lhs = apply(f, dense_multiply(b, b.basis_vector(i), b.basis_vector(j)))
            rhs = dense_multiply(a, images[i], images[j])
            if lhs != rhs:
                return False
    return True


def dense_is_grading_point(a, g, point):
    """All four point conditions: counit, orthogonal idempotency, unit column,
    and the evaluated relations with convolution in k[G]."""
    m = g.order
    n = a.n
    if len(point.matrices) != m:
        raise ValueError(f"point has {len(point.matrices)} matrices, group order is {m}")
    for mat in point.matrices:
        if mat.nrows != n or mat.ncols != n:
            raise ValueError("matrix size does not match the algebra dimension")

    total = Matrix(a.field, [
        [sum((mat.rows[i][j] for mat in point.matrices), a.field.zero) for j in range(n)]
        for i in range(n)
    ])
    if total != Matrix.identity(a.field, n):
        return False

    zeromat = Matrix.zeros(a.field, n, n)
    for s in range(m):
        for t in range(m):
            want = point.matrices[s] if s == t else zeromat
            if point.matrices[s] * point.matrices[t] != want:
                return False

    e = g.identity
    for sigma in range(m):
        want_col = a.unit if sigma == e else (a.field.zero,) * n
        if point.matrices[sigma].transpose().rows[0] != want_col:
            return False

    pairs_for = [[] for _ in range(m)]
    for s in range(m):
        for t in range(m):
            pairs_for[g.mul(s, t)].append((s, t))
    for rho in range(m):
        prho = point.matrices[rho]
        for ai in range(n):
            for i in range(n):
                for j in range(n):
                    lhs = a.field.zero
                    for u, c in a.basis_product(i, j).items():
                        lhs = lhs + c * prho.rows[ai][u]
                    rhs = a.field.zero
                    for (sg, tg) in pairs_for[rho]:
                        ps, pt = point.matrices[sg], point.matrices[tg]
                        for (s, t, c) in a.pairs_with_result(ai):
                            term = ps.rows[s][i] * pt.rows[t][j]
                            if term:
                                rhs = rhs + c * term
                    if lhs != rhs:
                        return False
    return True


def dense_validate_grading(a, g, grading):
    """The direct-sum, unit and multiplicativity checks on the components'
    bases as field scalars, with dense products and scalar_contains."""
    bases = {sigma: comp.basis for sigma, comp in grading.components.items()}
    vectors = [v for basis in bases.values() for v in basis]
    if len(vectors) != a.n or len(scalar_basis(a.field, vectors)) != a.n:
        return False
    ident = bases.get(g.identity)
    if ident is None or not scalar_contains(ident, a.unit):
        return False
    for sigma, us in bases.items():
        for tau, vs in bases.items():
            target = bases.get(g.mul(sigma, tau))
            for u in us:
                for v in vs:
                    prod = dense_multiply(a, u, v)
                    if not (scalar_contains(target, prod) if target else not any(prod)):
                        return False
    return True


def drawer(field, rng):
    """Random scalars of field, zero about a third of the time."""
    if field == QQ:
        return lambda: Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.randint(1, 3))
    return lambda: field(rng.randrange(field.characteristic) * (rng.random() > 0.3))


def algebras():
    """Every fixture, and the generated families over every field."""
    paths = sorted(FIXTURE_DIR.glob("*.json"))
    out = [load_algebra(path)[0] for path in paths if not path.name.startswith("group_")]
    assert len(out) == 9
    for fld in FIELDS:
        out += [truncated_polynomial(fld, 4), full_matrices(fld), upper_triangular(fld, 3)]
        out += [cyclic_group_algebra(fld, 3)]
    return out


def with_entry(m, i, j, x):
    rows = [list(row) for row in m.rows]
    rows[i][j] = x
    return Matrix(m.field, rows)


def power_map(a, y):
    """The map of k[X]/(X^n) that sends x to y: column k is y^k."""
    cols = [a.unit]
    for _ in range(1, a.n):
        cols.append(dense_multiply(a, cols[-1], y))
    return Matrix.from_columns(a.field, cols)


def test_is_algebra_map_matches_dense():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}

    def agree(b, a, f):
        want = dense_is_algebra_map(b, a, f)
        assert is_algebra_map(b, a, f) is want
        verdicts[want] += 1

    for a in algebras():
        draw = drawer(a.field, rng)
        n = a.n
        maps = [Matrix.identity(a.field, n)]
        if a.field != QQ and n <= 3:
            maps += enumerate_measuring_points(a)  # the search route, not this test
        if a.n > 1 and a.tau == truncated_polynomial(a.field, a.n).tau:
            for _ in range(4):
                maps.append(power_map(a, (a.field.zero,) + tuple(draw() for _ in range(n - 1))))
        for f in list(maps):
            for i in range(n):
                for j in range(n):
                    maps.append(with_entry(f, i, j, f.rows[i][j] + a.field.one))
        for _ in range(10):
            cols = [a.unit] + [tuple(draw() for _ in range(n)) for _ in range(n - 1)]
            maps.append(Matrix.from_columns(a.field, cols))
            maps.append(Matrix(a.field, [[draw() for _ in range(n)] for _ in range(n)]))
        for f in maps:
            agree(a, a, f)
    # dual numbers -> T_2: t goes to a multiple of e2, the one square-zero direction
    for fld in FIELDS:
        b, a = dual_numbers(fld), triangular(fld)
        draw = drawer(fld, rng)
        images = [(fld.zero, c, fld.zero) for c in (fld.zero, fld.one, fld(2))]
        images += [tuple(draw() for _ in range(3)) for _ in range(20)]
        for v in images:
            agree(b, a, Matrix.from_columns(fld, [a.unit, v]))
        agree(b, a, Matrix.from_columns(fld, [a.basis_vector(1), images[1]]))
    assert verdicts[True] > 100 and verdicts[False] > 1000


# C_3 on g, g^2, e: its identity is the last element, not index 0
C3_IDENTITY_LAST = group_from_dict(
    {
        "elements": ["g", "g2", "e"],
        "identity": "e",
        "table": [["g2", "e", "g"], ["e", "g", "g2"], ["g", "g2", "e"]],
    }
)

GRID = [
    (dual_numbers, 2, cyclic_group(2)),
    (dual_numbers, 3, cyclic_group(2)),
    (dual_numbers, 2, cyclic_group(3)),
    (triangular, 2, cyclic_group(2)),
    (dual_numbers, 3, C3_IDENTITY_LAST),
    (triangular, 2, C3_IDENTITY_LAST),
    (dual_numbers, 3, S3),
]


def nudged(point, sigma, i, j, x, other=None):
    """point with x added to P^sigma[i][j] and, when other is given, taken
    from P^other[i][j], so the family still sums to the identity."""
    mats = list(point.matrices)
    mats[sigma] = with_entry(mats[sigma], i, j, mats[sigma].rows[i][j] + x)
    if other is not None:
        mats[other] = with_entry(mats[other], i, j, mats[other].rows[i][j] - x)
    return GradingPoint(tuple(mats))


def test_is_grading_point_matches_dense():
    verdicts = {True: 0, False: 0}

    def agree(a, g, point):
        want = dense_is_grading_point(a, g, point)
        assert is_grading_point(a, g, point) is want
        verdicts[want] += 1

    cases = [(build(GF(p)), g, enumerate_points(build(GF(p)), g)) for build, p, g in GRID]
    q = dual_numbers(QQ)
    c2 = cyclic_group(2)
    one, zero = QQ.one, QQ.zero
    diagonal = GradingPoint(
        (Matrix(QQ, [[one, zero], [zero, zero]]), Matrix(QQ, [[zero, zero], [zero, one]]))
    )
    cases.append((q, c2, [trivial_point(q, c2), diagonal]))
    for a, g, points in cases:
        one, n, m = a.field.one, a.n, g.order
        for point in points:
            agree(a, g, point)
            for sigma in range(m):
                for i in range(n):
                    for j in range(n):
                        agree(a, g, nudged(point, sigma, i, j, one))
                        for other in range(m):
                            if other != sigma:
                                agree(a, g, nudged(point, sigma, i, j, one, other))
    # a moved entry can land on another point
    assert verdicts[True] > sum(len(points) for _, _, points in cases)
    assert verdicts[False] > 100


@pytest.mark.parametrize("p", [2, 3])
def test_grading_point_conditions_on_random_families(p):
    # families that sum to the identity, so the later conditions are reached
    rng = random.Random(p)
    fld = GF(p)
    families = [(triangular(fld), cyclic_group(2)), (dual_numbers(fld), cyclic_group(3))]
    families += [(triangular(fld), C3_IDENTITY_LAST), (dual_numbers(fld), S3)]
    for a, g in families:
        n, m = a.n, g.order
        for _ in range(200):
            mats = [
                Matrix(fld, [[fld(rng.randrange(p)) for _ in range(n)] for _ in range(n)])
                for _ in range(m - 1)
            ]
            # the identity minus the others, entry by entry
            rest = Matrix(fld, [
                [(fld.one if i == j else fld.zero) - sum((mat.rows[i][j] for mat in mats), fld.zero)
                 for j in range(n)]
                for i in range(n)
            ])
            point = GradingPoint(tuple(mats + [rest]))
            assert is_grading_point(a, g, point) is dense_is_grading_point(a, g, point)


def test_residue_table_reads_each_constant():
    for a in algebras():
        read = (lambda c: c) if a.field == QQ else (lambda c: c.v)
        want = {}
        for (i, j, s), c in sorted(a.tau.items()):
            want.setdefault((i, j), []).append((s, read(c)))
        assert {ij: sorted(prods) for ij, prods in a._residue_products.items()} == want


def test_validate_grading_matches_dense():
    # the gradings of the points, moved by every automorphism (valid) and by
    # random invertible matrices, relabelled by a random permutation of the
    # group, and with one component replaced by a random span
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    cases = [
        (full_matrices(GF(3)), cyclic_group(2)),
        (triangular(GF(5)), cyclic_group(2)),
        (dual_numbers(GF(5)), cyclic_group(3)),
        (cyclic_group_algebra(GF(5), 2), cyclic_group(2)),
        (dual_numbers(GF(3)), S3),
        # u = 1 + g in GF(2)[C_2] has u^2 = 2 + 2g = 0: of degree h in C_3,
        # A_h A_h lies in the zero component, through sums of p terms
        (cyclic_group_algebra(GF(2), 2), cyclic_group(3)),
    ]
    for a, g in cases:
        fld, n = a.field, a.n
        draw = drawer(fld, rng)
        gradings = [grading_from_point(a, g, pt) for pt in enumerate_points(a, g)]
        automorphisms = automorphism_group(a).points
        for grading in list(gradings):
            gradings += [apply_automorphism(grading, m) for m in automorphisms]
            for _ in range(4):
                m = Matrix(fld, [[draw() for _ in range(n)] for _ in range(n)])
                if m.is_invertible():
                    gradings.append(apply_automorphism(grading, m))
            labels = list(range(g.order))
            rng.shuffle(labels)
            comps = {labels[sigma]: comp for sigma, comp in grading.components.items()}
            gradings.append(Grading(n, g.order, comps))
            sigma, comp = rng.choice(list(grading.components.items()))
            comps = dict(grading.components)
            comps[sigma] = Subspace.from_vectors(
                fld, n, [[draw() for _ in range(n)] for _ in range(comp.dim)]
            )
            gradings.append(Grading(n, g.order, comps))
        for grading in gradings:
            want = dense_validate_grading(a, g, grading)
            assert validate_grading(a, g, grading) is want
            verdicts[want] += 1
    assert verdicts[True] > 300 and verdicts[False] > 50

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from usym import GF, QQ, Matrix, Subspace, column_space, enumerate_subspaces
from usym.fields import FpElement
from usym.linalg import count_subspaces
from conftest import apply, full_space, rref, scalar_basis, scalar_contains, scalar_rref


def mat(field, rows):
    return Matrix(field, [[field(x) for x in row] for row in rows])


def test_matrix_product_and_apply():
    m = mat(QQ, [[1, 2], [3, 4]])
    n = mat(QQ, [[0, 1], [1, 0]])
    assert m * n == mat(QQ, [[2, 1], [4, 3]])
    assert (m * mat(QQ, [[1], [0]])).rows == ((QQ(1),), (QQ(3),))
    with pytest.raises(ValueError):
        m * mat(QQ, [[1, 2, 3]])


def test_constructors_coerce_scalars_into_the_field():
    # the residue rows are read through the field: a scalar of another
    # field is refused, not stored as a residue of the wrong modulus
    f3 = GF(3)
    assert Matrix(f3, [[4, 2]]) == mat(f3, [[1, 2]]) and Matrix(QQ, [[1]]).rows == ((QQ(1),),)
    for field in (f3, QQ):
        with pytest.raises(TypeError):
            Matrix(field, [[GF(5)(4)]])
        with pytest.raises(TypeError):
            Subspace.from_vectors(field, 1, [(GF(5)(4),)])


def test_matrices_of_two_fields_do_not_mix():
    # residues of GF(5) or QQ read as GF(3) residues would give a wrong
    # answer: a product or an image over another field is refused
    f3, f5 = GF(3), GF(5)
    m3 = mat(f3, [[1, 2], [0, 1]])
    for other in (mat(f5, [[4, 1], [1, 3]]), mat(QQ, [[4, 1], [1, 3]])):
        with pytest.raises(TypeError):
            m3 * other
        with pytest.raises(TypeError):
            other * m3
        with pytest.raises(TypeError):
            full_space(f3, 2).image_under(other)
        with pytest.raises(TypeError):
            Subspace.from_vectors(other.field, 2, [other.rows[0]]).image_under(m3)
    assert mat(QQ, [[2]]) * mat(QQ, [[3]]) == mat(QQ, [[6]])
    assert mat(f3, [[2, 1], [0, 2]]) * m3 == mat(f3, [[2, 2], [0, 2]])


def test_det_inverse_rational():
    m = mat(QQ, [[1, 2], [3, 4]])
    assert m.det() == QQ(-2)
    assert m * m.inverse() == Matrix.identity(QQ, 2)
    singular = mat(QQ, [[1, 2], [2, 4]])
    assert singular.det() == QQ.zero
    assert not singular.is_invertible()
    with pytest.raises(ValueError):
        singular.inverse()


def test_det_inverse_prime_field():
    f = GF(5)
    m = mat(f, [[1, 2], [3, 4]])
    assert m.det() == f(-2)
    assert m * m.inverse() == Matrix.identity(f, 2)


def test_rref_idempotent_and_canonical():
    f = GF(3)
    m = mat(f, [[1, 2, 0], [2, 1, 1], [0, 0, 1]])
    r1, piv1 = rref(m)
    r2, piv2 = rref(r1)
    assert r1 == r2 and piv1 == piv2


def test_subspace_canonical_equality():
    # two spanning sets of the same plane give bit-identical bases
    s1 = Subspace.from_vectors(QQ, 3, [(QQ(1), QQ(1), QQ(0)), (QQ(0), QQ(1), QQ(1))])
    s2 = Subspace.from_vectors(QQ, 3, [(QQ(1), QQ(2), QQ(1)), (QQ(2), QQ(1), QQ(-1))])
    assert s1 == s2
    assert s1.basis == s2.basis
    assert hash(s1) == hash(s2)


def test_subspace_sum_intersect_contains():
    f = GF(2)
    e1 = Subspace.from_vectors(f, 2, [(f.one, f.zero)])
    e2 = Subspace.from_vectors(f, 2, [(f.zero, f.one)])
    total = e1.sum(e2)
    assert total == full_space(f, 2)
    # dim(U + W) = dim U + dim W - dim(U meet W)
    assert e1.sum(e1) == e1  # e1 meets itself in a line
    assert total.dim == e1.dim + e2.dim  # e1 and e2 meet in zero
    diag = Subspace.from_vectors(f, 2, [(f.one, f.one)])
    assert not diag.contains((f.one, f.zero))  # e1 not in span(e1+e2) over GF(2)
    assert diag.contains((f.one, f.one))
    with pytest.raises(ValueError):
        e1.sum(Subspace.zero(f, 3))


def test_sum_with_zero_operand():
    # a zero operand gives the other's canonical basis back: the subspace
    # from_vectors builds from the two bases together
    for field in (GF(2), GF(5), QQ):
        spaces = [Subspace.zero(field, 3), full_space(field, 3)]
        spaces += [Subspace.from_vectors(field, 3, [mat(field, [[2, 4, 1]]).rows[0]])]
        spaces += [Subspace.from_vectors(field, 3, mat(field, [[0, 3, 1], [1, 0, 2]]).rows)]
        zero = spaces[0]
        for s in spaces:
            want = Subspace.from_vectors(field, 3, zero.basis + s.basis)
            assert zero.sum(s) == want and s.sum(zero) == want == s
        with pytest.raises(ValueError):
            zero.sum(Subspace.zero(field, 2))


def test_column_space():
    f = GF(3)
    m = mat(f, [[1, 2], [2, 4 % 3]])
    cs = column_space(m)
    assert cs.dim == 1
    assert cs.contains((f(1), f(2)))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_enumerate_subspaces_complete_and_distinct(p, n):
    f = GF(p)
    subs = list(enumerate_subspaces(f, n))
    assert len(subs) == count_subspaces(p, n)
    assert len({s.basis for s in subs}) == len(subs)
    # every enumerated basis is already canonical
    for s in subs:
        assert Subspace.from_vectors(f, n, s.basis) == s


def test_count_subspaces_known_values():
    assert count_subspaces(2, 2) == 5  # 0, three lines, plane
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(3, 2) == 6


def test_random_rank_nullity_consistency():
    rng = random.Random(7)
    f = GF(5)
    for _ in range(25):
        rows = [[f(rng.randrange(5)) for _ in range(4)] for _ in range(3)]
        m = Matrix(f, rows)
        r, pivots = rref(m)
        assert len(pivots) <= 3
        sp_before = Subspace.from_vectors(f, 4, m.rows)
        sp_after = Subspace.from_vectors(f, 4, r.rows)
        assert sp_before == sp_after


def random_matrices(field, rng):
    """Every shape up to 5 x 5 (empty, wide, tall, square), once with random
    entries and once of rank at most 1 below its smaller side."""
    if field == QQ:
        def draw():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        def draw():
            return field(rng.randrange(field.characteristic))
    for nrows in range(6):
        for ncols in range(6):
            yield Matrix(field, [[draw() for _ in range(ncols)] for _ in range(nrows)])
            inner = max(min(nrows, ncols) - 1, 0)
            left = Matrix(field, [[draw() for _ in range(inner)] for _ in range(nrows)])
            right = Matrix(field, [[draw() for _ in range(ncols)] for _ in range(inner)])
            yield left * right if inner else Matrix.zeros(field, nrows, ncols)


def of_field(field, vectors):
    """Every entry is a scalar of field: an FpElement of its p, or a Fraction."""
    if field == QQ:
        return all(type(x) is Fraction for v in vectors for x in v)
    return all(type(x) is FpElement and x.p == field.characteristic for v in vectors for x in v)


def scalar_det(field, rows):
    """The determinant by the Leibniz formula, on field scalars."""
    n, total = len(rows), field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one if inversions % 2 == 0 else -field.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), QQ], ids=str)
def test_elimination_matches_scalar_oracle(field):
    rng = random.Random(field.characteristic)
    inverted = singular = 0
    mats = list(random_matrices(field, rng))
    read = (lambda x: x) if field == QQ else (lambda x: x.v)
    pick = random.Random(field.characteristic + 100)  # leaves the draws from rng as they were
    for m in mats:
        # the same matrix from its residues is the same value, with the same
        # field-scalar rows
        same = Matrix._of_residues(field, [[read(x) for x in row] for row in m.rows])
        assert same == m and hash(same) == hash(m)
        assert same.rows == m.rows and of_field(field, same.rows) and of_field(field, m.rows)
        # products on residues against sums of products of scalars: the same
        # residues (==) and the same field-scalar rows
        right = pick.choice([mt for mt in mats if mt.nrows == m.ncols])
        prod = m * right
        want = [
            [sum((a * b for a, b in zip(row, col)), field.zero) for col in zip(*right.rows)]
            for row in m.rows
        ]
        assert prod == Matrix(field, want) and prod.rows == tuple(map(tuple, want))
        assert of_field(field, prod.rows)
        if m.nrows == m.ncols:
            det = m.det()
            assert det == scalar_det(field, m.rows) and of_field(field, [(det,)])
        want_rows, want_pivots = scalar_rref(field, [list(r) for r in m.rows])
        got, pivots = rref(m)
        assert got.rows == tuple(tuple(r) for r in want_rows) and of_field(field, got.rows)
        assert pivots == tuple(want_pivots)
        if m.nrows == m.ncols:
            n = m.nrows
            aug = [list(r) + list(i) for r, i in zip(m.rows, Matrix.identity(field, n).rows)]
            rows, aug_pivots = scalar_rref(field, aug)
            if aug_pivots[:n] == list(range(n)):
                inverted += 1
                inv = m.inverse()
                assert inv.rows == tuple(tuple(r[n:]) for r in rows) and of_field(field, inv.rows)
            else:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
        space = Subspace.from_vectors(field, m.ncols, m.rows)
        assert space.basis == scalar_basis(field, m.rows) and of_field(field, space.basis)
        cols = column_space(m)
        assert cols.basis == scalar_basis(field, m.transpose().rows) and of_field(field, cols.basis)
        if m.nrows == 0:
            continue
        other = Subspace.from_vectors(
            field, m.ncols, rng.choice([mt for mt in mats if mt.ncols == m.ncols]).rows
        )
        assert space.sum(other).basis == scalar_basis(field, space.basis + other.basis)
        # members (each row, the sum of the first and last) and random vectors
        probes = list(m.rows) + [tuple(a + b for a, b in zip(m.rows[0], m.rows[-1]))]
        probes += [row for mt in rng.sample(mats, 8) for row in mt.rows if len(row) == m.ncols]
        for vec in probes:
            assert space.contains(vec) is scalar_contains(space.basis, vec)
    assert inverted and singular


def scalars(field):
    """Hypothesis scalars of field: every residue over GF(p), small
    fractions over QQ."""
    if field == QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, field.characteristic - 1).map(field)


def vectors(field, n, **size):
    return st.lists(st.tuples(*[scalars(field)] * n), **size)


@settings(deadline=None)
@given(st.data())
def test_subspace_operations_match_scalar_oracle(data):
    # the Subspace operations on residue rows against scalar_rref on
    # FpElements (Fractions over QQ): spans, sums, membership, images and
    # column spaces, with the stored rows the residues of the oracle's basis
    field = data.draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7), QQ]), label="field")
    n = data.draw(st.integers(1, 5), label="n")
    u_vecs = data.draw(vectors(field, n, max_size=6), label="u")
    w_vecs = data.draw(vectors(field, n, max_size=6), label="w")
    read = (lambda x: x) if field == QQ else (lambda x: x.v)

    def agrees(space, want):
        # the stored rows are the residues of the oracle's basis, and the
        # basis built from them is that basis
        assert space.residues == tuple(tuple(read(x) for x in row) for row in want)
        assert space.basis == want and of_field(field, space.basis)
        assert space.dim == len(want)

    u, w = Subspace.from_vectors(field, n, u_vecs), Subspace.from_vectors(field, n, w_vecs)
    want_u, want_w = scalar_basis(field, u_vecs), scalar_basis(field, w_vecs)
    agrees(u, want_u)
    agrees(w, want_w)
    agrees(u.sum(w), scalar_basis(field, want_u + want_w))
    probes = u_vecs + w_vecs + data.draw(vectors(field, n, max_size=4), label="probes")
    probes += [tuple(a + b for a, b in zip(x, y)) for x, y in zip(u_vecs, u_vecs[1:])]
    for vec in probes:
        assert u.contains(vec) is scalar_contains(want_u, vec)
    k = data.draw(st.integers(1, 5), label="k")
    m = Matrix(field, data.draw(vectors(field, n, min_size=k, max_size=k), label="m"))
    agrees(u.image_under(m), scalar_basis(field, [apply(m, v) for v in want_u]))
    agrees(column_space(m), scalar_basis(field, m.transpose().rows))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_enumerated_subspace_equals_span_of_mixed_basis(p, n):
    # the subspace enumerate_subspaces builds and the same span that
    # from_vectors eliminates from another spanning set are the same value
    f = GF(p)
    rng = random.Random(p * 10 + n)
    for s in enumerate_subspaces(f, n):
        basis = list(s.basis)
        # each row plus random multiples of the rows after it, scaled by a
        # nonzero factor, in reverse order, and then their sum: the same span
        mixed = []
        for i, row in enumerate(basis):
            scale = f(rng.randrange(1, p))
            vec = [scale * x for x in row]
            for later in basis[i + 1:]:
                c = f(rng.randrange(p))
                vec = [a + c * b for a, b in zip(vec, later)]
            mixed.append(tuple(vec))
        mixed.reverse()
        mixed.append(tuple(sum(col, f.zero) for col in zip(*mixed)) if mixed else (f.zero,) * n)
        t = Subspace.from_vectors(f, n, mixed)
        assert t == s and hash(t) == hash(s)
        assert t.sort_key() == s.sort_key() and t.basis == s.basis

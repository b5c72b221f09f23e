import random

import pytest

from usym import GF, QQ, Matrix, Subspace, column_space, enumerate_subspaces
from usym.linalg import count_subspaces


def mat(field, rows):
    return Matrix(field, [[field(x) for x in row] for row in rows])


def test_matrix_product_and_apply():
    m = mat(QQ, [[1, 2], [3, 4]])
    n = mat(QQ, [[0, 1], [1, 0]])
    assert m * n == mat(QQ, [[2, 1], [4, 3]])
    assert m.apply((QQ(1), QQ(0))) == (QQ(1), QQ(3))
    with pytest.raises(ValueError):
        m * mat(QQ, [[1, 2, 3]])


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
    r1, piv1 = m.rref()
    r2, piv2 = r1.rref()
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
    assert total == Subspace.full(f, 2)
    # dim(U + W) = dim U + dim W - dim(U meet W)
    assert e1.sum(e1) == e1  # e1 meets itself in a line
    assert total.dim == e1.dim + e2.dim  # e1 and e2 meet in zero
    diag = Subspace.from_vectors(f, 2, [(f.one, f.one)])
    assert not diag.contains((f.one, f.zero))  # e1 not in span(e1+e2) over GF(2)
    assert diag.contains((f.one, f.one))
    with pytest.raises(ValueError):
        e1.sum(Subspace.zero(f, 3))


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
        r, pivots = m.rref()
        assert m.rank() == len(pivots)
        assert m.rank() <= 3
        sp_before = Subspace.from_vectors(f, 4, m.rows)
        sp_after = Subspace.from_vectors(f, 4, r.rows)
        assert sp_before == sp_after

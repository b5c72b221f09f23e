import random

import pytest

from usym import (
    GF,
    QQ,
    FinAlgebra,
    Matrix,
    Violation,
    fixture_path,
    is_algebra_map,
    validate_algebra,
)
from usym.io import load_algebra
from conftest import (
    dense_multiply,
    cyclic_group_algebra,
    dual_numbers,
    full_matrices,
    ground_field,
    rescaled,
    square_zero,
    triangular,
    truncated_polynomial,
    upper_triangular,
)


def test_validate_dual_numbers_ok(dual_q):
    assert validate_algebra(dual_q) is None


def test_validate_one_dimensional_ok():
    assert validate_algebra(ground_field(QQ)) is None


def test_validate_dual_plus_idempotent_tau_is_still_associative():
    # adding tau[2,2,2] = 1 turns t into an idempotent; two-dimensional
    # commutative unital algebras are always associative, so this validates
    one = QQ.one
    a = FinAlgebra(
        QQ, 2, {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one, (1, 1, 1): one}
    )
    assert validate_algebra(a) is None


def test_validate_unit_axiom_violation():
    one = QQ.one
    a = FinAlgebra(QQ, 2, {(0, 0, 0): one, (0, 1, 1): one})  # missing t*1 = t
    v = validate_algebra(a)
    assert v is not None and v.kind == "unit"
    assert v.where == (2, 1, 2)


def test_validate_associativity_violation():
    # triangular with an extra e2*e2 = e3 breaks (e2 e2) e2 != e2 (e2 e2)
    base = triangular(QQ)
    tau = dict(base.tau)
    tau[(1, 1, 2)] = QQ.one
    a = FinAlgebra(QQ, 3, tau)
    v = validate_algebra(a)
    assert v is not None and v.kind == "associativity"
    assert v.where[:3] == (2, 2, 2)


def test_validate_reads_residues(monkeypatch):
    # associativity is checked on the residue table: a valid GF(p) algebra
    # makes no FpElement, and a tampered one reports the first failing
    # (i, j, l, s), as the dense definition does
    from usym.fields import FpElement

    f3, f5 = GF(3), GF(5)
    tampered = []
    for base, t, c in ((triangular(f3), (1, 1, 2), f3(2)), (full_matrices(f5), (2, 3, 1), f5(3))):
        tau = dict(base.tau)
        tau[t] = c  # e2 e2 = 2 e3 in T_2(GF(3)); E12 E21 = 3 E11 in M_2(GF(5))
        tampered.append(FinAlgebra(base.field, base.n, tau))
    valid = [triangular(f3), full_matrices(f5), cyclic_group_algebra(f3, 3)]
    made = []
    original = FpElement.__init__

    def counted(self, p, v):
        made.append(v)
        original(self, p, v)

    monkeypatch.setattr(FpElement, "__init__", counted)
    assert [validate_algebra(a) for a in valid] == [None] * 3 and made == []
    detail = "(e_i e_j) e_l != e_i (e_j e_l)"
    assert [validate_algebra(a) for a in tampered] == [
        Violation("associativity", (2, 2, 2, 2), detail),
        Violation("associativity", (3, 4, 3, 3), detail),
    ]
    assert made == []
    assert [validate_algebra(a) for a in tampered] == [dense_validate(a) for a in tampered]


def test_multiply_dual_numbers(dual_q):
    t = dual_q.basis_vector(1)
    assert dense_multiply(dual_q, t, t) == (QQ.zero, QQ.zero)
    x = (QQ(3), QQ(5))
    assert dense_multiply(dual_q, dual_q.unit, x) == x
    assert dense_multiply(dual_q, x, dual_q.unit) == x


def test_multiply_triangular(triangular_q):
    e2 = triangular_q.basis_vector(1)
    e3 = triangular_q.basis_vector(2)
    assert dense_multiply(triangular_q, e2, e3) == e2
    assert dense_multiply(triangular_q, e3, e2) == (QQ.zero,) * 3
    assert dense_multiply(triangular_q, e3, e3) == e3


def test_multiply_random_associative(triangular_q):
    rng = random.Random(11)
    for _ in range(30):
        x, y, z = (
            tuple(QQ(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
        )
        lhs = dense_multiply(triangular_q, dense_multiply(triangular_q, x, y), z)
        rhs = dense_multiply(triangular_q, x, dense_multiply(triangular_q, y, z))
        assert lhs == rhs


def test_is_algebra_map_identity(dual_q):
    assert is_algebra_map(dual_q, dual_q, Matrix.identity(QQ, 2))


@pytest.mark.parametrize("beta", ["0", "1", "5", "-2/3"])
def test_is_algebra_map_dual_diagonal(dual_q, beta):
    f = Matrix(QQ, [[QQ(1), QQ(0)], [QQ(0), QQ(beta)]])
    assert is_algebra_map(dual_q, dual_q, f)


def test_is_algebra_map_rejects_non_nilpotent_image(dual_q):
    # f(t) = 1 fails because f(t)^2 = 1 != 0
    f = Matrix(QQ, [[QQ(1), QQ(1)], [QQ(0), QQ(0)]])
    assert not is_algebra_map(dual_q, dual_q, f)


def test_is_algebra_map_dimension_mismatch(dual_q, triangular_q):
    with pytest.raises(ValueError):
        is_algebra_map(dual_q, dual_q, Matrix.identity(QQ, 3))
    # maps dual -> triangular need a 3x2 matrix
    cols = [triangular_q.unit, triangular_q.basis_vector(1)]
    f = Matrix.from_columns(QQ, cols)
    assert is_algebra_map(dual_q, triangular_q, f)


def test_algebra_rejects_bad_dimension_and_labels():
    with pytest.raises(ValueError):
        FinAlgebra(QQ, 0, {})
    with pytest.raises(ValueError):
        FinAlgebra(QQ, 2, {}, ("only-one",))
    with pytest.raises(ValueError):
        FinAlgebra(QQ, 2, {(0, 0, 5): QQ.one})


def test_sparse_zero_constants_dropped():
    a = dual_numbers(QQ)
    explicit_zero = dict(a.tau)
    explicit_zero[(1, 1, 0)] = QQ.zero
    b = FinAlgebra(QQ, 2, explicit_zero, ("1", "t"))
    assert a == b
    assert (1, 1, 0) not in b.tau


# ---------------------------------------------------------------------------
# sparse validation against the dense definition


def dense_validate(a):
    """The O(n^5) definition: every tau[i,j,s] and sum over u, in index order."""
    n = a.n
    one, zero = a.field.one, a.field.zero
    for j in range(n):
        for s in range(n):
            want = one if j == s else zero
            if a.tau_get(0, j, s) != want:
                return Violation("unit", (1, j + 1, s + 1), "left unit axiom fails")
            if a.tau_get(j, 0, s) != want:
                return Violation("unit", (j + 1, 1, s + 1), "right unit axiom fails")
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for s in range(n):
                    left = sum((a.tau_get(i, j, u) * a.tau_get(u, l, s) for u in range(n)), zero)
                    right = sum((a.tau_get(j, l, u) * a.tau_get(i, u, s) for u in range(n)), zero)
                    if left != right:
                        return Violation(
                            "associativity",
                            (i + 1, j + 1, l + 1, s + 1),
                            "(e_i e_j) e_l != e_i (e_j e_l)",
                        )
    return None


FIXTURES = [
    "dual_gf2", "dual_gf3", "dual_gf5", "dual_gf7", "dual_q",
    "ground_field_q", "triangular_gf2", "triangular_gf3", "triangular_q",
]


def fixture_algebras():
    return [load_algebra(fixture_path(f"{name}.json"))[0] for name in FIXTURES]


def generated_algebras():
    for fld in (QQ, GF(2), GF(3)):
        yield from (truncated_polynomial(fld, n) for n in range(1, 7))
        yield from (cyclic_group_algebra(fld, m) for m in range(1, 6))
        yield full_matrices(fld)
        yield from (upper_triangular(fld, n) for n in (2, 3))


def test_sparse_validation_matches_dense_on_valid_inputs():
    algebras = fixture_algebras() + list(generated_algebras())
    assert len(algebras) == 9 + 3 * 14
    for a in algebras:
        assert validate_algebra(a) is None
        assert dense_validate(a) is None


def test_sparse_validation_matches_dense_on_one_constant_mutations():
    # every stored constant bumped by 1 and every absent one set to 1: the
    # unit branch and the associativity branch, at every place they can fail
    kinds = {"unit": 0, "associativity": 0, None: 0}
    small = [full_matrices(QQ), truncated_polynomial(QQ, 4), cyclic_group_algebra(GF(3), 3)]
    for a in fixture_algebras() + small:
        n, one = a.n, a.field.one
        triples = [(i, j, s) for i in range(n) for j in range(n) for s in range(n)]
        for t in triples:
            tau = dict(a.tau)
            tau[t] = tau[t] + one if t in tau else one
            b = FinAlgebra(a.field, n, tau)
            got = validate_algebra(b)
            assert got == dense_validate(b)
            kinds[got and got.kind] += 1
    assert kinds == {"unit": 147, "associativity": 114, None: 16}


def test_rational_validation_runs_on_ints(monkeypatch):
    # over QQ the associativity loop runs on ints (every tau times the lcm of
    # the denominators): bases rescaled so that the constants carry
    # denominators, each constant tampered by 1/3 or set to -7/4, give the
    # first failing (i, j, l, s) of the dense definition, and the loop makes
    # no Fraction; so do k 1 + V with V^2 = 0, whose (i, j, l) with e_i e_j
    # and e_j e_l both zero are skipped, and its tamperings
    from fractions import Fraction

    bases = [
        rescaled(triangular(QQ), (1, "3/2", "-2/5")),
        rescaled(truncated_polynomial(QQ, 3), (1, "-5/3", "7/2")),
        rescaled(full_matrices(QQ), (1, "2/3", "-3/4", "5")),
        square_zero(QQ, 4),
    ]
    cases = []
    for a in bases:
        n = a.n
        for t in [(i, j, s) for i in range(n) for j in range(n) for s in range(n)]:
            tau = dict(a.tau)
            tau[t] = tau[t] + QQ("1/3") if t in tau else QQ("-7/4")
            cases.append(FinAlgebra(QQ, n, tau))
    want = [dense_validate(a) for a in [*bases, *cases]]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 makes results here
        made_coprime = Fraction._from_coprime_ints.__func__
        coprime = classmethod(lambda cls, *a: made.append(a) or made_coprime(cls, *a))
        monkeypatch.setattr(Fraction, "_from_coprime_ints", coprime)
    got = [validate_algebra(a) for a in [*bases, *cases]]
    monkeypatch.undo()
    assert got == want and made == []
    kinds = [v and v.kind for v in got]
    assert kinds[:4] == [None] * 4
    # the square-zero algebra's 64 tamperings: 28 unit, 21 associativity, 15 valid
    assert [kinds.count(k) for k in ("unit", "associativity", None)] == [86, 79, 21]

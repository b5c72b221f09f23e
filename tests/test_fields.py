import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from usym import GF, QQ, field_from_spec
from usym.fields import MAX_CHARACTERISTIC


def test_rational_parse_reduced_form():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert str(QQ.parse("-3/6")) == "-1/2"
    assert QQ.parse("4") == Fraction(4)


def test_prime_field_least_residues():
    f5 = GF(5)
    assert f5(7).v == 2
    assert f5(-1).v == 4
    assert str(f5(-1)) == "4"
    assert f5.parse("3/2") == f5(3) / f5(2)


def test_exponent_bounded_by_int_string_limit():
    # Fraction("0e10000000") builds 10**10**7 before it multiplies by 0
    limit = sys.get_int_max_str_digits()
    assert QQ.parse(f"1e{limit - 1}") == 10 ** (limit - 1)  # limit digits
    assert QQ.parse(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert QQ.parse("25e-2") == Fraction(1, 4)
    for text in (f"1e{limit}", f"1.5e{limit - 1}", f"1E-{limit}", "0e10000000", "1e5000"):
        for field in (QQ, GF(5)):
            with pytest.raises(ValueError, match="exponent"):
                field.parse(text)
            with pytest.raises(ValueError, match="exponent"):
                field(text)


def test_mantissa_bounded_by_int_string_limit():
    # Fraction("1" * k + "." + "1" * k) builds a 2k-digit numerator
    limit = sys.get_int_max_str_digits()
    half = "1" * (limit // 2)
    assert QQ.parse(half + "." + half) == Fraction(int(half + half), 10 ** len(half))
    for text in (half + "." + half + "1", "1" * (limit + 1), "1" * limit + "/3"):
        for field in (QQ, GF(5)):
            with pytest.raises(ValueError, match="^it would build an integer"):
                field.parse(text)
            with pytest.raises(ValueError, match="^it would build an integer"):
                field(text)


def test_field_from_spec():
    assert field_from_spec("QQ") == QQ
    assert field_from_spec("GF(7)").characteristic == 7
    for bad in ("GF(4)", "GF(-3)", "R", "GF()", "gf(5)"):
        with pytest.raises(ValueError):
            field_from_spec(bad)


def test_characteristic_bound():
    GF(65521)  # largest prime below 2^16
    with pytest.raises(ValueError):
        GF(65537)  # prime, but above the bound
    with pytest.raises(ValueError, match="exceeds bound"):
        field_from_spec("GF(2305843009213693951)")  # 2^61 - 1: no trial division
    assert MAX_CHARACTERISTIC == 1 << 16


def test_cross_field_arithmetic_rejected():
    with pytest.raises(TypeError):
        GF(3)(1) + GF(5)(1)
    with pytest.raises(TypeError):
        GF(3)(1) + Fraction(1)


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-50, max_value=50))
    den = draw(st.integers(min_value=1, max_value=50))
    return Fraction(num, den)


@given(rationals(), rationals(), rationals())
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (Fraction(1) / a) == 1


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_prime_field_axioms(p, x, y, z):
    f = GF(p)
    a, b, c = f(x), f(y), f(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == f.zero
    assert a * f.one == a
    if a:
        assert a * a.inverse() == f.one


def test_fp_element_hash_eq_consistency():
    f = GF(7)
    assert hash(f(3)) == hash(f(10))
    assert f(3) == f(10)
    assert len({f(k) for k in range(30)}) == 7


def test_enumeration():
    assert [x.v for x in GF(3).elements()] == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()

"""Exact scalars over the rationals and over prime fields.

Rationals are ``fractions.Fraction`` (already reduced, positive denominator);
prime-field elements are :class:`FpElement` residues stored as the least
nonnegative representative.  Both kinds support ``+ - * /``, comparison,
hashing and ``str``, so the rest of the package is field-agnostic and only
reaches for a :class:`Field` object when it needs ``zero``/``one``, coercion,
or element enumeration.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterator, Union

MAX_CHARACTERISTIC = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """Residue modulo a prime p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other: "FpElement") -> "FpElement":
        if not isinstance(other, FpElement) or other.p != self.p:
            raise TypeError(f"cannot combine GF({self.p}) scalar with {other!r}")
        return other

    def __add__(self, other):
        return FpElement(self.p, self.v + self._coerce(other).v)

    def __sub__(self, other):
        return FpElement(self.p, self.v - self._coerce(other).v)

    def __mul__(self, other):
        return FpElement(self.p, self.v * self._coerce(other).v)

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def inverse(self) -> "FpElement":
        if self.v == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return FpElement(self.p, pow(self.v, self.p - 2, self.p))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __bool__(self) -> bool:
        return self.v != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, FpElement) and other.p == self.p and other.v == self.v

    def __lt__(self, other) -> bool:
        return self.v < self._coerce(other).v

    def __hash__(self) -> int:
        return hash((self.p, self.v))

    def __repr__(self) -> str:
        return str(self.v)


Scalar = Union[Fraction, FpElement]


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text), refusing text that would build an integer longer than
    Python converts from a string: the mantissa's digits, plus |exponent| when
    there is one, must stay within the limit.  Fraction("0e10000000") builds
    10**10**7 before it multiplies by 0, and Fraction("1" * 3000 + "." +
    "1" * 3000) a 6,000-digit numerator."""
    text = text.strip()
    mantissa, sep, exponent = text.lower().partition("e")
    digits, what = sum(ch.isdigit() for ch in mantissa), "it"
    if sep:
        try:
            digits, what = digits + abs(int(exponent)), "its exponent"
        except ValueError:  # not an exponent: Fraction refuses the text
            pass
    # interpreters older than the int-string limit have no such method
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(f"{what} would build an integer of more than {limit} digits")
    return Fraction(text)


class Field:
    """Common interface of the two supported scalar domains."""

    characteristic: int
    zero: Scalar
    one: Scalar

    def __call__(self, value) -> Scalar:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def elements(self) -> Iterator[Scalar]:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.spec_string()


class RationalField(Field):
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _parse_fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def parse(self, text: str) -> Fraction:
        return _parse_fraction(text)

    def elements(self) -> Iterator[Fraction]:
        raise ValueError("QQ is infinite; element enumeration is not available")

    def spec_string(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p: int):
        # the bound first: trial division of a large p would run for minutes
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds bound {MAX_CHARACTERISTIC}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.characteristic = p
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def __call__(self, value) -> FpElement:
        p = self.characteristic
        if isinstance(value, FpElement):
            if value.p != p:
                raise TypeError(f"scalar from GF({value.p}) used in GF({p})")
            return value
        if isinstance(value, int):
            return FpElement(p, value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            num = FpElement(p, value.numerator)
            den = FpElement(p, value.denominator)
            return num / den
        raise TypeError(f"cannot coerce {value!r} into GF({p})")

    def parse(self, text: str) -> FpElement:
        return self(_parse_fraction(text))

    def elements(self) -> Iterator[FpElement]:
        p = self.characteristic
        return (FpElement(p, v) for v in range(p))

    def spec_string(self) -> str:
        return f"GF({self.characteristic})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("GF", self.characteristic))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: str) -> Field:
    """Parse a field description: "QQ" or "GF(p)"."""
    s = spec.strip()
    if s == "QQ":
        return QQ
    if s.startswith("GF(") and s.endswith(")"):
        body = s[3:-1]
        if not body.isdigit():
            raise ValueError(f"bad field spec {spec!r}")
        return PrimeField(int(body))
    raise ValueError(f"bad field spec {spec!r} (expected 'QQ' or 'GF(p)')")

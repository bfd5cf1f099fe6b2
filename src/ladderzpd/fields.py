"""Exact field scalars: arbitrary-precision rationals and prime fields.

Every computation in this package is exact, so scalars are either
`fractions.Fraction` values (the rationals, the default field) or `Fp`
values (integers mod a prime, a cross-check backend).  Both
kinds are immutable, support the usual arithmetic operators, and are
falsy exactly when zero, which is what the elimination code relies on.

A field descriptor (`RationalField` / `PrimeField`) carries the zero and
one constants and knows how to parse and format canonical scalar text:
"num/den" with positive denominator (den omitted when 1) for rationals,
the reduced representative for prime fields.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class FieldMismatchError(TypeError):
    """Scalars from two different fields met in one operation."""


class Fp:
    """An element of the prime field Z/pZ, stored reduced to [0, p).

    Arithmetic accepts another Fp with the same modulus, or a plain int
    (coerced mod p).  Mixing moduli, or mixing with rationals, raises
    FieldMismatchError rather than silently coercing.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):
        raise AttributeError("Fp values are immutable")

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"prime fields F_{self.p} and F_{other.p} do not mix")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        raise FieldMismatchError(
            f"cannot combine F_{self.p} element with {type(other).__name__}")

    def __add__(self, other):
        return Fp(self.value + self._lift(other).value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return Fp(self.value - self._lift(other).value, self.p)

    def __rsub__(self, other):
        return Fp(self._lift(other).value - self.value, self.p)

    def __mul__(self, other):
        return Fp(self.value * self._lift(other).value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"prime fields F_{self.p} and F_{other.p} do not mix")
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((Fp, self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


Scalar = Union[Fraction, Fp]

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class RationalField:
    """Descriptor and element factory for the field of rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        """Parse "num/den" or "num" text into a canonical Fraction."""
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"malformed rational scalar: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar: {text!r}") from None

    def format(self, x: Fraction) -> str:
        if not isinstance(x, Fraction):
            raise FieldMismatchError(f"not a rational scalar: {x!r}")
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


# Miller-Rabin with these bases decides primality exactly for every
# n < MILLER_RABIN_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MILLER_RABIN_BOUND.

    Larger n raise ValueError rather than get a probabilistic answer.
    """
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"modulus {n} is too large to prove prime (the limit is "
            f"{MILLER_RABIN_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Descriptor and element factory for Z/pZ, p a prime.

    Primality is proved at construction by deterministic Miller-Rabin,
    so p is limited to below MILLER_RABIN_BOUND (about 3.3e24).  The
    elimination engine reduces plain ints mod p, so large p costs little
    more than small p.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def from_int(self, k: int) -> Fp:
        return Fp(k, self.p)

    def parse(self, text: str) -> Fp:
        if not _INT_RE.match(text):
            raise ValueError(f"malformed prime-field scalar: {text!r}")
        return Fp(int(text), self.p)

    def format(self, x: Fp) -> str:
        if not isinstance(x, Fp) or x.p != self.p:
            raise FieldMismatchError(f"not an F_{self.p} scalar: {x!r}")
        return str(x.value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()

# default cross-check modulus
DEFAULT_PRIME = 101

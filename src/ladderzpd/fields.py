"""Exact field scalars: arbitrary-precision rationals and prime fields.

Every computation in this package is exact.  Over the rationals (the
default field) a scalar is a `fractions.Fraction`; over F_p, the
cross-check backend, it is a plain int residue in [0, p), and a matrix
entry is never 0.  Both kinds are falsy exactly when zero.  The
package does its arithmetic on integers (see `elim`), so residues need
no field operators of their own.

A field descriptor (`RationalField` / `PrimeField`) carries the zero and
one constants and knows how to parse and format canonical scalar text:
"num/den" with positive denominator (den omitted when 1) for rationals,
the reduced representative for prime fields.

No ladder command runs this module: it imports `fractions`, which
imports `decimal` and `numbers`.  The package root gives `QQ`,
`FieldMismatchError`, `PrimeField` and `RationalField` from here at
their first use, and the CLI registers this module lazily and keeps
`--prime`'s default, `cli.DEFAULT_PRIME`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class FieldMismatchError(TypeError):
    """A value given to a field descriptor is not one of its scalars."""


Scalar = Union[Fraction, int]

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

    def check(self, x: Fraction) -> Fraction:
        if not isinstance(x, Fraction):
            raise FieldMismatchError(f"not a rational scalar: {x!r}")
        return x

    def format(self, x: Fraction) -> str:
        return str(self.check(x))

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
    """Descriptor and element factory for Z/pZ, p a prime, whose
    scalars are int residues in [0, p).

    Primality is proved at construction by deterministic Miller-Rabin,
    so p is limited to below MILLER_RABIN_BOUND (about 3.3e24).  The
    elimination engine reduces plain ints mod p, so large p costs little
    more than small p.
    """

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def from_int(self, k: int) -> int:
        return k % self.p

    def parse(self, text: str) -> int:
        if not _INT_RE.match(text):
            raise ValueError(f"malformed prime-field scalar: {text!r}")
        return int(text) % self.p

    def check(self, x: int) -> int:
        if type(x) is not int or not 0 <= x < self.p:
            raise FieldMismatchError(f"not an F_{self.p} scalar: {x!r}")
        return x

    def format(self, x: int) -> str:
        return str(self.check(x))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()

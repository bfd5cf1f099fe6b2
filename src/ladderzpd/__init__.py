"""Exact-arithmetic certificates that one-step ladder matrix Lie algebras
are zero product determined.

The package constructs ladder matrix spaces inside gl_n, computes the
kernel of the Lie-bracket multiplication map on the tensor square, builds
explicit rank-one spanning families for one-step ladders, and verifies the
resulting certificates with exact rational (or prime-field) arithmetic.
"""

from .fields import QQ, FieldMismatchError, PrimeField, RationalField

__all__ = [
    "QQ",
    "FieldMismatchError",
    "PrimeField",
    "RationalField",
]

__version__ = "0.1.0"

"""Exact-arithmetic certificates that one-step ladder matrix Lie algebras
are zero product determined.

The package constructs ladder matrix spaces inside gl_n, computes the
kernel of the Lie-bracket multiplication map on the tensor square, builds
explicit rank-one spanning families for one-step ladders, and verifies the
resulting certificates with exact rational (or prime-field) arithmetic.

The field names below are read from `fields` at their first use
(PEP 562), so `import ladderzpd` runs no submodule and the ladder
commands never load `fractions`.
"""

__all__ = [
    "QQ",
    "FieldMismatchError",
    "PrimeField",
    "RationalField",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        from . import fields
        return getattr(fields, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Sparse exact matrices.

Matrices are n-by-n over an exact field, stored as a map from 1-based
(row, col) pairs to nonzero scalars: Fractions over Q, int residues in
[1, p) over F_p (else the field's `check` raises FieldMismatchError).
They are the factors of certificate tensors, so the invariants are
strict: no stored zero entries, one field per matrix, indices in
range.  They follow the e_{i,j} convention: elementary(n, i, j) has a
single 1 in row i, column j.  The package does no arithmetic on whole matrices: it works
on coordinates, and the verifier's direct route multiplies the integer
entries of two factors itself.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .fields import Field, QQ, Scalar

Position = Tuple[int, int]
Entries = Dict[Position, Any]


class SparseMatrix:
    """n-by-n matrix over an exact field; entries keyed by (row, col), 1-based.

    Treat it as immutable once built.  A certificate holds each factor
    once for every tensor that carries it (tensors.Tensors), and the
    verifier and the writer keep per-factor results, so mutating entries
    would change, or silently not change, every such tensor.
    """

    __slots__ = ("n", "field", "entries")

    def __init__(self, n: int, field: Field = QQ,
                 entries: Dict[Position, Scalar] | None = None):
        if n < 1:
            raise ValueError(f"ambient size must be positive, got {n}")
        self.n = n
        self.field = field
        self.entries: Dict[Position, Scalar] = {}
        if entries:
            for (i, j), c in entries.items():
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"entry ({i},{j}) out of range for n={n}")
                if field.check(c):
                    self.entries[(i, j)] = c

    def shifted(self, offset: int, new_n: int) -> "SparseMatrix":
        """Translate every entry by (offset, offset) into an ambient of size new_n."""
        out = SparseMatrix(new_n, self.field)
        for (i, j), c in self.entries.items():
            ii, jj = i + offset, j + offset
            if not (1 <= ii <= new_n and 1 <= jj <= new_n):
                raise ValueError(
                    f"entry ({i},{j}) shifted by {offset} leaves ambient n={new_n}")
            out.entries[(ii, jj)] = c
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.entries.items())))

    def __repr__(self):
        cells = ", ".join(f"({i},{j}): {self.field.format(c)}"
                          for (i, j), c in sorted(self.entries.items()))
        return f"SparseMatrix(n={self.n}, {{{cells}}})"


def elementary(n: int, i: int, j: int, field: Field = QQ) -> SparseMatrix:
    """The matrix e_{i,j}: 1 in row i, column j, zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"elementary index ({i},{j}) out of range for n={n}")
    return SparseMatrix(n, field, {(i, j): field.one})

"""Sparse exact matrices and the two products (associative, Lie bracket).

Matrices are n-by-n over an exact field, stored as a map from 1-based
(row, col) pairs to nonzero scalars.  Everything downstream (ladder
spaces, the mu map, certificates) manipulates these, so the invariants
are strict: no stored zero entries, one field per matrix, indices in
range.  They follow the e_{i,j} convention: elementary(n, i, j) has a
single 1 in row i, column j.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .fields import Field, FieldMismatchError, QQ, Scalar

Position = Tuple[int, int]
Entries = Dict[Position, Any]

PRODUCT_KINDS = ("associative", "lie")


class SparseMatrix:
    """n-by-n matrix over an exact field; entries keyed by (row, col), 1-based."""

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
                if c:
                    self.entries[(i, j)] = c

    def __getitem__(self, pos: Position) -> Scalar:
        return self.entries.get(pos, self.field.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def copy(self) -> "SparseMatrix":
        out = SparseMatrix(self.n, self.field)
        out.entries = dict(self.entries)
        return out

    def _check_compatible(self, other: "SparseMatrix") -> None:
        if not isinstance(other, SparseMatrix):
            raise TypeError(f"expected SparseMatrix, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"matrices over {self.field!r} and {other.field!r} do not mix")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_compatible(other)
        out = self.copy()
        for pos, c in other.entries.items():
            s = out.entries.get(pos)
            if s is None:
                out.entries[pos] = c
            else:
                s = s + c
                if s:
                    out.entries[pos] = s
                else:
                    del out.entries[pos]
        return out

    def __neg__(self) -> "SparseMatrix":
        out = SparseMatrix(self.n, self.field)
        out.entries = {pos: -c for pos, c in self.entries.items()}
        return out

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

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


def entry_product(x: Entries, y: Entries) -> Entries:
    """The product xy of two matrices given as entry maps.  The scalars
    may be field elements or plain ints; ints are multiplied exactly,
    with no reduction mod p.  No zero entry is kept."""
    rows_of_y: Dict[int, list] = {}
    for (k, j), c in y.items():
        rows_of_y.setdefault(k, []).append((j, c))
    acc: Entries = {}
    for (i, k), a in x.items():
        for j, b in rows_of_y.get(k, ()):
            pos = (i, j)
            s = acc.get(pos)
            v = a * b if s is None else s + a * b
            if v:
                acc[pos] = v
            elif s is not None:
                del acc[pos]
    return acc


def _assoc(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    out = SparseMatrix(x.n, x.field)
    out.entries = entry_product(x.entries, y.entries)
    return out


def mat_product(x: SparseMatrix, y: SparseMatrix,
                kind: str = "lie") -> SparseMatrix:
    """xy for kind "associative"; the bracket xy - yx for kind "lie"."""
    x._check_compatible(y)
    if kind == "associative":
        return _assoc(x, y)
    if kind == "lie":
        return _assoc(x, y) - _assoc(y, x)
    raise ValueError(f"unknown product kind: {kind!r}")

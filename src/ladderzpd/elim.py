"""Exact elimination on integers: rank, echelon forms, null spaces.

One engine, `IncrementalEchelon`, does all elimination.  Rows are sparse
column -> int maps, and the engine reduces them on plain Python ints
(`integer_coords` turns a row of field scalars into one):

- over Q, a row of rationals enters scaled by the lcm of its
  denominators and is eliminated fraction-free: the candidate becomes
  b*row - a*pivot with a, b the two leading entries divided by their
  gcd, and each stored pivot row is kept primitive (divided by its
  content gcd);
- over F_p, rows are reduced to residues in [0, p) as they enter,
  pivot rows are monic, and every combination is reduced with % p.

This is exact, not a modular shortcut.  Scaling a row by a nonzero
rational and adding multiples of other rows leave its row space over Q
unchanged, so every rank decision and the reduced echelon form are the
ones Gaussian elimination over Q would give.  `IncrementalEchelon.null_space` back-substitutes to the reduced
row echelon form and reads off the null space on integers: to get the
kernel of a linear map, insert the rows of its matrix (one per image
coordinate, keyed by domain index).  Field scalars (a `Fraction`, or an
int residue over F_p) are made only at the end, by `field_row`, for the
vectors a caller keeps.  Pivoting is deterministic: a row's leading
column is its smallest column index.  `MaskedSpan` keeps a span whose
unit rows are only marks on their columns, for the verifier and the
search alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Tuple, TypeVar

from .fields import Field, PrimeField, Scalar

K = TypeVar("K")

SparseRow = Dict[int, Scalar]
IntRow = Dict[int, int]


def integer_coords(coords: Dict[K, Scalar], field: Field) -> Dict[K, int]:
    """Nonzero entries of a sparse vector as plain ints.

    Over Q: the vector times the lcm of its denominators, a positive
    rational multiple of it.  Over F_p: the entries reduced mod p, so
    any integer representatives may come in.  Over Q, entries that are
    already ints pass through unchanged.
    """
    if isinstance(field, PrimeField):
        p = field.p
        out = {}
        for key, v in coords.items():
            r = v % p
            if r:
                out[key] = r
        return out
    den = 1
    for v in coords.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        return {key: c for key, v in coords.items() if (c := v.numerator)}
    return {key: c * (den // v.denominator)
            for key, v in coords.items() if (c := v.numerator)}


def _clear(work: IntRow, prow: IntRow, col: int, p: int) -> IntRow:
    """work with its entry at col cleared by the pivot row prow.

    Over F_p (p > 0, prow monic): work - a*prow mod p.  Over Z (p == 0):
    b*work - a*prow, with a/b = work[col]/prow[col] in lowest terms, so
    the result is an integer row with the same span over Q as work and
    prow together.  Returns work, updated in place unless rescaled.
    """
    a = work[col]
    if p:
        for c, v in prow.items():
            t = (work.get(c, 0) - a * v) % p
            if t:
                work[c] = t
            else:
                del work[c]
        return work
    b = prow[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        work = {c: b * v for c, v in work.items()}
    for c, v in prow.items():
        t = work.get(c, 0) - a * v
        if t:
            work[c] = t
        else:
            del work[c]
    return work


def _normalize(row: IntRow, lead: int, p: int) -> IntRow:
    """The pivot-row form of a nonzero row: monic at lead over F_p,
    primitive (content gcd 1) over Z."""
    if p:
        inv = pow(row[lead], -1, p)
        return row if inv == 1 else {c: v * inv % p for c, v in row.items()}
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


class IncrementalEchelon:
    """Row echelon form over the integers, grown one row at a time.

    Rows are sparse column -> int maps over a fixed (implicit) column
    range.  Over Q a row stands for itself, over F_p for its residues;
    a row of field scalars goes in as integer_coords(row, field), a
    nonzero multiple of it.  `pivot_rows` maps each pivot column to its
    stored integer row: primitive over Q, monic over F_p.  Insertion
    reduces the candidate's leading column against stored pivots until
    it either vanishes (dependent) or lands on a fresh column (rank
    grows by one).  This is plain echelon, not reduced echelon: stored
    rows may have entries at other pivot columns, which is harmless for
    rank tracking and keeps fill-in down.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p if isinstance(field, PrimeField) else 0
        self.pivot_rows: Dict[int, IntRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def insert(self, row: IntRow) -> bool:
        """Reduce a copy of the integer row against the accumulated rows;
        keep it if independent.  Returns True when the rank increased.

        The copy is the only pass over row before elimination: it drops
        zero entries (a cancelled sum in ad_u's rows, say) and over F_p
        reduces every entry mod p.  So callers may pass any integer
        representatives, such as unreduced products of residues or -1,
        and the stored rows still hold residues in [0, p).
        """
        p = self.p
        if p:
            work = {c: r for c, v in row.items() if (r := v % p)}
        else:
            work = {c: v for c, v in row.items() if v}
        return self._place(work)

    def _place(self, work: IntRow) -> bool:
        """insert on a row the engine may keep, with no zero entries
        (and residues in [0, p) over F_p)."""
        pivots, p = self.pivot_rows, self.p
        while work:
            lead = min(work)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = _normalize(work, lead, p)
                return True
            work = _clear(work, prow, lead, p)
        return False

    def null_space(self, cols: Iterable[int]) -> List[Tuple[IntRow, int]]:
        """Null space vectors on integers, for the free columns in cols.

        Back-substitutes integer copies of the pivot rows (the engine is
        left as it is), then gives one pair (w, m) per column f of cols
        that is not a pivot, in the order of cols: w / m is the basis
        vector with 1 at f and 0 at the other free columns, and m > 0 is
        the lcm of the pivot entries it divides by (1 over F_p, with
        monic pivot rows).  cols = range(ncols) gives the whole null
        space over ncols columns.
        """
        p = self.p
        rows: Dict[int, IntRow] = {}
        for piv in sorted(self.pivot_rows, reverse=True):
            row = dict(self.pivot_rows[piv])
            # rows[q] is already reduced, so clearing column q adds
            # entries only at free columns
            for q in [c for c in row if c in rows]:
                row = _clear(row, rows[q], q, p)
            rows[piv] = _normalize(row, piv, p)
        wanted: Dict[int, IntRow] = {f: {} for f in cols if f not in rows}
        for piv, row in rows.items():
            for f, v in row.items():
                if f in wanted:
                    wanted[f][piv] = v
        out = []
        for f, col in wanted.items():
            m = lcm(*(rows[piv][piv] for piv in col))
            w = {f: m}
            for piv, v in col.items():
                w[piv] = -v * (m // rows[piv][piv])
            out.append((w, m))
        return out


class MaskedSpan:
    """The span of the rows of tensors u (x) v in a tensor square with d^2
    columns, each unit row (one nonzero entry) kept only as a mark on
    its column.  The row of u (x) v, for u and v given as (index,
    coefficient) pairs, has a*b at column s*d + k for (s, a) in u and
    (k, b) in v: the column rule of `tensors`.

    A caller marks the column of every unit row in `marked`, one byte
    per column, with a plain store; `seal` then counts the marked
    columns, once, into `units`.  Every other row goes through
    `insert`, which builds it with the marked columns deleted as the
    echelon's own copy, and `rank` = units + rank of those masked rows.

    Proof: the unit rows span exactly {e_c : c in C}, for C the set of
    marked columns.  Taking the quotient by that span deletes the
    columns in C, so the rank of all rows is |C| plus the rank of the
    other rows with the columns in C deleted, and a row raises the rank
    of the rows before it, unit rows included, iff its masked copy
    raises the masked rank.  The mask must be whole before any row is
    inserted: a partial one counts 3 for the rows e_c + e_c', e_c, e_c'
    in that order, whose rank is 2.
    """

    __slots__ = ("d", "marked", "units", "echelon")

    def __init__(self, field: Field, d: int):
        self.d = d
        self.marked = bytearray(d * d)
        self.units = 0
        self.echelon = IncrementalEchelon(field)

    def seal(self) -> None:
        """Count the marked columns; every unit row is marked by now."""
        self.units = self.marked.count(1)

    def insert(self, u: Iterable[Tuple[int, int]],
               v: Iterable[Tuple[int, int]]) -> bool:
        """Insert the row of u (x) v with the marked columns deleted (v
        is read once per pair in u: a list or a dict view).  True when
        the rank increased."""
        marked, d, p = self.marked, self.d, self.echelon.p
        work: IntRow = {}
        for s, a in u:
            for k, b in v:
                if not marked[c := s * d + k] and (x := a * b % p if p
                                                   else a * b):
                    work[c] = x
        return self.echelon._place(work)

    @property
    def rank(self) -> int:
        return self.units + self.echelon.rank


def field_row(row: IntRow, den: int, field: Field) -> SparseRow:
    """The integer row divided by den, as field scalars."""
    if isinstance(field, PrimeField):
        inv = pow(den, -1, field.p)
        return {c: v * inv % field.p for c, v in row.items()}
    return {c: Fraction(v, den) for c, v in row.items()}

"""The tensor square of a matrix algebra, its product table, the
multiplication map mu, and rank-one tensors stored by column (Tensors).

An algebra here is a span of elementary matrices at a fixed position
set, with the basis ordered row-major.  How two basis elements bracket
is worked out in one place, the product table `TensorSpace.products`:
`build_mu` stores it, once, as mu's nonzero columns, read by the
verifier and `certificates.ad_echelon`.  (No ladder command reads it:
a ladder's space is closed exactly when the ladder is upper
triangular, proved in `ladders.is_upper_triangular`.)  The tensor
square gets the ordered basis b_s (x) b_t indexed by the global column
rule column(s, t) = s*d + t with s, t 0-based; certificates depend on
this rule.  It is stated here, and verify_certificate and
search_spanning apply it as s * d + k.
mu sends a tensor to the bracket of its factors, extended linearly; its
kernel dimension is the quantity every certificate is measured against.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import eq
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .elim import IncrementalEchelon
from .fields import Field, QQ, Scalar
from .ladders import _non_int
from .matrices import Entries, Position, SparseMatrix, elementary

# a stored column of mu: (a, c) pairs, c = +-1 the coefficient of b_a
Column = Tuple[Tuple[int, int], ...]
# a rank-one tensor u (x) v and its family label
Triple = Tuple[SparseMatrix, SparseMatrix, str]


class MembershipError(ValueError):
    """A matrix was used where a member of the spanned subspace is required."""


class ClosureError(ValueError):
    """A product of basis elements escaped the subspace."""


class TensorSpace:
    """Tensor square of the span of elementary matrices at given positions.

    This is the one position-set type: a ladder's space is
    TensorSpace(ladder.n, ladder.positions(), field), gl_m is
    TensorSpace.gl(m, field).  The algebra basis is e_{i,j} for (i, j)
    in the sorted position set; coordinates of members are read off
    entry-by-entry.  n and every coordinate must be plain ints
    (ValueError otherwise).
    """

    __slots__ = ("n", "field", "positions", "index_of", "d")

    def __init__(self, n: int, positions: Sequence[Position],
                 field: Field = QQ):
        if type(n) is not int:
            raise ValueError(f"ambient size must be an int, got {n!r}")
        pos = tuple(sorted({(i, j) if type(i) is type(j) is int else
                            _non_int("position", i, j) for i, j in positions}))
        for i, j in pos:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"position ({i},{j}) out of range for n={n}")
        if not pos:
            raise ValueError("empty position set spans no algebra")
        self.n = n
        self.field = field
        self.positions = pos
        self.index_of = {p: k for k, p in enumerate(pos)}
        self.d = len(pos)

    @classmethod
    def gl(cls, m: int, field: Field = QQ) -> "TensorSpace":
        if m < 1:
            raise ValueError(f"gl size must be positive, got {m}")
        return cls(m, [(i, j) for i in range(1, m + 1)
                       for j in range(1, m + 1)], field)

    def basis_matrix(self, k: int) -> SparseMatrix:
        i, j = self.positions[k]
        return elementary(self.n, i, j, self.field)

    def products(self, s: int) -> Iterator[Tuple[int, int, int]]:
        """The product table: the nonzero structure constants of [b_s, b_k]
        for each basis element b_k, as triples (k, a, c): b_a has
        coefficient c = +-1.  With b_s = e_ij, [e_ij, e_jq] has e_iq and
        [e_ij, e_pi] has -e_pj.  The two meet only in [b_s, b_s], where
        they cancel; that pair is skipped, so no two triples share
        (k, a).  A term outside the position set raises ClosureError."""
        i, j = self.positions[s]
        span = range(1, self.n + 1)
        terms = [((j, q), (i, q), 1) for q in span]
        terms += [((p, i), (p, j), -1) for p in span]
        for factor, image, c in terms:
            k = self.index_of.get(factor)
            if k is None or k == s:
                continue
            a = self.index_of.get(image)
            if a is None:
                raise ClosureError(
                    f"product of basis elements e_{self.positions[s]} and "
                    f"e_{factor} leaves the span: support at {image} is "
                    f"outside the position set")
            yield k, a, c

    def coords_of(self, mat: SparseMatrix,
                  entries: Optional[Entries] = None) -> Dict[int, Any]:
        """Sparse coordinates of a member against the elementary basis:
        of its entries, or of entries given in their place, keyed by the
        same positions (the verifier passes an integer multiple)."""
        if mat.n != self.n or mat.field != self.field:
            raise MembershipError(
                f"matrix over n={mat.n}, {mat.field!r} does not live in "
                f"this space (n={self.n}, {self.field!r})")
        coords: Dict[int, Any] = {}
        for pos, c in (mat.entries if entries is None else entries).items():
            k = self.index_of.get(pos)
            if k is None:
                raise MembershipError(
                    f"support at {pos} is outside the position set")
            coords[k] = c
        return coords

    def from_coords(self, coords: Dict[int, Scalar]) -> SparseMatrix:
        entries = {self.positions[k]: c for k, c in coords.items() if c}
        return SparseMatrix(self.n, self.field, entries)

    def __repr__(self):
        return f"TensorSpace(n={self.n}, d={self.d}, field={self.field!r})"


class Tensors:
    """Labeled rank-one tensors u (x) v, stored by column: each factor
    object once in factors, numbered as it first appears (u before v),
    each tensor's two numbers in the arrays us and vs, and the labels as
    (label, count) runs.  About d^2 one-step tensors over about d
    factors take 8 bytes each.  Iteration gives (u, v, label); two are
    equal when their tensors are, however numbered."""

    __slots__ = ("factors", "us", "vs", "runs", "_ids")

    def __init__(self, triples: Iterable[Triple] = ()):
        self.factors: List[SparseMatrix] = []
        self.us, self.vs = array("I"), array("I")
        self.runs: List[Tuple[str, int]] = []
        self._ids: Dict[int, int] = {}  # object id -> number, for _product
        for u, v, label in triples:
            self._product(label, (u,), (v,))

    def _product(self, label: str, xs: Sequence[SparseMatrix],
                 ys: Sequence[SparseMatrix]) -> None:
        """Append x (x) y for x in xs and y in ys, x outer."""
        if not (xs and ys):
            return
        ids = self._ids
        for f in (xs[0], *ys, *xs[1:]):  # in the order they first appear
            if id(f) not in ids:
                ids[id(f)] = len(self.factors)
                self.factors.append(f)
        ks = array("I", [ids[id(y)] for y in ys])
        for x in xs:
            self.us.extend(repeat(ids[id(x)], len(ks)))
            self.vs.extend(ks)
        self._label(label, len(xs) * len(ks))

    def _label(self, label: str, count: int) -> None:
        """Label the last count tensors appended, count > 0."""
        if self.runs and self.runs[-1][0] == label:
            count += self.runs.pop()[1]
        self.runs.append((label, count))

    def __iadd__(self, other: Tensors) -> Tensors:
        """Append other's tensors, its factors numbered after these."""
        offset = len(self.factors)
        self.factors += other.factors
        self.us.extend(map(offset.__add__, other.us))
        self.vs.extend(map(offset.__add__, other.vs))
        for label, count in other.runs:
            self._label(label, count)
        return self

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self) -> Iterator[Triple]:
        factor = self.factors.__getitem__
        labels = (repeat(label, count) for label, count in self.runs)
        return zip(map(factor, self.us), map(factor, self.vs),
                   chain.from_iterable(labels))

    def __eq__(self, other):
        return (isinstance(other, Tensors) and len(self) == len(other)
                and all(map(eq, self, other)))


class MuMap:
    """The multiplication map on the tensor square, as an explicit matrix.

    Column s*d + t holds the coordinates of the product of b_s and b_t
    in the algebra basis: structure constants +-1, stored as plain ints
    and read in the space's field.  Only nonzero columns are stored, as
    columns[s][t], a tuple of (a, c) pairs.  Rank (hence kernel
    dimension) is computed on demand by sparse elimination and cached.
    """

    __slots__ = ("space", "columns", "_rank")

    def __init__(self, space: TensorSpace, columns: List[Dict[int, Column]]):
        self.space = space
        self.columns = columns
        self._rank: Optional[int] = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            ech = IncrementalEchelon(self.space.field)
            for by_t in self.columns:
                for col in by_t.values():
                    ech.insert(dict(col))
            self._rank = ech.rank
        return self._rank

    @property
    def kernel_dim(self) -> int:
        return self.space.d ** 2 - self.rank


def build_mu(space: TensorSpace, kind: str = "lie") -> MuMap:
    """Assemble mu for the bracket from the product table; a product
    leaving the span raises ClosureError.  kind must be "lie"."""
    if kind != "lie":
        raise ValueError(f"unknown product kind: {kind!r}")
    columns: List[Dict[int, Column]] = []
    for s in range(space.d):
        by_t: Dict[int, Column] = {}
        for k, a, c in space.products(s):
            by_t[k] = by_t.get(k, ()) + ((a, c),)
        columns.append(by_t)
    return MuMap(space, columns)

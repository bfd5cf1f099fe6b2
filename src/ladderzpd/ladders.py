"""Ladders, their position sets, and upper-triangularity.

A ladder is a set of steps (i_t, j_t) with strictly increasing rows and
strictly increasing columns.  Each step contributes every position with
row <= i_t and column >= j_t; the ladder matrix space M_L is the span of
the elementary matrices at the union of those positions,
`Ladder.positions()`.  A ladder is upper triangular when i_t < j_{t+1}
for consecutive steps: exactly when M_L is closed under matrix
multiplication, and equally under the bracket (proved in
`is_upper_triangular`).  One-step ladders with i1 >= j1 carry the block
profile (n1, n2, n3) = (j1 - 1, i1 - j1 + 1, n - i1) that drives the
certificate construction; i1 < j1 gives an abelian space.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .matrices import Position


class Ladder:
    """A step set {(i_t, j_t)}, strictly increasing in both coordinates."""

    __slots__ = ("n", "steps")

    def __init__(self, n: int, steps: Sequence[Tuple[int, int]]):
        if n < 1:
            raise ValueError(f"ambient size must be positive, got {n}")
        ordered = tuple(sorted((int(i), int(j)) for i, j in steps))
        if not ordered:
            raise ValueError("a ladder needs at least one step")
        for i, j in ordered:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"step ({i},{j}) out of range for n={n}")
        for (i1, j1), (i2, j2) in zip(ordered, ordered[1:]):
            if not (i1 < i2 and j1 < j2):
                raise ValueError(
                    f"steps must increase strictly in both coordinates: "
                    f"({i1},{j1}) then ({i2},{j2})")
        self.n = n
        self.steps = ordered

    def positions(self) -> Tuple[Position, ...]:
        """The positions of M_L, sorted row-major: (i, j) with
        i <= i_t and j_t <= j <= n for some step (i_t, j_t)."""
        allowed = set()
        for i_t, j_t in self.steps:
            for i in range(1, i_t + 1):
                for j in range(j_t, self.n + 1):
                    allowed.add((i, j))
        return tuple(sorted(allowed))

    def dim(self) -> int:
        """len(self.positions()), from the steps alone: rows
        i_{t-1} < i <= i_t hold exactly the columns j_t..n."""
        return sum((i - prev) * (self.n - j + 1) for (i, j), (prev, _)
                   in zip(self.steps, ((0, 0),) + self.steps))

    def __eq__(self, other):
        if not isinstance(other, Ladder):
            return NotImplemented
        return self.n == other.n and self.steps == other.steps

    def __hash__(self):
        return hash((self.n, self.steps))

    def __repr__(self):
        return f"Ladder(n={self.n}, steps={list(self.steps)})"


def is_upper_triangular(ladder: Ladder) -> bool:
    """True iff i_t < j_{t+1} for consecutive steps (vacuous for one
    step): exactly when M_L is closed under the product, and exactly
    when it is closed under the bracket.

    A matrix lies in M_L iff its support lies in P = `positions()`.
    Product.  M_L is closed iff (i, j), (j, q) in P put (i, q) in P, as
    e_ij e_jq = e_iq.  If i_t < j_{t+1} for every t, take (i, j) from
    step t and (j, q) from step t'.  Then t' >= t, since t' < t would
    give i_{t'} <= i_{t-1} < j_t <= j <= i_{t'}.  So i <= i_t <= i_{t'}
    and q >= j_{t'}: (i, q) lies in step t'.  If i_t >= j_{t+1} for some
    t, then (i_{t+1}, j_{t+1}) and (j_{t+1}, j_t) are positions (of
    steps t+1 and t), but (i_{t+1}, j_t) is not: its step s would need
    s >= t+1 for the row and s <= t for the column.

    Bracket.  [e_ij, e_kl] = delta_jk e_il - delta_li e_kj, so the
    bracket of two positions asks for the compositions (i, j)(j, l) and
    (k, i)(i, j), and for no other position.  Every composition
    (i, j)(j, q) is asked for by [e_ij, e_jq] unless the two are the
    same element, i = j = q, and then it is (i, i), already in P.  So on
    any span of elementary matrices closure under the bracket equals
    closure under the product.
    """
    return all(ladder.steps[t][0] < ladder.steps[t + 1][1]
               for t in range(len(ladder.steps) - 1))


def enumerate_ladders(n: int, k: int) -> List[Ladder]:
    """All C(n,k)^2 k-step ladders on n, ordered lexicographically by
    (row tuple, column tuple)."""
    if not (1 <= k <= n):
        raise ValueError(f"step count {k} out of range for n={n}")
    out = []
    for rows in combinations(range(1, n + 1), k):
        for cols in combinations(range(1, n + 1), k):
            out.append(Ladder(n, list(zip(rows, cols))))
    return out


class BlockProfile(NamedTuple):
    """Block sizes of a non-abelian one-step ladder; n1 + n2 + n3 = n."""
    n1: int
    n2: int
    n3: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3


def block_profile(ladder: Ladder) -> Optional[BlockProfile]:
    """Block sizes (n1, n2, n3) of a one-step ladder, or None when it is
    abelian (i1 < j1, every product of basis elements vanishes)."""
    if len(ladder.steps) != 1:
        raise ValueError("block profiles are defined for one-step ladders only")
    (i1, j1), = ladder.steps
    if i1 < j1:
        return None
    return BlockProfile(j1 - 1, i1 - j1 + 1, ladder.n - i1)

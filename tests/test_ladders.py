"""Ladders, their matrix spaces, upper-triangularity, and closure."""

from __future__ import annotations

from itertools import product
from typing import Sequence

import pytest

from ladderzpd.ladders import (BlockProfile, Ladder, block_profile,
                               enumerate_ladders, is_closed,
                               is_upper_triangular)
from ladderzpd.tensors import MembershipError, TensorSpace

from oracles import mu_columns_by_products


def ladder_space(ladder: Ladder) -> TensorSpace:
    return TensorSpace(ladder.n, ladder.positions())


def partition_to_ladder(partition: Sequence[int]) -> Ladder:
    """The upper triangular ladder whose space is the block upper
    triangular algebra of the partition.

    Step t sits at (sum of the first t parts, 1 + sum of the first t-1
    parts).
    """
    parts = list(partition)
    if not parts:
        raise ValueError("empty partition")
    if any(p < 1 for p in parts):
        raise ValueError(f"nonpositive part in partition {parts}")
    n = sum(parts)
    steps = []
    running = 0
    for p in parts:
        steps.append((running + p, running + 1))
        running += p
    return Ladder(n, steps)


def test_two_step_example_positions():
    # the 6x6 two-step staircase: steps (3,2) and (6,5); the overlap of
    # the two step rectangles is counted once, giving 21 positions
    space = ladder_space(Ladder(6, [(3, 2), (6, 5)]))
    assert space.d == 21
    expected = {(i, j) for i in range(1, 4) for j in range(2, 7)} | \
               {(i, j) for i in range(1, 7) for j in range(5, 7)}
    assert set(space.positions) == expected
    assert (4, 5) in space.index_of and (6, 6) in space.index_of
    assert (4, 4) not in space.index_of and (1, 1) not in space.index_of


def test_one_step_positions_small():
    assert Ladder(3, [(2, 2)]).positions() == ((1, 2), (1, 3), (2, 2), (2, 3))
    space = ladder_space(Ladder(3, [(2, 2)]))
    assert space.positions == ((1, 2), (1, 3), (2, 2), (2, 3))
    assert space.d == 4


def test_full_matrix_space():
    space = ladder_space(Ladder(2, [(2, 1)]))
    assert space.d == 4
    assert space.positions == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_basis_row_major_and_distinct():
    space = ladder_space(Ladder(4, [(2, 2), (4, 3)]))
    mats = [space.basis_matrix(k) for k in range(space.d)]
    assert len(mats) == space.d == len(set(space.positions))
    assert space.positions == tuple(sorted(space.positions))
    for pos, mat in zip(space.positions, mats):
        assert list(mat.entries) == [pos]


def test_ladder_validation():
    with pytest.raises(ValueError):
        Ladder(3, [])
    with pytest.raises(ValueError):
        Ladder(3, [(2, 1), (3, 1)])  # columns not increasing
    with pytest.raises(ValueError):
        Ladder(3, [(2, 1), (2, 3)])  # rows not increasing
    with pytest.raises(ValueError):
        Ladder(3, [(4, 1)])
    with pytest.raises(ValueError):
        Ladder(3, [(1, 0)])


def test_is_upper_triangular():
    assert is_upper_triangular(Ladder(6, [(3, 2), (6, 5)]))  # 3 < 5
    assert is_upper_triangular(Ladder(5, [(4, 1)]))  # one step, vacuous
    assert not is_upper_triangular(Ladder(3, [(2, 1), (3, 2)]))  # 2 >= 2


def test_closure_examples():
    assert is_closed(ladder_space(Ladder(6, [(3, 2), (6, 5)])), "associative")
    assert not is_closed(ladder_space(Ladder(3, [(2, 1), (3, 2)])),
                         "associative")
    for i1, j1 in ((1, 1), (2, 1), (3, 3), (4, 2)):
        assert is_closed(ladder_space(Ladder(4, [(i1, j1)])), "lie")


def test_partition_to_ladder_examples():
    assert partition_to_ladder([2, 3, 1]) == Ladder(6, [(2, 1), (5, 3), (6, 6)])
    assert partition_to_ladder([4]) == Ladder(4, [(4, 1)])
    two = partition_to_ladder([1, 1])
    assert two == Ladder(2, [(1, 1), (2, 2)])
    assert ladder_space(two).positions == ((1, 1), (1, 2), (2, 2))


def test_partition_to_ladder_validation():
    with pytest.raises(ValueError):
        partition_to_ladder([])
    with pytest.raises(ValueError):
        partition_to_ladder([2, 0, 1])


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_partition_ladders_are_upper_triangular_and_block_shaped():
    for n in range(1, 7):
        for parts in compositions(n):
            ladder = partition_to_ladder(list(parts))
            assert is_upper_triangular(ladder)
            # expected block upper triangular position set, cell by cell
            bounds = []
            running = 0
            for p in parts:
                bounds.append((running + 1, running + p))
                running += p

            def block_of(x):
                return next(k for k, (lo, hi) in enumerate(bounds)
                            if lo <= x <= hi)

            space = ladder_space(ladder)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    in_pattern = block_of(i) <= block_of(j)
                    assert ((i, j) in space.index_of) == in_pattern


def test_enumerate_ladders_counts_and_order():
    assert len(enumerate_ladders(2, 1)) == 4
    assert enumerate_ladders(2, 2) == [Ladder(2, [(1, 1), (2, 2)])]
    assert len(enumerate_ladders(3, 2)) == 9
    first = enumerate_ladders(2, 1)
    assert [lad.steps for lad in first] == [((1, 1),), ((1, 2),),
                                            ((2, 1),), ((2, 2),)]
    with pytest.raises(ValueError):
        enumerate_ladders(3, 0)
    with pytest.raises(ValueError):
        enumerate_ladders(3, 4)


def test_block_profile_examples():
    assert block_profile(Ladder(4, [(3, 2)])) == BlockProfile(1, 2, 1)
    assert block_profile(Ladder(4, [(2, 3)])) is None
    assert block_profile(Ladder(2, [(2, 1)])) == BlockProfile(0, 2, 0)
    with pytest.raises(ValueError):
        block_profile(Ladder(3, [(1, 1), (2, 2)]))


def test_one_step_dimension_formula():
    for n in range(2, 7):
        for i1, j1 in product(range(1, n + 1), repeat=2):
            profile = block_profile(Ladder(n, [(i1, j1)]))
            if profile is None:
                continue
            n1, n2, n3 = profile
            assert n1 + n2 + n3 == n
            space = ladder_space(Ladder(n, [(i1, j1)]))
            assert space.d == (n1 + n2) * (n2 + n3)


def test_closure_iff_upper_triangular_small():
    # multiplicative closure iff upper triangular, every ladder with n <= 3;
    # upper triangular implies bracket closure (one direction only)
    for n in range(1, 4):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                space = ladder_space(ladder)
                ut = is_upper_triangular(ladder)
                assert is_closed(space, "associative") == ut
                if ut:
                    assert is_closed(space, "lie")


def test_is_closed_matches_mat_product_reference():
    # every ladder with n <= 5, upper triangular or not: closed exactly
    # when multiplying every pair of basis matrices never leaves the span
    for n in range(1, 6):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                space = ladder_space(ladder)
                for kind in ("associative", "lie"):
                    try:
                        mu_columns_by_products(space, kind)
                        want = True
                    except MembershipError:
                        want = False
                    assert is_closed(space, kind) == want, (ladder, kind)

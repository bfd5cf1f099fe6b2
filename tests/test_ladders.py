"""Ladders, their matrix spaces, upper-triangularity, and closure.

Closure is read off the product table (`oracles.closed_by_products`) or
the matrices themselves (`oracles.mu_columns_by_products`) and compared
with `is_upper_triangular`, whose docstring proves they agree, and with
closure under composition of positions for sets that are not ladders.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import pytest
from hypothesis import given, seed, settings, strategies as st

from ladderzpd.ladders import (BlockProfile, Ladder, block_profile,
                               enumerate_ladders, is_upper_triangular)
from ladderzpd.tensors import MembershipError, TensorSpace

from oracles import closed_by_products, mu_columns_by_products

KINDS = ("associative", "lie")


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


def test_dim_counts_positions_from_the_steps():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                assert ladder.dim() == len(ladder.positions()), ladder


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


@pytest.mark.parametrize("n, steps, message", [
    (4, [(2.9, 1)], "step coordinates must be ints, got (2.9, 1)"),
    (4, [(2, 1.0)], "step coordinates must be ints, got (2, 1.0)"),
    (4, [("3", "2")], "step coordinates must be ints, got ('3', '2')"),
    (4, [(True, 2)], "step coordinates must be ints, got (True, 2)"),
    (4, [(1, None)], "step coordinates must be ints, got (1, None)"),
    # refused before sorting, which cannot compare "3" with 1
    (4, [(1, 2), ("3", 4)], "step coordinates must be ints, got ('3', 4)"),
    (4.0, [(2, 1)], "ambient size must be an int, got 4.0"),
    ("4", [(2, 1)], "ambient size must be an int, got '4'"),
    (True, [(1, 1)], "ambient size must be an int, got True"),
], ids=["float-row", "float-column", "text", "bool", "none", "mixed",
        "float-n", "text-n", "bool-n"])
def test_ladder_refuses_what_is_not_an_int(n, steps, message):
    # int() once truncated 2.9 to 2 and read "3" as 3
    with pytest.raises(ValueError) as exc:
        Ladder(n, steps)
    assert str(exc.value) == message


def test_is_upper_triangular():
    assert is_upper_triangular(Ladder(6, [(3, 2), (6, 5)]))  # 3 < 5
    assert is_upper_triangular(Ladder(5, [(4, 1)]))  # one step, vacuous
    assert not is_upper_triangular(Ladder(3, [(2, 1), (3, 2)]))  # 2 >= 2


def test_closure_examples():
    assert closed_by_products(ladder_space(Ladder(6, [(3, 2), (6, 5)])),
                              "associative")
    assert not closed_by_products(ladder_space(Ladder(3, [(2, 1), (3, 2)])),
                                  "associative")
    for i1, j1 in ((1, 1), (2, 1), (3, 3), (4, 2)):
        assert closed_by_products(ladder_space(Ladder(4, [(i1, j1)])), "lie")


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
    # the two halves of the product proof in is_upper_triangular, on
    # every ladder with n <= 6: an upper triangular ladder's positions
    # are closed under composition, and each t with i_t >= j_{t+1} has
    # (i_{t+1}, j_{t+1}) and (j_{t+1}, j_t) composing to a non-position
    for n in range(1, 7):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                positions = set(ladder.positions())
                steps = ladder.steps
                gaps = [(steps[t + 1], steps[t]) for t in range(k - 1)
                        if steps[t][0] >= steps[t + 1][1]]
                assert (not gaps) == is_upper_triangular(ladder)
                assert (not gaps) == (composed(positions) == positions)
                for (i2, j2), (_, j1) in gaps:
                    assert {(i2, j2), (j2, j1)} <= positions, ladder
                    assert (i2, j1) not in positions, ladder


def test_is_closed_rejects_an_unknown_kind():
    space = ladder_space(Ladder(3, [(2, 2)]))
    with pytest.raises(ValueError, match="unknown product kind"):
        closed_by_products(space, "jordan")


def assert_closure_agrees(n, positions):
    """The product table is closed, for both kinds, exactly when the
    positions are closed under composition; returns whether they are."""
    space = TensorSpace(n, positions)
    closed = composed(positions) == set(positions)
    for kind in KINDS:
        assert closed_by_products(space, kind) == closed, kind
    return closed


def test_is_closed_matches_product_table_on_every_ladder():
    # every ladder with n <= 6, closed or not, both kinds: the product
    # table is closed exactly when the ladder is upper triangular
    for n in range(1, 7):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                closed = assert_closure_agrees(n, ladder.positions())
                assert closed == is_upper_triangular(ladder), ladder


def composed(positions):
    """The least set holding positions and closed under composition."""
    out = set(positions)
    while True:
        new = {(a, c) for a, b in out for b2, c in out if b == b2} - out
        if not new:
            return out
        out |= new


def needed(positions):
    """The members of a position set that two others compose to: each
    one removed leaves a set that is not closed."""
    return [(a, c) for a, c in positions
            if any((a, b) in positions and (b, c) in positions
                   and (a, b) != (a, c) != (b, c) for b, _ in positions)]


def assert_closed_and_its_gaps_are_not(n, positions):
    positions = set(positions)
    assert assert_closure_agrees(n, positions)
    for p in needed(positions):
        assert not assert_closure_agrees(n, positions - {p}), p


def test_is_closed_on_closed_sets_that_are_not_ladders():
    # random subsets are almost never closed, so closed ones are built:
    # the diagonal, block-diagonal sets, gl_n, and each with one needed
    # position removed
    for n in range(1, 6):
        full = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        assert_closed_and_its_gaps_are_not(n, full)
        assert_closed_and_its_gaps_are_not(
            n, [(i, i) for i in range(1, n + 1)])
        for parts in compositions(n):
            start, blocks = 1, set()
            for p in parts:
                block = range(start, start + p)
                blocks |= set(product(block, block))
                start += p
            assert_closed_and_its_gaps_are_not(n, blocks)
    assert len(needed(set(product(range(1, 4), range(1, 4))))) == 9
    assert needed({(1, 1), (2, 2)}) == []


@seed(1)
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)), min_size=1))))
def test_is_closed_matches_product_table_on_position_sets(case):
    # arbitrary position sets with n <= 5, then the closure of each and
    # that closure with one needed position removed
    n, positions = case
    assert_closure_agrees(n, positions)
    assert_closed_and_its_gaps_are_not(n, composed(positions))


def test_is_closed_matches_mat_product_reference():
    # every ladder with n <= 5: upper triangular exactly when multiplying
    # every pair of basis matrices never leaves the span, both kinds
    for n in range(1, 6):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                space = ladder_space(ladder)
                ut = is_upper_triangular(ladder)
                for kind in KINDS:
                    try:
                        mu_columns_by_products(space, kind)
                        want = True
                    except MembershipError:
                        want = False
                    assert ut == want, (ladder, kind)

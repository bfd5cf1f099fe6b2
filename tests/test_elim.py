"""Exact elimination: rank, reduced echelon form, null spaces."""

from __future__ import annotations

import random
from fractions import Fraction

from ladderzpd.elim import IncrementalEchelon, integer_coords
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.matrices import elementary

from oracles import bracket, naive_rank, reduced

F = Fraction


def echelon(rows, field=QQ) -> IncrementalEchelon:
    """An engine holding the given dense rows."""
    ech = IncrementalEchelon(field)
    for row in rows:
        ech.insert(integer_coords(dict(enumerate(row)), field))
    return ech


def kernel(map_rows, field=QQ):
    """Null space of the map whose r-th row is the image of the r-th
    domain basis vector, as dense vectors: the engine holds the
    transposed matrix, one row per image coordinate."""
    dom = len(map_rows)
    codim = len(map_rows[0])
    ech = echelon([[row[c] for row in map_rows] for c in range(codim)],
                  field)
    return [[vec.get(r, field.zero) for r in range(dom)]
            for vec in reduced(ech, dom)[1]]


def test_rank_small_examples():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert echelon(rows).rank == 2
    assert echelon([]).rank == 0
    assert echelon([[F(0), F(0)]]).rank == 0


def test_rref_is_reduced_and_deterministic():
    rows = [[F(2), F(4), F(6)], [F(1), F(3), F(5)], [F(0), F(2), F(4)]]
    rref, _ = reduced(echelon(rows), 3)
    again, _ = reduced(echelon(rows), 3)
    assert rref == again
    assert list(rref) == [0, 1]
    for col, row in rref.items():
        assert row[col] == F(1)
        for other, orow in rref.items():
            if other != col:
                assert col not in orow


def test_gl2_bracket_image_rank_three():
    # coordinate rows of all [b_s, b_t] for gl_2 span the traceless
    # matrices: rank 3 = 2^2 - 1
    n = 2
    positions = [(i, j) for i in (1, 2) for j in (1, 2)]
    index = {p: k for k, p in enumerate(positions)}
    rows = []
    for i, j in positions:
        for k, l in positions:
            br = bracket(elementary(n, i, j), elementary(n, k, l))
            row = [F(0)] * 4
            for pos, c in br.entries.items():
                row[index[pos]] = c
            rows.append(row)
    assert echelon(rows).rank == 3
    assert naive_rank(rows) == 3


def test_kernel_zero_map():
    rows = [[F(0)] * 3 for _ in range(4)]
    basis = kernel(rows)
    assert len(basis) == 4
    for k, vec in enumerate(basis):
        assert vec[k] == F(1)
        assert sum(1 for x in vec if x) == 1


def test_kernel_identity_map():
    rows = [[F(1) if r == c else F(0) for c in range(4)] for r in range(4)]
    assert kernel(rows) == []


def test_kernel_mu_gl2_has_13_vectors():
    n = 2
    positions = [(i, j) for i in (1, 2) for j in (1, 2)]
    index = {p: k for k, p in enumerate(positions)}
    rows = []
    for i, j in positions:
        for k, l in positions:
            br = bracket(elementary(n, i, j), elementary(n, k, l))
            row = [F(0)] * 4
            for pos, c in br.entries.items():
                row[index[pos]] = c
            rows.append(row)
    basis = kernel(rows)
    assert len(basis) == 13
    assert 16 - naive_rank(rows) == 13
    # every kernel vector really kills the map
    for vec in basis:
        image = [F(0)] * 4
        for r, c in enumerate(vec):
            if c:
                for col in range(4):
                    image[col] += c * rows[r][col]
        assert all(not x for x in image)


def test_rank_plus_nullity():
    rng = random.Random(1234)
    for _ in range(20):
        dom = rng.randint(1, 7)
        cod = rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3)) for _ in range(cod)]
                for _ in range(dom)]
        rank = echelon(rows).rank
        assert rank == naive_rank(rows)
        assert rank + len(kernel(rows)) == dom


def test_rank_invariant_under_row_shuffle():
    rng = random.Random(77)
    rows = [[F(rng.randint(-4, 4)) for _ in range(6)] for _ in range(8)]
    base = echelon(rows).rank
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert echelon(shuffled).rank == base


def test_incremental_echelon_matches_naive_rank():
    rng = random.Random(31415)
    for _ in range(15):
        ncols = rng.randint(3, 12)
        dense_rows = []
        ech = IncrementalEchelon(QQ)
        grew = 0
        for _ in range(rng.randint(1, 15)):
            row = {}
            for _ in range(rng.randint(0, 4)):
                row[rng.randrange(ncols)] = F(rng.randint(-3, 3),
                                              rng.randint(1, 3))
            dense = [F(0)] * ncols
            for c, v in row.items():
                dense[c] = v
            dense_rows.append(dense)
            before = ech.rank
            inserted = ech.insert(integer_coords(row, QQ))
            assert inserted == (ech.rank == before + 1)
            if inserted:
                grew += 1
            assert ech.rank == naive_rank(dense_rows)
        assert grew == ech.rank


def test_incremental_echelon_membership():
    ech = IncrementalEchelon(QQ)
    ech.insert({0: 1, 1: 2})
    ech.insert({1: 1, 2: 1})
    # (1, 0, -2) = row1 - 2*row2, the zero row and a row of zero
    # entries reduce to zero, so inserting them leaves the rank unchanged
    assert not ech.insert({0: 1, 2: -2})
    assert not ech.insert({})
    assert not ech.insert({0: 0, 3: 0})
    assert not ech.insert({0: 2, 1: 4})
    assert ech.rank == 2
    # (1, 0, 1) does not
    assert ech.insert({0: 1, 2: 1})
    assert ech.rank == 3


def test_incremental_echelon_prime_field():
    # integer rows stand for their residues: -98 = 3, 208 = 6,
    # 202 = 0 and 102 = 1 mod 101, and every stored row holds reduced
    # residues, a row already monic at its lead included
    ech = IncrementalEchelon(PrimeField(101))
    assert ech.insert({0: -98, 1: 1})
    assert not ech.insert({0: 208, 1: 2, 2: 202})
    assert ech.insert({1: 102, 2: -1})
    assert ech.rank == 2
    assert all(0 <= v < 101 for row in ech.pivot_rows.values()
               for v in row.values())

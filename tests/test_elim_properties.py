"""Property tests for the integer elimination engine against dense oracles.

The greedy search only ever feeds the engine rows with entries in
{0, +-1}, so these tests draw what it never produces: rational entries
with denominators up to 7 (non-unit pivots, lcm scaling, content gcds)
and residues over F_2, F_3 and F_101.  Every answer is compared with
dense elimination from tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ladderzpd.certificates import ad_echelon
from ladderzpd.elim import IncrementalEchelon, MaskedSpan, integer_coords
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.ladders import Ladder
from ladderzpd.matrices import SparseMatrix
from ladderzpd.tensors import TensorSpace, build_mu

from oracles import (bracket, centralizer, dense_centralizer,
                     dense_kernel_of_rows, dense_rref, naive_rank,
                     naive_rank_mod_p, reduced)

RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
PRIMES = st.sampled_from([2, 3, 101])
SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def sparse_rows(draw, values, max_cols=9, max_rows=10):
    """(ncols, rows): sparse column -> value rows, zeros included."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), values, max_size=4),
        max_size=max_rows))
    return ncols, rows


@st.composite
def dense_rows(draw, values, max_dim=7):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def densify(row, ncols, zero):
    out = [zero] * ncols
    for c, v in row.items():
        out[c] = v
    return out


def fp_values(p):
    f = PrimeField(p)
    return st.integers(-2 * p, 2 * p).map(f.from_int)


def representatives(p):
    """Integers standing for residues mod p, reduced or not."""
    return st.integers(-2 * p, 2 * p)


@SETTINGS
@given(sparse_rows(RATIONALS))
def test_insert_matches_naive_rank_over_q(case):
    ncols, rows = case
    ech = IncrementalEchelon(QQ)
    prefix = []
    for row in rows:
        irow = integer_coords(row, QQ)
        before = dict(irow)
        inserted = ech.insert(irow)
        assert irow == before, "insert must not modify its argument"
        prefix.append(densify(row, ncols, Fraction(0)))
        rank = naive_rank(prefix)
        assert ech.rank == rank
        assert inserted == (rank == naive_rank(prefix[:-1]) + 1)


@SETTINGS
@given(sparse_rows(RATIONALS), st.data())
def test_reduces_to_zero_over_q(case, data):
    ncols, rows = case
    ech = IncrementalEchelon(QQ)
    for row in rows:
        ech.insert(integer_coords(row, QQ))
    combo = {}
    for row in rows:
        coeff = data.draw(RATIONALS)
        for c, v in row.items():
            combo[c] = combo.get(c, Fraction(0)) + coeff * v
    # a row in the span reduces to zero: insert keeps nothing
    assert not ech.insert(integer_coords(combo, QQ))
    dense = [densify(r, ncols, Fraction(0)) for r in rows]
    assert ech.rank == naive_rank(dense)
    probe = data.draw(st.dictionaries(st.integers(0, ncols - 1), RATIONALS,
                                      max_size=4))
    in_span = naive_rank(dense + [densify(probe, ncols, Fraction(0))]) \
        == naive_rank(dense)
    assert ech.insert(integer_coords(probe, QQ)) != in_span


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(st.just(p),
                                          sparse_rows(representatives(p)))))
def test_insert_matches_mod_p_oracle(case):
    # the engine takes any integer representatives and reduces them
    p, (ncols, rows) = case
    ech = IncrementalEchelon(PrimeField(p))
    prefix = []
    for row in rows:
        inserted = ech.insert(row)
        prefix.append(densify(row, ncols, 0))
        rank = naive_rank_mod_p(prefix, p)
        assert ech.rank == rank
        assert inserted == (rank == naive_rank_mod_p(prefix[:-1], p) + 1)
        assert not ech.insert(row)


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(st.just(p),
                                          sparse_rows(representatives(p)))),
       st.data())
def test_masked_span_matches_mod_p_oracle(case, data):
    # unit rows marked first, then every row inserted with the marked
    # columns deleted: rank and each insert's answer are the plain
    # echelon's on the unit rows followed by the same rows
    p, (ncols, rows) = case
    units = data.draw(st.lists(st.integers(0, ncols - 1), max_size=5))
    span = MaskedSpan(PrimeField(p), ncols)  # rows of b_0 (x) row
    for c in units:
        span.marked[c] = 1
    span.seal()
    prefix = [densify({c: 1}, ncols, 0) for c in units]
    assert span.rank == naive_rank_mod_p(prefix, p)
    for row in rows:
        before = naive_rank_mod_p(prefix, p)
        prefix.append(densify(row, ncols, 0))
        rank = naive_rank_mod_p(prefix, p)
        assert span.insert(((0, 1),), row.items()) == (rank == before + 1)
        assert span.rank == rank


def engine_rref(rows, field):
    """Reduced echelon form and pivots of dense rows from the engine, laid
    out like dense_rref: pivot rows first, then zero rows."""
    ncols = len(rows[0])
    ech = IncrementalEchelon(field)
    for row in rows:
        ech.insert(integer_coords(dict(enumerate(row)), field))
    rref, _ = reduced(ech, ncols)
    out = [densify(row, ncols, field.zero) for row in rref.values()]
    out += [[field.zero] * ncols for _ in range(len(rows) - len(rref))]
    return out, list(rref)


def engine_kernel(map_rows, field):
    """Null space of the map whose r-th row is the image of basis vector
    r, from the engine holding the transposed matrix."""
    dom = len(map_rows)
    ech = IncrementalEchelon(field)
    for c in range(len(map_rows[0])):
        ech.insert(integer_coords({r: row[c] for r, row in enumerate(map_rows)},
                                  field))
    return [densify(vec, dom, field.zero) for vec in reduced(ech, dom)[1]]


@SETTINGS
@given(dense_rows(RATIONALS))
def test_rref_and_kernel_match_dense_oracle_over_q(rows):
    assert engine_rref(rows, QQ) == dense_rref(rows, QQ)
    assert (engine_kernel(rows, QQ)
            == dense_kernel_of_rows(rows, len(rows), QQ))


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(st.just(p),
                                          dense_rows(fp_values(p)))))
def test_rref_and_kernel_match_dense_oracle_over_fp(case):
    p, rows = case
    f = PrimeField(p)
    assert engine_rref(rows, f) == dense_rref(rows, f)
    assert (engine_kernel(rows, f)
            == dense_kernel_of_rows(rows, len(rows), f))


def random_member(space):
    """Strategy: a member of the space with up to four fractional terms."""
    return st.dictionaries(st.sampled_from(space.positions), RATIONALS,
                           max_size=4).map(
        lambda entries: SparseMatrix(space.n, QQ, entries))


GL3 = TensorSpace.gl(3)
ONE_STEP = TensorSpace(5, Ladder(5, [(4, 2)]).positions())
# beyond gl_3 and a one-step ladder: gl_2, a two-step upper-triangular
# ladder, and an abelian one (every bracket zero, the centralizer is
# everything)
CENTRALIZER_SPACES = [
    GL3, ONE_STEP, TensorSpace.gl(2),
    TensorSpace(5, Ladder(5, [(2, 1), (4, 3)]).positions()),
    TensorSpace(4, Ladder(4, [(2, 3)]).positions())]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CENTRALIZER_SPACES).flatmap(
    lambda space: st.tuples(st.just(space), random_member(space))))
def test_centralizer_matches_dense_oracle(case):
    space, u = case
    got = [[v.entries.get(pos, 0) for pos in space.positions]
           for v in centralizer(u, space)]
    assert got == dense_centralizer(u, space.positions, space.n)


@SETTINGS
@given(PRIMES.flatmap(lambda p: st.tuples(
    st.sampled_from([QQ, PrimeField(p)]),
    sparse_rows(st.integers(-3, 3)), st.sets(st.integers(0, 8)))))
def test_null_space_of_chosen_columns(case):
    # asking for some columns gives exactly their vectors from the whole
    # null space, in the order asked; pivot columns give nothing
    field, (ncols, rows), chosen = case
    ech = IncrementalEchelon(field)
    for row in rows:
        ech.insert(row)
    free = [f for f in range(ncols) if f not in ech.pivot_rows]
    whole = dict(zip(free, ech.null_space(range(ncols))))
    cols = sorted(c for c in chosen if c < ncols)
    assert (ech.null_space(cols)
            == [whole[f] for f in cols if f in whole])
    assert ech.null_space(reversed(cols)) \
        == list(reversed(ech.null_space(cols)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CENTRALIZER_SPACES).flatmap(
    lambda space: st.tuples(st.just(space), random_member(space))))
def test_ad_echelon_active_columns(case):
    # A(u) is the set of k with [b_s, b_k] != 0 for some s in u's
    # support (dense brackets), and every column outside it is free with
    # the unit null vector
    space, u = case
    ucoords = integer_coords(space.coords_of(u), QQ)
    ad, active = ad_echelon(ucoords, build_mu(space))
    basis = [space.basis_matrix(k) for k in range(space.d)]
    assert active == {k for s in ucoords for k in range(space.d)
                      if bracket(basis[s], basis[k]).entries}
    outside = [k for k in range(space.d) if k not in active]
    assert ad.null_space(outside) == [({k: 1}, 1) for k in outside]

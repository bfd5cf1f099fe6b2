"""Tensor square, coordinates, and the mu map."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ladderzpd.elim import IncrementalEchelon
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.ladders import Ladder, enumerate_ladders
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.tensors import (ClosureError, MembershipError, TensorSpace,
                               build_mu)

from oracles import (RankOneTensor, apply_to_coords, flat_columns, in_kernel,
                     mu_columns_by_products, naive_mu_kernel_dim, reduced,
                     tensor_coords)

F = Fraction


def space_for(n, i1, j1, field=QQ):
    return TensorSpace(n, Ladder(n, [(i1, j1)]).positions(), field)


def test_gl1_mu_is_zero():
    mu = build_mu(TensorSpace.gl(1))
    assert mu.rank == 0
    assert mu.kernel_dim == 1


def test_gl2_mu_rank_and_kernel():
    space = TensorSpace.gl(2)
    mu = build_mu(space)
    assert mu.rank == 3
    assert mu.kernel_dim == 13
    assert naive_mu_kernel_dim(2, space.positions) == 13


def test_one_step_kernel_dim_matches_oracle():
    space = space_for(3, 2, 2)
    mu = build_mu(space)
    assert mu.kernel_dim == 13
    assert naive_mu_kernel_dim(3, space.positions) == 13


def test_build_mu_rejects_open_space():
    ladder = Ladder(3, [(2, 1), (3, 2)])  # not upper triangular
    space = TensorSpace(3, ladder.positions())
    with pytest.raises(ClosureError):
        build_mu(space)
    with pytest.raises(ValueError):
        build_mu(TensorSpace.gl(2), "jordan")


REFERENCE_SPACES = (
    [pytest.param(TensorSpace.gl(m, field), id=f"gl{m}-{name}")
     for m in range(1, 5)
     for name, field in (("QQ", QQ), ("F2", PrimeField(2)),
                         ("F101", PrimeField(101)))]
    + [pytest.param(TensorSpace(n, ladder.positions()),
                    id=f"n{n}-{list(ladder.steps)}")
       for n in range(1, 5) for k in range(1, n + 1)
       for ladder in enumerate_ladders(n, k)])


@pytest.mark.parametrize("space", REFERENCE_SPACES)
def test_build_mu_matches_mat_product_reference(space):
    # the product table against brackets of basis matrices; a space
    # that is not closed must fail in both
    try:
        want = mu_columns_by_products(space, "lie")
    except MembershipError:
        with pytest.raises(ClosureError):
            build_mu(space)
        return
    # mu stores only its nonzero columns, each a tuple, grouped by
    # first factor; laid out in s*d + t order, its +-1 structure
    # constants as field scalars equal the oracle's columns: exact
    # over Q, residues over F_p
    mu = build_mu(space)
    stored = [col for by_t in mu.columns for col in by_t.values()]
    assert all(type(col) is tuple and col for col in stored)
    assert len(stored) == sum(1 for col in want if col)
    assert [{a: space.field.from_int(c) for a, c in col.items()}
            for col in flat_columns(mu)] == want


def test_tensor_coords_elementary_pair():
    space = TensorSpace.gl(2)
    t = RankOneTensor(space.basis_matrix(2), space.basis_matrix(1), "x")
    # b_s (x) b_t sits at column s*d + t: here 2*4 + 1
    assert tensor_coords(t, space) == {9: F(1)}


def test_tensor_coords_bilinearity():
    space = TensorSpace.gl(2)
    d = space.d
    u = SparseMatrix(2, QQ, {space.positions[0]: F(1),
                             space.positions[1]: F(1)})
    t = RankOneTensor(u, space.basis_matrix(0), "x")
    assert tensor_coords(t, space) == {0: F(1), d: F(1)}


def test_tensor_coords_outer_product():
    space = space_for(3, 2, 2)
    # positions ((1,2),(1,3),(2,2),(2,3)); e_{2,2}+e_{2,3} has coords at 2,3
    u = SparseMatrix(3, QQ, {(2, 2): F(1), (2, 3): F(1)})
    t = RankOneTensor(u, u, "x")
    d = space.d
    got = tensor_coords(t, space)
    assert got == {2 * d + 2: F(1), 2 * d + 3: F(1),
                   3 * d + 2: F(1), 3 * d + 3: F(1)}


def test_tensor_coords_scaled():
    space = TensorSpace.gl(2)
    u = SparseMatrix(2, QQ, {space.positions[0]: F(2, 3)})
    v = SparseMatrix(2, QQ, {space.positions[3]: F(-3)})
    got = tensor_coords(RankOneTensor(u, v, "x"), space)
    assert got == {0 * space.d + 3: F(-2)}


def test_in_kernel_self_tensor():
    rng = random.Random(7)
    space = TensorSpace.gl(3)
    mu = build_mu(space)
    for _ in range(10):
        coords = {rng.randrange(space.d): F(rng.randint(-3, 3))
                  for _ in range(rng.randint(1, 4))}
        coords = {k: v for k, v in coords.items() if v}
        if not coords:
            continue
        x = space.from_coords(coords)
        t = RankOneTensor(x, x, "x")
        assert in_kernel(t, mu, tensor_coords(t, space))


def test_in_kernel_noncommuting_pair():
    space = space_for(3, 2, 2)
    mu = build_mu(space)
    t = RankOneTensor(elementary(3, 2, 2), elementary(3, 2, 3), "x")
    assert not in_kernel(t, mu, tensor_coords(t, space))


def test_in_kernel_telescoping_pair():
    # (e_{i,j} - e_{i,j+1}) (x) (e_{j,q} + e_{j+1,q}) brackets to zero
    space = TensorSpace.gl(3)
    mu = build_mu(space)
    u = SparseMatrix(3, QQ, {(1, 1): F(1), (1, 2): F(-1)})
    v = SparseMatrix(3, QQ, {(1, 3): F(1), (2, 3): F(1)})
    t = RankOneTensor(u, v, "x")
    assert in_kernel(t, mu, tensor_coords(t, space))


def test_mu_columns_antisymmetric():
    for space in (TensorSpace.gl(2), space_for(3, 2, 2), space_for(4, 3, 2)):
        columns = flat_columns(build_mu(space))
        d = space.d
        for s in range(d):
            for t in range(d):
                fwd = columns[s * d + t]
                rev = columns[t * d + s]
                assert set(fwd) == set(rev)
                assert all(fwd[k] == -rev[k] for k in fwd)


def test_membership_errors():
    space = space_for(3, 2, 2)
    with pytest.raises(MembershipError):
        space.coords_of(elementary(3, 3, 3))
    with pytest.raises(MembershipError):
        space.coords_of(elementary(4, 1, 2))
    with pytest.raises(MembershipError):
        space.coords_of(elementary(3, 1, 2, PrimeField(101)))


def test_from_coords_round_trip():
    space = space_for(4, 3, 2)
    rng = random.Random(11)
    for _ in range(10):
        coords = {rng.randrange(space.d): F(rng.randint(-4, 4))
                  for _ in range(4)}
        coords = {k: v for k, v in coords.items() if v}
        assert space.coords_of(space.from_coords(coords)) == coords


def test_kernel_basis_vectors_in_kernel():
    # the null space of mu: one engine row per algebra coordinate k,
    # holding the k-th entry of every column
    space = TensorSpace.gl(2)
    mu = build_mu(space)
    ech = IncrementalEchelon(space.field)
    for k in range(space.d):
        ech.insert({col: image[k]
                    for col, image in enumerate(flat_columns(mu))
                    if k in image})
    basis = reduced(ech, space.d ** 2)[1]
    assert len(basis) == 13 == mu.kernel_dim
    for vec in basis:
        assert not apply_to_coords(mu, vec)


def test_apply_to_coords_is_linear():
    space = space_for(3, 2, 2)
    mu = build_mu(space)
    t1 = tensor_coords(RankOneTensor(elementary(3, 2, 2),
                                     elementary(3, 2, 3), "x"), space)
    t2 = tensor_coords(RankOneTensor(elementary(3, 1, 2),
                                     elementary(3, 2, 2), "x"), space)
    merged = dict(t1)
    for k, v in t2.items():
        merged[k] = merged.get(k, F(0)) + v
    lhs = apply_to_coords(mu, merged)
    rhs = {}
    for part in (apply_to_coords(mu, t1), apply_to_coords(mu, t2)):
        for k, v in part.items():
            rhs[k] = rhs.get(k, F(0)) + v
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_gl_kernel_dimension_formula():
    for m in (1, 2, 3):
        mu = build_mu(TensorSpace.gl(m))
        assert mu.kernel_dim == m**4 - m**2 + 1


def test_mu_over_prime_field():
    f = PrimeField(101)
    mu = build_mu(TensorSpace.gl(2, f))
    assert mu.kernel_dim == 13

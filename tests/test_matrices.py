"""Sparse matrices and entry_product, through the oracles' product and
bracket built on it, checked against dense oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ladderzpd.certificates import candidate_pool
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.tensors import TensorSpace

from oracles import (bracket, dense_add, dense_bracket, dense_from_sparse,
                     dense_is_zero, dense_mult, product)


def random_sparse(rng: random.Random, n: int, nnz: int) -> SparseMatrix:
    entries = {}
    for _ in range(nnz):
        pos = (rng.randint(1, n), rng.randint(1, n))
        entries[pos] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return SparseMatrix(n, QQ, entries)


def test_elementary_single_entry():
    e = elementary(3, 1, 2)
    assert e.entries[(1, 2)] == 1
    assert list(e.entries) == [(1, 2)]
    assert list(elementary(1, 1, 1).entries) == [(1, 1)]


def test_elementary_out_of_range():
    for i, j in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError):
            elementary(3, i, j)


def test_elementary_defining_relation_exhaustive_n3():
    # e_{i,j} e_{k,l} = delta_{j,k} e_{i,l}, all index choices at n = 3
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    prod = product(elementary(n, i, j),
                                   elementary(n, k, l))
                    if j == k:
                        assert prod == elementary(n, i, l)
                    else:
                        assert not prod.entries


def test_bracket_hand_example():
    # [e_{1,2}, e_{2,1}] = e_{1,1} - e_{2,2} at n = 2
    got = bracket(elementary(2, 1, 2), elementary(2, 2, 1))
    want = SparseMatrix(2, QQ, {(1, 1): Fraction(1), (2, 2): Fraction(-1)})
    assert got == want


def test_bracket_self_is_zero():
    rng = random.Random(41)
    for _ in range(20):
        x = random_sparse(rng, 4, 5)
        assert not bracket(x, x).entries


def test_associative_orthogonal_elementaries():
    assert not product(elementary(2, 1, 2), elementary(2, 1, 2)).entries


def test_products_match_dense_oracle():
    rng = random.Random(2718)
    for _ in range(30):
        x = random_sparse(rng, 4, 6)
        y = random_sparse(rng, 4, 6)
        assert dense_from_sparse(product(x, y)) == \
            dense_mult(dense_from_sparse(x), dense_from_sparse(y))
        assert dense_from_sparse(bracket(x, y)) == \
            dense_bracket(dense_from_sparse(x), dense_from_sparse(y))


def test_antisymmetry_random():
    rng = random.Random(99)
    for _ in range(25):
        x = random_sparse(rng, 5, 6)
        y = random_sparse(rng, 5, 6)
        assert dense_is_zero(dense_add(dense_from_sparse(bracket(x, y)),
                                       dense_from_sparse(bracket(y, x))))


def test_jacobi_identity_random():
    rng = random.Random(100)
    for _ in range(15):
        x = random_sparse(rng, 4, 5)
        y = random_sparse(rng, 4, 5)
        z = random_sparse(rng, 4, 5)
        total = dense_add(
            dense_add(dense_from_sparse(bracket(x, bracket(y, z))),
                      dense_from_sparse(bracket(y, bracket(z, x)))),
            dense_from_sparse(bracket(z, bracket(x, y))))
        assert dense_is_zero(total)


def test_no_zero_entries_stored():
    y = SparseMatrix(3, QQ, {(1, 2): Fraction(0), (2, 2): Fraction(3)})
    assert list(y.entries) == [(2, 2)]
    # cancellation inside a product
    a = SparseMatrix(3, QQ, {(1, 2): Fraction(1), (1, 3): Fraction(1)})
    b = SparseMatrix(3, QQ, {(2, 1): Fraction(1), (3, 1): Fraction(-1)})
    prod = product(a, b)
    assert not prod.entries
    assert prod.entries == {}


def test_identity_and_diagonal_unit():
    n = 3
    ident = SparseMatrix(n, QQ, {(i, i): QQ.one for i in range(1, n + 1)})
    rng = random.Random(5)
    for _ in range(10):
        x = random_sparse(rng, n, 4)
        assert product(ident, x) == x
        assert product(x, ident) == x
        assert not bracket(ident, x).entries
    # the search pool ends with the diagonal unit of the position set,
    # and has none when no position is diagonal
    assert list(candidate_pool(TensorSpace(3, [(1, 1), (1, 2), (2, 2)])))[-1] \
        == {0: 1, 2: 1}
    assert len(list(candidate_pool(TensorSpace(3, [(1, 2), (1, 3)])))) == 4


def test_shifted():
    x = SparseMatrix(2, QQ, {(1, 2): Fraction(1), (2, 2): Fraction(3)})
    s = x.shifted(2, 5)
    assert s.entries == {(3, 4): Fraction(1), (4, 4): Fraction(3)}
    with pytest.raises(ValueError):
        x.shifted(4, 5)


def test_prime_field_matrices():
    f = PrimeField(101)
    x = elementary(2, 1, 2, f)
    y = elementary(2, 2, 1, f)
    br = bracket(x, y)
    assert br.entries[(1, 1)] == f.one
    assert br.entries[(2, 2)] == f.from_int(100)
    assert bracket(y, x).entries == {pos: f.from_int(-c)
                                     for pos, c in br.entries.items()}


def test_absent_entry_and_eq():
    x = elementary(3, 2, 3)
    assert (1, 1) not in x.entries
    assert x == elementary(3, 2, 3)
    assert x != elementary(3, 3, 2)
    assert hash(x) == hash(elementary(3, 2, 3))

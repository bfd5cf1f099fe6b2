"""Sparse matrices and the two products, checked against dense oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ladderzpd.fields import FieldMismatchError, PrimeField, QQ
from ladderzpd.matrices import SparseMatrix, elementary, mat_product
from ladderzpd.tensors import TensorSpace

from oracles import (dense_bracket, dense_from_sparse, dense_is_zero,
                     dense_mult)


def random_sparse(rng: random.Random, n: int, nnz: int) -> SparseMatrix:
    entries = {}
    for _ in range(nnz):
        pos = (rng.randint(1, n), rng.randint(1, n))
        entries[pos] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return SparseMatrix(n, QQ, entries)


def test_elementary_single_entry():
    e = elementary(3, 1, 2)
    assert e[(1, 2)] == 1
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
                    prod = mat_product(elementary(n, i, j),
                                       elementary(n, k, l), "associative")
                    if j == k:
                        assert prod == elementary(n, i, l)
                    else:
                        assert prod.is_zero()


def test_bracket_hand_example():
    # [e_{1,2}, e_{2,1}] = e_{1,1} - e_{2,2} at n = 2
    got = mat_product(elementary(2, 1, 2), elementary(2, 2, 1), "lie")
    want = SparseMatrix(2, QQ, {(1, 1): Fraction(1), (2, 2): Fraction(-1)})
    assert got == want


def test_bracket_self_is_zero():
    rng = random.Random(41)
    for _ in range(20):
        x = random_sparse(rng, 4, 5)
        assert mat_product(x, x, "lie").is_zero()


def test_associative_orthogonal_elementaries():
    assert mat_product(elementary(2, 1, 2), elementary(2, 1, 2),
                       "associative").is_zero()


def test_products_match_dense_oracle():
    rng = random.Random(2718)
    for _ in range(30):
        x = random_sparse(rng, 4, 6)
        y = random_sparse(rng, 4, 6)
        assert dense_from_sparse(mat_product(x, y, "associative")) == \
            dense_mult(dense_from_sparse(x), dense_from_sparse(y))
        assert dense_from_sparse(mat_product(x, y, "lie")) == \
            dense_bracket(dense_from_sparse(x), dense_from_sparse(y))


def test_antisymmetry_random():
    rng = random.Random(99)
    for _ in range(25):
        x = random_sparse(rng, 5, 6)
        y = random_sparse(rng, 5, 6)
        assert (mat_product(x, y, "lie") + mat_product(y, x, "lie")).is_zero()


def test_jacobi_identity_random():
    rng = random.Random(100)
    for _ in range(15):
        x = random_sparse(rng, 4, 5)
        y = random_sparse(rng, 4, 5)
        z = random_sparse(rng, 4, 5)
        total = (mat_product(x, mat_product(y, z, "lie"), "lie")
                 + mat_product(y, mat_product(z, x, "lie"), "lie")
                 + mat_product(z, mat_product(x, y, "lie"), "lie"))
        assert total.is_zero()


def test_no_zero_entries_stored():
    x = elementary(3, 1, 2)
    assert (x - x).entries == {}
    y = SparseMatrix(3, QQ, {(1, 2): Fraction(0), (2, 2): Fraction(3)})
    assert list(y.entries) == [(2, 2)]
    # cancellation inside a product
    a = elementary(3, 1, 2) + elementary(3, 1, 3)
    b = elementary(3, 2, 1) - elementary(3, 3, 1)
    prod = mat_product(a, b, "associative")
    assert prod.is_zero()
    assert prod.entries == {}


def test_size_and_field_mismatch():
    with pytest.raises(ValueError):
        mat_product(elementary(2, 1, 1), elementary(3, 1, 1))
    f = PrimeField(101)
    with pytest.raises(FieldMismatchError):
        elementary(2, 1, 1, QQ) + elementary(2, 1, 1, f)
    with pytest.raises(ValueError):
        mat_product(elementary(2, 1, 1), elementary(2, 1, 1), "jordan")


def test_identity_and_diagonal_unit():
    n = 3
    ident = SparseMatrix(n, QQ, {(i, i): QQ.one for i in range(1, n + 1)})
    rng = random.Random(5)
    for _ in range(10):
        x = random_sparse(rng, n, 4)
        assert mat_product(ident, x, "associative") == x
        assert mat_product(x, ident, "associative") == x
        assert mat_product(ident, x, "lie").is_zero()
    assert TensorSpace(3, [(1, 1), (1, 2), (2, 2)]).diagonal_unit() == \
        SparseMatrix(3, QQ, {(1, 1): QQ.one, (2, 2): QQ.one})
    assert TensorSpace(3, [(1, 2), (1, 3)]).diagonal_unit().is_zero()


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
    br = mat_product(x, y, "lie")
    assert br[(1, 1)] == f.one
    assert br[(2, 2)] == f.from_int(100)
    assert (br + mat_product(y, x, "lie")).is_zero()


def test_getitem_default_and_eq():
    x = elementary(3, 2, 3)
    assert x[(1, 1)] == QQ.zero
    assert x == elementary(3, 2, 3)
    assert x != elementary(3, 3, 2)
    assert hash(x) == hash(elementary(3, 2, 3))

"""Exact scalar arithmetic: rationals and prime fields."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ladderzpd.fields import (DEFAULT_PRIME, FieldMismatchError, Fp,
                              PrimeField, QQ, RationalField)


def test_rational_add_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_mul_identity():
    for x in (Fraction(7, 3), Fraction(-2), Fraction(0)):
        assert x * QQ.one == x
    f = PrimeField(101)
    for k in (0, 1, 50, 100):
        assert f.from_int(k) * f.one == f.from_int(k)


def test_prime_field_add_wraps():
    f = PrimeField(101)
    assert f.from_int(50) + f.from_int(52) == f.from_int(1)


def test_parse_canonicalizes():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.format(QQ.parse("2/4")) == "1/2"
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.format(Fraction(-3)) == "-3"
    f5 = PrimeField(5)
    assert f5.parse("7") == f5.from_int(2)
    assert f5.format(f5.parse("7")) == "2"


def test_parse_format_round_trip():
    for text in ("0", "1", "-1", "5/6", "-7/3", "123456789/987654321"):
        x = QQ.parse(text)
        assert QQ.parse(QQ.format(x)) == x
    f = PrimeField(101)
    for text in ("0", "1", "100", "57"):
        assert f.format(f.parse(text)) == text


def test_parse_rejects_malformed():
    for bad in ("", "1/2/3", "1.5", "a", "1/-2", "--3", "1 /2", "+ 1"):
        with pytest.raises(ValueError):
            QQ.parse(bad)
    with pytest.raises(ValueError):
        QQ.parse("3/0")
    f = PrimeField(7)
    for bad in ("", "1/2", "x", "1.0"):
        with pytest.raises(ValueError):
            f.parse(bad)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    f = PrimeField(101)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_mixed_fields_rejected():
    f101 = PrimeField(101)
    f5 = PrimeField(5)
    with pytest.raises(FieldMismatchError):
        f101.one + f5.one
    with pytest.raises(FieldMismatchError):
        f101.one * f5.from_int(3)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) + f101.one
    with pytest.raises(FieldMismatchError):
        f101.format(Fraction(1))
    with pytest.raises(FieldMismatchError):
        QQ.format(f101.one)


def test_field_descriptor_equality():
    assert QQ == RationalField()
    assert PrimeField(101) == PrimeField(101)
    assert PrimeField(101) != PrimeField(103)
    assert QQ != PrimeField(101)
    assert len({QQ, RationalField(), PrimeField(5), PrimeField(5)}) == 2


def test_prime_modulus_checked():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 5, 101, 97):
        PrimeField(good)
    assert DEFAULT_PRIME == 101


def test_field_axioms_random_triples():
    rng = random.Random(20240817)
    f = PrimeField(101)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (QQ.one / a) == QQ.one
        x, y, z = (f.from_int(rng.randint(0, 100)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (f.one / x) == f.one
        assert -x + x == f.zero
        assert x - y == x + (-y)


def test_canonical_form_unique():
    rng = random.Random(8)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        assert (a - b == 0) == (QQ.format(a) == QQ.format(b))


def test_fp_immutable_and_falsy_when_zero():
    f = PrimeField(13)
    x = f.from_int(5)
    with pytest.raises(AttributeError):
        x.value = 3
    assert bool(f.zero) is False
    assert bool(f.one) is True
    assert f.from_int(13) == 0
    assert not f.from_int(26)


def test_fp_int_coercion():
    f = PrimeField(7)
    assert f.from_int(3) + 5 == f.from_int(1)
    assert 2 * f.from_int(4) == f.one
    assert 1 - f.from_int(3) == f.from_int(5)
    assert 1 / f.from_int(3) == f.from_int(5)


def test_large_primes_accepted_quickly():
    import time
    start = time.perf_counter()
    for p in (1000000000000000003, 2**61 - 1):
        f = PrimeField(p)
        x = f.from_int(123456789)
        assert x * (f.one / x) == f.one
    assert time.perf_counter() - start < 1.0


def test_composites_and_pseudoprimes_rejected():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7; 3825123056546413051 to every prime base
    # up to 23
    for bad in (561, 2**61 + 1, 3215031751, 3825123056546413051,
                (2**31 - 1) * 1000000007):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(bad)


def test_miller_rabin_matches_trial_division():
    from ladderzpd.fields import is_prime
    for n in range(-3, 5000):
        trial = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == trial, n


def test_modulus_beyond_the_deterministic_bound_rejected():
    from ladderzpd.fields import MILLER_RABIN_BOUND
    for p in (MILLER_RABIN_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)

"""Field descriptors and scalars: rationals, F_p residues, and the
oracle's Fp.

Over F_p the package's scalars are plain int residues; field arithmetic
on them lives only in the test oracle's `Fp`, whose own arithmetic,
immutability, int coercion and mismatch checks are pinned here too.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from ladderzpd.certificates import gl_certificate
from ladderzpd.certio import (CertificateFormatError, certificate_bytes,
                              read_certificate)
from ladderzpd.fields import (DEFAULT_PRIME, FieldMismatchError, PrimeField,
                              QQ, RationalField)
from ladderzpd.ladders import BlockProfile
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.onestep import assemble_one_step_certificate, explicit_families

from oracles import Fp


def test_rational_add_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_mul_identity():
    for x in (Fraction(7, 3), Fraction(-2), Fraction(0)):
        assert x * QQ.one == x
    for k in (0, 1, 50, 100):
        assert Fp(k, 101) * Fp(1, 101) == Fp(k, 101)


def test_prime_field_add_wraps():
    assert Fp(50, 101) + Fp(52, 101) == Fp(1, 101)
    assert PrimeField(101).from_int(50 + 52) == 1


def test_parse_canonicalizes():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.format(QQ.parse("2/4")) == "1/2"
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.format(Fraction(-3)) == "-3"
    f5 = PrimeField(5)
    assert f5.parse("7") == 2
    assert type(f5.parse("7")) is int
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
    with pytest.raises(ZeroDivisionError):
        Fp(1, 101) / Fp(0, 101)


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        Fp(1, 101) + Fp(1, 5)
    with pytest.raises(FieldMismatchError):
        Fp(1, 101) * Fp(3, 5)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) + Fp(1, 101)
    f101 = PrimeField(101)
    with pytest.raises(FieldMismatchError):
        f101.format(Fraction(1))
    with pytest.raises(FieldMismatchError):
        QQ.format(f101.one)
    with pytest.raises(FieldMismatchError):
        PrimeField(5).format(f101.from_int(100))


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
    one, zero = Fp(1, 101), Fp(0, 101)
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
        x, y, z = (Fp(rng.randint(0, 100), 101) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (one / x) == one
        assert -x + x == zero
        assert x - y == x + (-y)


def test_canonical_form_unique():
    rng = random.Random(8)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        assert (a - b == 0) == (QQ.format(a) == QQ.format(b))


def test_fp_immutable_and_falsy_when_zero():
    x = Fp(5, 13)
    with pytest.raises(AttributeError):
        x.value = 3
    assert bool(Fp(0, 13)) is False
    assert bool(Fp(1, 13)) is True
    assert Fp(13, 13) == 0
    assert not Fp(26, 13)
    f = PrimeField(13)
    assert (f.zero, f.one) == (0, 1)
    assert f.from_int(13) == 0
    assert not f.from_int(26)


def test_fp_int_coercion():
    assert Fp(3, 7) + 5 == Fp(1, 7)
    assert 2 * Fp(4, 7) == Fp(1, 7)
    assert 1 - Fp(3, 7) == Fp(5, 7)
    assert 1 / Fp(3, 7) == Fp(5, 7)


def test_large_primes_accepted_quickly():
    import time
    start = time.perf_counter()
    for p in (1000000000000000003, 2**61 - 1):
        f = PrimeField(p)
        x = Fp(f.from_int(123456789), p)
        assert x * (Fp(f.one, p) / x) == Fp(1, p)
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


def test_prime_field_factors_hold_residues(tmp_path):
    # every F_p factor the package makes holds int residues in [1, p):
    # read from text, elementary, the explicit families (-1 is p - 1),
    # the searched gl certificates (field_row) and their shifted copies
    def assert_residues(mats, p):
        for mat in mats:
            assert mat.entries
            for c in mat.entries.values():
                assert type(c) is int and 0 < c < p, (mat, c)

    def factors(cert):
        return cert.tensors.factors

    f101 = PrimeField(101)
    obj = json.loads(certificate_bytes(gl_certificate(2, f101)))
    texts = {(1, 1): "-1", (1, 2): "102", (2, 1): "+3"}
    obj["tensors"][0]["u"] = [[i, j, t] for (i, j), t in texts.items()]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    read = read_certificate(str(path))
    (u, _, _), *_ = read.tensors
    assert u.entries == {(1, 1): 100, (1, 2): 1, (2, 1): 3}
    assert_residues(factors(read), 101)

    for text in ("101", "0"):
        obj["tensors"][2]["v"] = [[2, 2, text]]
        path.write_text(json.dumps(obj))
        with pytest.raises(CertificateFormatError) as exc:
            read_certificate(str(path))
        assert str(exc.value) == ("tensor 2 factor v: stored entry at "
                                  "(2,2) is zero")

    for p in (2, 3, 101):
        f = PrimeField(p)
        assert_residues([elementary(3, 2, 1, f)], p)
        explicit = explicit_families(BlockProfile(1, 2, 1), f).factors
        assert_residues(explicit, p)
        assert p - 1 in {c for x in explicit for c in x.entries.values()}
        gl = factors(gl_certificate(3, f))
        assert_residues(gl, p)
        assert_residues([x.shifted(2, 5) for x in gl], p)
        assert_residues(factors(assemble_one_step_certificate(4, 3, 2,
                                                              field=f)), p)

    # over Q the scalars are Fractions: not ints, bools or floats
    for field, bad in ([(f101, x) for x in (True, Fraction(1), 101, -1)]
                       + [(QQ, x) for x in (1, True, 0.5)]):
        with pytest.raises(FieldMismatchError):
            field.format(bad)
        # a matrix takes no entry that format would refuse
        with pytest.raises(FieldMismatchError):
            SparseMatrix(2, field, {(1, 1): bad})
    # zero is a scalar of the field, though never a stored entry
    assert f101.format(0) == "0"
    assert SparseMatrix(2, f101, {(1, 1): f101.from_int(-101)}).entries == {}

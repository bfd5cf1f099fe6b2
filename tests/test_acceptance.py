"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single
``[criterion N] PASS/FAIL`` line (visible even under capture) so a test
log shows the whole gate at a glance.  Everything is exact arithmetic:
every equality is strict, there are no tolerances anywhere.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from ladderzpd.certificates import (COUNT_MISMATCH, FAILED_KERNEL_MEMBERSHIP,
                                    FAILED_SPAN, Certificate, gl_certificate,
                                    verify_certificate)
from ladderzpd.certio import (certificate_bytes, read_certificate,
                              write_certificate)
from ladderzpd.cli import main
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.ladders import (BlockProfile, Ladder, block_profile,
                               enumerate_ladders, is_upper_triangular)
from ladderzpd.matrices import elementary
from ladderzpd.onestep import (assemble_one_step_certificate,
                               kernel_dim_polynomial)
from ladderzpd.tensors import TensorSpace, build_mu

from oracles import (RankOneTensor, bracket, closed_by_products,
                     expected_counts, in_kernel, naive_mu_kernel_dim,
                     tensor_coords)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def announce(num: int, title: str):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {title}")

    return announce


def one_step_mu(n, i1, j1, field=QQ):
    space = TensorSpace(n, Ladder(n, [(i1, j1)]).positions(), field)
    return space, build_mu(space)


def test_criterion_1_one_step_sweep(criterion):
    """Every one-step ladder with n in {2..6} gets a verified certificate
    whose size equals both the closed-form polynomial and the recomputed
    kernel dimension."""
    with criterion(1, "one-step certificates for all ladders, n = 2..6"):
        start = time.monotonic()
        checked = 0
        for n in range(2, 7):
            for i1, j1 in product(range(1, n + 1), repeat=2):
                cert = assemble_one_step_certificate(n, i1, j1)
                report = verify_certificate(cert)
                assert report.proven, (n, i1, j1, report.summary())
                profile = block_profile(Ladder(n, [(i1, j1)]))
                if profile is None:
                    d = i1 * (n - j1 + 1)
                    want = d * d
                else:
                    want = kernel_dim_polynomial(profile)
                assert len(cert.tensors) == want == report.kernel_dim, \
                    (n, i1, j1)
                if n <= 4:
                    space, _ = one_step_mu(n, i1, j1)
                    assert naive_mu_kernel_dim(n, space.positions) == want
                checked += 1
        # independent dense-elimination spot checks at n = 5
        for i1, j1 in ((3, 2), (5, 3)):
            space, mu = one_step_mu(5, i1, j1)
            assert naive_mu_kernel_dim(5, space.positions) == mu.kernel_dim
        assert checked == sum(n * n for n in range(2, 7))
        assert time.monotonic() - start < 300


def test_criterion_2_dimension_bookkeeping(criterion):
    """The kernel-dimension polynomial, the per-family count ledger, and
    the leftover-count formula agree on the whole block-profile grid."""
    with criterion(2, "polynomial and family-count ledger on the grid"):
        for n1, n2, n3 in product(range(6), range(1, 6), range(6)):
            p = BlockProfile(n1, n2, n3)
            d = (n1 + n2) * (n2 + n3)
            assert kernel_dim_polynomial(p) == d * d - d + 1
            counts = dict(expected_counts(p))
            assert all(c >= 0 for c in counts.values())
            assert sum(counts.values()) == kernel_dim_polynomial(p)
            # the leftover after block pairings and the gl block, term
            # for term: each explicit family triple telescopes to one
            # positive and one negative monomial
            assert (counts["T"] + counts["S"] + counts["R"]
                    == 2 * n2**3 * n3 - n2 * n3)
            assert (counts["T-mirror"] + counts["S-mirror"]
                    + counts["R-mirror"] == 2 * n1 * n2**3 - n1 * n2)
            assert (counts["U"] + counts["V"] + counts["W"]
                    == 2 * n1 * n2**2 * n3 - n1 * n3)
            remainder = (2 * n1 * n2**3 + 2 * n2**3 * n3
                         + 2 * n1 * n2**2 * n3 - n1 * n2 - n1 * n3 - n2 * n3)
            assert remainder == (2 * n1 * n2**3 - n1 * n2) \
                + (2 * n2**3 * n3 - n2 * n3) \
                + (2 * n1 * n2**2 * n3 - n1 * n3)
            pairings = sum(c for label, c in counts.items()
                           if label.startswith("pair-"))
            assert remainder == (kernel_dim_polynomial(p)
                                 - pairings - counts["gl-h"])


def test_criterion_3_closure_characterization(criterion):
    """Exhaustively over every ladder with n <= 4: closure under the
    associative product, and closure under the bracket, are each
    equivalent to upper-triangularity, read off the product table."""
    with criterion(3, "closure iff upper-triangular, all ladders n <= 4"):
        seen = Counter()
        for n in range(1, 5):
            for k in range(1, n + 1):
                for ladder in enumerate_ladders(n, k):
                    space = TensorSpace(n, ladder.positions())
                    ut = is_upper_triangular(ladder)
                    for kind in ("associative", "lie"):
                        assert closed_by_products(space, kind) == ut, (
                            ladder, kind)
                    seen[ut] += 1
        # sum over k of C(n,k)^2 = C(2n,n) - 1 ladders per n; both
        # directions of each equivalence are exercised
        assert sum(seen.values()) == 1 + 5 + 19 + 69
        assert seen == {True: 85, False: 9}


def test_criterion_4_gl_certificates(criterion):
    """The greedy search proves gl_m zero product determined with
    certificates of exactly m^4 - m^2 + 1 tensors."""
    with criterion(4, "searched gl_m certificates, m = 1..4"):
        for m in (1, 2, 3, 4):
            cert = gl_certificate(m)
            assert cert is not None, f"search exhausted on gl_{m}"
            assert len(cert.tensors) == m**4 - m**2 + 1
            report = verify_certificate(cert)
            assert report.proven
            assert report.kernel_dim == m**4 - m**2 + 1


def test_criterion_5_abelian_path(criterion):
    """Every abelian one-step ladder (i1 < j1) up to n = 6 is certified
    by the full list of elementary tensors."""
    with criterion(5, "all-elementary certificates, abelian ladders n <= 6"):
        checked = 0
        for n in range(2, 7):
            for j1 in range(2, n + 1):
                for i1 in range(1, j1):
                    cert = assemble_one_step_certificate(n, i1, j1)
                    d = i1 * (n - j1 + 1)
                    assert cert.families == [("abelian", d * d)]
                    assert verify_certificate(cert).proven
                    checked += 1
        assert checked == sum(n * (n - 1) // 2 for n in range(2, 7))


def test_criterion_6_kernel_membership_both_routes(criterion):
    """For every tensor of every assembled certificate: the bracket of
    its factors is exactly the zero matrix, and applying mu to its
    coordinate vector gives zero as well (in_kernel computes both and
    asserts they agree)."""
    with criterion(6, "factor brackets vanish and mu agrees, n <= 6"):
        for n in range(2, 7):
            for i1 in range(1, n + 1):
                for j1 in range(1, i1 + 1):
                    cert = assemble_one_step_certificate(n, i1, j1)
                    space, mu = one_step_mu(n, i1, j1)
                    for t in cert.tensors:
                        assert not bracket(t[0], t[1]).entries, \
                            (n, i1, j1, t)
                        assert in_kernel(t, mu, tensor_coords(t, space))


def label_counts(tensors):
    """The families list that matches the tensor labels."""
    return sorted(Counter(label for _, _, label in tensors).items())


def test_criterion_7_tamper_suite(criterion):
    """Damaged certificates are always caught: every single-tensor
    deletion fails the span check, every non-commuting replacement fails
    kernel membership, and every duplication is flagged as rank < count."""
    with criterion(7, "tamper detection on every tensor position"):
        base = assemble_one_step_certificate(4, 3, 2)
        size = len(base.tensors)
        assert size == 73
        bad = RankOneTensor(elementary(4, 2, 2), elementary(4, 2, 3), "bad")
        assert bracket(bad.u, bad.v).entries
        for idx in range(size):
            dropped = list(base.tensors)
            del dropped[idx]
            cert = Certificate(base.algebra, base.field, base.kernel_dim,
                               label_counts(dropped), dropped)
            report = verify_certificate(cert)
            assert report.verdict == FAILED_SPAN, idx
            assert report.span_rank == size - 1

            replaced = list(base.tensors)
            replaced[idx] = bad
            cert = Certificate(base.algebra, base.field, base.kernel_dim,
                               label_counts(replaced), replaced)
            report = verify_certificate(cert)
            assert report.verdict == FAILED_KERNEL_MEMBERSHIP, idx
            assert report.first_noncommuting == idx

            doubled = list(base.tensors)
            doubled.insert(idx, doubled[idx])
            cert = Certificate(base.algebra, base.field, base.kernel_dim,
                               label_counts(doubled), doubled)
            report = verify_certificate(cert)
            assert report.verdict == COUNT_MISMATCH, idx
            assert report.span_rank < report.tensor_count


def test_criterion_8_cross_field_consistency(criterion):
    """Kernel dimensions over F_101 coincide with the rational ones for
    every one-step ladder up to n = 5."""
    with criterion(8, "kernel dims match over Q and F_101, n <= 5"):
        f101 = PrimeField(101)
        for n in range(1, 6):
            for i1, j1 in product(range(1, n + 1), repeat=2):
                _, mu_q = one_step_mu(n, i1, j1, QQ)
                _, mu_p = one_step_mu(n, i1, j1, f101)
                assert mu_q.kernel_dim == mu_p.kernel_dim, (n, i1, j1)


def test_criterion_9_serialization_round_trip(criterion, tmp_path, capsys):
    """Certificate files round-trip byte-for-byte, and re-verifying a
    freshly written file through the CLI reproduces the in-memory
    report."""
    with criterion(9, "byte-exact JSON round trip and CLI re-verification"):
        cases = [
            (assemble_one_step_certificate(4, 3, 2), "rational.json"),
            (assemble_one_step_certificate(3, 2, 2, field=PrimeField(101)),
             "prime.json"),
        ]
        for cert, name in cases:
            report = verify_certificate(cert)
            assert report.proven
            path = tmp_path / name
            write_certificate(cert, str(path), verified=True)
            reread = read_certificate(str(path))
            assert reread == cert
            assert certificate_bytes(reread) == path.read_bytes()

            code = main(["cert-verify", str(path), "--json"])
            out = capsys.readouterr().out
            assert code == 0
            got = json.loads(out)
            assert got == {
                "kernel_dim": report.kernel_dim,
                "tensor_count": report.tensor_count,
                "span_rank": report.span_rank,
                "first_noncommuting": report.first_noncommuting,
                "verdict": report.verdict,
            }

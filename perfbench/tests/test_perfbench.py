"""Self-tests of the benchmark: its statistics helper, its independent
formulas, its output checks, its tamper generator and its tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

from ladderzpd.certificates import algebra_space, verify_certificate
from ladderzpd.certio import certificate_bytes, certificate_from_json
from ladderzpd.fields import QQ
from ladderzpd.ladders import Ladder, block_profile
from ladderzpd.onestep import (assemble_one_step_certificate,
                               kernel_dim_polynomial)
from ladderzpd.tensors import TensorSpace, build_mu

import run
from workloads import (DEFECTS, Op, check, defect_report, dumps_canonical,
                       gl_kernel_dim, ladder_count, ladder_kernel_dim,
                       onestep_choices, onestep_step, report, sha256_hex,
                       tamper)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([]) is None
    assert run.tail_percentile([float(x) for x in range(19)]) is None
    # 20 samples: the median (10th smallest) has exactly 10 above it.
    assert run.tail_percentile([float(x) for x in range(20)]) == (50.0, 9.0, 10)
    # 100 samples: p90 is the 90th smallest, with 10 above it; p95 has 5.
    assert run.tail_percentile([float(x) for x in range(100)]) == (90.0, 89.0, 10)
    assert run.tail_percentile([float(x) for x in range(1000)]) == (99.0, 989.0, 10)


def test_tail_percentile_counts_ties_as_not_beyond():
    samples = [1.0] * 15 + [2.0] * 9
    assert run.tail_percentile(samples) is None
    assert run.tail_percentile(samples + [3.0]) == (50.0, 1.0, 10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gl_kernel_dim_matches_mu(m):
    assert gl_kernel_dim(m) == build_mu(TensorSpace.gl(m), "lie").kernel_dim


@pytest.mark.parametrize("n,step", [(3, (2, 2)), (4, (3, 2)), (5, (3, 2)),
                                    (5, (4, 2)), (4, (4, 1))])
def test_ladder_kernel_dim_matches_mu_and_polynomial(n, step):
    descriptor = {"kind": "ladder-lie", "n": n, "steps": [list(step)]}
    mu = build_mu(algebra_space(descriptor, QQ), "lie")
    profile = block_profile(Ladder(n, [step]))
    assert ladder_kernel_dim(*profile) == mu.kernel_dim
    assert ladder_kernel_dim(*profile) == kernel_dim_polynomial(profile)


def test_seed_choices_follow_the_size_rule():
    choices = onestep_choices()
    assert choices == [(9, 13), (10, 12), (11, 11), (12, 10), (13, 9)]
    assert onestep_step(11) == (13, 12)
    assert {(n1 + 2) * (n3 + 2) for n1, n3 in choices} == {165, 168, 169}


def test_ladder_count():
    assert ladder_count(6) == 923
    assert ladder_count(2) == 5   # 4 one-step ladders, 1 two-step ladder


def test_golden_check_rejects_a_one_byte_change(tmp_path):
    out = tmp_path / "cert.json"
    data = b'{"tensors":[]}\n'
    golden = {"key": sha256_hex(data)}
    op = Op(["zpd-gl"], 0, True, out=out, golden="key")
    out.write_bytes(data)
    assert check(op, 0, b"", golden) == []
    out.write_bytes(data[:3] + b"T" + data[4:])
    assert check(op, 0, b"", golden) != []
    out.unlink()
    assert check(op, 0, b"", golden) != []
    stdout_op = Op(["ladder-enumerate"], 0, True, golden="key")
    assert check(stdout_op, 0, data, golden) == []
    assert check(stdout_op, 0, data + b" ", golden) != []


def test_check_compares_exit_code_report_and_length():
    want = report(73, 73, 73, "proven-zpd")
    op = Op(["cert-verify"], 0, True, report=want)
    line = json.dumps(dict(want, extra=1)).encode()
    assert check(op, 0, b"noise\n" + line + b"\n", {}) == []
    assert check(op, 1, line, {}) != []
    assert check(op, 0, json.dumps(dict(want, span_rank=72)).encode(), {}) != []
    assert check(op, 0, b"not json", {}) != []
    listing = Op(["ladder-enumerate"], 0, True, list_len=2)
    assert check(listing, 0, b"[1, 2]", {}) == []
    assert check(listing, 0, b"[1]", {}) != []


@pytest.fixture(scope="module")
def small_cert():
    """The n = 4 ladder with blocks (1, 2, 1): the workloads' shape (n2 = 2,
    step (n1+2, n1+1)) at a size that verifies in milliseconds."""
    cert = assemble_one_step_certificate(4, *onestep_step(1))
    return json.loads(certificate_bytes(cert))


@pytest.mark.parametrize("kind", sorted(DEFECTS))
@pytest.mark.parametrize("index", [0, 40, 72])
def test_each_defect_gets_exactly_its_verdict(small_cert, kind, index):
    kdim = ladder_kernel_dim(1, 2, 1)
    assert len(small_cert["tensors"]) == kdim == 73
    before = dumps_canonical(small_cert)
    bad = json.loads(dumps_canonical(
        tamper(small_cert, kind, index, onestep_step(1))))
    assert dumps_canonical(small_cert) == before
    got = verify_certificate(certificate_from_json(bad))
    assert {"kernel_dim": got.kernel_dim, "tensor_count": got.tensor_count,
            "span_rank": got.span_rank,
            "first_noncommuting": got.first_noncommuting,
            "verdict": got.verdict} == defect_report(kind, kdim, index)


def test_untampered_certificate_is_proven(small_cert):
    got = verify_certificate(certificate_from_json(small_cert))
    assert got.verdict == "proven-zpd"


def test_tracer_patches_every_import_site(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, str(run.TRACER), "--out", str(out),
         "--", "zpd-gl", "--m", "2", "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "proven-zpd"
    trace = json.loads(out.read_text())
    records = trace["records"]
    callers = {(rec[0], rec[1]) for rec in records}
    # certificates imports kernel_of_rows from elim; the call is still seen.
    assert ("elim.kernel_of_rows", "certificates.centralizer") in callers
    assert ("elim.rref", "elim.kernel_of_rows") in callers
    assert ("certificates.centralizer",
            "certificates.search_spanning") in callers
    assert ("tensors.MuMap.rank", "tensors.MuMap.kernel_dim") in callers
    metrics = run.layer_metrics([trace], 0.5, 1.0)
    assert metrics["certificates.candidates_kept"] == gl_kernel_dim(2)
    assert metrics["elim.rref_cells"] > 0
    assert metrics["certio.bytes_written"] == 0
    for rec in records:
        calls, total, self_s = rec[2:5]
        assert calls >= 1 and 0 <= self_s <= total + 1e-9


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(96 * 2**20)  # the parent's peak is now >= 96 MiB
    ballast[::4096] = b"x" * len(ballast[::4096])
    child = run.Runner().run(["-c", "pass"], tmp_path / "out")
    assert child.rc == 0
    assert 0 < child.maxrss_kib < 48 * 1024
    assert (tmp_path / "out.err").read_bytes() == b""


def test_spawn_kills_a_command_past_the_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1)
    child = run.Runner().run(["-c", "import time; time.sleep(60)"],
                             tmp_path / "out")
    assert child.rc == -9
    assert 0.9 < child.wall_s < 30

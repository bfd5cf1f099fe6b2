"""Command-line behavior, exercised in-process through main(argv)."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import ladderzpd
from ladderzpd.certio import read_certificate
from ladderzpd.cli import (DEFAULT_PRIME, MAX_LADDER_COUNT, build_parser,
                           main)
from ladderzpd.ladders import enumerate_ladders
from ladderzpd.tensors import TensorSpace

from oracles import closed_by_products


# argv: OUT ERR COMMAND...; runs COMMAND with its stdout and stderr in
# the files OUT and ERR, then prints its exit code and peak RSS in KiB
SPAWN_AND_REAP = """
import os, sys
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
    (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ladder_check_two_step(capsys):
    code, out, _ = run(capsys, "ladder-check", "--n", "6",
                       "--step", "3,2", "--step", "6,5")
    assert code == 0
    assert "ladder n=6 steps=[(3,2), (6,5)] dim=21" in out
    assert "upper-triangular: yes" in out
    assert "closed (associative): yes" in out
    assert "closed (lie): yes" in out


def test_ladder_check_open_ladder(capsys):
    code, out, _ = run(capsys, "ladder-check", "--n", "3",
                       "--step", "2,1", "--step", "3,2")
    assert code == 0
    assert "upper-triangular: no" in out
    assert "closed (associative): no" in out


def test_ladder_check_json(capsys):
    code, out, _ = run(capsys, "ladder-check", "--n", "3",
                       "--step", "2,2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 3, "steps": [[2, 2]], "dim": 4,
                   "upper_triangular": True, "closed_associative": True,
                   "closed_lie": True}


def test_ladder_check_requires_step(capsys):
    code, _, err = run(capsys, "ladder-check", "--n", "3")
    assert code == 2
    assert "at least one --step" in err


def test_ladder_enumerate_counts(capsys):
    code, out, _ = run(capsys, "ladder-enumerate", "--n", "3")
    assert code == 0
    # C(3,1)^2 + C(3,2)^2 + C(3,3)^2 ladders on a 3x3 grid
    assert len(out.strip().splitlines()) == 19
    code, out, _ = run(capsys, "ladder-enumerate", "--n", "3", "--k", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


@pytest.mark.parametrize("n", ["0", "-2"])
def test_ladder_enumerate_rejects_bad_size(capsys, n):
    code, out, err = run(capsys, "ladder-enumerate", "--n", n)
    assert (code, out) == (2, "")
    assert err == f"error: ambient size must be positive, got {n}\n"


def test_ladder_enumerate_closure_column(capsys):
    code, out, _ = run(capsys, "ladder-enumerate", "--n", "3", "--k", "2",
                       "--closure", "associative")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all("closed-associative=" in line for line in lines)
    # closure under the associative product must match upper-triangularity
    for line in lines:
        assert (("upper-triangular=yes" in line)
                == ("closed-associative=yes" in line))


# SHA-256 of the stdout of `ladder-enumerate --n 6 --closure KIND --json`
# (923 ladders); the lie value is the survey's in perfbench/golden.json
SURVEY_SHA256 = {
    "lie": "c147574934dcd5a25a316e1eae2eb79e78ae3fa32f5b3509b9768deefa1e6f37",
    "associative":
        "2d8c34a493c719a6c7ea0b0bec8fb60f19a0a94d10197b65a56461998f9e2e7e",
}


@pytest.mark.parametrize("kind", sorted(SURVEY_SHA256))
def test_ladder_survey_bytes(capsys, kind):
    code, out, err = run(capsys, "ladder-enumerate", "--n", "6",
                         "--closure", kind, "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 923
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_SHA256[kind]


# SHA-256 of the stdout of `ladder-check` (text, then --json), run once
# for each ladder with n <= 4 in enumerate_ladders order, concatenated
LADDER_CHECK_SHA256 = {
    "text": "eff59197bf049d1f7bac46cab664c3c8a733eb28c65f947404147ad53a50b21b",
    "json": "049364bb54a5d6c846357b0475f448989c0ac6bcaf8013073ca370819af4fa44",
}


def test_ladder_check_bytes_and_closure_on_every_small_ladder(capsys):
    # every ladder with n <= 4: both output forms are pinned, and the
    # JSON agrees with the product table and the position list
    outs = {"text": [], "json": []}
    for n in range(1, 5):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                argv = ["ladder-check", "--n", str(n)]
                for i, j in ladder.steps:
                    argv += ["--step", f"{i},{j}"]
                for form, extra in (("text", []), ("json", ["--json"])):
                    code, out, err = run(capsys, *argv, *extra)
                    assert (code, err) == (0, ""), ladder
                    outs[form].append(out)
                obj = json.loads(outs["json"][-1])
                space = TensorSpace(n, ladder.positions())
                assert obj["dim"] == len(ladder.positions()), ladder
                for kind in ("associative", "lie"):
                    assert obj[f"closed_{kind}"] == closed_by_products(
                        space, kind), (ladder, kind)
    assert len(outs["json"]) == 1 + 5 + 19 + 69
    assert {form: hashlib.sha256("".join(o).encode()).hexdigest()
            for form, o in outs.items()} == LADDER_CHECK_SHA256


@pytest.mark.parametrize("argv, message", [
    (["ladder-enumerate", "--n", str(10 ** 12)],
     f"ambient size too large to list ladders: n = {10 ** 12} "
     "(the limit for n^2 is 1024)"),
    (["ladder-enumerate", "--n", "33", "--k", "33"],
     "ambient size too large to list ladders: n = 33 "
     "(the limit for n^2 is 1024)"),
    (["ladder-enumerate", "--n", "9", "--closure", "lie"],
     "too many ladders to list: 48619 on n = 9 (the limit is 16384)"),
    (["ladder-enumerate", "--n", "17", "--k", "2"],
     "too many ladders to list: 18496 on n = 17 (the limit is 16384)"),
    (["ladder-check", "--n", str(10 ** 12), "--step", f"{10 ** 12},1"],
     f"ladder too large to check: n = {10 ** 12}, d = {10 ** 24} "
     "(the limit for each is 1024)"),
    (["ladder-check", "--n", "33", "--step", "32,1"],
     "ladder too large to check: n = 33, d = 1056 "
     "(the limit for each is 1024)"),
    (["ladder-check", "--n", "1025", "--step", "1,1025"],
     "ladder too large to check: n = 1025, d = 1 "
     "(the limit for each is 1024)"),
])
def test_ladder_commands_over_the_cap_exit_2_unbuilt(capsys, argv, message):
    # without the caps, --n 10**12 would list C(2*10**12, 10**12) - 1
    # ladders and the ladder-check above 10**24 positions
    assert MAX_LADDER_COUNT == 16384
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert peak < 256 * 1024


def test_ladder_commands_at_the_cap_run(capsys):
    code, out, _ = run(capsys, "ladder-enumerate", "--n", "32", "--k", "1",
                       "--closure", "lie", "--json")
    assert (code, len(json.loads(out))) == (0, 1024)
    code, out, _ = run(capsys, "ladder-check", "--n", "32",
                       "--step", "32,1", "--json")
    assert (code, json.loads(out)["dim"]) == (0, 1024)
    code, out, _ = run(capsys, "ladder-check", "--n", "1024",
                       "--step", "1,1024", "--json")
    assert (code, json.loads(out)["dim"]) == (0, 1)


def test_assemble_writes_and_reverifies(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2",
                       "--out", str(path))
    assert code == 0
    assert "13 = 13 = 13 proven-zpd" in out
    assert path.exists()
    code, out, _ = run(capsys, "cert-verify", str(path))
    assert code == 0
    assert "13 = 13 = 13 proven-zpd" in out


def test_assemble_requires_out(capsys):
    code, _, err = run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2")
    assert code == 2
    assert "--out is required" in err


def test_assemble_without_out_fails_before_any_work(capsys, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a certificate it cannot write")

    monkeypatch.setattr("ladderzpd.onestep.assemble_one_step_certificate",
                        no_assembly)
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "zpd-assemble", "--n", "10",
                             "--step", "9,1", *json_flag)
        assert (code, out) == (2, "")
        assert err == "error: --out is required for this command\n"


def test_assemble_rejects_multiple_steps(capsys, tmp_path):
    code, _, err = run(capsys, "zpd-assemble", "--n", "6",
                       "--step", "3,2", "--step", "6,5",
                       "--out", str(tmp_path / "c.json"))
    assert code == 2
    assert "exactly one --step" in err


def test_verify_without_out(capsys, tmp_path):
    code, out, _ = run(capsys, "zpd-verify", "--n", "4", "--step", "3,2")
    assert code == 0
    assert "73 = 73 = 73 proven-zpd" in out
    assert not list(tmp_path.iterdir())


def test_abelian_assembly(capsys, tmp_path):
    path = tmp_path / "abelian.json"
    code, out, _ = run(capsys, "zpd-assemble", "--n", "3", "--step", "1,2",
                       "--out", str(path))
    assert code == 0
    assert "4 = 4 = 4 proven-zpd" in out
    assert read_certificate(str(path)).families == [("abelian", 4)]


def test_prime_field_backend(capsys, tmp_path):
    path = tmp_path / "fp.json"
    code, out, _ = run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2",
                       "--field", "fp", "--prime", "101", "--out", str(path))
    assert code == 0
    assert "13 = 13 = 13 proven-zpd" in out
    assert read_certificate(str(path)).field.p == 101


def test_assemble_json_output(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2",
                       "--json", "--out", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "proven-zpd"
    assert obj["kernel_dim"] == obj["span_rank"] == obj["tensor_count"] == 13
    assert obj["first_noncommuting"] is None
    assert obj["certificate_path"] == str(path)


def test_gl_search(capsys):
    code, out, _ = run(capsys, "zpd-gl", "--m", "2")
    assert code == 0
    assert "13 = 13 = 13 proven-zpd" in out
    code, out, _ = run(capsys, "zpd-gl", "--m", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "proven-zpd"
    assert obj["kernel_dim"] == 73


def test_gl_search_budget_exhausted(capsys):
    code, _, err = run(capsys, "zpd-gl", "--m", "2", "--budget", "3")
    assert code == 3
    assert "budget exhausted" in err


def test_gl_search_smallest_budget(capsys):
    # gl_3 needs 341 candidate tensors tried, skipped ones included
    code, out, err = run(capsys, "zpd-gl", "--m", "3", "--budget", "340")
    assert (code, out) == (3, "")
    assert err == "error: search budget exhausted on gl_3 at rank 72 of 73\n"
    code, out, _ = run(capsys, "zpd-gl", "--m", "3", "--budget", "341")
    assert code == 0
    assert "proven-zpd" in out


def test_gl_search_rejects_bad_size(capsys):
    code, _, err = run(capsys, "zpd-gl", "--m", "0")
    assert code == 2
    assert "--m must be positive" in err


def test_assemble_budget_exhausted(capsys, tmp_path):
    code, out, err = run(capsys, "zpd-assemble", "--n", "4", "--step", "3,2",
                         "--budget", "0", "--out", str(tmp_path / "c.json"))
    assert (code, out) == (3, "")
    assert err == "error: search budget exhausted on gl_2 at rank 0 of 13\n"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("argv", [["zpd-gl", "--m", "2"],
                                  ["zpd-assemble", "--n", "4",
                                   "--step", "3,2"],
                                  # abelian: no gl block is searched
                                  ["zpd-assemble", "--n", "4",
                                   "--step", "1,3"],
                                  ["zpd-verify", "--n", "4",
                                   "--step", "1,3"]])
def test_negative_budget_is_a_usage_error(capsys, tmp_path, argv):
    # --budget 0 cuts the search at once (exit 3); -1 is not a budget
    out_path = tmp_path / "c.json"
    code, out, err = run(capsys, *argv, "--budget", "-1",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: search budget must be nonnegative, got -1\n"
    assert not out_path.exists()


def test_cert_verify_rejects_tampered_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    assert run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2",
               "--out", str(path))[0] == 0
    obj = json.loads(path.read_bytes())
    # swap one factor for a non-commuting partner; counts stay consistent
    obj["tensors"][0]["u"] = [[2, 2, "1"]]
    obj["tensors"][0]["v"] = [[2, 3, "1"]]
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "cert-verify", str(path))
    assert code == 1
    assert "failed-kernel-membership" in out

    obj = json.loads(path.read_bytes())
    dropped = obj["tensors"].pop(0)["family"]
    for fam in obj["families"]:
        if fam["label"] == dropped:
            fam["count"] -= 1
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "cert-verify", str(path))
    assert code == 1
    assert "failed-span" in out


def test_cert_verify_rejects_family_label_mismatch(capsys, tmp_path):
    # the families list must match the tensor labels label by label,
    # not only in total
    path = tmp_path / "cert.json"
    assert run(capsys, "zpd-gl", "--m", "2", "--out", str(path))[0] == 0
    good = json.loads(path.read_bytes())
    assert good["families"] == [{"label": "gl", "count": 13}]

    relabelled = json.loads(path.read_bytes())
    for t in relabelled["tensors"]:
        t["family"] = "bogus"
    duplicated = json.loads(path.read_bytes())
    duplicated["families"] = [{"label": "gl", "count": 13},
                              {"label": "gl", "count": 0}]
    for obj, why in ((relabelled, "'bogus'"), (duplicated, "more than once")):
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "cert-verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and why in err


def test_cert_verify_rejects_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "cert-verify", str(path))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "cert-verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_cert_verify_rejects_factor_outside_the_ladder(capsys, tmp_path):
    # a factor outside the named algebra makes no claim about it: bad
    # input (exit 2), not a failed verdict, with the tensor named
    path = tmp_path / "cert.json"
    assert run(capsys, "zpd-assemble", "--n", "3", "--step", "2,2",
               "--out", str(path))[0] == 0
    obj = json.loads(path.read_bytes())
    obj["tensors"][5]["v"] = [[3, 1, "1"]]
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "cert-verify", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: tensor 5 factor v: support at (3, 1) is "
                   "outside the position set\n")


def test_cert_verify_rejects_deeply_nested_json(tmp_path):
    # run as a process, so that an escaping exception would show as a
    # traceback on stderr
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    src = os.path.dirname(os.path.dirname(ladderzpd.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ladderzpd.cli", "cert-verify", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("algebra", [
    {"kind": "gl-lie", "m": 3000},
    {"kind": "ladder-lie", "n": 3000, "steps": [[3000, 1]]},
    {"kind": "ladder-lie", "n": 10**9, "steps": [[1, 10**9]]},
])
def test_cert_verify_rejects_algebra_over_size_cap(tmp_path, algebra):
    # a one-tensor file naming a huge algebra: the size cap is checked
    # before mu (its nonzero columns, up to 2n per basis element) or
    # even the position set is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "format_version": 1, "algebra": algebra,
        "field": {"kind": "rational"}, "kernel_dim": 0,
        "families": [{"label": "x", "count": 1}],
        "tensors": [{"family": "x", "u": [[1, 1, "1"]],
                     "v": [[1, 1, "1"]]}]}))
    src = os.path.dirname(os.path.dirname(ladderzpd.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ladderzpd.cli", "cert-verify", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: algebra too large to verify: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("algebra, col", [
    ({"kind": "gl-lie", "m": 32}, 1),
    ({"kind": "ladder-lie", "n": 62, "steps": [[32, 31]]}, 31),
])
def test_cert_verify_at_the_size_cap_ends_cheaply(tmp_path, algebra, col):
    # d = 1024, the cap, and one tensor e_1,col (x) e_1,col: mu stores
    # its nonzero columns only, not d^2 = 1,048,576 of them, so the
    # command's peak RSS stays small.  Linux carries the peak RSS of a
    # process into the ru_maxrss of a child it starts, so a small
    # interpreter starts the command and reports its os.wait4 ru_maxrss
    # (KiB); the peak is the command's own, not this test process's
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({
        "format_version": 1, "algebra": algebra,
        "field": {"kind": "rational"}, "kernel_dim": 0,
        "families": [{"label": "x", "count": 1}],
        "tensors": [{"family": "x", "u": [[1, col, "1"]],
                     "v": [[1, col, "1"]]}]}))
    src = os.path.dirname(os.path.dirname(ladderzpd.__file__))
    out, err = tmp_path / "out", tmp_path / "err"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SPAWN_AND_REAP, str(out),
         str(err), sys.executable, "-m", "ladderzpd.cli", "cert-verify",
         str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 1
    assert out.read_text() == ("1 tensors, span rank 1, kernel dim "
                               "1047553: failed-span\n")
    assert err.read_text() == ""
    assert peak_kib < 48 * 1024


@pytest.mark.parametrize("argv", [
    ["zpd-gl", "--m", "33"],
    ["zpd-verify", "--n", "40", "--step", "33,1"],
    # d = 33 * 33 = 1089 with a gl_2 block: about a million family
    # tensors would be built before the verifier's own check
    ["zpd-verify", "--n", "64", "--step", "33,32"],
])
def test_search_rejects_algebra_over_size_cap(argv):
    # the cap is checked before any search or assembly; with no default
    # budget, a search this large would otherwise run for hours
    src = os.path.dirname(os.path.dirname(ladderzpd.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ladderzpd.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: algebra too large to verify: ")
    assert "Traceback" not in proc.stderr


# argv: CLI-ARGS...; imports the CLI in a fresh interpreter and runs
# it (when given arguments), then prints one JSON line: the exit code,
# the ladderzpd modules in sys.modules and those set on the package,
# those not yet run, and whether the function that
# `from ladderzpd.certificates import verify_certificate` gives was the
# one called.  A module registered by LazyLoader keeps a subclass of
# ModuleType until its first attribute use; type() reads no attribute.
LAZY_PIPELINE = """
import json, sys, types
import ladderzpd, ladderzpd.cli as cli
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(profile)
rc = cli.main(sys.argv[1:]) if sys.argv[1:] else None
sys.setprofile(None)
names = sorted(k for k in sys.modules if k.startswith("ladderzpd."))
report = {
    "rc": rc,
    "registered": names,
    "on_package": [k for k in names if getattr(
        ladderzpd, k.split(".")[1], None) is sys.modules[k]],
    "unexecuted": [k.split(".")[1] for k in names
                   if type(sys.modules[k]) is not types.ModuleType],
}
from ladderzpd.certificates import verify_certificate
report["verify_called"] = verify_certificate.__code__ in called
print(json.dumps(report))
"""
PIPELINE = ["certificates", "certio", "elim", "onestep", "tensors"]
# what a ladder command leaves unrun: the pipeline and the scalar layer
UNRUN = sorted(PIPELINE + ["fields", "matrices"])


@pytest.mark.parametrize("argv, code, err, unexecuted, verified", [
    ([], None, "", UNRUN, False),
    (["ladder-check", "--n", "6", "--step", "3,2", "--step", "6,5"], 0, "",
     UNRUN, False),
    (["ladder-enumerate", "--n", "6", "--closure", "lie", "--json"], 0, "",
     UNRUN, False),
    (["ladder-enumerate", "--n", "9"], 2,
     "error: too many ladders to list: 48619 on n = 9 (the limit is "
     "16384)\n", UNRUN, False),
    (["cert-verify", "GL2"], 0, "", ["onestep"], True),
    (["zpd-gl", "--m", "2"], 0, "", ["certio", "onestep"], True),
    (["zpd-gl", "--m", "3", "--budget", "340"], 3,
     "error: search budget exhausted on gl_3 at rank 72 of 73\n",
     ["certio", "onestep"], False),
], ids=["import", "ladder-check", "ladder-enumerate", "ladder-enumerate-cap",
        "cert-verify", "zpd-gl", "zpd-gl-budget"])
def test_cli_runs_only_the_pipeline_it_uses(capsys, tmp_path, argv, code,
                                            err, unexecuted, verified):
    # the CLI registers the pipeline modules without running them; each
    # command runs only those it uses, and every exit code is kept
    if "GL2" in argv:
        path = tmp_path / "gl2.json"
        assert run(capsys, "zpd-gl", "--m", "2", "--out", str(path))[0] == 0
        argv = [str(path) if a == "GL2" else a for a in argv]
    package = os.path.dirname(ladderzpd.__file__)
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PIPELINE, *argv],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package)),
        capture_output=True, text=True, timeout=60)
    assert proc.stderr == err
    report = json.loads(proc.stdout.splitlines()[-1])
    modules = sorted(f"ladderzpd.{name[:-3]}" for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    assert len(modules) == 9
    assert report["registered"] == report["on_package"] == modules
    assert report["rc"] == code
    assert report["unexecuted"] == unexecuted
    assert report["verify_called"] == verified


# main's handlers are tested in order while an exception unwinds, so a
# handler that named a pipeline class would run the pipeline here
UNWIND = """
import sys, types
import ladderzpd.cli as cli
def interrupted(ladder):
    raise KeyboardInterrupt
cli.is_upper_triangular = interrupted
try:
    cli.main(["ladder-check", "--n", "6", "--step", "3,2", "--step", "6,5"])
except KeyboardInterrupt:
    pass
print(sorted(k for k, m in sys.modules.items()
             if k.startswith("ladderzpd.") and type(m) is not types.ModuleType))
"""


def test_interrupted_ladder_command_runs_no_pipeline():
    package = os.path.dirname(ladderzpd.__file__)
    proc = subprocess.run(
        [sys.executable, "-c", UNWIND],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package)),
        capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout == repr([f"ladderzpd.{k}" for k in UNRUN]) + "\n"


# argv: CLI-ARGS...; imports the package in a fresh interpreter, then
# the CLI and runs it when given arguments, and prints as its last
# line the exit code and the scalar modules then in sys.modules.  It
# then checks that the package still gives the field names
NO_SCALARS = """
import sys
import ladderzpd
rc = None
if sys.argv[1:]:
    import ladderzpd.cli as cli
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        rc = exc.code
print(rc, [m for m in ("fractions", "decimal", "numbers") if m in sys.modules])
from ladderzpd import QQ, FieldMismatchError, PrimeField, RationalField
from ladderzpd import fields
assert (QQ, FieldMismatchError, PrimeField, RationalField) == (
    fields.QQ, fields.FieldMismatchError, fields.PrimeField,
    fields.RationalField)
assert not hasattr(ladderzpd, "nonexistent")  # an AttributeError
"""
COMMANDS = ["ladder-check", "ladder-enumerate", "zpd-assemble", "zpd-verify",
            "zpd-gl", "cert-verify"]


@pytest.mark.parametrize("argv, code", [
    ([], None),
    (["ladder-check", "--n", "6", "--step", "3,2", "--step", "6,5"], 0),
    (["ladder-enumerate", "--n", "6", "--closure", "lie", "--json"], 0),
    (["ladder-enumerate", "--n", "9"], 2),
] + [([name, "--help"], 0) for name in COMMANDS],
    ids=["import", "ladder-check", "ladder-enumerate", "ladder-enumerate-cap"]
    + [f"{name}-help" for name in COMMANDS])
def test_ladder_commands_load_no_scalar_module(argv, code):
    # fields imports fractions, which imports decimal and numbers; the
    # package resolves its field names at their first use, so neither
    # the import nor a ladder command nor any --help loads them
    proc = subprocess.run([sys.executable, "-c", NO_SCALARS, *argv],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == f"{code} []"


def test_prime_option_keeps_its_default_and_help():
    # argparse words --help differently across Python versions, so the
    # option itself is checked, not the help's bytes
    parser = build_parser()
    subs, = (a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction))
    primes = {name: action for name, sub in subs.choices.items()
              for action in sub._actions if "--prime" in action.option_strings}
    assert sorted(primes) == ["zpd-assemble", "zpd-gl", "zpd-verify"]
    for action in primes.values():
        assert action.default == DEFAULT_PRIME == 101
        assert action.help == "modulus for --field fp (default 101)"


def fresh_env(unbuffered: bool = False) -> dict:
    """The environment of a fresh interpreter that imports this
    checkout's package, with stdout buffered as Python's default or
    unbuffered as PYTHONUNBUFFERED asks."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ladderzpd.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# argv: ENTRY CLI-ARGS...; ends the process through cli.run() when
# ENTRY is "run", and through sys.exit(cli.main()), Python's own exit,
# when it is "main".  An atexit handler registered first prints to
# stdout; an object that only the interpreter's teardown frees writes
# to stderr
TEARDOWN = """
import atexit, sys
import ladderzpd.cli as cli
atexit.register(print, "atexit handler ran")
class Kept:
    def __del__(self):
        sys.stderr.write("torn down\\n")
kept = Kept()
cli.run() if sys.argv.pop(1) == "run" else sys.exit(cli.main())
"""


@pytest.mark.parametrize("entry, err", [("run", ""), ("main", "torn down\n")])
def test_run_skips_teardown_and_runs_atexit_handlers(entry, err):
    # run() ends the process before module teardown, so the object is
    # never freed; the handler runs before stdout is flushed, as at
    # Python's own exit
    argv = ["ladder-check", "--n", "3", "--step", "2,1", "--step", "3,2"]
    proc = subprocess.run([sys.executable, "-c", TEARDOWN, entry, *argv],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == ("ladder n=3 steps=[(2,1), (3,2)] dim=8\n"
                           "upper-triangular: no; closed (associative): no; "
                           "closed (lie): no\natexit handler ran\n")
    assert proc.stderr == err


@pytest.mark.parametrize("to", ["file", "pipe"])
def test_run_writes_every_byte(capsys, tmp_path, to):
    # 12,869 ladders, about 1 MB of JSON, more than stdout's buffer and
    # a pipe hold; and a certificate written through --out
    argv = ["ladder-enumerate", "--n", "8", "--json"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    cli = [sys.executable, "-m", "ladderzpd.cli"]
    if to == "file":
        with open(tmp_path / "out", "wb") as out:
            proc = subprocess.run([*cli, *argv], env=fresh_env(), stdout=out,
                                  stderr=subprocess.PIPE, timeout=60)
        got = (tmp_path / "out").read_bytes()
    else:
        proc = subprocess.run([*cli, *argv], env=fresh_env(),
                              capture_output=True, timeout=60)
        got = proc.stdout
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert got == want
    path = tmp_path / "gl6.json"
    proc = subprocess.run([*cli, "zpd-gl", "--m", "6", "--out", str(path)],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "1261 = 1261 = 1261 proven-zpd\n", "")
    with open(os.path.join(os.path.dirname(__file__),
                           "golden_hashes.json")) as fh:
        golden = json.load(fh)["QQ gl 6"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden


# argv: ENTRY CLI-ARGS...; as TEARDOWN, with an atexit handler that
# writes to stderr.  CLI-ARGS "raise" makes main raise instead
EXIT_PATH = """
import atexit, sys
import ladderzpd.cli as cli
atexit.register(sys.stderr.write, "atexit handler ran\\n")
entry = sys.argv.pop(1)
if sys.argv[1:] == ["raise"]:
    def main():
        raise RuntimeError("main failed")
    cli.main = main
cli.run() if entry == "run" else sys.exit(cli.main())
"""


@pytest.mark.parametrize("argv, stdout, code", [
    (["ladder-check", "--n", "3", "--step", "2,1", "--json"], "pipe", 0),
    (["cert-verify", "ONE_TENSOR"], "pipe", 1),
    (["ladder-enumerate", "--n", "9"], "pipe", 2),
    (["cert-verify", "MISSING"], "pipe", 2),
    (["zpd-gl", "--m", "3", "--budget", "340"], "pipe", 3),
    (["ladder-enumerate", "--k", "2"], "pipe", 2),
    (["raise"], "pipe", 1),
    # the reader closed before the first write: a write inside main
    # fails, or only the flush at exit does
    (["ladder-enumerate", "--n", "8", "--json"], "closed pipe", 2),
    (["ladder-check", "--n", "3", "--step", "2,1", "--json"], "closed pipe",
     None),
    # no fd 1: sys.stdout is None
    (["ladder-check", "--n", "3", "--step", "2,1", "--json"], "no stdout",
     0),
], ids=["ok", "failed", "value-error", "os-error", "exhausted",
        "usage", "uncaught", "closed-pipe-in-main", "closed-pipe-at-exit",
        "no-stdout"])
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_run_keeps_every_exit_path(tmp_path, argv, stdout, code,
                                   unbuffered):
    # run() gives the stdout, stderr and exit code that Python's own
    # exit gives after main(), on every way out
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "format_version": 1, "algebra": {"kind": "gl-lie", "m": 2},
        "field": {"kind": "rational"}, "kernel_dim": 13,
        "families": [{"label": "x", "count": 1}],
        "tensors": [{"family": "x", "u": [[1, 1, "1"]],
                     "v": [[1, 1, "1"]]}]}))
    argv = [{"ONE_TENSOR": str(path),
             "MISSING": str(tmp_path / "missing.json")}.get(a, a)
            for a in argv]
    results = {}
    for entry in ("main", "run"):
        cmd = [sys.executable, "-c", EXIT_PATH, entry, *argv]
        kwargs = dict(env=fresh_env(unbuffered), stderr=subprocess.PIPE,
                      timeout=60)
        if stdout == "pipe":
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, **kwargs)
        elif stdout == "no stdout":
            proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', *cmd],
                                  **kwargs)
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(cmd, stdout=write, **kwargs)
            finally:
                os.close(write)
        results[entry] = proc
    want, got = results["main"], results["run"]
    assert got.returncode == want.returncode
    assert got.stdout == want.stdout
    assert b"atexit handler ran\n" in got.stderr
    if argv == ["raise"]:
        # the traceback has run's frame as well
        for proc in (want, got):
            assert proc.stderr.startswith(b"Traceback (most recent call last)")
            assert proc.stderr.endswith(
                b"\nRuntimeError: main failed\natexit handler ran\n")
    else:
        assert got.stderr == want.stderr
    if code is None:  # Python's exit status when its last flush fails
        code = 2 if unbuffered else 120
    assert got.returncode == code


def test_step_syntax_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ladder-check", "--n", "3", "--step", "2;2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["ladder-check", "--step", "2,2"],
                                  ["ladder-enumerate", "--closure", "lie"]])
def test_ladder_commands_take_no_field(capsys, argv):
    # closure and dim read only the position set, never a field
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "3", "--field", "fp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field fp" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_large_prime_modulus(capsys):
    code, out, _ = run(capsys, "zpd-gl", "--m", "2", "--field", "fp",
                       "--prime", "1000000000000000003", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "proven-zpd"


def test_unprovable_prime_modulus_exits_2(capsys):
    code, _, err = run(capsys, "zpd-gl", "--m", "2", "--field", "fp",
                       "--prime", str(2**89 - 1))
    assert code == 2
    assert "too large" in err


# the d = 168 one-step certificate (n = 24, step (12,11), blocks
# (10, 2, 12)) and tampered copies of it, each written in canonical
# form as the package writes files
D168_KDIM = 168 * 168 - 168 + 1


@pytest.fixture(scope="module")
def d168_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("d168") / "valid.json"
    assert main(["zpd-assemble", "--n", "24", "--step", "12,11",
                 "--out", str(path)]) == 0
    return path


def d168_tampered(valid, kind, index, path):
    obj = json.loads(valid.read_bytes())
    tensors = obj["tensors"]
    label = tensors[index]["family"]
    delta = {"deleted": -1, "duplicated": 1, "replaced": 0}[kind]
    if kind == "deleted":
        del tensors[index]
    elif kind == "duplicated":
        tensors.insert(index + 1, tensors[index])
    else:
        # [e_11,11, e_11,12] = e_11,12 != 0, both in the position set
        tensors[index] = {"family": label, "u": [[11, 11, "1"]],
                          "v": [[11, 12, "1"]]}
    for fam in obj["families"]:
        if fam["label"] == label:
            fam["count"] += delta
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                    + "\n")
    return path


@pytest.mark.parametrize("kind, index, code, report", [
    ("valid", None, 0, (D168_KDIM, D168_KDIM, None, "proven-zpd")),
    # tensors 0, 14001 and 9090 are elementary pairs, 26899 and 28056
    # are not
    ("deleted", 0, 1, (D168_KDIM - 1, D168_KDIM - 1, None, "failed-span")),
    ("deleted", 28056, 1, (D168_KDIM - 1, D168_KDIM - 1, None,
                           "failed-span")),
    ("duplicated", 14001, 1, (D168_KDIM + 1, D168_KDIM, None,
                              "count-mismatch")),
    ("duplicated", 26899, 1, (D168_KDIM + 1, D168_KDIM, None,
                              "count-mismatch")),
    ("replaced", 9090, 1, (D168_KDIM, D168_KDIM, 9090,
                           "failed-kernel-membership")),
    ("replaced", 28056, 1, (D168_KDIM, D168_KDIM, 28056,
                            "failed-kernel-membership")),
])
def test_cert_verify_d168_tamper_corpus(capsys, tmp_path, d168_certificate,
                                        kind, index, code, report):
    # stdout, stderr and exit code pinned, with and without --json
    path = d168_certificate
    if kind != "valid":
        path = d168_tampered(path, kind, index, tmp_path / f"{kind}.json")
    count, rank, first, verdict = report
    if code == 0:
        text = f"{count} = {rank} = {D168_KDIM} {verdict}\n"
    else:
        text = (f"{count} tensors, span rank {rank}, kernel dim "
                f"{D168_KDIM}: {verdict}")
        if first is not None:
            text += f" (first non-commuting tensor at index {first})"
        text += "\n"
    assert run(capsys, "cert-verify", str(path)) == (code, text, "")
    assert run(capsys, "cert-verify", str(path), "--json") == (
        code, json.dumps({"first_noncommuting": first,
                          "kernel_dim": D168_KDIM, "span_rank": rank,
                          "tensor_count": count, "verdict": verdict})
        + "\n", "")


@pytest.mark.parametrize("respaced", [False, True])
def test_cert_verify_reads_a_pipe(capsys, tmp_path, d168_certificate,
                                  respaced):
    # a pipe cannot be read twice, so it is read whole: the canonical
    # file and the respaced one, which takes the full parse, give the
    # report a regular file gives
    path = d168_certificate
    if respaced:
        path = tmp_path / "respaced.json"
        path.write_text(json.dumps(json.loads(d168_certificate.read_bytes()),
                                   indent=1))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = run(capsys, "cert-verify", str(fifo), "--json")
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got == run(capsys, "cert-verify", str(path), "--json")
    assert got[0] == 0 and '"proven-zpd"' in got[1]

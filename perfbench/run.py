"""Benchmark of the ladderzpd command line, one cold process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`
there.  Each operation is one `python -m ladderzpd.cli ...` process,
started through spawn.py, and the next starts only after the previous one
has been reaped (a closed loop with one client), because users pay a cold
process per certificate.
Every operation's output is checked (see workloads.py); a wrong exit code,
verdict, count or byte counts as a failed operation.

With `--trace 0` the end-to-end metrics are measured.  With `--trace 1`
each operation also runs once through tracer.py, which times every layer
boundary, and the per-layer metrics are reported; one extra operation runs
under cProfile for the scalar-arithmetic share.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics; a
readable summary goes to stderr.

There are no queue or wait-time metrics: one client runs one child at a
time, so nothing ever waits for anything but the operation itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from workloads import Op, SetupError, WORKLOADS, check, load_golden

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().with_name("tracer.py")
SPAWN = Path(__file__).resolve().with_name("spawn.py")

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MAX_ERRORS_SHOWN = 5

CALIBRATION_ITERATIONS = 12_000

E2E_UNITS = {"setup_s": "s", "op_p50_norm": "1", "peak_rss_mib": "MiB"}


def tail_percentile(samples: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND
    samples above it, as (percentile, value, samples above), or None
    when there are too few samples for any of them.  Values are nearest
    rank: the ceil(p/100 * n)-th smallest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if not n:
            break
        value = ordered[max(1, math.ceil(p * n / 100)) - 1]
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= TAIL_MIN_BEYOND:
            return p, value, beyond
    return None


def calibration_s() -> float:
    """Wall time of a fixed loop of exact Fraction sums in a dict keyed by
    tuples, the kind of work the program's inner loops do, run in this
    process.

    The benchmark was tuned on a shared virtual machine whose speed moves
    by up to 1.6x for stretches of 5-20 s, under other tenants' load.  An
    operation's wall time divided by the mean of this loop's time just
    before and just after it is a cost in calibration loops; it cancels
    most of that drift, so its median is far steadier between runs than
    the median wall time.  A change to the program moves the operation
    and not the loop, so the ratio moves with it.
    """
    t0 = time.perf_counter()
    acc: Dict[tuple, Fraction] = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13, 1 + i % 5)
    return time.perf_counter() - t0


class Child(NamedTuple):
    """Outcome of one reaped child process."""
    rc: int
    wall_s: float
    maxrss_kib: int
    stdout: bytes


class Runner:
    """Starts one command at a time, through spawn.py, with the checkout's
    src/ on its path.

    spawn.py keeps the benchmark's own memory out of each command's peak
    RSS and kills a command that runs longer than OP_TIMEOUT_S.  stdout
    and stderr go to files, never pipes: `ladder-enumerate --json` writes
    more than a pipe holds, and a child blocked on a full pipe never exits.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: List[str], stdout_path: Path) -> Child:
        result = stdout_path.with_suffix(".result")
        pid = os.posix_spawn(sys.executable, [
            sys.executable, "-I", "-S", str(SPAWN), str(result),
            str(OP_TIMEOUT_S), str(stdout_path), f"{stdout_path}.err", "--",
            sys.executable, *argv], self.env)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGTERM)  # spawn.py kills its command
            os.waitpid(pid, 0)
            raise
        if status != 0:
            raise RuntimeError(f"spawn.py failed with wait status {status}")
        rc, wall, maxrss = result.read_text().split()
        return Child(int(rc), float(wall), int(maxrss),
                     stdout_path.read_bytes())

    def run_cli(self, args: List[str], stdout_path: Path) -> Tuple[int, bytes]:
        child = self.run(["-m", "ladderzpd.cli", *args], stdout_path)
        return child.rc, child.stdout


def set_up(workload: str, seed: int, runner: Runner, work: Path
           ) -> Tuple[List[Op], List[float]]:
    """Run the workload's set-up SETUP_REPEATS times, each from an empty
    directory; return the last set of ops and every set-up time.

    Each set-up first imports the CLI in a child, which byte-compiles the
    sources on a fresh checkout and proves they are the ones imported.
    """
    times = []
    ops: List[Op] = []
    for k in range(SETUP_REPEATS):
        here = work / f"setup-{k}"
        t0 = time.perf_counter()
        here.mkdir(parents=True)
        child = runner.run(["-c", "import ladderzpd.cli as c; print(c.__file__)"],
                           here / "import.out")
        where = child.stdout.decode().strip()
        if child.rc != 0 or Path(where).resolve().parent != SRC / "ladderzpd":
            raise SetupError(f"ladderzpd.cli was not imported from {SRC}: "
                             f"exit {child.rc}, {where!r}")
        ops = WORKLOADS[workload](seed, here, runner.run_cli)
        times.append(time.perf_counter() - t0)
    return ops, times


class Tally:
    """Checks each op's output and counts attempts and failures."""

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, op: Op, child: Child) -> None:
        self.attempted += 1
        errors = check(op, child.rc, child.stdout, self.golden)
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{' '.join(op.args)}: {'; '.join(errors)}")


class Calibrated:
    """Runs ops between calibration loops; see calibration_s()."""

    def __init__(self, runner: Runner, tally: Tally, work: Path):
        self.runner, self.tally, self.work = runner, tally, work
        self.before = calibration_s()

    def run(self, op: Op, via: Sequence[str] = ("-m", "ladderzpd.cli")
            ) -> Tuple[Child, float]:
        """Run one op (directly, or through `via`) and check its output.
        Returns the outcome and the wall time in calibration loops."""
        if op.out is not None and op.out.exists():
            op.out.unlink()  # a stale file must not pass this op's check
        child = self.runner.run([*via, *op.args], self.work / "op.out")
        self.tally.record(op, child)
        after = calibration_s()
        norm = child.wall_s / ((self.before + after) / 2)
        self.before = after
        return child, norm


def measure(ops: List[Op], runner: Runner, tally: Tally, seconds: float,
            work: Path) -> Dict[str, object]:
    """Closed loop over the ops for `seconds`; at least one op runs."""
    walls: List[float] = []
    norms: List[float] = []
    cert_bytes: List[int] = []
    max_rss = 0
    clocked = Calibrated(runner, tally, work)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        op = ops[len(walls) % len(ops)]
        child, norm = clocked.run(op)
        walls.append(child.wall_s)
        norms.append(norm)
        max_rss = max(max_rss, child.maxrss_kib)
        if op.out is not None and op.out.exists():
            cert_bytes.append(op.out.stat().st_size)
    return {"walls": walls, "norms": norms, "cert_bytes": cert_bytes,
            "elapsed": time.perf_counter() - start, "max_rss_kib": max_rss}


# Per-layer metric -> (unit, column, span names, caller or None), summed
# over the trace records.  Columns: "total" is time in the span counted
# once where it nests in itself, "self" is time minus wrapped callees,
# "calls" and "items" are counts.
FAMILIES = ("onestep.pairing_families", "onestep.gl_block_tensors",
            "onestep.families_h_r", "onestep.families_h_l",
            "onestep.families_l_r")
INSERT = ("elim.IncrementalEchelon.insert",)
SEARCH = "certificates.search_spanning"
VERIFY = ("certificates.verify_certificate",)

LAYER_METRICS = {
    "certificates.centralizer_s": ("s", "total", ("certificates.centralizer",), None),
    "certificates.centralizer_calls": ("count", "calls", ("certificates.centralizer",), None),
    "elim.rref_s": ("s", "total", ("elim.rref",), None),
    "elim.rref_calls": ("count", "calls", ("elim.rref",), None),
    "elim.rref_cells": ("count", "items", ("elim.rref",), None),
    "certificates.search_self_s": ("s", "self", (SEARCH,), None),
    "certificates.candidates_tried": ("count", "calls", INSERT, SEARCH),
    "certificates.candidates_kept": ("count", "items", INSERT, SEARCH),
    "elim.insert_s": ("s", "total", INSERT, None),
    "elim.insert_calls": ("count", "calls", INSERT, None),
    "elim.insert_accepted": ("count", "items", INSERT, None),
    "tensors.build_mu_s": ("s", "total", ("tensors.build_mu",), None),
    "tensors.mu_columns": ("count", "items", ("tensors.build_mu",), None),
    "tensors.mu_rank_s": ("s", "total", ("tensors.MuMap.rank",), None),
    "tensors.in_kernel_s": ("s", "total", ("tensors.in_kernel",), None),
    "tensors.in_kernel_calls": ("count", "calls", ("tensors.in_kernel",), None),
    "tensors.tensor_coords_s": ("s", "total", ("tensors.tensor_coords",), None),
    "tensors.tensor_coords_calls": ("count", "calls", ("tensors.tensor_coords",), None),
    "certificates.verify_s": ("s", "total", VERIFY, None),
    "certificates.verify_self_s": ("s", "self", VERIFY, None),
    "matrices.mat_product_s": ("s", "total", ("matrices.mat_product",), None),
    "matrices.mat_product_calls": ("count", "calls", ("matrices.mat_product",), None),
    "onestep.assemble_self_s": ("s", "self", ("onestep.assemble_one_step_certificate",), None),
    "onestep.families_s": ("s", "total", FAMILIES, None),
    "onestep.tensors_built": ("count", "items", FAMILIES, None),
    "certio.write_s": ("s", "total", ("certio.write_certificate",), None),
    "certio.bytes_written": ("B", "items", ("certio.write_certificate",), None),
    "certio.read_s": ("s", "total", ("certio.read_certificate",), None),
    "certio.tensors_parsed": ("count", "items", ("certio.read_certificate",), None),
    "ladders.is_closed_s": ("s", "total", ("ladders.is_closed",), None),
    "ladders.is_closed_calls": ("count", "calls", ("ladders.is_closed",), None),
    "ladders.enumerate_s": ("s", "total", ("ladders.enumerate_ladders",), None),
}
DERIVED_UNITS = {"certificates.keep_ratio": "1", "elim.pivot_nnz": "count",
                 "fields.scalar_share": "1", "cli.startup_s": "s",
                 "trace.overhead_ratio": "1"}
COLUMN = {"calls": 2, "total": 3, "self": 4, "items": 5}


def layer_value(records: List[list], column: str, names: Tuple[str, ...],
                caller: Optional[str]) -> float:
    """Sum one column of the (name, caller, calls, total, self, items)
    trace records over the given span names, optionally for one caller."""
    col = COLUMN[column]
    return sum(rec[col] for rec in records
               if rec[0] in names and (caller is None or rec[1] == caller)
               and not (column == "total" and rec[1] in names))


def layer_metrics(traces: List[dict], scalar: float,
                  overhead: float) -> Dict[str, float]:
    """Per-layer metrics, averaged per traced operation."""
    n = len(traces)
    records = [rec for t in traces for rec in t.get("records", [])]
    out = {name: layer_value(records, *spec[1:]) / n
           for name, spec in LAYER_METRICS.items()}
    tried = out["certificates.candidates_tried"]
    out["certificates.keep_ratio"] = (
        out["certificates.candidates_kept"] / tried if tried else 0.0)
    out["elim.pivot_nnz"] = sum(t.get("pivot_nnz", 0) for t in traces) / n
    out["fields.scalar_share"] = scalar
    out["cli.startup_s"] = statistics.median(
        t.get("startup_s", 0.0) for t in traces)
    out["trace.overhead_ratio"] = overhead
    return out


def layer_units() -> Dict[str, str]:
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update(DERIVED_UNITS)
    return units


def read_trace(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def trace_run(ops: List[Op], runner: Runner, tally: Tally, seconds: float,
              work: Path) -> Dict[str, float]:
    """Untraced then traced run of each op in turn, after one profiled op."""
    trace_path = work / "trace.json"
    start = time.perf_counter()
    clocked = Calibrated(runner, tally, work)
    clocked.run(ops[0], (str(TRACER), "--out", str(trace_path), "--profile",
                         "--"))
    scalar = read_trace(trace_path).get("scalar_share", 0.0)
    plain: List[float] = []
    traced: List[float] = []
    traces: List[dict] = []
    while not traces or time.perf_counter() - start < seconds:
        op = ops[len(traces) % len(ops)]
        plain.append(clocked.run(op)[1])
        if trace_path.exists():
            trace_path.unlink()
        via = (str(TRACER), "--out", str(trace_path), "--")
        traced.append(clocked.run(op, via)[1])
        traces.append(read_trace(trace_path))
    overhead = statistics.median(traced) / statistics.median(plain)
    return layer_metrics(traces, scalar, overhead)


def summarize(workload: str, metrics: Dict[str, float],
              units: Dict[str, str], extra: List[str]) -> None:
    print(f"workload {workload}:", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    for line in extra:
        print(f"  {line}", file=sys.stderr)


def e2e_metrics(ops: List[Op], setup_times: List[float],
                run: Dict[str, object]) -> Tuple[Dict[str, float], List[str]]:
    """The bounded end-to-end metrics, plus summary lines for the ones
    that are reported but not bounded."""
    walls, norms = run["walls"], run["norms"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_norm": statistics.median(norms),
        "peak_rss_mib": run["max_rss_kib"] / 1024,
    }
    tail = tail_percentile(walls)
    extra = [f"ops_per_s = {len(walls) / run['elapsed']:.6g} 1/s "
             f"({len(walls)} ops)",
             f"op_p50_s = {statistics.median(walls):.6g} s",
             ("op tail: none (fewer than "
              f"{TAIL_MIN_BEYOND} samples beyond any percentile)"
              if tail is None else
              f"op_p{tail[0]:g}_s = {tail[1]:.6g} s ({tail[2]} samples "
              "beyond it)")]
    accepts = [ops[k % len(ops)].accept for k in range(len(walls))]
    if len(set(accepts)) == 2:
        for name, flag in (("accept", True), ("reject", False)):
            mine = [k for k, a in enumerate(accepts) if a == flag]
            extra.append(
                f"{name}_p50_s = {statistics.median(walls[k] for k in mine):.6g}"
                f" s, {name}_p50_norm = "
                f"{statistics.median(norms[k] for k in mine):.6g}")
    if run["cert_bytes"]:
        extra.append(f"cert_bytes = {statistics.median(run['cert_bytes']):.0f} B")
    return metrics, extra


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ladderzpd" / "cli.py").is_file():
        print(f"error: no ladderzpd sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so the running command is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        runner = Runner()
        ops, setup_times = set_up(args.workload, args.seed, runner, work)
        tally = Tally(load_golden())
        if args.trace:
            metrics = trace_run(ops, runner, tally, args.seconds, work)
            units = layer_units()
            extra = []
        else:
            run = measure(ops, runner, tally, args.seconds, work)
            metrics, extra = e2e_metrics(ops, setup_times, run)
            units = E2E_UNITS
        extra.append(f"op_fail_ratio = {tally.failed / tally.attempted:.6g} "
                     f"({tally.failed} of {tally.attempted} ops)")
        extra += [f"FAILED {e}" for e in tally.errors]
        extra.append("no wait-time metrics: one client, one child at a time, "
                     "nothing queues")
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    summarize(args.workload, metrics, units, extra)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

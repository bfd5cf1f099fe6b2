"""Workload inputs, expected results and output checks for the benchmark.

Each workload turns a seed into a list of operations.  An operation is one
`python -m ladderzpd.cli ...` invocation plus everything needed to judge
its output without trusting the program: the expected exit code, the
expected `--json` report (counts from closed-form formulas computed here,
not by the program), and the SHA-256 of the bytes it writes, taken from
`golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GL_M = 6
ONESTEP_N = 24
ONESTEP_N2 = 2
SURVEY_N = 6

PROVEN = "proven-zpd"

# Defect kind -> the verdict the verifier must give for it.
DEFECTS = {
    "deleted": "failed-span",
    "duplicated": "count-mismatch",
    "replaced": "failed-kernel-membership",
}


class SetupError(RuntimeError):
    """The program could not produce a workload's input files."""


def gl_kernel_dim(m: int) -> int:
    """dim Ker mu on gl_m under the bracket: m^4 - m^2 + 1."""
    return m**4 - m**2 + 1


def ladder_kernel_dim(n1: int, n2: int, n3: int) -> int:
    """dim Ker mu on the one-step ladder with blocks (n1, n2, n3):
    d^2 - d + 1 with d = (n1+n2)(n2+n3) the algebra dimension."""
    d = (n1 + n2) * (n2 + n3)
    return d * d - d + 1


def ladder_count(n: int) -> int:
    """Number of ladders on n with 1..n steps: sum over k of C(n,k)^2."""
    return sum(comb(n, k) ** 2 for k in range(1, n + 1))


def onestep_choices() -> List[tuple]:
    """Every (n1, n3) a seed can pick: n1 + n3 = ONESTEP_N - ONESTEP_N2
    and |n1 - n3| <= 4, so d = (n1+2)(n3+2) stays within 165..169."""
    rest = ONESTEP_N - ONESTEP_N2
    return [(n1, rest - n1) for n1 in range(rest + 1)
            if abs(2 * n1 - rest) <= 4]


def verify_choices() -> List[tuple]:
    """The ladders cert-verify picks from: the mirror pair with d = 168.

    Mirror images have the same algebra dimension, so every seed verifies
    the same amount of work and the seed moves no timing by itself.
    """
    return [(n1, n3) for n1, n3 in onestep_choices()
            if (n1 + ONESTEP_N2) * (n3 + ONESTEP_N2) == 168]


def onestep_step(n1: int) -> tuple:
    """The step (i1, j1) with j1 = n1 + 1 and i1 = n1 + ONESTEP_N2."""
    return (n1 + ONESTEP_N2, n1 + 1)


def assemble_args(n1: int) -> List[str]:
    i1, j1 = onestep_step(n1)
    return ["zpd-assemble", "--n", str(ONESTEP_N), "--step", f"{i1},{j1}"]


GL_ARGS = ["zpd-gl", "--m", str(GL_M)]
SURVEY_ARGS = ["ladder-enumerate", "--n", str(SURVEY_N), "--closure", "lie",
               "--json"]


def golden_key(args: List[str]) -> str:
    return " ".join(args)


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps_canonical(obj) -> bytes:
    """The certificate file form: sorted keys, no whitespace, one newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def tamper(cert: dict, kind: str, index: int, step: tuple) -> dict:
    """A copy of a certificate's JSON with one defect at tensor `index`.

    deleted: the tensor is removed; duplicated: a copy follows it;
    replaced: it becomes e_{j1,j1} (x) e_{j1,j1+1}, whose bracket is
    e_{j1,j1+1} != 0.  Both replacement factors lie in the position set of
    the step (i1, j1) because j1 <= i1, so the file still parses.  The
    count of the tensor's family is adjusted to match, because the reader
    rejects a file whose family counts do not sum to its tensor count.
    """
    tensors = list(cert["tensors"])
    label = tensors[index]["family"]
    if kind == "deleted":
        del tensors[index]
        delta = -1
    elif kind == "duplicated":
        tensors.insert(index + 1, tensors[index])
        delta = 1
    elif kind == "replaced":
        j1 = step[1]
        tensors[index] = {"family": label, "u": [[j1, j1, "1"]],
                          "v": [[j1, j1 + 1, "1"]]}
        delta = 0
    else:
        raise ValueError(f"unknown defect kind: {kind!r}")
    families = [dict(f, count=f["count"] + delta) if f["label"] == label
                else f for f in cert["families"]]
    return dict(cert, families=families, tensors=tensors)


def report(kdim: int, count: int, rank: int, verdict: str,
           first: Optional[int] = None) -> dict:
    """The `--json` verification report an operation must print."""
    return {"kernel_dim": kdim, "tensor_count": count, "span_rank": rank,
            "first_noncommuting": first, "verdict": verdict}


def defect_report(kind: str, kdim: int, index: int) -> dict:
    """Expected report for a valid basis of size kdim with one defect.

    Deleting a basis vector leaves rank kdim - 1; a duplicate adds no
    rank; the replacement is outside Ker mu while the rest are inside it,
    so it is independent of them and the rank stays kdim.
    """
    if kind == "deleted":
        return report(kdim, kdim - 1, kdim - 1, DEFECTS[kind])
    if kind == "duplicated":
        return report(kdim, kdim + 1, kdim, DEFECTS[kind])
    return report(kdim, kdim, kdim, DEFECTS[kind], index)


@dataclass
class Op:
    """One CLI invocation and what its output must be."""
    args: List[str]
    rc: int
    accept: bool
    report: Optional[dict] = None   # expected last stdout line, as JSON
    out: Optional[Path] = None      # file the op writes (hashed if golden)
    golden: Optional[str] = None    # key of the expected SHA-256
    list_len: Optional[int] = None  # expected length of a JSON list on stdout


def check(op: Op, rc: int, stdout: bytes, golden: Dict[str, str]) -> List[str]:
    """Every way the operation's output differs from what it must be."""
    errors = []
    if rc != op.rc:
        errors.append(f"exit code {rc}, expected {op.rc}")
    if op.report is not None:
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        try:
            got = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            got = None
        if not isinstance(got, dict):
            errors.append("no JSON report on stdout")
        else:
            for key, want in op.report.items():
                if got.get(key) != want:
                    errors.append(f"{key} = {got.get(key)!r}, expected {want!r}")
    if op.list_len is not None:
        try:
            got_len = len(json.loads(stdout))
        except (json.JSONDecodeError, TypeError):
            got_len = None
        if got_len != op.list_len:
            errors.append(f"{got_len} entries, expected {op.list_len}")
    if op.golden is not None:
        try:
            data = op.out.read_bytes() if op.out is not None else stdout
        except OSError as exc:
            errors.append(f"output missing: {exc}")
        else:
            if golden.get(op.golden) != sha256_hex(data):
                errors.append(f"SHA-256 differs from the golden value for "
                              f"{op.golden!r}")
    return errors


# A setup function gets (seed, work dir, run_cli) and returns the ops.
# run_cli(args, stdout_path) -> (exit code, stdout bytes) runs the program.
Setup = Callable[[int, Path, Callable], List[Op]]


def setup_gl_search(seed: int, work: Path, run_cli) -> List[Op]:
    # The search is deterministic: the seed is recorded but changes nothing.
    out = work / "gl.json"
    kdim = gl_kernel_dim(GL_M)
    return [Op(GL_ARGS + ["--out", str(out), "--json"], 0, True,
               report(kdim, kdim, kdim, PROVEN), out, golden_key(GL_ARGS))]


def setup_onestep_assemble(seed: int, work: Path, run_cli) -> List[Op]:
    # The seed orders the ladders; ops cycle through all of them, so each
    # run covers every input size the rule allows.
    rng = random.Random(seed)
    ops = []
    for n1, n3 in rng.sample(onestep_choices(), len(onestep_choices())):
        kdim = ladder_kernel_dim(n1, ONESTEP_N2, n3)
        out = work / f"assemble-{n1}.json"
        args = assemble_args(n1)
        ops.append(Op(args + ["--out", str(out), "--json"], 0, True,
                      report(kdim, kdim, kdim, PROVEN), out,
                      golden_key(args)))
    return ops


def setup_cert_verify(seed: int, work: Path, run_cli) -> List[Op]:
    # The seed picks the ladder and the tampered index of each defect.
    rng = random.Random(seed)
    n1, n3 = rng.choice(verify_choices())
    kdim = ladder_kernel_dim(n1, ONESTEP_N2, n3)
    args = assemble_args(n1)
    valid = work / "valid.json"
    rc, _ = run_cli(args + ["--out", str(valid)], work / "assemble.out")
    if rc != 0 or not valid.exists():
        raise SetupError(f"{golden_key(args)} exited {rc}")
    data = valid.read_bytes()
    if load_golden().get(golden_key(args)) != sha256_hex(data):
        raise SetupError(f"{golden_key(args)} wrote a certificate whose "
                         "SHA-256 differs from the golden value")
    cert = json.loads(data)
    ops = [Op(["cert-verify", str(valid), "--json"], 0, True,
              report(kdim, kdim, kdim, PROVEN))]
    for kind in DEFECTS:
        index = rng.randrange(kdim)
        path = work / f"{kind}.json"
        path.write_bytes(dumps_canonical(
            tamper(cert, kind, index, onestep_step(n1))))
        ops.append(Op(["cert-verify", str(path), "--json"], 1, False,
                      defect_report(kind, kdim, index)))
    return ops


def setup_ladder_survey(seed: int, work: Path, run_cli) -> List[Op]:
    # One fixed input: the seed is recorded but changes nothing.
    return [Op(list(SURVEY_ARGS), 0, True, golden=golden_key(SURVEY_ARGS),
               list_len=ladder_count(SURVEY_N))]


WORKLOADS: Dict[str, Setup] = {
    "gl-search": setup_gl_search,
    "onestep-assemble": setup_onestep_assemble,
    "cert-verify": setup_cert_verify,
    "ladder-survey": setup_ladder_survey,
}

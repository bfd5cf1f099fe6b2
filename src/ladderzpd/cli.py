"""Command-line surface: ladder inspection, certificate assembly,
search, and re-verification.

Exit codes: 0 verified/ok, 1 verification failed, 2 usage error or bad
input file (a tensor factor outside the named algebra included), 3 search
budget exhausted.

The certificate pipeline (`elim`, `tensors`, `certificates`, `certio`,
`onestep`) is loaded lazily: where Python writes no bytecode cache,
compiling and running it took about a sixth of a cold
`ladder-enumerate --n 6`, and where it reads one, about 3%.  Importing
this module puts each of the five in `sys.modules` and on the
`ladderzpd` package through `importlib.util.LazyLoader`, and a module's
source is compiled and run at the first use of one of its attributes.
The commands call through the module (`certificates.verify_certificate`),
so `ladder-check` and `ladder-enumerate` run only `ladders`, `matrices`
and `fields`, and `cert-verify` and `zpd-gl` never run `onestep`.  The
modules are registered here rather than imported inside the commands so
that code walking the `ladderzpd.*` entries of `sys.modules` after
importing this module still finds all of them: `perfbench/tracer.py`
wraps their public functions that way, and reading a lazy module's
`vars()` runs it.  `LazyLoader` is not thread-safe before Python 3.12
(nor in its first releases): two threads that first touch a module at
once may both run it.  The CLI runs in one thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from math import comb
from types import ModuleType
from typing import Callable, List, Optional, Tuple

from .fields import DEFAULT_PRIME, Field, PrimeField, QQ
from .ladders import (MAX_ALGEBRA_SIZE, Ladder, SearchExhaustedError,
                      enumerate_ladders, is_upper_triangular)


def _lazy(name: str) -> ModuleType:
    """ladderzpd.<name>, registered now and run at its first attribute
    use; a module already imported is returned as it is."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# elim and tensors too: certificates imports them, and all five are in
# sys.modules from here on
elim, tensors, certificates, certio, onestep = map(
    _lazy, ("elim", "tensors", "certificates", "certio", "onestep"))

# ladder-enumerate lists at most this many ladders, on n with n^2 at
# most MAX_ALGEBRA_SIZE: n = 8 with every k (12,869 ladders) is allowed.
# The largest run allowed, --n 16 --k 14 --closure lie --json (14,400
# ladders), takes about 0.6 s and 52 MiB in a cold process.
MAX_LADDER_COUNT = 16384


def _step(text: str) -> Tuple[int, int]:
    try:
        i, j = text.split(",")
        return (int(i), int(j))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"step must look like 'i,j', got {text!r}") from None


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _field_from_args(args) -> Field:
    if args.field == "rational":
        return QQ
    return PrimeField(args.prime)


def _add_field_options(sub) -> None:
    sub.add_argument("--field", choices=("rational", "fp"),
                     default="rational",
                     help="scalar field: exact rationals (default) or the "
                          "prime-field cross-check backend")
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                     help=f"modulus for --field fp (default {DEFAULT_PRIME})")


def _print_report(report: certificates.VerificationReport, as_json: bool,
                  extra: Optional[dict] = None) -> None:
    if as_json:
        obj = report._asdict()
        if extra:
            obj.update(extra)
        print(json.dumps(obj, sort_keys=True))
    elif report.proven:
        print(f"{report.tensor_count} = {report.span_rank} = "
              f"{report.kernel_dim} {report.verdict}")
    else:
        print(report.summary())


def _cmd_ladder_check(args) -> int:
    if not args.step:
        raise ValueError("at least one --step i,j is required")
    ladder = Ladder(args.n, args.step)
    dim = ladder.dim()
    if max(ladder.n, dim) > MAX_ALGEBRA_SIZE:
        raise ValueError(f"ladder too large to check: n = {ladder.n}, "
                         f"d = {dim} (the limit for each is "
                         f"{MAX_ALGEBRA_SIZE})")
    # closure under either product is upper-triangularity (proved in
    # is_upper_triangular)
    ut = is_upper_triangular(ladder)
    if args.json:
        print(json.dumps({
            "n": ladder.n,
            "steps": [list(s) for s in ladder.steps],
            "dim": dim,
            "upper_triangular": ut,
            "closed_associative": ut,
            "closed_lie": ut,
        }, sort_keys=True))
    else:
        steps = ", ".join(f"({i},{j})" for i, j in ladder.steps)
        print(f"ladder n={ladder.n} steps=[{steps}] dim={dim}")
        print(f"upper-triangular: {_yesno(ut)}; "
              f"closed (associative): {_yesno(ut)}; "
              f"closed (lie): {_yesno(ut)}")
    return 0


def _cmd_ladder_enumerate(args) -> int:
    if args.n < 1:
        raise ValueError(f"ambient size must be positive, got {args.n}")
    if args.n ** 2 > MAX_ALGEBRA_SIZE:
        raise ValueError(f"ambient size too large to list ladders: "
                         f"n = {args.n} (the limit for n^2 is "
                         f"{MAX_ALGEBRA_SIZE})")
    ks = [args.k] if args.k is not None else list(range(1, args.n + 1))
    count = sum(comb(args.n, k) ** 2 for k in ks if 1 <= k <= args.n)
    if count > MAX_LADDER_COUNT:
        raise ValueError(f"too many ladders to list: {count} on "
                         f"n = {args.n} (the limit is {MAX_LADDER_COUNT})")
    rows = []
    for k in ks:
        for ladder in enumerate_ladders(args.n, k):
            entry = {
                "n": ladder.n,
                "steps": [list(s) for s in ladder.steps],
                "upper_triangular": is_upper_triangular(ladder),
            }
            if args.closure:
                entry[f"closed_{args.closure}"] = entry["upper_triangular"]
            rows.append(entry)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for entry in rows:
            steps = ", ".join(f"({i},{j})" for i, j in entry["steps"])
            line = (f"steps=[{steps}] "
                    f"upper-triangular={_yesno(entry['upper_triangular'])}")
            if args.closure:
                line += (f" closed-{args.closure}="
                         f"{_yesno(entry['closed_' + args.closure])}")
            print(line)
    return 0


def _finish_certificate(
        args, build: Callable[[], certificates.Certificate]) -> int:
    """Build a certificate, verify it, report, and write it to --out
    when it is proven.  The writer is looked up before build() runs:
    compiled after a search, certio would add its transient peak to the
    certificate's memory (0.13 MiB of peak RSS on zpd-gl --m 6)."""
    write = None if args.out is None else certio.write_certificate
    cert = build()
    report = certificates.verify_certificate(cert)
    extra = None
    if write is not None and report.proven:
        write(cert, args.out, verified=True)
        extra = {"certificate_path": args.out}
    _print_report(report, args.json, extra)
    if write is not None and not report.proven:
        print("not writing a certificate that failed verification",
              file=sys.stderr)
    return 0 if report.proven else 1


def _budget(args) -> Optional[int]:
    if args.budget is not None and args.budget < 0:
        raise ValueError(
            f"search budget must be nonnegative, got {args.budget}")
    return args.budget


def _cmd_one_step(args) -> int:
    """zpd-assemble (--out required) and zpd-verify (--out optional)."""
    if len(args.step) != 1:
        raise ValueError("certificate assembly takes exactly one --step "
                         "(one-step ladders only)")
    if args.command == "zpd-assemble" and args.out is None:
        raise ValueError("--out is required for this command")
    (i1, j1), = args.step
    field, budget = _field_from_args(args), _budget(args)
    return _finish_certificate(
        args, lambda: onestep.assemble_one_step_certificate(
            args.n, i1, j1, field=field, budget=budget))


def _cmd_zpd_gl(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be positive, got {args.m}")
    field, budget = _field_from_args(args), _budget(args)
    return _finish_certificate(
        args, lambda: certificates.gl_certificate(args.m, field, budget))


def _cmd_cert_verify(args) -> int:
    cert = certio.read_certificate(args.path)
    report = certificates.verify_certificate(cert)
    _print_report(report, args.json)
    return 0 if report.proven else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderzpd",
        description="Exact-arithmetic certificates that ladder matrix Lie "
                    "algebras are zero product determined.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ladder-check",
                        help="upper-triangularity and closure of one ladder")
    p.add_argument("--n", type=int, required=True, help="ambient matrix size")
    p.add_argument("--step", type=_step, action="append", default=[],
                   metavar="i,j", help="ladder step (repeatable)")
    p.set_defaults(func=_cmd_ladder_check)

    p = subs.add_parser("ladder-enumerate",
                        help="list all ladders on n (optionally fixed step "
                             "count), with upper-triangularity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="step count filter")
    p.add_argument("--closure", choices=("associative", "lie"), default=None,
                   help="also report closure under this product")
    p.set_defaults(func=_cmd_ladder_enumerate)

    for name, out_help in (
            ("zpd-assemble", "write the verified certificate here (required)"),
            ("zpd-verify", "write the verified certificate here (optional)")):
        p = subs.add_parser(
            name,
            help="build and verify the rank-one spanning certificate for a "
                 "one-step ladder" + (" and write it" if name == "zpd-assemble"
                                      else ""))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--step", type=_step, action="append", default=[],
                       metavar="i,j", help="the single ladder step")
        _add_field_options(p)
        p.add_argument("--budget", type=int, default=None,
                       help="candidate limit for the gl block search")
        p.add_argument("--out", default=None, help=out_help)
        p.set_defaults(func=_cmd_one_step)

    p = subs.add_parser("zpd-gl",
                        help="search a rank-one spanning certificate for "
                             "gl_m under the bracket")
    p.add_argument("--m", type=int, required=True)
    _add_field_options(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_zpd_gl)

    p = subs.add_parser("cert-verify",
                        help="read a certificate file and re-verify it "
                             "from scratch")
    p.add_argument("path")
    p.set_defaults(func=_cmd_cert_verify)

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # the parser is let go before any command runs, so that it is not
    # held while the pipeline compiles
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # certio.CertificateFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

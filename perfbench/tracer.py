"""Run the ladderzpd CLI in this process with every layer boundary timed.

    python3 perfbench/tracer.py --out TRACE.json -- CLI-ARGS...
    python3 perfbench/tracer.py --out TRACE.json --profile -- CLI-ARGS...

The first form wraps every public function, method and property of the
ladderzpd modules (the scalar layer, `fields`, excepted: its cost is read
from the profile pass instead), patches each name at every module that
imports it, then calls `cli.main`.  Calls are aggregated per
(function, caller) as call count, total time, self time (total minus the
time of wrapped callees) and an item count for a few functions (rows x
columns for `rref`, accepted rows for `insert`, ...).  Generator functions
are left alone: their work is done while the caller iterates, so it shows
in the caller's self time.  When PERFBENCH_SPAWNED holds the
`time.monotonic()` of this process's spawn (spawn.py sets it), the gap
until the CLI is imported is reported as the start-up time.

The second form runs `cli.main` under cProfile instead, and reports the
share of self time spent in `fractions.py` and `ladderzpd/fields.py`.

The CLI's stdout, stderr and exit code are passed through unchanged; the
trace goes to the `--out` file as JSON.
"""

import argparse
import functools
import inspect
import json
import os
import sys
import time


def _items_counters(echelons):
    """Item counts recorded per call, by span name."""
    def accepted(args, result):
        echelons[id(args[0])] = args[0]
        return int(bool(result))

    def length(args, result):
        return len(result)

    return {
        "elim.rref": lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0),
        "elim.IncrementalEchelon.insert": accepted,
        "tensors.build_mu": lambda a, r: len(r.columns),
        "onestep.pairing_families": length,
        "onestep.gl_block_tensors": length,
        "onestep.families_h_r": length,
        "onestep.families_h_l": length,
        "onestep.families_l_r": length,
        "certio.write_certificate": lambda a, r: os.path.getsize(a[1]),
        "certio.read_certificate": lambda a, r: len(r.tensors),
    }


class Tracer:
    """Aggregated spans: (name, caller) -> [calls, total_s, self_s, items]."""

    def __init__(self):
        self.records = {}
        self.names = ["<root>"]
        self.child = [0.0]
        self.echelons = {}
        self.counters = _items_counters(self.echelons)

    def wrap(self, fn, name):
        records, names, child = self.records, self.names, self.child
        count = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = names[-1]
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                names.pop()
                inner = child.pop()
                child[-1] += dur
                rec = records.get((name, parent))
                if rec is None:
                    rec = records[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - inner
            if count is not None:
                rec[3] += count(args, result)
            return result
        return span

    def instrument(self, modules):
        """Wrap the public callables of each module and patch every
        module-level name that refers to one of them."""
        wrapped = {}

        def wrap_fn(fn, name):
            if inspect.isgeneratorfunction(fn):
                return fn
            wrapped[fn] = self.wrap(fn, name)
            return wrapped[fn]

        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short == "fields":
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap_fn(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    self._instrument_class(obj, f"{short}.{name}", wrap_fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    @staticmethod
    def _instrument_class(cls, prefix, wrap_fn):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, property):
                setattr(cls, attr, property(wrap_fn(val.fget, name),
                                            val.fset, val.fdel, val.__doc__))
            elif isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(wrap_fn(val.__func__, name)))
            elif inspect.isfunction(val):
                setattr(cls, attr, wrap_fn(val, name))

    def pivot_nnz(self) -> int:
        """Stored entries summed over every echelon the run built."""
        return sum(len(row) for ech in self.echelons.values()
                   for row in ech.pivot_rows.values())


def scalar_share(profiler) -> float:
    """Share of profiled self time spent in scalar arithmetic."""
    import pstats  # here, so the traced form's start-up time excludes it
    stats = pstats.Stats(profiler).stats
    total = scalar = 0.0
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        total += tt
        path = filename.replace(os.sep, "/")
        if path.endswith("/fractions.py") or path.endswith(
                "/ladderzpd/fields.py"):
            scalar += tt
    return scalar / total if total else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    import ladderzpd.cli as cli
    ready = time.monotonic()
    trace = {}
    spawned = os.environ.get("PERFBENCH_SPAWNED")
    if spawned is not None:
        trace["startup_s"] = ready - float(spawned)
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        rc = profiler.runcall(cli.main, cli_args)
        trace["scalar_share"] = scalar_share(profiler)
    else:
        tracer = Tracer()
        tracer.instrument([mod for name, mod in sorted(sys.modules.items())
                           if name.startswith("ladderzpd.")])
        rc = cli.main(cli_args)
        trace["records"] = [[name, parent, *rec] for (name, parent), rec
                            in sorted(tracer.records.items())]
        trace["pivot_nnz"] = tracer.pivot_nnz()
    sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

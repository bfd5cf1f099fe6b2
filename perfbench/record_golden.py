"""Record golden.json: the SHA-256 of every output the benchmark checks.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right.
Covers every input a seed can pick: the gl_6 certificate, the one-step
certificate of every (n1, n3) in onestep_choices(), and the stdout of the
ladder survey.  Each entry is keyed by the CLI arguments that produce it.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, Runner
from workloads import (GL_ARGS, GOLDEN_PATH, SURVEY_ARGS, assemble_args,
                       golden_key, onestep_choices, sha256_hex)


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        runner = Runner()
        out = work / "cert.json"
        for args in [GL_ARGS] + [assemble_args(n1)
                                 for n1, _ in onestep_choices()]:
            rc, _ = runner.run_cli(args + ["--out", str(out)],
                                   work / "stdout")
            if rc != 0:
                print(f"error: {golden_key(args)} exited {rc}",
                      file=sys.stderr)
                return 1
            golden[golden_key(args)] = sha256_hex(out.read_bytes())
        rc, stdout = runner.run_cli(SURVEY_ARGS, work / "stdout")
        if rc != 0:
            print(f"error: {golden_key(SURVEY_ARGS)} exited {rc}",
                  file=sys.stderr)
            return 1
        golden[golden_key(SURVEY_ARGS)] = sha256_hex(stdout)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

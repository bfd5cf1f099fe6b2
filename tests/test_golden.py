"""Golden-hash gate: certificates stay the same byte for byte.

The SHA-256 of the canonical bytes of every gl_m certificate with
m <= 6, and of every one-step certificate (n, i1, j1) with n <= 6, over
QQ and F_101, is pinned in golden_hashes.json, and so are gl_7 to gl_9
over QQ, gl_7 over F_101, and gl_1..gl_7 over F_2 and over F_3, where
the search skips the most candidates.  Any change to the search, the
families or the serializer that moves a single byte of a certificate
fails here.  The table was recorded before the elimination engine was
rewritten on exact integers (the QQ gl_7, gl_8 and F_2 gl_1..gl_5 rows
before the search was pruned, the QQ gl_9 and F_3 rows before it
skipped b_s - b_t, the F_2 gl_6, gl_7 and F_101 gl_7 rows before it
skipped spanned b_s + b_t);
regenerate it only for a deliberate change of format, with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from itertools import product

from ladderzpd.certificates import gl_certificate
from ladderzpd.certio import certificate_bytes
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.onestep import assemble_one_step_certificate

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_hashes.json")
FIELDS = {"QQ": QQ, "F101": PrimeField(101), "F2": PrimeField(2),
          "F3": PrimeField(3)}
GL_SIZES = {"QQ": range(1, 10), "F101": range(1, 8), "F2": range(1, 8),
            "F3": range(1, 8)}
ONE_STEP_FIELDS = ("QQ", "F101")


def _sha(cert) -> str:
    return hashlib.sha256(certificate_bytes(cert)).hexdigest()


def current_hashes() -> dict:
    """Certificate name -> SHA-256 of its canonical bytes."""
    out = {}
    for fname, field in FIELDS.items():
        for m in GL_SIZES[fname]:
            out[f"{fname} gl {m}"] = _sha(gl_certificate(m, field))
        if fname not in ONE_STEP_FIELDS:
            continue
        for n in range(1, 7):
            for i1, j1 in product(range(1, n + 1), repeat=2):
                cert = assemble_one_step_certificate(n, i1, j1, field)
                out[f"{fname} one-step {n} {i1} {j1}"] = _sha(cert)
    return out


def test_certificate_bytes_match_golden_hashes():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = current_hashes()
    assert sorted(got) == sorted(golden)
    moved = [name for name in golden if got[name] != golden[name]]
    assert not moved, f"{len(moved)} certificates changed, first {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(current_hashes(), fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Canonical JSON round trips and file validation."""

from __future__ import annotations

import gc
import io
import json
import os
import stat
import tracemalloc
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from ladderzpd import certio
from ladderzpd.certificates import (Certificate, gl_certificate,
                                    verify_certificate)
from ladderzpd.certio import (CertificateFormatError, _canonical_certificate,
                              certificate_bytes, certificate_from_json,
                              field_from_json, field_to_json,
                              read_certificate, write_certificate)
from ladderzpd.cli import main
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.onestep import assemble_one_step_certificate
from ladderzpd.tensors import MembershipError, Tensors

from oracles import RankOneTensor, reference_certificate_bytes, scaled


def write_verified(cert, path):
    assert verify_certificate(cert).proven
    write_certificate(cert, str(path), verified=True)


def test_round_trip_is_byte_exact(tmp_path):
    cert = assemble_one_step_certificate(4, 3, 2)
    path = tmp_path / "cert.json"
    write_verified(cert, path)
    reread = read_certificate(str(path))
    assert reread == cert
    assert certificate_bytes(reread) == path.read_bytes()


def test_file_layout_is_canonical(tmp_path):
    cert = assemble_one_step_certificate(3, 2, 2)
    path = tmp_path / "cert.json"
    write_verified(cert, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert b" " not in raw.split(b"\n")[0]
    obj = json.loads(raw)
    assert list(obj) == sorted(obj)
    assert obj["format_version"] == 1
    assert obj["algebra"] == {"kind": "ladder-lie", "n": 3, "steps": [[2, 2]]}
    assert obj["field"] == {"kind": "rational"}
    # zero-count families are kept so the family list is always complete
    assert {"label": "T", "count": 0} in obj["families"]
    # entries are 1-based [row, col, text] triples sorted row-major
    first_u = obj["tensors"][0]["u"]
    assert all(isinstance(e[0], int) and isinstance(e[2], str)
               for e in first_u)
    assert first_u == sorted(first_u, key=lambda e: (e[0], e[1]))


def test_write_requires_verification_flag(tmp_path):
    cert = gl_certificate(2)
    path = tmp_path / "cert.json"
    with pytest.raises(ValueError):
        write_certificate(cert, str(path))
    assert not path.exists()
    write_certificate(cert, str(path), mark_unverified=True)
    assert read_certificate(str(path)) == cert


def test_write_creates_the_file_open_would(tmp_path):
    # the certificate is written beside the path and renamed over it,
    # with the mode a plain open(path, "wb") gives a new file
    cert = gl_certificate(2)
    plain = tmp_path / "plain"
    open(plain, "wb").close()
    path = tmp_path / "cert.json"
    path.write_bytes(b"an older file")
    write_certificate(cert, str(path), verified=True)
    assert path.read_bytes() == certificate_bytes(cert)
    assert (stat.S_IMODE(path.stat().st_mode)
            == stat.S_IMODE(plain.stat().st_mode))
    assert sorted(os.listdir(tmp_path)) == ["cert.json", "plain"]


def test_write_goes_through_a_link(tmp_path):
    # a link is written through, as open does, not replaced by a file
    cert = gl_certificate(2)
    target = tmp_path / "target.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_certificate(cert, str(link), verified=True)
    assert link.is_symlink()
    assert target.read_bytes() == certificate_bytes(cert)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


@pytest.mark.parametrize("old", [None, b"an older file"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, old):
    # a failure after the first chunk, the head, has gone out: the path
    # is absent or holds its old bytes, and no partial file is left
    chunks_of = certio._certificate_chunks
    path = tmp_path / "cert.json"

    def failing(cert):
        chunks = chunks_of(cert)
        yield next(chunks)
        assert [name for name in os.listdir(tmp_path)
                if name.endswith(".part")]
        raise OSError("no space left on device")

    if old is not None:
        path.write_bytes(old)
    monkeypatch.setattr(certio, "_certificate_chunks", failing)
    with pytest.raises(OSError, match="no space left on device"):
        write_certificate(gl_certificate(2), str(path), verified=True)
    if old is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["cert.json"]
        assert path.read_bytes() == old


def test_write_is_deterministic(tmp_path):
    cert = gl_certificate(2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_certificate(cert, str(a), verified=True)
    write_certificate(cert, str(b), verified=True)
    assert a.read_bytes() == b.read_bytes()


def test_prime_field_round_trip(tmp_path):
    cert = assemble_one_step_certificate(3, 2, 2, field=PrimeField(101))
    path = tmp_path / "cert.json"
    write_verified(cert, path)
    reread = read_certificate(str(path))
    assert reread == cert
    assert reread.field == PrimeField(101)
    assert certificate_bytes(reread) == path.read_bytes()


def test_field_descriptors():
    assert field_to_json(QQ) == {"kind": "rational"}
    assert field_to_json(PrimeField(7)) == {"kind": "prime-field", "p": 7}
    assert field_from_json({"kind": "rational"}) == QQ
    assert field_from_json({"kind": "prime-field", "p": 101}) == PrimeField(101)
    for bad in ({"kind": "real"}, {"kind": "rational", "p": 3},
                {"kind": "prime-field"}, {"kind": "prime-field", "p": 6},
                {"kind": "prime-field", "p": True}, "rational"):
        with pytest.raises(CertificateFormatError):
            field_from_json(bad)


def certificate_json(cert) -> dict:
    """The JSON object a file on disk holds."""
    return json.loads(certificate_bytes(cert))


def corrupt(cert, mutate):
    obj = certificate_json(cert)
    mutate(obj)
    with pytest.raises(CertificateFormatError):
        certificate_from_json(obj)


def test_rejects_structural_damage():
    cert = gl_certificate(2)

    def set_version(obj):
        obj["format_version"] = 2

    def bool_version(obj):
        obj["format_version"] = True  # == 1 in Python

    def float_version(obj):
        obj["format_version"] = 1.0

    def drop_key(obj):
        del obj["kernel_dim"]

    def extra_key(obj):
        obj["verdict"] = "proven-zpd"

    def zero_based_entry(obj):
        obj["tensors"][0]["u"] = [[0, 1, "1"]]

    def out_of_range_entry(obj):
        obj["tensors"][0]["u"] = [[1, 3, "1"]]

    def duplicate_entry(obj):
        obj["tensors"][0]["u"] = [[1, 1, "1"], [1, 1, "2"]]

    def zero_entry(obj):
        obj["tensors"][0]["u"] = [[1, 1, "0"]]

    def bad_scalar(obj):
        obj["tensors"][0]["u"] = [[1, 1, "1.5"]]

    def empty_factor(obj):
        obj["tensors"][0]["u"] = []

    def count_drift(obj):
        obj["families"][0]["count"] += 1

    def negative_count(obj):
        obj["families"][0]["count"] = -13

    def bad_family_shape(obj):
        obj["families"][0] = {"label": "gl"}

    def bad_steps(obj):
        obj["algebra"] = {"kind": "ladder-lie", "n": 2, "steps": [[1]]}

    def bad_algebra_kind(obj):
        obj["algebra"] = {"kind": "su", "m": 2}

    def bool_kernel_dim(obj):
        obj["kernel_dim"] = True

    for mutate in (set_version, bool_version, float_version, drop_key,
                   extra_key, zero_based_entry,
                   out_of_range_entry, duplicate_entry, zero_entry,
                   bad_scalar, empty_factor, count_drift, negative_count,
                   bad_family_shape, bad_steps, bad_algebra_kind,
                   bool_kernel_dim):
        corrupt(cert, mutate)


def test_rejects_non_json_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_bytes(b"{not json")
    with pytest.raises(CertificateFormatError):
        read_certificate(str(path))
    path.write_bytes(b'["certificate"]\n')
    with pytest.raises(CertificateFormatError):
        read_certificate(str(path))


def test_canonical_bytes_of_gl_1():
    # sorted keys, no whitespace and one newline, pinned with no writer
    # code involved
    assert certificate_bytes(gl_certificate(1)) == (
        b'{"algebra":{"kind":"gl-lie","m":1},'
        b'"families":[{"count":1,"label":"gl"}],'
        b'"field":{"kind":"rational"},"format_version":1,"kernel_dim":1,'
        b'"tensors":[{"family":"gl","u":[[1,1,"1"]],"v":[[1,1,"1"]]}]}\n')


def test_rational_scalars_survive_round_trip(tmp_path):
    # factors with non-integer rational coordinates serialize as num/den
    from fractions import Fraction

    from ladderzpd.certificates import Certificate, gl_algebra_descriptor
    from ladderzpd.matrices import SparseMatrix

    u = SparseMatrix(2, QQ, {(1, 1): Fraction(2, 3)})
    cert = Certificate(gl_algebra_descriptor(2), QQ, 1,
                       [("x", 1)], [RankOneTensor(u, u, "x")])
    obj = json.loads(certificate_bytes(cert))
    assert obj["tensors"][0]["u"] == [[1, 1, "2/3"]]
    path = tmp_path / "frac.json"
    write_certificate(cert, str(path), mark_unverified=True)
    assert read_certificate(str(path)) == cert


def format_error(obj) -> str:
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(obj)
    return str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator in scalar: '1/0'"),
    ("1.5", "malformed rational scalar: '1.5'"),
])
def test_repeated_bad_scalar_is_reported_at_first_use(text, message):
    # a text that fails to parse is reported at the first tensor and
    # factor carrying it, wherever it repeats later, in the same entry
    # list or in another
    obj = certificate_json(gl_certificate(2))
    obj["tensors"][4]["u"] = [[1, 1, text]]
    obj["tensors"][1]["v"] = [[2, 1, text]]
    obj["tensors"][1]["u"] = [[1, 2, "1"], [2, 2, text]]
    assert format_error(obj) == f"tensor 1 factor u: {message}"


def test_stored_zero_is_rejected_in_every_spelling():
    obj = certificate_json(gl_certificate(2))
    obj["tensors"][3]["v"] = [[1, 2, "0/3"]]
    assert format_error(obj) == ("tensor 3 factor v: stored entry at (1,2) "
                                 "is zero")
    # a zero is caught in every spelling, also in a list whose other
    # entries are fine: "-0" after "-1", and a zero residue mod 101
    obj = certificate_json(gl_certificate(2))
    obj["tensors"][0]["u"] = [[1, 1, "-1"], [1, 2, "-0"]]
    assert format_error(obj) == ("tensor 0 factor u: stored entry at (1,2) "
                                 "is zero")
    obj = certificate_json(gl_certificate(2, PrimeField(101)))
    obj["tensors"][2]["v"] = [[2, 2, "101"]]
    assert format_error(obj) == ("tensor 2 factor v: stored entry at (2,2) "
                                 "is zero")


@pytest.mark.parametrize("field, scalars", [
    (QQ, (Fraction(2, 3), Fraction(-1), Fraction(-7, 4))),
    (PrimeField(101), (PrimeField(101).from_int(100),
                       PrimeField(101).from_int(57))),
])
def test_repeated_scalars_round_trip_byte_for_byte(tmp_path, field,
                                                   scalars):
    # factors scaled so that a few non-unit scalar texts repeat across
    # the file, and the factors the reader shares between tensors, must
    # write back the same bytes
    cert = assemble_one_step_certificate(4, 3, 2, field=field)
    tensors = [RankOneTensor(scaled(u, scalars[k % len(scalars)]), v, label)
               for k, (u, v, label) in enumerate(cert.tensors)]
    cert = Certificate(cert.algebra, field, cert.kernel_dim, cert.families,
                       tensors)
    path = tmp_path / "cert.json"
    write_verified(cert, path)
    reread = read_certificate(str(path))
    assert reread == cert
    assert certificate_bytes(reread) == path.read_bytes()


@pytest.mark.parametrize("entry", [[True, 2, "1"], [1.0, 2, "1"],
                                   [1, 2.0, "1"]])
def test_shared_factor_key_keeps_bool_and_float_apart(tmp_path, capsys,
                                                      entry):
    # tensor 2 lists [[1,2,"1"]] first, so the reader has shared that
    # factor by tensor 10; true, 1.0 and 2.0 equal 1 and 2 in Python,
    # but a list holding them is no valid factor
    obj = certificate_json(gl_certificate(2))
    assert obj["tensors"][2]["u"] == [[1, 2, "1"]]
    obj["tensors"][10]["v"] = [entry]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["cert-verify", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tensor 10 factor v: each entry must be "
                            "[row, col, scalar-text]\n")


@pytest.mark.parametrize("entries, message", [
    ([[1, 1, "1"], [1, 1, "1"]], "duplicate entry at (1,1)"),
    ([[1, 3, "1"]], "entry index (1,3) out of range (1-based, n=2)"),
    ([[2, 2, "0"]], "stored entry at (2,2) is zero"),
    ([[2, 2, "1/0"]], "zero denominator in scalar: '1/0'"),
    ([], "entry list must be nonempty"),
])
def test_repeated_bad_factor_names_its_first_tensor(entries, message):
    obj = certificate_json(gl_certificate(2))
    for idx, name in ((9, "u"), (3, "v"), (6, "u"), (3, "u")):
        obj["tensors"][idx][name] = [list(e) for e in entries]
    assert format_error(obj) == f"tensor 3 factor u: {message}"


def test_repeated_factor_outside_the_algebra_names_its_first_tensor():
    # (1,1) is not a position of the one-step ladder {(2,2)} on 3
    obj = certificate_json(assemble_one_step_certificate(3, 2, 2))
    for idx, name in ((5, "u"), (2, "v"), (4, "u")):
        obj["tensors"][idx][name] = [[1, 1, "1"]]
    cert = certificate_from_json(obj)
    with pytest.raises(MembershipError) as exc:
        verify_certificate(cert)
    assert str(exc.value) == ("tensor 2 factor v: support at (1, 1) is "
                              "outside the position set")


@pytest.mark.parametrize("indent", [None, 1], ids=["text path", "full parse"])
@pytest.mark.parametrize("slots, message", [
    # first met as the second factor of a tensor, then as the first
    (((2, "v"), (4, "u"), (5, "v")), "tensor 2 factor v"),
    (((3, "u"), (3, "v"), (1, "v")), "tensor 1 factor v"),
    (((6, "v"), (6, "u")), "tensor 6 factor u"),
])
def test_factor_outside_the_algebra_is_named_on_both_reader_paths(
        tmp_path, indent, slots, message):
    # messages recorded from the verifier before factors were numbered;
    # (1,1) is not a position of the one-step ladder {(2,2)} on 3
    obj = certificate_json(assemble_one_step_certificate(3, 2, 2))
    for idx, name in slots:
        obj["tensors"][idx][name] = [[1, 1, "1"]]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                               indent=indent) + "\n")
    canonical = _canonical_certificate(io.BytesIO(path.read_bytes()))
    assert (canonical is not None) == (indent is None)
    with pytest.raises(MembershipError) as exc:
        verify_certificate(read_certificate(str(path)))
    assert str(exc.value) == (f"{message}: support at (1, 1) is outside "
                              f"the position set")


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_interleaved_labels_and_factors_numbered_out_of_order(tmp_path,
                                                              field):
    # labels A, B, A, B, A make five runs; the hand-built table numbers
    # its factors c, b, a, where the tensors first show a, b, c.  Every
    # reader numbers by first appearance, and equality reads tensors
    one = field.one
    a, b = elementary(3, 1, 2, field), elementary(3, 2, 1, field)
    c = SparseMatrix(3, field, {(1, 1): one, (2, 2): one, (3, 1): one})
    triples = [(a, b, "A"), (c, a, "B"), (b, c, "A"), (c, c, "B"),
               (a, a, "A")]
    number = {id(c): 0, id(b): 1, id(a): 2}
    hand = Tensors()
    hand.factors = [c, b, a]
    hand.us = array("I", [number[id(u)] for u, _, _ in triples])
    hand.vs = array("I", [number[id(v)] for _, v, _ in triples])
    hand.runs = [(label, 1) for _, _, label in triples]
    cert = Certificate({"kind": "gl-lie", "m": 3}, field, 73,
                       [("A", 3), ("B", 2)], hand)
    assert cert == Certificate(cert.algebra, field, 73, cert.families,
                               triples)
    data = certificate_bytes(cert)
    assert data == reference_certificate_bytes(cert)
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    fast = _canonical_certificate(io.BytesIO(data))
    full = certificate_from_json(json.loads(data))
    got = read_certificate(str(path))
    for read in (fast, full, got):
        assert read == cert and list(read.tensors) == triples
        assert read.tensors.factors == [a, b, c] != hand.factors
        assert read.tensors.runs == [("A", 1), ("B", 1), ("A", 1),
                                     ("B", 1), ("A", 1)]
        assert sharing(read) == sharing(fast)
        assert certificate_bytes(read) == data
    # a tensor that differs in one factor, or in its label, is unequal
    for at, changed in ((2, (b, b, "A")), (4, (a, a, "B"))):
        other = list(triples)
        other[at] = changed
        counts = [(label, sum(t[2] == label for t in other))
                  for label in "AB"]
        assert Certificate(cert.algebra, field, 73, counts, other) != cert


def test_read_certificate_equals_the_assembled_one(tmp_path):
    # the assembler numbers each factor object, the reader each distinct
    # entry list: the gl_2 block's 13 objects hold 8 distinct factors
    cert = assemble_one_step_certificate(5, 3, 2)
    path = tmp_path / "cert.json"
    write_verified(cert, path)
    got = read_certificate(str(path))
    assert got == cert
    assert len(got.tensors.factors) < len(cert.tensors.factors)
    assert certificate_bytes(got) == path.read_bytes()


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)])
def test_identical_entry_lists_share_one_factor(field):
    obj = json.loads(certificate_bytes(
        assemble_one_step_certificate(5, 3, 2, field=field)))
    tensors = certificate_from_json(obj).tensors
    numbers_of = {}
    for tj, numbers in zip(obj["tensors"], zip(tensors.us, tensors.vs)):
        for name, k in zip("uv", numbers):
            numbers_of.setdefault(json.dumps(tj[name]), set()).add(k)
    assert all(len(ks) == 1 for ks in numbers_of.values())
    assert len(tensors.factors) == len(numbers_of) < len(tensors)


@pytest.mark.parametrize("collecting", [True, False])
def test_read_leaves_the_garbage_collector_as_it_was(tmp_path, collecting):
    # the reader pauses the cyclic collector while it builds the
    # certificate; every way out, errors included, restores it, on the
    # canonical text path and on the full parse after it
    data = certificate_bytes(gl_certificate(2))
    good = tmp_path / "good.json"
    good.write_bytes(data)
    respaced = tmp_path / "respaced.json"
    respaced.write_text(json.dumps(json.loads(data)))
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b"{not json")
    bad_format = tmp_path / "format.json"
    bad_format.write_bytes(b'{"certificate": 1}\n')
    bad_scalar = tmp_path / "scalar.json"
    bad_scalar.write_bytes(data.replace(b'"1"]]', b'"1/0"]]', 1))
    for path in (good, respaced, bad_json, bad_format, bad_scalar):
        with open(path, "rb") as fh:
            got = _canonical_certificate(fh)
        assert got == (gl_certificate(2) if path == good else None)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for path in (good, respaced):
            assert read_certificate(str(path)) == gl_certificate(2)
            assert gc.isenabled() == collecting
        for path in (bad_json, bad_format, bad_scalar):
            with pytest.raises(CertificateFormatError):
                read_certificate(str(path))
            assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def spliced_and_plain(cert):
    return certificate_bytes(cert), reference_certificate_bytes(cert)


FIELDS = [QQ, PrimeField(2), PrimeField(101)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_writer_splices_the_canonical_bytes_gl(field, m):
    spliced, plain = spliced_and_plain(gl_certificate(m, field))
    assert spliced == plain


@pytest.mark.parametrize("field", FIELDS)
def test_writer_splices_the_canonical_bytes_one_step(field):
    labels = set()
    for n in range(1, 6):
        for i1 in range(1, n + 1):
            for j1 in range(1, n + 1):
                cert = assemble_one_step_certificate(n, i1, j1, field=field)
                labels.update(label for _, _, label in cert.tensors)
                spliced, plain = spliced_and_plain(cert)
                assert spliced == plain, (n, i1, j1)
    assert "abelian" in labels  # i1 < j1, the abelian certificate


def test_writer_splices_shared_factors_and_escaped_labels():
    # one factor object in several slots, an equal but separate copy,
    # non-unit scalars, and labels JSON must escape
    shared = SparseMatrix(3, QQ, {(1, 2): Fraction(-2, 3),
                                  (2, 1): Fraction(5)})
    copy = SparseMatrix(3, QQ, shared.entries)
    other = SparseMatrix(3, QQ, {(3, 3): Fraction(7, 11)})
    labels = ['quote"d', "back\\slash", "tab\tand\x01", "café ∃"]
    tensors = [RankOneTensor(u, v, label) for u, v, label in (
        (shared, shared, labels[0]), (shared, other, labels[1]),
        (copy, shared, labels[2]), (other, copy, labels[3]),
        (other, other, labels[0]))]
    cert = Certificate({"kind": "gl-lie", "m": 3}, QQ, 73,
                       [(label, sum(t.label == label for t in tensors))
                        for label in labels] + [("empty", 0)], tensors)
    spliced, plain = spliced_and_plain(cert)
    assert spliced == plain
    assert b'"quote\\"d"' in spliced and b'"caf\\u00e9 \\u2203"' in spliced
    assert certificate_from_json(json.loads(spliced)) == cert
    empty = Certificate(cert.algebra, QQ, 73, [("empty", 0)], [])
    spliced, plain = spliced_and_plain(empty)
    assert spliced == plain and spliced.endswith(b',"tensors":[]}\n')


@pytest.mark.parametrize("chunk", [1, 2, 10 ** 6])
def test_writer_chunks_give_the_canonical_bytes(tmp_path, monkeypatch,
                                                chunk):
    gl_3 = gl_certificate(3)
    certs = [Certificate(gl_3.algebra, QQ, 73, [("gl", 0)], []), gl_3,
             assemble_one_step_certificate(5, 3, 2, field=PrimeField(101))]
    monkeypatch.setattr(certio, "_WRITE_CHUNK", chunk)
    path = tmp_path / "cert.json"
    for cert in certs:
        spliced, plain = spliced_and_plain(cert)
        assert spliced == plain
        write_certificate(cert, str(path), mark_unverified=True)
        assert path.read_bytes() == spliced
    assert len(gl_3.tensors) == 73 < 10 ** 6


@pytest.fixture(scope="module")
def d168():
    """The n = 24, (12,11) certificate: d = 168, 28,057 tensors."""
    return assemble_one_step_certificate(24, 12, 11)


def traced(call):
    """call()'s result, the memory it still holds and its peak, traced
    from nothing."""
    tracemalloc.start()
    try:
        got = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, held, peak


def test_large_file_is_read_and_written_without_whole_file_pieces(tmp_path,
                                                                  d168):
    # the d = 168 file, 1.59 MB.  Measured with CPython 3.11: the read's
    # traced peak is 0.57 MiB, 0.23 MiB above the 0.35 MiB certificate
    # it returns; holding the file's bytes took 3.72 MiB, and cutting
    # the whole tensor list at once 9.37 MiB.  The write takes 0.17 MiB
    # above the certificate; formatting it as one string took 4.61 MiB.
    path = tmp_path / "cert.json"
    _, _, write_peak = traced(lambda: write_certificate(
        d168, str(path), mark_unverified=True))
    got, held, read_peak = traced(lambda: read_certificate(str(path)))
    size = path.stat().st_size
    assert (len(got.tensors), size) == (28057, 1590495)
    assert got == d168
    assert write_peak < 1.5 * 2 ** 20
    assert read_peak - held < size / 2


def test_read_certificate_holds_two_numbers_per_tensor(tmp_path, d168):
    # measured with CPython 3.11 on the d = 168 file (28,057 tensors,
    # 372 factors): the certificate read holds 0.35 MiB, its two arrays
    # 0.21 of them, where one object per tensor held 1.90 MiB; the read
    # peaks at 0.58 MiB; and verify_certificate peaks 0.61 MiB above
    # the certificate (0.63 before)
    path = tmp_path / "cert.json"
    write_certificate(d168, str(path), mark_unverified=True)
    got, held, read_peak = traced(lambda: read_certificate(str(path)))
    assert len(got.tensors.factors) == 372
    assert held < 0.5 * 2 ** 20
    assert read_peak < 0.75 * 2 ** 20
    report, _, verify_peak = traced(lambda: verify_certificate(got))
    assert report.proven
    assert verify_peak < 0.75 * 2 ** 20


def test_openings_are_kept_one_slice_at_a_time(tmp_path):
    # 64 labels x 64 u factors: 4,096 tensors, 232 kB, each with its own
    # opening '{"family":L,"u":U'.  Measured with CPython 3.11: the read
    # peaks at 0.38 MiB, as the reader's table of openings lasts one
    # slice; kept for the whole file, the tables peaked at 0.86 MiB
    units = [elementary(8, i, j) for i in range(1, 9) for j in range(1, 9)]
    labels = [f"family {a:02d} " for a in range(64)]
    cert = Certificate({"kind": "gl-lie", "m": 8}, QQ, 0,
                       [(label, 64) for label in labels],
                       [RankOneTensor(u, units[0], label)
                        for label in labels for u in units])
    path = tmp_path / "cert.json"
    write_certificate(cert, str(path), mark_unverified=True)
    got, _, peak = traced(lambda: read_certificate(str(path)))
    assert got == cert and len(got.tensors.factors) == 64
    assert peak < 0.6 * 2 ** 20


def test_full_parse_lets_go_of_the_bytes_and_the_text(tmp_path, d168):
    # the d = 168 file respaced (indent=1, 4.0 MB) takes the full parse.
    # Its peak is json.loads's, the text and the tree (19.96 MiB with
    # CPython 3.11); holding the file's bytes as well took 23.77 MiB
    path = tmp_path / "respaced.json"
    path.write_text(json.dumps(json.loads(certificate_bytes(d168)),
                               indent=1))
    data = path.read_bytes()
    _, _, loads_peak = traced(lambda: json.loads(data.decode("utf-8")))
    got, _, read_peak = traced(lambda: read_certificate(str(path)))
    assert got == d168
    assert read_peak < loads_peak + len(data) / 2
    # one label run per family, not a label per tensor
    assert len(got.tensors.runs) <= len(got.families)


# The reader reads a file in canonical form by its text and anything
# else by json.loads and certificate_from_json.  Both must give the same
# certificate, or the same error, on every input.

def full_parse(data: bytes):
    """The certificate json.loads and certificate_from_json make of a
    file, or the message of their error."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "not valid JSON"
    try:
        return certificate_from_json(obj)
    except CertificateFormatError as exc:
        return str(exc)


def sharing(cert):
    """The factor numbers of every tensor, and the label runs."""
    tensors = cert.tensors
    return tensors.us, tensors.vs, tensors.runs, len(tensors.factors)


def text_path(data: bytes):
    """What _canonical_certificate reads from data as an open file: the
    same at slice sizes 1 and 64 as at the reader's own."""
    got = _canonical_certificate(io.BytesIO(data))
    for size in (1, 64):
        with mock.patch.object(certio, "_READ_SLICE", size):
            other = _canonical_certificate(io.BytesIO(data))
        assert other == got
        assert other is None or sharing(other) == sharing(got)
    return got


def assert_readers_agree(tmp_path, data: bytes, canonical: bool):
    """read_certificate gives what the full parse gives, certificate or
    error message; the text path is taken exactly when canonical, at
    every slice size text_path tries."""
    want = full_parse(data)
    fast = text_path(data)
    assert (fast is not None) == canonical
    if fast is not None:
        assert isinstance(want, Certificate)
        assert fast == want and sharing(fast) == sharing(want)
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    try:
        got = read_certificate(str(path))
    except CertificateFormatError as exc:
        got = str(exc)
        assert isinstance(want, str)
        if want == "not valid JSON":
            assert got.startswith("not valid JSON: ")
            return
    assert got == want
    if isinstance(got, Certificate):
        assert sharing(got) == sharing(want)


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


@pytest.mark.parametrize("field", FIELDS)
def test_text_reader_matches_full_parse_on_written_files(tmp_path, field):
    certs = [gl_certificate(m, field) for m in range(1, 5)]
    certs += [assemble_one_step_certificate(n, i1, j1, field=field)
              for n in range(1, 6) for i1 in range(1, n + 1)
              for j1 in range(1, n + 1)]
    for cert in certs:
        assert_readers_agree(tmp_path, certificate_bytes(cert), True)


@pytest.mark.parametrize("field", FIELDS)
def test_respaced_and_reordered_files_take_the_full_parse(tmp_path, field):
    cert = assemble_one_step_certificate(4, 3, 2, field=field)
    obj = json.loads(certificate_bytes(cert))
    assert_readers_agree(tmp_path, json.dumps(obj).encode(), False)
    assert_readers_agree(tmp_path, json.dumps(obj, indent=1).encode(),
                         False)
    assert_readers_agree(tmp_path, canonical_json(obj)[:-1], False)
    assert_readers_agree(tmp_path, canonical_json(obj).replace(
        b"\n", b"\r\n"), False)
    # tensors first; then a tensor's keys in the order v, u, family
    reordered = {"tensors": obj["tensors"]}
    reordered.update((key, obj[key]) for key in obj if key != "tensors")
    assert_readers_agree(tmp_path, json.dumps(
        reordered, separators=(",", ":")).encode() + b"\n", False)
    swapped = dict(obj, tensors=[{"v": t["v"], "u": t["u"],
                                  "family": t["family"]}
                                 for t in obj["tensors"]])
    assert_readers_agree(tmp_path, json.dumps(
        swapped, separators=(",", ":")).encode() + b"\n", False)
    # a tensor's entries out of row-major order
    data = certificate_bytes(cert)
    w = next(t for t in obj["tensors"] if len(t["u"]) > 1)
    listed = json.dumps(w["u"], separators=(",", ":")).encode()
    flipped = json.dumps(w["u"][::-1], separators=(",", ":")).encode()
    assert_readers_agree(tmp_path, data.replace(listed, flipped, 1), False)


@pytest.mark.parametrize("text, canonical", [
    ('"+3"', False), ('"1/1"', False), ('"03"', False), ('"-0"', False),
    ('"2/4"', False), ('"6/4"', False), ('"3/2"', True), ('"-5"', True),
    ('"1/0"', False), ('"x"', False),
])
def test_scalar_spellings(tmp_path, text, canonical):
    # a scalar off its canonical text takes the full parse, which may
    # accept it (+3, 1/1, 03) or reject it (1/0, -0)
    data = certificate_bytes(gl_certificate(2))
    assert data.count(b'"1"]]') > 1
    assert_readers_agree(
        tmp_path, data.replace(b'"1"]]', text.encode() + b"]]", 1),
        canonical)


@pytest.mark.parametrize("entry", ["[true,1,\"1\"]", "[1.0,1,\"1\"]",
                                   "[1,1,1]", "[1,1,\"1\",0]",
                                   "[1,1,null]", "[1,3,\"1\"]"])
def test_entries_that_are_no_triple_of_ints_and_text(tmp_path, entry):
    data = certificate_bytes(gl_certificate(2))
    assert_readers_agree(
        tmp_path, data.replace(b'[[1,1,"1"]]', b"[" + entry.encode() + b"]",
                               1), False)


def slice_ends(data: bytes):
    """Where the text reader ends each slice of data's tensor list: at
    the "}" of the first '},{"family":' _READ_SLICE bytes or more into
    the slice, or at the list's end."""
    at = data.index(b',"tensors":[') + len(b',"tensors":[')
    end, ends = len(data) - 3, []
    while True:
        cut = data.find(b'},{"family":', at + certio._READ_SLICE, end)
        if cut < 0:
            return ends + [end]
        ends.append(cut + 1)
        at = cut + 2


def test_text_reader_shares_factors_across_slices(tmp_path, monkeypatch):
    monkeypatch.setattr(certio, "_READ_SLICE", 300)
    data = certificate_bytes(assemble_one_step_certificate(5, 3, 2))
    ends = slice_ends(data)
    assert len(ends) > 10
    assert_readers_agree(tmp_path, data, True)
    # a factor first seen in slice 1 has the same number in a later one
    tensors = _canonical_certificate(io.BytesIO(data)).tensors
    k = data.count(b'{"family":', 0, ends[0])
    first = set(tensors.us[:k]) | set(tensors.vs[:k])
    assert first.intersection(tensors.us[k:]) and len(first) < len(
        tensors.factors)


@pytest.mark.parametrize("tamper", [
    lambda data, b: data[:b] + data[b + 1:],  # the comma missing
    lambda data, b: data[:b + 1] + b" " + data[b + 1:],  # "}, {"
    lambda data, b: data[:b - 1] + data[b:],  # the tensor's "}" missing
    lambda data, b: data[:b - 2] + data[b - 1:],  # its last "]" missing
    lambda data, b: data[:-6] + data[-3:],  # the file's last tensor cut
])
def test_tampers_at_a_slice_boundary(tmp_path, monkeypatch, tamper):
    # 871 tensors, 48 kB: two slices at the reader's own size
    data = certificate_bytes(assemble_one_step_certificate(9, 5, 4))
    for size in (1, 64, certio._READ_SLICE):
        monkeypatch.setattr(certio, "_READ_SLICE", size)
        b = slice_ends(data)[0]
        assert data[b - 3:b + 11] == b']]},{"family":'
        assert_readers_agree(tmp_path, tamper(data, b), False)


@pytest.mark.parametrize("at", [0, 1, 40, 131])
def test_swapped_separators_take_the_full_parse(tmp_path, at):
    # in tensor at, its ',"v":' and the '},{"family":' after it change
    # places.  Cut at both separators alike, the file gives the same
    # labels and entry lists as before, each valid on its own: only the
    # separators' order tells the two apart
    data = certificate_bytes(assemble_one_step_certificate(5, 3, 2))
    start = data.index(b',"tensors":[') + len(b',"tensors":[')
    p = start
    for _ in range(at + 1):
        p = data.index(b']],"v":', p) + 2
    q = data.index(b'},{"family":', p)
    assert data[q - 2:q] == b"]]" and data.count(b'"v":') == 133
    swapped = (data[:p] + b'},{"family":' + data[p + 5:q] + b',"v":'
               + data[q + 12:])

    def pieces(data, mark):
        """data's tensor list cut at both separators, with mark after
        each ']]},{"family":' (the reader marks them with a NUL)"""
        return (mark + data[start + 10:-6]).replace(
            b']]},{"family":', b']],"v":' + mark).split(b']],"v":')
    assert pieces(swapped, b"") == pieces(data, b"")
    want = full_parse(swapped)
    assert want == f"tensor {at}: must be {{family: str, u: ..., v: ...}}"
    assert text_path(swapped) is None  # at slice sizes 1, 64 and its own
    path = tmp_path / "cert.json"
    path.write_bytes(swapped)
    with pytest.raises(CertificateFormatError) as exc:
        read_certificate(str(path))
    assert str(exc.value) == want
    # the reader's mark spelled out in the file: the same pieces as the
    # canonical file's, cut and marked as the reader does
    marked = data[:q - 2] + b']],"v":\0' + data[q + 12:]
    assert pieces(marked, b"\0") == pieces(data, b"\0")
    assert_readers_agree(tmp_path, marked, False)


def test_labels_with_braces_quotes_and_escapes(tmp_path, monkeypatch):
    shared = SparseMatrix(2, QQ, {(1, 1): Fraction(1)})
    labels = ['"},{"family":', '},{"family":"x","u":[[1,1,"1"]]',
              "caf\u00e9 \u2203", "back\\slash", "tab\t", ',"tensors":[',
              "]}"]
    tensors = [RankOneTensor(shared, shared, label) for label in labels]
    cert = Certificate({"kind": "gl-lie", "m": 2}, QQ, 13,
                       [(label, 1) for label in labels], tensors)
    data = certificate_bytes(cert)
    assert b'"caf\\u00e9 \\u2203"' in data
    assert_readers_agree(tmp_path, data, True)
    # the same labels as raw UTF-8 are valid JSON, but not canonical
    obj = json.loads(data)
    assert_readers_agree(tmp_path, json.dumps(
        obj, sort_keys=True, separators=(",", ":"),
        ensure_ascii=False).encode() + b"\n", False)
    # an escape the writer does not use
    assert_readers_agree(tmp_path, data.replace(b'"tab\\t"', b'"tab\\u0009"'),
                         False)
    # at slice size 1 the reader cuts at every '},{"family":', and none
    # lies in a label, though one label's text holds '},{\"family\":'
    assert b'"\\"},{\\"family\\":"' in data
    monkeypatch.setattr(certio, "_READ_SLICE", 1)
    assert len(slice_ends(data)) == len(labels)
    assert_readers_agree(tmp_path, data, True)


def test_a_file_off_the_canonical_start_is_turned_away_at_once():
    data = certificate_bytes(gl_certificate(2))
    for other in (json.dumps(json.loads(data), indent=1).encode(),
                  json.dumps(json.loads(data)).encode(), b" " + data):
        fh = io.BytesIO(other)
        assert _canonical_certificate(fh) is None
        assert fh.tell() == len(certio._CANONICAL_START)
    assert _canonical_certificate(io.BytesIO(data)) == gl_certificate(2)


class ChangingFile(io.BytesIO):
    """A file whose bytes become `after` once `reads` reads were made
    from it, where it stands staying where it was.  `handed` keeps the
    bytes its reads handed out since the last seek."""

    def __init__(self, before: bytes, after: bytes, reads: int):
        super().__init__(before)
        self.after, self.reads, self.handed = after, reads, bytearray()

    def read(self, size=-1):
        got = super().read(size)
        self.handed += got
        self.reads -= 1
        if self.reads == 0:
            at = self.tell()
            self.truncate(0)
            super().seek(0)
            self.write(self.after)
            super().seek(at)
        return got

    def seek(self, *args):
        self.handed.clear()
        return super().seek(*args)


def test_a_file_that_changes_between_reads(monkeypatch):
    # what is read is the certificate in the bytes read, slice by slice
    # or by the full parse after the text path turns them down, even
    # when they mix two versions of the file
    monkeypatch.setattr(certio, "_READ_SLICE", 300)
    data = certificate_bytes(assemble_one_step_certificate(5, 3, 2))
    first = data.index(b'"1"]]', data.index(b',"tensors":['))
    last = data.rindex(b'"1"]]')
    # the first read takes the file's first 19 bytes, each later one 300
    k = 2 + (first + 5 - 19) // 300
    mid = 19 + 300 * (k - 1)
    assert first + 5 <= mid < last
    early = data[:first] + b'"2' + data[first + 2:]
    late = data[:last] + b'"3' + data[last + 2:]
    respaced = json.dumps(json.loads(data), indent=1).encode()
    got_of = {}
    for before, after in [(early, late), (late, early), (data, respaced),
                          (respaced, data), (data, data[:-2]),
                          (data[:-2], data)]:
        for reads in (1, 2, k, k + 3):
            fh = ChangingFile(before, after, reads)
            monkeypatch.setattr(certio, "open", lambda *args: fh,
                                raising=False)
            try:
                got = read_certificate("changing.json")
            except CertificateFormatError as exc:
                got = str(exc)
            want = full_parse(bytes(fh.handed))
            if want == "not valid JSON":
                assert got.startswith("not valid JSON: ")
            else:
                assert got == want
            got_of[before, after, reads] = got
    # early's first k reads, then late's: a third certificate, read by
    # its text; and early's first read, then late's: late's
    mixed = got_of[early, late, k]
    assert mixed not in (full_parse(early), full_parse(late))
    assert _canonical_certificate(ChangingFile(early, late, k)) == mixed
    assert mixed == full_parse(early[:mid] + late[mid:])
    assert got_of[early, late, 1] == full_parse(late)
    # a file turned respaced or cut short is read afresh whole
    assert got_of[data, respaced, 2] == full_parse(data)
    assert got_of[data, data[:-2], 2].startswith("not valid JSON: ")


def test_the_end_of_the_file_is_checked(tmp_path):
    # the last three bytes must be ']}\n', checked only once the file
    # ends; a trailing space is valid JSON, but not canonical
    data = certificate_bytes(gl_certificate(2))
    for end in (b"]} ", b"]}\t", b"]]\n", b"}}\n", b"]}}", b"]}\n\n"):
        assert_readers_agree(tmp_path, data[:-3] + end, False)


def test_head_with_a_second_tensors_key(tmp_path):
    data = certificate_bytes(gl_certificate(2))
    # a "tensors" key before the real one: json.loads keeps the last
    for extra in (b'"tensors":[],', b'"tensors":[{"family":"gl"}],',
                  b'"tensors":1,'):
        assert_readers_agree(tmp_path, b"{" + extra + data[1:], False)
    cut = data.index(b',"tensors":[')
    assert_readers_agree(
        tmp_path, data[:cut] + b',"tensors":[]' + data[cut:], False)
    # and the real list, then one more "tensors" key after it
    assert_readers_agree(tmp_path, data[:-2] + b',"tensors":[]}\n', False)


def test_empty_list_and_bad_tensor_separators(tmp_path):
    # each at slice sizes 1, 64 and the reader's own (text_path)
    cert = gl_certificate(2)
    empty = Certificate(cert.algebra, QQ, 13, [("gl", 0)], [])
    data = certificate_bytes(cert)
    assert_readers_agree(tmp_path, certificate_bytes(empty), False)
    assert_readers_agree(tmp_path, data.replace(b"]]}]}", b"]]},]}"), False)
    assert_readers_agree(tmp_path, data.replace(b"]]}]}", b"]]}}]}"), False)
    # tensor 1 without its v, its u tensor 0's: at slice size 1, a slice
    # with an opening and no v
    at = data.index(b',"v":', data.index(b',"v":') + 1)
    assert_readers_agree(tmp_path, data[:at] + data[data.index(b"]]", at)
                                                    + 2:], False)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["QQ gl_2", "F2 one-step", "QQ scaled"]),
       st.lists(st.tuples(st.sampled_from(["insert", "delete", "flip"]),
                          st.integers(min_value=0),
                          st.sampled_from(b'0123456789-/,:[]{}" tuvx\\')),
                min_size=1, max_size=3))
def test_byte_mutations_read_like_the_full_parse(tmp_path, name, edits):
    # whatever the text path accepts, the full parse gives the same;
    # whatever it turns down, the reader's answer is the full parse's,
    # at the reader's slice size and with a slice every tensor or few
    data = bytearray(MUTATION_SEEDS[name])
    for kind, at, byte in edits:
        at %= len(data) + (kind == "insert")
        if kind == "insert":
            data.insert(at, byte)
        elif kind == "delete" and len(data) > 1:
            del data[at % len(data)]
        else:
            data[at % len(data)] = byte
    data = bytes(data)
    assert_readers_agree(tmp_path, data, text_path(data) is not None)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(27)
@given(st.sampled_from(["QQ gl_2", "F2 one-step"]),
       st.lists(st.text('[]{}",:\\ \t\0a\u00e9\u2203', max_size=5),
                min_size=1, max_size=4, unique=True),
       st.sampled_from(["replace", "insert", "delete"]), st.integers(0),
       st.sampled_from(b'[]{}",:\\ 019-/uv\0\xc3'))
def test_labelled_byte_mutations_read_like_the_full_parse(
        tmp_path, name, labels, kind, at, byte):
    # the 13 tensors of a small certificate, labelled in turn from a
    # few labels that may hold separators, quotes, escapes, NUL and
    # non-ASCII text; then one byte replaced, inserted or deleted
    cert = {"QQ gl_2": gl_certificate(2), "F2 one-step": (
        assemble_one_step_certificate(3, 2, 2, field=PrimeField(2)))}[name]
    tensors = [RankOneTensor(u, v, labels[i % len(labels)])
               for i, (u, v, _) in enumerate(cert.tensors)]
    cert = Certificate(cert.algebra, cert.field, cert.kernel_dim,
                       [(label, sum(t.label == label for t in tensors))
                        for label in labels], tensors)
    data = bytearray(certificate_bytes(cert))
    assert text_path(bytes(data)) == cert  # canonical: the text path
    at %= len(data) + (kind == "insert")
    if kind == "insert":
        data.insert(at, byte)
    elif kind == "delete":
        del data[at]
    else:
        data[at] = byte
    data = bytes(data)
    fast = text_path(data)
    if fast is not None:
        want = certificate_from_json(json.loads(data))
        assert fast == want and sharing(fast) == sharing(want)


def mutation_seed(name: str) -> bytes:
    if name == "QQ gl_2":
        return certificate_bytes(gl_certificate(2))
    if name == "F2 one-step":
        return certificate_bytes(
            assemble_one_step_certificate(3, 2, 2, field=PrimeField(2)))
    cert = gl_certificate(2)
    return certificate_bytes(Certificate(
        cert.algebra, QQ, cert.kernel_dim, cert.families,
        [RankOneTensor(scaled(u, Fraction(-2, 3)), v, label)
         for u, v, label in cert.tensors]))


MUTATION_SEEDS = {name: mutation_seed(name)
                  for name in ("QQ gl_2", "F2 one-step", "QQ scaled")}

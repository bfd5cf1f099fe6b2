"""Canonical JSON persistence for certificates.

The on-disk form is deterministic down to the byte: sorted object keys,
no whitespace, a single trailing newline, matrix entries sorted
row-major, scalars in canonical text ("num/den" with the denominator
omitted when 1; the reduced representative for prime fields).  Files
carry format_version 1 and no verdicts: a certificate is a claim, and
every reader re-verifies from scratch.

A certificate holds each factor once and its tensors as factor numbers
(tensors.Tensors), and each direction works once per factor.  Neither
holds a piece per tensor of a whole file.  The one writer,
_certificate_chunks, yields the head, then the tensors a bounded chunk
at a time; write_certificate writes each chunk as it comes, to a new
file that replaces the target only once complete, and
certificate_bytes joins them.  read_certificate reads a file in the
writer's canonical form by its text, a bounded slice at a time from
the open file, cut at fixed separators, with no JSON tree built; and
any other file by json.loads and certificate_from_json, the one
source of format errors.  Both give the same certificate.
"""

from __future__ import annotations

import gc
import io
import json
import os
import stat
from itertools import chain, filterfalse, groupby, repeat
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple

from .certificates import Certificate
from .fields import Field, PrimeField, QQ, RationalField
from .matrices import SparseMatrix
from .tensors import Tensors

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "algebra", "field", "kernel_dim",
             "families", "tensors"}
_TENSOR_KEYS = {"family", "u", "v"}


class CertificateFormatError(ValueError):
    """A certificate file violates the canonical format."""


def _dumps_compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def field_to_json(field: Field) -> dict:
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    if isinstance(field, PrimeField):
        return {"kind": "prime-field", "p": field.p}
    raise CertificateFormatError(f"unserializable field: {field!r}")


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict):
        raise CertificateFormatError("field descriptor must be an object")
    kind = obj.get("kind")
    if kind == "rational":
        if set(obj) != {"kind"}:
            raise CertificateFormatError("rational field takes no parameters")
        return QQ
    if kind == "prime-field":
        if set(obj) != {"kind", "p"} or not _is_int(obj["p"]):
            raise CertificateFormatError("prime field needs integer p only")
        try:
            return PrimeField(obj["p"])
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None
    raise CertificateFormatError(f"unknown field kind: {kind!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _matrix_from_entries(obj, n: int, field: Field,
                         what: str) -> SparseMatrix:
    """One factor, every entry checked."""
    if not isinstance(obj, list) or not obj:
        raise CertificateFormatError(f"{what}: entry list must be nonempty")
    entries = {}
    for item in obj:
        if (not isinstance(item, list) or len(item) != 3
                or not _is_int(item[0]) or not _is_int(item[1])
                or not isinstance(item[2], str)):
            raise CertificateFormatError(
                f"{what}: each entry must be [row, col, scalar-text]")
        i, j, text = item
        if not (1 <= i <= n and 1 <= j <= n):
            raise CertificateFormatError(
                f"{what}: entry index ({i},{j}) out of range (1-based, n={n})")
        if (i, j) in entries:
            raise CertificateFormatError(
                f"{what}: duplicate entry at ({i},{j})")
        try:
            c = field.parse(text)
        except ValueError as exc:
            raise CertificateFormatError(f"{what}: {exc}") from None
        if not c:
            raise CertificateFormatError(
                f"{what}: stored entry at ({i},{j}) is zero")
        entries[(i, j)] = c
    mat = SparseMatrix(n, field)
    mat.entries = entries  # every entry already checked, as __init__ would
    return mat


def _algebra_to_json(descriptor: dict) -> dict:
    kind = descriptor.get("kind")
    if kind == "ladder-lie":
        return {"kind": "ladder-lie", "n": descriptor["n"],
                "steps": [list(s) for s in descriptor["steps"]]}
    if kind == "gl-lie":
        return {"kind": "gl-lie", "m": descriptor["m"]}
    raise CertificateFormatError(f"unknown algebra kind: {kind!r}")


def _algebra_from_json(obj) -> Tuple[dict, int]:
    """Validated descriptor plus the ambient matrix size."""
    if not isinstance(obj, dict):
        raise CertificateFormatError("algebra descriptor must be an object")
    kind = obj.get("kind")
    if kind == "ladder-lie":
        if set(obj) != {"kind", "n", "steps"} or not _is_int(obj["n"]):
            raise CertificateFormatError(
                "ladder-lie algebra needs integer n and steps")
        steps = obj["steps"]
        if (not isinstance(steps, list) or not steps
                or any(not isinstance(s, list) or len(s) != 2
                       or not _is_int(s[0]) or not _is_int(s[1])
                       for s in steps)):
            raise CertificateFormatError(
                "steps must be a nonempty list of [i, j] integer pairs")
        return ({"kind": "ladder-lie", "n": obj["n"],
                 "steps": [list(s) for s in steps]}, obj["n"])
    if kind == "gl-lie":
        if set(obj) != {"kind", "m"} or not _is_int(obj["m"]):
            raise CertificateFormatError("gl-lie algebra needs integer m")
        return ({"kind": "gl-lie", "m": obj["m"]}, obj["m"])
    raise CertificateFormatError(f"unknown algebra kind: {kind!r}")


def _head_from_json(obj: dict) -> Tuple[dict, int, Field, int,
                                        List[Tuple[str, int]]]:
    """The algebra, n, field, kernel_dim and families of a certificate
    object, every one checked."""
    # True and 1.0 equal 1 in Python; the version must be the int
    if (not _is_int(obj["format_version"])
            or obj["format_version"] != FORMAT_VERSION):
        raise CertificateFormatError(
            f"unsupported format_version: {obj['format_version']!r} "
            f"(expected {FORMAT_VERSION})")
    algebra, n = _algebra_from_json(obj["algebra"])
    field = field_from_json(obj["field"])
    if not _is_int(obj["kernel_dim"]) or obj["kernel_dim"] < 0:
        raise CertificateFormatError("kernel_dim must be a nonnegative integer")
    families_json = obj["families"]
    if not isinstance(families_json, list):
        raise CertificateFormatError("families must be a list")
    families = []
    for fam in families_json:
        if (not isinstance(fam, dict) or set(fam) != {"label", "count"}
                or not isinstance(fam["label"], str)
                or not _is_int(fam["count"]) or fam["count"] < 0):
            raise CertificateFormatError(
                "each family must be {label: str, count: nonneg int}")
        families.append((fam["label"], fam["count"]))
    return algebra, n, field, obj["kernel_dim"], families


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if set(obj) != _TOP_KEYS:
        missing = _TOP_KEYS - set(obj)
        extra = set(obj) - _TOP_KEYS
        raise CertificateFormatError(
            f"certificate keys wrong: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    algebra, n, field, kernel_dim, families = _head_from_json(obj)
    tensors_json = obj["tensors"]
    if not isinstance(tensors_json, list):
        raise CertificateFormatError("tensors must be a list")
    tensors = Tensors()
    # type-exact key of an entry list -> its factor's number.  Every
    # check on an entry list depends only on the list, n and the field,
    # so a factor that passed once passes again.  The key holds each
    # row's and column's type: true and 1.0 equal 1 in Python, but
    # [[true,2,"1"]] is no valid list.
    number: Dict[tuple, int] = {}
    for idx, tj in enumerate(tensors_json):
        if (not isinstance(tj, dict) or tj.keys() != _TENSOR_KEYS
                or not isinstance(tj["family"], str)):
            raise CertificateFormatError(
                f"tensor {idx}: must be {{family: str, u: ..., v: ...}}")
        for name, column in (("u", tensors.us), ("v", tensors.vs)):
            obj_f = tj[name]
            try:
                key = tuple([(type(i), i, type(j), j, text)
                             for i, j, text in obj_f])
                k = number.get(key)
            except (TypeError, ValueError):
                # not a list of triples of hashables, so not a valid
                # factor: the check below says why
                key = k = None
            if k is None:
                tensors.factors.append(_matrix_from_entries(
                    obj_f, n, field, f"tensor {idx} factor {name}"))
                k = number[key] = len(tensors.factors) - 1
            column.append(k)
        tensors._label(tj["family"], 1)
    try:
        return Certificate(algebra, field, kernel_dim, families, tensors)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None


def _factor_text(mat: SparseMatrix, field: Field) -> str:
    """A factor's entry list as the file holds it."""
    return _dumps_compact([[i, j, field.format(c)]
                           for (i, j), c in sorted(mat.entries.items())])


# tensors formatted per chunk: few enough that a chunk's texts are
# small beside the certificate, many enough that the per-chunk work
# is negligible
_WRITE_CHUNK = 512


def _certificate_chunks(cert: Certificate) -> Iterator[bytes]:
    """The file's canonical bytes, in order: the head, the tensors
    _WRITE_CHUNK at a time, then the list's and the file's end.  Each
    factor's entry list is formatted once and spliced into every tensor
    that carries it.  A tensor's keys family < u < v are in sorted
    order, and "tensors" sorts after the other top-level keys, so its
    list goes in front of the head's closing brace."""
    field = cert.field
    head = _dumps_compact({
        "format_version": FORMAT_VERSION,
        "algebra": _algebra_to_json(cert.algebra),
        "field": field_to_json(field),
        "kernel_dim": cert.kernel_dim,
        "families": [{"label": label, "count": count}
                     for label, count in cert.families],
    })
    yield f'{head[:-1]},"tensors":['.encode("utf-8")
    tensors = cert.tensors
    text = [_factor_text(mat, field) for mat in tensors.factors]
    openings = chain.from_iterable(
        repeat(f'{{"family":{json.dumps(label)},"u":', count)
        for label, count in tensors.runs)
    us, vs = tensors.us, tensors.vs
    for at in range(0, len(us), _WRITE_CHUNK):
        # the columns come first, so zip takes no opening past the chunk
        chunk = ",".join([
            f'{o}{text[u]},"v":{text[v]}}}' for u, v, o in zip(
                us[at:at + _WRITE_CHUNK], vs[at:at + _WRITE_CHUNK], openings)])
        yield (("," if at else "") + chunk).encode("utf-8")
    yield b"]}\n"


def certificate_bytes(cert: Certificate) -> bytes:
    """The file's canonical bytes: every chunk the writer makes."""
    return b"".join(_certificate_chunks(cert))


def write_certificate(cert: Certificate, path: str, *,
                      verified: bool = False,
                      mark_unverified: bool = False) -> None:
    """Write canonical JSON.  The caller must either have verified the
    certificate or say explicitly that it is writing an unverified one;
    files themselves never embed a verdict.

    The chunks go to a new file beside path, created as open(path,
    "wb") would create it, which then replaces path.  So an error while
    formatting or writing leaves no truncated certificate, and a file
    already at path stays as it was.  A path that is a link, a device
    or a pipe (/dev/null, /dev/stdout) is written through, as open
    does: replacing it would replace the link or the device itself."""
    if not verified and not mark_unverified:
        raise ValueError(
            "refusing to write an unverified certificate; verify it first "
            "or pass mark_unverified=True")
    try:
        replace = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        replace = True
    if not replace:
        with open(path, "wb") as fh:
            fh.writelines(_certificate_chunks(cert))
        return
    part = f"{path}.{os.urandom(6).hex()}.part"
    fh = open(part, "xb")
    try:
        with fh:
            fh.writelines(_certificate_chunks(cert))
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


# the first bytes of every canonical file: "algebra" is the least key
# of the head, and "kind" the least key of every algebra descriptor
_CANONICAL_START = b'{"algebra":{"kind":'
_TENSORS_KEY = b',"tensors":['
_TENSOR_CUT = b'},{"family":'
# a slice's separators X and Y, and the byte W that marks each X
_NEXT_TENSOR = b']]},{"family":'
_V = b']],"v":'
_MARK = b"\0"
# bytes of the tensor list past which a slice ends at the next cut, and
# the size of each read: about 600 tensors of a one-step file, few
# enough that a slice's bytes and pieces are small beside the
# certificate, many enough that the per-slice work is negligible
_READ_SLICE = 1 << 15


def _read_to(fh: BinaryIO, buf: bytearray, key: bytes, at: int) -> int:
    """The index of the first key in buf that starts at or after at,
    reading fh into buf _READ_SLICE bytes at a time until there is one;
    -1 once fh has nothing more.  Each search resumes len(key) - 1
    bytes before the new ones, so a key that straddles two reads is
    found and no search starts over from the front."""
    found = buf.find(key, at)
    while found < 0:
        more = fh.read(_READ_SLICE)
        if not more:
            return -1
        at = max(at, len(buf) - len(key) + 1)
        buf += more
        found = buf.find(key, at)
    return found


def _canonical_certificate(fh: BinaryIO) -> Optional[Certificate]:
    """The certificate in a file in the writer's canonical form, read
    from the open binary file fh a slice at a time, without building
    the JSON tree; None for any other file.

    Let F be the bytes fh hands out, up to its first empty read.  F
    must be H[:-1] + ',"tensors":[' + B + ']}\n', cut at the first
    ',"tensors":['.  H must be the compact sorted-key JSON text of its
    json.loads value, an object with the keys of a certificate but
    "tensors".  B is read in slices, B = S_1,S_2,...,S_r: a slice ends
    at B's end or at the "}" of the first '},{"family":' that starts
    _READ_SLICE bytes or more into it, and the next slice starts after
    that comma.  A slice must be '{"family":' + D + ']]}', D with no
    NUL byte W.  With Y + W put for each X = ']]},{"family":', W + D
    split at Y = ']],"v":' must give P_1,V_1,...,P_k,V_k, each P_i
    W + L + ',"u":' + U, with L json.dumps of the label of a family in
    H, and U + "]]" and V_i + "]]" passing _matrix_from_entries and
    _factor_text of the matrix each gives.  As L, U and V_i hold no W,
    each W but the first was put in for an X, with the Y before it: the
    slice equals its checked pieces joined by the canonical separators,
    T_1,...,T_k, each '{"family":' + L + ',"u":' + U + ']],"v":' + V_i
    + ']]}'.  Joined by the commas between slices, B is T_1,...,T_K over
    the file's tensors, in order.  Then every piece is a JSON text of
    its value, so F is a JSON text, and as JSON's grammar is unambiguous,
    json.loads of F is H's object with "tensors" added, the list of
    those tensors (H has no "tensors" key, so no key repeats).  The
    head gets the same _head_from_json and every factor the same
    _matrix_from_entries as in certificate_from_json, so the result
    equals certificate_from_json(json.loads(F)), factor numbers
    included: both number entry lists as they first appear, u before
    v, equal canonical texts are equal entry lists, and the texts seen
    so far carry over from slice to slice.

    The slices are cut as F comes in, and the cuts are the ones above.
    The reader holds F from the current slice's start on.  It looks for
    the cut from _READ_SLICE bytes into the slice and reads _READ_SLICE
    more bytes only while there is none (_read_to), so it holds one
    slice and at most one read beyond it, and the first cut in what it
    holds is the first in F.  A cut found before F's end lies in B once
    F ends in ']}\n', which is checked when F ends: the cut's last
    byte is ':', so it does not reach into those three bytes.

    Slicing and splitting turn no canonical file away.  Its bytes are
    printable ASCII but the last, so D holds no W, and its tensors
    carry only its families' labels.  A canonical tensor holds
    '{"family":', ',"u":' and ',"v":' only as its keys: their '"'
    follows '{' or ',' and precedes a letter, a '"' in a label's value
    is written '\"', the label's own '"'s follow ':' or precede ',',
    and entry lists hold no letters.  So '},{"family":' and X lie in B
    only between tensors, Y only before a v, and ',"u":' once in a P_i.

    Any deviation (whitespace, reordered or repeated keys, a scalar
    such as "+3" or "1/1", an empty list) and any error return None,
    as soon as they are met.  That is sound however little of F was
    read: the caller then runs the full parse, which decides and gives
    every error message.  So a file that does not start with
    _CANONICAL_START, as every canonical file does, is turned away
    after its first bytes.

    A file that changes between reads.  Each byte of F is read once and
    checked once as above, and the full parse after None reads the file
    afresh.  So even where F mixes versions, a certificate returned is
    certificate_from_json(json.loads(F)), and after None the one
    verified is the one in the bytes the full parse read.
    """
    try:
        buf = bytearray(fh.read(len(_CANONICAL_START)))
        if buf != _CANONICAL_START:
            return None
        cut = _read_to(fh, buf, _TENSORS_KEY, 0)
        if cut < 0:
            return None
        head_text = buf[:cut] + b"}"
        head = json.loads(head_text)
        if (not isinstance(head, dict)
                or head.keys() != _TOP_KEYS - {"tensors"}
                or _dumps_compact(head).encode("utf-8") != head_text):
            return None
        algebra, n, field, kernel_dim, families = _head_from_json(head)
        label_of = {_MARK + json.dumps(label).encode("utf-8"): label
                    for label, _ in families}  # W + L -> the label
        number: Dict[bytes, int] = {}  # a U or V_i -> its factor's number
        tensors = Tensors()
        del buf[:cut + len(_TENSORS_KEY)]  # from here buf starts a slice
        while True:
            cut = _read_to(fh, buf, _TENSOR_CUT, _READ_SLICE)
            if cut < 0 and not buf.endswith(b"]}\n"):
                return None
            stop = len(buf) - 3 if cut < 0 else cut + 1
            marked = _MARK + buf[10:stop - 3]
            pieces = marked.replace(_NEXT_TENSOR, _V + _MARK).split(_V)
            openings, vs = pieces[::2], pieces[1::2]
            if (buf[:10] != b'{"family":' or buf[stop - 3:stop] != b"]]}"
                    or marked.count(_MARK) > 1 or len(openings) != len(vs)):
                return None
            del marked, pieces  # let go before the slice's tables are made
            # this slice's openings -> their labels and U's, checked once
            label_at, u_at = {}, {}
            for opening in set(openings):
                quoted, u_at[opening] = opening.split(b',"u":')
                label_at[opening] = label_of[quoted]
            if not number.keys() >= set(vs).union(u_at.values()):
                # numbered in the order they first appear, u before v
                firsts = dict.fromkeys(chain.from_iterable(
                    zip(map(u_at.__getitem__, openings), vs)))
                for entries in filterfalse(number.__contains__, firsts):
                    text = entries + b"]]"
                    mat = _matrix_from_entries(json.loads(text), n, field,
                                               "factor")
                    if _factor_text(mat, field).encode("utf-8") != text:
                        return None
                    number[entries] = len(tensors.factors)
                    tensors.factors.append(mat)
            u_at = {opening: number[u] for opening, u in u_at.items()}
            tensors.us.extend(map(u_at.__getitem__, openings))
            tensors.vs.extend(map(number.__getitem__, vs))
            for label, run in groupby(map(label_at.__getitem__, openings)):
                tensors._label(label, len(list(run)))
            if cut < 0:
                return Certificate(algebra, field, kernel_dim, families,
                                   tensors)
            del buf[:stop + 1]  # the slice and the comma after it
    except Exception:  # any error: the full parse says which
        return None


def read_certificate(path: str) -> Certificate:
    """The certificate in a file, every entry checked.

    A file in the writer's canonical form is read by its text, a slice
    at a time from the open file (_canonical_certificate); any other
    file, and any file that text reader turns down, by the full parse,
    which reads the file again from its start and gives every error.
    The full parse lets go of the file's bytes once they are decoded,
    and of the text once it is parsed.  A stream that cannot seek, such
    as a pipe, is read whole, once, and both readers read those bytes.

    The decoded JSON holds no reference cycles, yet it is about 10^6
    new containers at n = 32.
    While they are built, the cyclic collector would rescan the growing
    heap several times and free nothing, about 40% of the read at
    n = 32, so it is paused for the read and then left as it was found.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            raw = None if fh.seekable() else fh.read()
            cert = _canonical_certificate(
                fh if raw is None else io.BytesIO(raw))
            if cert is not None:
                return cert
            if raw is None:
                fh.seek(0)
                raw = fh.read()
        try:
            text = raw.decode("utf-8")
            del raw
            obj = json.loads(text)
            del text
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CertificateFormatError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise CertificateFormatError(
                "not valid JSON: nested too deeply to parse") from None
        return certificate_from_json(obj)
    finally:
        if collecting:
            gc.enable()

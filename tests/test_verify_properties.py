"""Property tests for the integer verifier against the field-scalar route.

`verify_certificate` checks every tensor on integer multiples of its
factor coordinates; `oracles.verify_by_field_coords` runs the same
checks on the field's own scalars (a Fraction, or an F_p residue lifted
to the oracle's Fp), with the direct bracket from entry_product.  Small
certificates (gl_2, gl_3 and every one-step ladder with n <= 5, over Q,
F_2 and F_101) get their factors scaled by random nonzero scalars, and
then either stay valid or lose a tensor, gain a duplicate, or have one
replaced.  Both routes must give
the same report, and no scaling may change it.  Read certificates
share one factor object per distinct entry list: the verifier's
per-object results must give the report of an unshared copy, and
neither verifying nor writing may change a factor.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ladderzpd.certificates import (COUNT_MISMATCH, FAILED_KERNEL_MEMBERSHIP,
                                    FAILED_SPAN, PROVEN_ZPD, Certificate,
                                    algebra_space, gl_certificate,
                                    verify_certificate)
from ladderzpd.certio import certificate_bytes, certificate_from_json
from ladderzpd.elim import integer_coords
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.matrices import SparseMatrix
from ladderzpd.onestep import assemble_one_step_certificate
from ladderzpd.tensors import build_mu

from oracles import (RankOneTensor, apply_to_coords, bracket, entry_product,
                     flat_columns, lift, naive_rank, rows_of, scaled,
                     tensor_coords, verify_by_field_coords)

FIELDS = {"QQ": QQ, "F2": PrimeField(2), "F101": PrimeField(101)}
ALGEBRAS = ([("gl", 2), ("gl", 3)]
            + [("one-step", n, i1, j1) for n in range(1, 6)
               for i1 in range(1, n + 1) for j1 in range(1, n + 1)])
DEFECTS = ("none", "deleted", "duplicated", "noncommuting", "random")


@lru_cache(maxsize=None)
def base_certificate(algebra, field_name):
    field = FIELDS[field_name]
    if algebra[0] == "gl":
        return gl_certificate(algebra[1], field)
    return assemble_one_step_certificate(*algebra[1:], field=field)


@lru_cache(maxsize=None)
def noncommuting_pair(algebra, field_name):
    """Basis elements (b_s, b_t) with a nonzero product, or None when
    the algebra is abelian."""
    cert = base_certificate(algebra, field_name)
    space = algebra_space(cert.algebra, cert.field)
    for col, image in enumerate(flat_columns(build_mu(space))):
        if image:
            s, t = divmod(col, space.d)
            return space.basis_matrix(s), space.basis_matrix(t)
    return None


def nonzero_scalar(rng, field):
    if field == QQ:
        return (Fraction(rng.randint(1, 9), rng.randint(1, 9))
                * rng.choice((1, -1)))
    return field.from_int(rng.randrange(1, field.p))


def random_member(rng, space, least=1):
    terms = rng.sample(space.positions, rng.randint(least, min(3, space.d)))
    return SparseMatrix(space.n, space.field, {
        pos: nonzero_scalar(rng, space.field) for pos in terms})


def tensor_list(cert):
    """The certificate's tensors, with named fields."""
    return [RankOneTensor(*t) for t in cert.tensors]


def rebuilt(cert, tensors):
    """The certificate with a new tensor list and matching family counts."""
    counts = Counter(t.label for t in tensors)
    return Certificate(cert.algebra, cert.field, cert.kernel_dim,
                       [(label, counts[label]) for label, _ in cert.families],
                       tensors)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALGEBRAS), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(DEFECTS), st.randoms(use_true_random=False))
def test_integer_verifier_matches_field_route(algebra, field_name, defect,
                                              rng):
    cert = base_certificate(algebra, field_name)
    field = cert.field
    tensors = tensor_list(cert)
    idx = rng.randrange(len(tensors))
    label = tensors[idx].label
    pair = noncommuting_pair(algebra, field_name)
    if defect == "deleted":
        del tensors[idx]
    elif defect == "duplicated":
        tensors.insert(idx + 1, tensors[idx])
    elif defect == "noncommuting" and pair is not None:
        tensors[idx] = RankOneTensor(*pair, label)
    elif defect == "random":
        space = algebra_space(cert.algebra, field)
        tensors[idx] = RankOneTensor(random_member(rng, space),
                                     random_member(rng, space), label)
    else:
        defect = "none"
    plain = rebuilt(cert, tensors)
    scaled_cert = rebuilt(cert, [
        RankOneTensor(scaled(t.u, nonzero_scalar(rng, field)),
                      scaled(t.v, nonzero_scalar(rng, field)), t.label)
        for t in tensors])

    report = verify_certificate(scaled_cert)
    assert report == verify_by_field_coords(scaled_cert)
    assert report == verify_certificate(plain)
    expected = {"none": PROVEN_ZPD, "deleted": FAILED_SPAN,
                "duplicated": COUNT_MISMATCH,
                "noncommuting": FAILED_KERNEL_MEMBERSHIP}
    if defect in expected:
        assert report.verdict == expected[defect]
        if defect == "noncommuting":
            assert report.first_noncommuting == idx


def test_f2_zero_test_is_mod_p():
    # u = e11 + e12 and v = e12 + e22: the integer bracket is 2 e12, and
    # so is the integer mu image of u (x) v.  Both are nonzero as ints,
    # zero over F_2 and nonzero over Q.
    for field, commutes in ((PrimeField(2), True), (QQ, False)):
        u = SparseMatrix(2, field, {(1, 1): field.one, (1, 2): field.one})
        v = SparseMatrix(2, field, {(1, 2): field.one, (2, 2): field.one})
        ints = [integer_coords(x.entries, field) for x in (u, v)]
        xy, yx = (entry_product(a, rows_of(b))
                  for a, b in (ints, reversed(ints)))
        assert {pos: xy.get(pos, 0) - yx.get(pos, 0)
                for pos in xy.keys() | yx.keys()} == {(1, 2): 2}
        space = algebra_space({"kind": "gl-lie", "m": 2}, field)
        columns = build_mu(space).columns
        uc, vc = (integer_coords(space.coords_of(x), field) for x in (u, v))
        image = Counter()
        for s, a in uc.items():
            for t, b in vc.items():
                for k, e in columns[s].get(t, ()):
                    image[k] += a * b * e
        assert {k: c for k, c in image.items() if c} == {
            space.index_of[(1, 2)]: 2}

        cert = gl_certificate(2, field)
        for idx in (0, 7, len(cert.tensors) - 1):
            tensors = tensor_list(cert)
            tensors[idx] = RankOneTensor(u, v, tensors[idx].label)
            tampered = rebuilt(cert, tensors)
            report = verify_certificate(tampered)
            assert report == verify_by_field_coords(tampered)
            assert (report.first_noncommuting is None) == commutes


def unshared(cert):
    """A copy of the certificate in which no two tensor slots share a
    factor object (copy.deepcopy would keep the sharing)."""
    def fresh(mat):
        return SparseMatrix(mat.n, mat.field, mat.entries)

    return Certificate(cert.algebra, cert.field, cert.kernel_dim,
                       cert.families,
                       [RankOneTensor(fresh(u), fresh(v), label)
                        for u, v, label in cert.tensors])


def damaged(obj, defect, idx):
    """The certificate JSON with one defect at tensor idx, family counts
    kept in step; replaced puts e_{2,2} (x) e_{2,3}, whose bracket is
    e_{2,3} != 0, in place of the tensor."""
    tensors = [dict(t) for t in obj["tensors"]]
    if defect == "deleted":
        del tensors[idx]
    elif defect == "duplicated":
        tensors.insert(idx + 1, tensors[idx])
    elif defect == "replaced":
        tensors[idx] = dict(tensors[idx], u=[[2, 2, "1"]], v=[[2, 3, "1"]])
    counts = Counter(t["family"] for t in tensors)
    return dict(obj, tensors=tensors, families=[
        {"label": f["label"], "count": counts[f["label"]]}
        for f in obj["families"]])


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("defect", ["none", "deleted", "duplicated",
                                    "replaced"])
def test_shared_factors_verify_like_unshared_copies(field_name, defect):
    # a read certificate shares one factor object per distinct entry
    # list; the verifier's per-object results must give the report an
    # unshared copy gets, defects included
    obj = json.loads(certificate_bytes(
        base_certificate(("one-step", 5, 3, 2), field_name)))
    cert = certificate_from_json(damaged(obj, defect, 17))
    slots = 2 * len(cert.tensors)
    assert len(cert.tensors.factors) < slots
    copy = unshared(cert)
    assert len(copy.tensors.factors) == slots
    report = verify_certificate(cert)
    assert report == verify_certificate(copy)
    expected = {"none": PROVEN_ZPD, "deleted": FAILED_SPAN,
                "duplicated": COUNT_MISMATCH,
                "replaced": FAILED_KERNEL_MEMBERSHIP}
    assert report.verdict == expected[defect]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_verify_and_write_leave_factors_unchanged(field_name):
    # non-unit scalars, so the verifier scales entries to integers
    cert = base_certificate(("one-step", 5, 3, 2), field_name)
    field = cert.field
    c = Fraction(-2, 3) if field == QQ else field.from_int(-1)
    shared = {}
    cert = rebuilt(cert, [
        RankOneTensor(shared.setdefault(id(t.u), scaled(t.u, c)), t.v,
                      t.label) for t in tensor_list(cert)])
    before = [[(pos, type(v), v) for pos, v in sorted(x.entries.items())]
              for t in cert.tensors for x in t[:2]]
    assert verify_certificate(cert).proven
    data = certificate_bytes(cert)
    assert certificate_from_json(json.loads(data)) == cert
    assert [[(pos, type(v), v) for pos, v in sorted(x.entries.items())]
            for t in cert.tensors for x in t[:2]] == before


def gl2_member(field, *positions):
    return SparseMatrix(2, field, {pos: field.one for pos in positions})


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_commuting_pair_whose_products_cancel_everywhere(field_name):
    # u = v = e12 + e21: xy = yx = e11 + e22, so the one bracket dict
    # holds only cancelled entries, and the pair is in the kernel
    cert = base_certificate(("gl", 2), field_name)
    field = cert.field
    swap = gl2_member(field, (1, 2), (2, 1))
    ints = integer_coords(swap.entries, field)
    assert entry_product(ints, rows_of(ints)) == {(1, 1): 1, (2, 2): 1}
    for idx in (0, 5, len(cert.tensors) - 1):
        tensors = tensor_list(cert)
        tensors[idx] = RankOneTensor(swap, swap, tensors[idx].label)
        tampered = rebuilt(cert, tensors)
        report = verify_certificate(tampered)
        assert report == verify_by_field_coords(tampered)
        assert report.first_noncommuting is None
    # a kernel member added to a basis of the kernel is dependent
    extra = rebuilt(cert, tensor_list(cert)
                    + [RankOneTensor(swap, swap, cert.tensors.runs[0][0])])
    report = verify_certificate(extra)
    assert report == verify_by_field_coords(extra)
    assert report.verdict == COUNT_MISMATCH


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_noncommuting_pair_whose_products_cancel_in_part(field_name):
    # u = e11 + e12 + e22 and v = e21: xy = e11 + e21 and yx = e21 + e22
    # cancel at (2,1) only, so [u, v] = e11 - e22 != 0
    cert = base_certificate(("gl", 2), field_name)
    field = cert.field
    u = gl2_member(field, (1, 1), (1, 2), (2, 2))
    v = gl2_member(field, (2, 1))
    x, y = (integer_coords(f.entries, field) for f in (u, v))
    assert entry_product(x, rows_of(y)) == {(1, 1): 1, (2, 1): 1}
    assert entry_product(y, rows_of(x)) == {(2, 1): 1, (2, 2): 1}
    for idx in (0, 5, len(cert.tensors) - 2):
        tensors = tensor_list(cert)
        for at in (idx, idx + 1):
            tensors[at] = RankOneTensor(u, v, tensors[at].label)
        tampered = rebuilt(cert, tensors)
        report = verify_certificate(tampered)
        assert report == verify_by_field_coords(tampered)
        assert report.verdict == FAILED_KERNEL_MEMBERSHIP
        assert report.first_noncommuting == idx


def insert_in_order(rng, tensors, segment):
    """Insert the segment's tensors at random places, in their order."""
    at = rng.randint(0, len(tensors))
    for t in segment:
        tensors.insert(at, t)
        at = rng.randint(at + 1, len(tensors))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALGEBRAS), st.sampled_from(sorted(FIELDS)),
       st.randoms(use_true_random=False))
def test_span_rank_matches_dense_elimination(algebra, field_name, rng):
    # random certificates mixing elementary pairs (unit rows, counted by
    # the verifier's column mask) and tensors with several entries per
    # factor (dense rows, masked and eliminated), with the cases the
    # mask must get right forced in
    cert = base_certificate(algebra, field_name)
    field = cert.field
    space = algebra_space(cert.algebra, field)
    label = cert.tensors.runs[0][0]

    def pair(s, k):
        return RankOneTensor(
            scaled(space.basis_matrix(s), nonzero_scalar(rng, field)),
            scaled(space.basis_matrix(k), nonzero_scalar(rng, field)), label)

    tensors = rng.sample(tensor_list(cert), min(len(cert.tensors), 6))
    tensors += [RankOneTensor(random_member(rng, space),
                              random_member(rng, space), label)
                for _ in range(rng.randint(0, 6))]
    rng.shuffle(tensors)
    s, k = rng.randrange(space.d), rng.randrange(space.d)
    insert_in_order(rng, tensors, [pair(s, k), pair(s, k)])
    if space.d > 1:
        u, v = random_member(rng, space, 2), random_member(rng, space)
        us = sorted(space.index_of[pos] for pos in u.entries)
        vs = sorted(space.index_of[pos] for pos in v.entries)
        dense = RankOneTensor(u, v, label)
        # a unit row after a dense row with the same leading column
        insert_in_order(rng, tensors, [dense, pair(us[0], vs[0])])
        # a dense row wholly on unit columns, before or after them
        for s in us:
            for k in vs:
                insert_in_order(rng, tensors, [pair(s, k)])
        insert_in_order(rng, tensors, [dense])
    tampered = rebuilt(cert, tensors)

    columns = sorted({c for t in tensors for c in tensor_coords(t, space)})
    zero = lift(field.zero, field)
    rows = []
    for t in tensors:
        coords = tensor_coords(t, space)
        rows.append([lift(coords[c], field) if c in coords else zero
                     for c in columns])
    report = verify_certificate(tampered)
    assert report.span_rank == naive_rank(rows)
    assert report == verify_by_field_coords(tampered)


def index_case(i, j, k, l):
    """Which of the five cases of [a e_ij, b e_kl] the indices are in."""
    if j == k and l == i:
        return "all equal" if i == j else "both, i != j"
    if j == k:
        return "only j == k"
    if l == i:
        return "only l == i"
    return "neither"


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("algebra", [("gl", 3), ("one-step", 4, 3, 2)])
def test_elementary_pairs_every_index_case(algebra, field_name):
    # every pair a e_ij (x) b e_kl of basis elements, scaled, alone in a
    # certificate: the verifier's index test and its mu column lookup
    # must give kernel membership as the oracle's bracket and mu image
    # do, in each of the five index cases
    cert = base_certificate(algebra, field_name)
    field = cert.field
    space = algebra_space(cert.algebra, field)
    mu = build_mu(space)
    scalars = ([Fraction(-2, 3), Fraction(5), Fraction(1, 7)] if field == QQ
               else [field.from_int(c) for c in (1, -1, 3) if c % field.p])
    seen = Counter()
    for s in range(space.d):
        for k in range(space.d):
            u = scaled(space.basis_matrix(s), scalars[s % len(scalars)])
            v = scaled(space.basis_matrix(k), scalars[k % len(scalars)])
            t = RankOneTensor(u, v, "x")
            (i, j), (q, l) = space.positions[s], space.positions[k]
            case = index_case(i, j, q, l)
            commutes = not bracket(u, v).entries
            assert commutes == (not apply_to_coords(
                mu, tensor_coords(t, space)))
            assert commutes == (case == "all equal"
                                or case == "neither")
            one = Certificate(cert.algebra, field, cert.kernel_dim,
                              [("x", 1)], [t])
            report = verify_certificate(one)
            assert report == verify_by_field_coords(one)
            assert report.first_noncommuting == (None if commutes else 0)
            assert report.span_rank == 1
            seen[case] += 1
    assert len(seen) == 5, seen

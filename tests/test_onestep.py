"""One-step block structure, explicit kernel families, and assembly."""

from __future__ import annotations

import pytest

from ladderzpd.certificates import (PROVEN_ZPD, SearchExhaustedError,
                                    gl_certificate, verify_certificate)
from ladderzpd.fields import QQ
from ladderzpd.ladders import BlockProfile, Ladder
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.onestep import (FAMILY_ORDER, assemble_one_step_certificate,
                               block_positions, explicit_families,
                               gl_block_tensors, kernel_dim_polynomial,
                               pairing_families)
from ladderzpd.tensors import TensorSpace, build_mu

from oracles import (RankOneTensor, bracket, expected_counts, in_kernel,
                     multiplication_table_check, naive_mu_kernel_dim,
                     tensor_coords)

SMALL_GRID = [BlockProfile(n1, n2, n3)
              for n1 in range(4) for n2 in range(1, 4) for n3 in range(4)]

# the three explicit family groups, by label
H_R = ("T", "S", "R")
H_L = ("T-mirror", "S-mirror", "R-mirror")
L_R = ("U", "V", "W")


def unit_sum(n: int, *positions) -> SparseMatrix:
    """The sum of e_{i,j} over the given positions, over QQ."""
    return SparseMatrix(n, QQ, {pos: QQ.one for pos in positions})


def one_step_space(p: BlockProfile) -> TensorSpace:
    ladder = Ladder(p.n, [(p.n1 + p.n2, p.n1 + 1)])
    return TensorSpace(p.n, ladder.positions())


def named(*parts):
    """The tensors of each part, in order, with named fields."""
    return [RankOneTensor(*t) for part in parts for t in part]


def family_group(p: BlockProfile, labels):
    return [t for t in named(explicit_families(p)) if t.label in labels]


def test_polynomial_values():
    assert kernel_dim_polynomial(BlockProfile(1, 1, 1)) == 13
    assert kernel_dim_polynomial(BlockProfile(1, 2, 1)) == 73
    for m in range(1, 6):
        assert kernel_dim_polynomial(BlockProfile(0, m, 0)) == m**4 - m**2 + 1


def test_polynomial_is_d_squared_minus_d_plus_one():
    for p in SMALL_GRID:
        d = (p.n1 + p.n2) * (p.n2 + p.n3)
        assert kernel_dim_polynomial(p) == d * d - d + 1


def test_polynomial_matches_computed_kernel():
    for p in [BlockProfile(1, 1, 1), BlockProfile(0, 2, 1),
              BlockProfile(2, 1, 0), BlockProfile(1, 2, 1)]:
        space = one_step_space(p)
        mu = build_mu(space)
        assert mu.kernel_dim == kernel_dim_polynomial(p)
        assert naive_mu_kernel_dim(p.n, space.positions) == mu.kernel_dim


def test_expected_counts_sum_to_polynomial():
    for p in SMALL_GRID:
        counts = expected_counts(p)
        assert [label for label, _ in counts] == list(FAMILY_ORDER)
        assert all(c >= 0 for _, c in counts)
        assert sum(c for _, c in counts) == kernel_dim_polynomial(p)


def test_remainder_count_identity():
    # the tensors left after the block pairings and the gl block, in
    # closed form, are exactly the explicit families
    for p in SMALL_GRID:
        n1, n2, n3 = p
        remainder = (2 * n1 * n2**3 + 2 * n2**3 * n3 + 2 * n1 * n2**2 * n3
                     - n1 * n2 - n1 * n3 - n2 * n3)
        counts = dict(expected_counts(p))
        pairings = sum(c for label, c in counts.items()
                       if label.startswith("pair-"))
        assert remainder == (kernel_dim_polynomial(p) - pairings
                             - counts["gl-h"])
        assert remainder == sum(counts[label] for label in H_R + H_L + L_R)
        assert remainder == len(explicit_families(p))


def test_block_positions_partition_the_ladder():
    for p in [BlockProfile(1, 2, 1), BlockProfile(2, 1, 3),
              BlockProfile(0, 2, 2), BlockProfile(3, 1, 0)]:
        blocks = block_positions(p)
        space = one_step_space(p)
        seen = []
        for posns in blocks.values():
            seen.extend(posns)
        assert len(seen) == len(set(seen)) == space.d
        assert set(seen) == set(space.positions)
        assert len(blocks["h"]) == p.n2 * p.n2
        assert len(blocks["l"]) == p.n1 * p.n2
        assert len(blocks["r"]) == p.n2 * p.n3
        assert len(blocks["a"]) == p.n1 * p.n3


def test_multiplication_table():
    for p in [BlockProfile(1, 2, 1), BlockProfile(0, 2, 1),
              BlockProfile(2, 1, 1)]:
        assert multiplication_table_check(p, one_step_space(p))


def test_bracket_h_l_lands_in_l():
    # at profile (1,1,1): e_{2,2} sits in h, e_{1,2} in l, and
    # [e_{2,2}, e_{1,2}] = -e_{1,2}
    got = bracket(elementary(3, 2, 2), elementary(3, 1, 2))
    assert got == SparseMatrix(3, QQ, {(1, 2): -QQ.one})


def test_pairing_family_counts():
    by_label = {}
    for t in named(pairing_families(BlockProfile(1, 2, 1))):
        by_label[t.label] = by_label.get(t.label, 0) + 1
    assert by_label == {"pair-h-a": 8, "pair-l-a": 4, "pair-r-a": 4,
                        "pair-a-a": 1, "pair-l-l": 4, "pair-r-r": 4}
    assert len(pairing_families(BlockProfile(1, 1, 1))) == 9
    only_rr = pairing_families(BlockProfile(0, 2, 3))
    assert {label for _, _, label in only_rr} == {"pair-r-r"}
    assert len(only_rr) == 36


def test_families_h_r_minimal_profile():
    fams = family_group(BlockProfile(1, 1, 1), H_R)
    assert len(fams) == 1
    t = fams[0]
    assert t.label == "R"
    assert t.u == t.v == unit_sum(3, (2, 2), (2, 3))


def test_families_h_r_counts():
    fams = family_group(BlockProfile(1, 2, 1), H_R)
    by_label = {}
    for t in fams:
        by_label[t.label] = by_label.get(t.label, 0) + 1
    assert by_label == {"T": 8, "S": 4, "R": 2}


def test_families_h_l_minimal_profile():
    fams = family_group(BlockProfile(1, 1, 1), H_L)
    assert len(fams) == 1
    t = fams[0]
    assert t.label == "R-mirror"
    assert t.u == t.v == unit_sum(3, (1, 2), (2, 2))


def test_families_l_r_minimal_profile():
    fams = family_group(BlockProfile(1, 1, 1), L_R)
    assert len(fams) == 1
    t = fams[0]
    assert t.label == "W"
    assert t.u == t.v == unit_sum(3, (1, 2), (2, 3))


def test_families_l_r_counts():
    fams = family_group(BlockProfile(1, 2, 1), L_R)
    by_label = {}
    for t in fams:
        by_label[t.label] = by_label.get(t.label, 0) + 1
    assert by_label == {"U": 4, "V": 2, "W": 1}


def test_family_counts_match_closed_forms():
    for p in [BlockProfile(1, 2, 1), BlockProfile(2, 2, 1),
              BlockProfile(1, 3, 2), BlockProfile(0, 2, 2)]:
        want = dict(expected_counts(p))
        got = {label: 0 for label in FAMILY_ORDER}
        for t in named(pairing_families(p), explicit_families(p)):
            got[t.label] += 1
        for label in FAMILY_ORDER:
            if label == "gl-h":
                continue
            assert got[label] == want[label], (p, label)


def test_all_family_tensors_in_kernel():
    for p in [BlockProfile(1, 1, 1), BlockProfile(1, 2, 1),
              BlockProfile(2, 1, 2)]:
        space = one_step_space(p)
        mu = build_mu(space)
        tensors = named(pairing_families(p), gl_block_tensors(p),
                        explicit_families(p))
        for t in tensors:
            assert in_kernel(t, mu, tensor_coords(t, space)), (p, t)


def test_families_are_pairwise_distinct():
    p = BlockProfile(1, 2, 1)
    pairs = [(u, v) for u, v, _ in named(
        pairing_families(p), gl_block_tensors(p), explicit_families(p))]
    assert len(pairs) == len(set(pairs)) == kernel_dim_polynomial(p)


def test_gl_block_matches_embedded_search():
    # searching the middle block directly must give the translated
    # gl certificate: the pool, centralizers, and echelon order are all
    # equivariant under shifting the index range
    from ladderzpd.certificates import (gl_algebra_descriptor, gl_certificate,
                                        search_spanning)
    p = BlockProfile(1, 2, 1)
    block = TensorSpace(p.n, block_positions(p)["h"])
    mu = build_mu(block)
    found = search_spanning(mu, gl_algebra_descriptor(2))
    translated = gl_block_tensors(p)
    assert [(u, v) for u, v, _ in found.tensors] == \
        [(u, v) for u, v, _ in translated]
    base = gl_certificate(2)
    assert [(u.shifted(p.n1, p.n), v.shifted(p.n1, p.n))
            for u, v, _ in base.tensors] == [(u, v) for u, v, _ in translated]


def test_assemble_minimal_nonabelian():
    cert = assemble_one_step_certificate(3, 2, 2)
    assert cert.kernel_dim == 13
    assert len(cert.tensors) == 13
    assert verify_certificate(cert).proven


def test_assemble_four_block_case():
    cert = assemble_one_step_certificate(4, 3, 2)
    assert cert.kernel_dim == 73
    counts = dict(cert.families)
    assert counts["gl-h"] == 13
    assert sum(counts[label] for label in counts
               if label.startswith("pair-")) == 25
    assert counts["T"] + counts["S"] + counts["R"] == 14
    assert (counts["T-mirror"] + counts["S-mirror"]
            + counts["R-mirror"]) == 14
    assert counts["U"] + counts["V"] + counts["W"] == 7
    assert cert.families == expected_counts(BlockProfile(1, 2, 1))
    assert verify_certificate(cert).proven


def test_assemble_pure_gl_case():
    cert = assemble_one_step_certificate(2, 2, 1)
    counts = dict(cert.families)
    assert counts["gl-h"] == 13 == len(cert.tensors)
    assert all(c == 0 for label, c in counts.items() if label != "gl-h")
    assert verify_certificate(cert).proven


def test_assemble_abelian_case():
    cert = assemble_one_step_certificate(3, 1, 2)
    assert cert.families == [("abelian", 4)]
    assert verify_certificate(cert).proven


def test_assemble_exhausted_budget():
    with pytest.raises(SearchExhaustedError):
        assemble_one_step_certificate(4, 3, 2, budget=0)


def test_assemble_middle_block_nine():
    # n2 = 9: the gl_9 block needs 362,153 candidate tensors, more than
    # the old default budget of 50 d^2 = 328,050; exhausting the pool is
    # the bound now
    cert = assemble_one_step_certificate(10, 9, 1)
    report = verify_certificate(cert)
    assert report.verdict == PROVEN_ZPD
    assert report.tensor_count == report.kernel_dim == 8011


def test_families_share_one_factor_per_entry_map():
    # each distinct factor is one entry of the factor table, numbered by
    # its first appearance, so the writer and the verifier work once per
    # factor
    p = BlockProfile(2, 3, 2)
    abelian = assemble_one_step_certificate(6, 2, 5).tensors  # d = 4
    for tensors in (pairing_families(p), explicit_families(p), abelian):
        firsts = list(dict.fromkeys(
            k for pair in zip(tensors.us, tensors.vs) for k in pair))
        assert firsts == list(range(len(tensors.factors)))
        distinct = {frozenset(x.entries.items()) for x in tensors.factors}
        assert len(distinct) == len(tensors.factors)
    # the gl block keeps the search's table: one shifted copy per factor
    source = gl_certificate(p.n2).tensors
    shifted = gl_block_tensors(p)
    assert shifted.factors == [x.shifted(p.n1, p.n) for x in source.factors]
    assert (shifted.us, shifted.vs) == (source.us, source.vs)
    assert len(source.factors) < 2 * len(source)

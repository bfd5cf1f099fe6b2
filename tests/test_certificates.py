"""Certificate verification, centralizers, and the greedy spanning search."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ladderzpd import certificates
from ladderzpd.certificates import (COUNT_MISMATCH, FAILED_KERNEL_MEMBERSHIP,
                                    FAILED_SPAN, MAX_ALGEBRA_SIZE, PROVEN_ZPD,
                                    Certificate, SearchExhaustedError,
                                    abelian_certificate, ad_echelon,
                                    algebra_space, candidate_pool,
                                    gl_algebra_descriptor, gl_certificate,
                                    ladder_algebra_descriptor,
                                    search_spanning, two_term_centralizer,
                                    two_term_dim, verify_certificate)
from ladderzpd.elim import IncrementalEchelon, field_row, integer_coords
from ladderzpd.fields import PrimeField, QQ
from ladderzpd.ladders import Ladder, enumerate_ladders
from ladderzpd.matrices import SparseMatrix, elementary
from ladderzpd.onestep import assemble_one_step_certificate
from ladderzpd.tensors import (ClosureError, MembershipError, TensorSpace,
                               build_mu)

from oracles import (RankOneTensor, bracket, centralizer, in_kernel,
                     lemma3_skips, reference_search, tensor_coords)

F = Fraction

IDENTITY_2 = SparseMatrix(2, QQ, {(1, 1): QQ.one, (2, 2): QQ.one})


def ladder_space(ladder: Ladder) -> TensorSpace:
    return TensorSpace(ladder.n, ladder.positions())


def span_contains(space, basis_mats, target) -> bool:
    ech = IncrementalEchelon(space.field)
    for m in basis_mats:
        ech.insert(integer_coords(space.coords_of(m), space.field))
    return not ech.insert(integer_coords(space.coords_of(target),
                                         space.field))


def test_centralizer_of_identity_is_everything():
    space = TensorSpace.gl(2)
    cent = centralizer(IDENTITY_2, space)
    assert len(cent) == 4
    assert cent == [space.basis_matrix(k) for k in range(space.d)]


def test_centralizer_of_diagonal_unit():
    space = TensorSpace.gl(2)
    cent = centralizer(elementary(2, 1, 1), space)
    assert len(cent) == 2
    for want in (elementary(2, 1, 1), elementary(2, 2, 2)):
        assert span_contains(space, cent, want)


def test_centralizer_of_nilpotent():
    space = TensorSpace.gl(2)
    u = elementary(2, 1, 2)
    cent = centralizer(u, space)
    assert len(cent) == 2
    for want in (IDENTITY_2, u):
        assert span_contains(space, cent, want)


def test_centralizer_members_commute():
    rng = random.Random(23)
    space = TensorSpace.gl(3)
    for _ in range(8):
        coords = {rng.randrange(space.d): F(rng.randint(-2, 2))
                  for _ in range(3)}
        coords = {k: v for k, v in coords.items() if v}
        if not coords:
            continue
        u = space.from_coords(coords)
        cent = centralizer(u, space)
        for v in cent:
            assert not bracket(u, v).entries
        # u always commutes with itself, so it lies in its own centralizer
        assert span_contains(space, cent, u)


def test_centralizer_requires_membership():
    space = ladder_space(Ladder(3, [(2, 2)]))
    with pytest.raises(MembershipError):
        centralizer(elementary(3, 3, 3), space)


def test_centralizer_rejects_open_space():
    # not upper triangular: [e_{2,1}, e_{3,2}] = -e_{3,1} leaves the span
    space = ladder_space(Ladder(3, [(2, 1), (3, 2)]))
    with pytest.raises(ClosureError):
        centralizer(elementary(3, 2, 1), space)


def pool_by_docstring(space) -> list:
    """candidate_pool's order, built from its docstring and the sorted
    position list: the basis, b_s + b_t and b_s - b_t for s < t, the
    two orientations of every three-cycle, then the diagonal unit."""
    pos, one = space.positions, space.field.one
    minus_one = space.field.from_int(-1)

    def mat(*terms):
        return SparseMatrix(space.n, space.field, dict(terms))

    out = [mat((p, one)) for p in pos]
    for s, t in combinations(range(len(pos)), 2):
        out.append(mat((pos[s], one), (pos[t], one)))
        out.append(mat((pos[s], one), (pos[t], minus_one)))
    for i, j, k in combinations(sorted({i for p in pos for i in p}), 3):
        for cycle in (((i, j), (j, k), (k, i)), ((i, k), (k, j), (j, i))):
            if all(p in pos for p in cycle):
                out.append(mat(*((p, one) for p in cycle)))
    diagonal = [(p, one) for p in pos if p[0] == p[1]]
    if diagonal:
        out.append(mat(*diagonal))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)])
@pytest.mark.parametrize("space_of", [
    lambda field: TensorSpace.gl(3, field),
    lambda field: TensorSpace(4, Ladder(4, [(3, 2)]).positions(), field)],
    ids=["gl3", "one-step-4-3-2"])
def test_candidate_pool_order(space_of, field):
    space = space_of(field)
    pool = list(candidate_pool(space))
    assert all(c in (1, -1) for coords in pool for c in coords.values())
    got = [SparseMatrix(space.n, field, {space.positions[k]: field.from_int(c)
                                         for k, c in coords.items()})
           for coords in pool]
    assert got == pool_by_docstring(space)


def test_candidate_pool_over_f2_keeps_repeats():
    # over F_2, b_s - b_t is b_s + b_t again, and the diagonal unit of
    # gl_2 is b_0 + b_3: 17 candidates, 10 of them distinct
    field = PrimeField(2)
    pool = [integer_coords(c, field)
            for c in candidate_pool(TensorSpace.gl(2, field))]
    assert len(pool) == 17
    assert len({frozenset(c.items()) for c in pool}) == 10
    assert pool[4] == pool[5] == {0: 1, 1: 1}


def test_gl1_certificate():
    cert = gl_certificate(1)
    assert cert is not None
    assert len(cert.tensors) == 1
    (u, v, _), = cert.tensors
    assert u == v == elementary(1, 1, 1)
    assert verify_certificate(cert).proven


def test_gl2_certificate():
    cert = gl_certificate(2)
    assert cert is not None
    assert len(cert.tensors) == 13
    assert cert.families == [("gl", 13)]
    report = verify_certificate(cert)
    assert report.verdict == PROVEN_ZPD
    assert report.kernel_dim == report.span_rank == report.tensor_count == 13
    assert report.first_noncommuting is None


def test_gl3_certificate():
    cert = gl_certificate(3)
    assert cert is not None
    assert len(cert.tensors) == 73
    mu = build_mu(TensorSpace.gl(3))
    for t in cert.tensors:
        assert in_kernel(t, mu, tensor_coords(t, mu.space))
    assert verify_certificate(cert).proven


def test_search_is_deterministic():
    space = TensorSpace.gl(2)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(2)
    first = search_spanning(mu, desc)
    second = search_spanning(mu, desc)
    assert first == second


def test_gl_certificate_is_memoized():
    assert gl_certificate(2) is gl_certificate(2)


def test_search_budget_exhaustion():
    space = TensorSpace.gl(2)
    mu = build_mu(space)
    with pytest.raises(SearchExhaustedError,
                       match=r"^search budget exhausted on gl_2 at rank 3 "
                             r"of 13$"):
        search_spanning(mu, gl_algebra_descriptor(2), budget=3)
    with pytest.raises(SearchExhaustedError):
        gl_certificate(2, budget=3)
    # a failed tiny-budget run must not poison the cache
    assert gl_certificate(2).kernel_dim == 13


def test_search_raises_at_the_end_of_the_pool(monkeypatch):
    # a pool of the basis alone stalls below the kernel dimension on
    # gl_3; the end of the pool raises the budget cut's error
    pool = certificates.candidate_pool
    monkeypatch.setattr(certificates, "candidate_pool",
                        lambda space: list(pool(space))[:space.d])
    space = TensorSpace.gl(3)
    with pytest.raises(SearchExhaustedError,
                       match=r"^search budget exhausted on gl_3 at rank 45 "
                             r"of 73$"):
        search_spanning(build_mu(space), gl_algebra_descriptor(3))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_pruned_search_matches_reference(m, field):
    space = TensorSpace.gl(m, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(m)
    found = search_spanning(mu, desc)
    assert found == reference_search(mu, desc)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
@pytest.mark.parametrize("m", [3, 4])
def test_skipped_candidates_reduce_to_zero(m, field):
    # every candidate the search skips, by the rules in its docstring
    # with A(u) taken from dense brackets, is rejected by the reference
    # search at the moment it is tried: the free columns outside A(u),
    # and every candidate of a u = b_s - b_t
    space = TensorSpace.gl(m, field)
    d = space.d
    basis = [space.basis_matrix(k) for k in range(d)]
    moves = [{k for k in range(d) if bracket(basis[s], basis[k]).entries}
             for s in range(d)]
    minus = [-1 in c.values() for c in candidate_pool(space)]
    skipped = []

    def observe(index, ucoords, f, w, kept):
        active = set().union(*(moves[s] for s in ucoords))
        if index >= d and (minus[index] or f not in active):
            assert not kept, (index, ucoords, f)
            if f not in active:
                assert w == {f: 1}
            skipped.append((index, f))

    mu = build_mu(space)
    assert reference_search(mu, gl_algebra_descriptor(m),
                            observe=observe) is not None
    assert len(skipped) > 0
    assert any(minus[index] for index, _ in skipped)


def centralizer_rows(ucoords, mu) -> list:
    """The integer rows of u (x) C(u), one per null vector of ad_u."""
    d = mu.space.d
    ad, _ = ad_echelon(ucoords, mu)
    return [{s * d + k: a * b for s, a in ucoords.items()
             for k, b in w.items()}
            for w, _ in ad.null_space(range(d))]


@pytest.mark.parametrize("m, field", [
    (2, QQ), (3, QQ), (4, QQ), (5, QQ),
    (2, PrimeField(3)), (3, PrimeField(3)), (4, PrimeField(3)),
    (2, PrimeField(101)), (3, PrimeField(101)), (4, PrimeField(101))])
def test_minus_pair_lies_in_the_plus_pair_span(m, field):
    # the lemma the search skips every b_s - b_t by: for every pair
    # s < t, u- (x) C(u-) lies in the span of b_s (x) C(b_s),
    # b_t (x) C(b_t) and u+ (x) C(u+), for u+- = b_s +- b_t
    space = TensorSpace.gl(m, field)
    mu = build_mu(space)
    d = space.d
    own = [centralizer_rows({s: 1}, mu) for s in range(d)]
    for s, t in combinations(range(d), 2):
        ech = IncrementalEchelon(field)
        for row in own[s] + own[t] + centralizer_rows(
                integer_coords({s: 1, t: 1}, field), mu):
            ech.insert(row)
        minus = centralizer_rows(integer_coords({s: 1, t: -1}, field), mu)
        assert minus
        assert not any(ech.insert(row) for row in minus), \
            (space.positions[s], space.positions[t])


def built_members(monkeypatch, m, field) -> tuple:
    """The first factors search_spanning builds a centralizer for on
    gl_m, by ad_echelon or in closed form, in order, with the pool and
    the certificate."""
    space = TensorSpace.gl(m, field)
    built = []

    def counting(ucoords, mu):
        built.append(ucoords)
        return ad_echelon(ucoords, mu)

    def closed(space, indices, s, t):
        built.append({s: 1, t: 1})
        return two_term_centralizer(space, indices, s, t)

    monkeypatch.setattr(certificates, "ad_echelon", counting)
    monkeypatch.setattr(certificates, "two_term_centralizer", closed)
    cert = search_spanning(build_mu(space), gl_algebra_descriptor(m))
    monkeypatch.undo()
    return built, list(candidate_pool(space)), cert


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
def test_search_builds_no_minus_pair(monkeypatch, field):
    # ad_u is built for the pool members in order, leaving out every
    # b_s - b_t (Lemma 2) and every b_s + b_t that Lemma 3 proves
    # spanned, until the search ends; over F_2 the b_s - b_t are the
    # members equal to the one before them.  gl_2 skips no b_s + b_t.
    # The skips are those of the path rule in oracles.lemma3_skips.
    for m in range(2, 11):
        built, pool, cert = built_members(monkeypatch, m, field)
        assert cert.kernel_dim == m ** 4 - m ** 2 + 1
        skipped = lemma3_skips(TensorSpace.gl(m, field))
        kept = [integer_coords(c, field) for i, c in enumerate(pool)
                if -1 not in c.values() and i not in skipped]
        assert len(built) > m * m + 1
        assert built == kept[:len(built)]
        assert m == 2 or min(skipped) < pool.index(built[-1])


def test_search_builds_2276_sums_on_gl12(monkeypatch):
    built, _, _ = built_members(monkeypatch, 12, QQ)
    assert sum(len(u) == 2 for u in built) == 2276


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_skipped_plus_pairs_keep_nothing(monkeypatch, m, field):
    # every b_s + b_t the search skips by Lemma 3 comes up in the
    # reference search, which tries its candidates, and keeps none
    built, pool, _ = built_members(monkeypatch, m, field)
    last = pool.index(built[-1])
    skipped = {i for i in range(m * m, last)
               if len(pool[i]) == 2 and -1 not in pool[i].values()
               and pool[i] not in built}
    assert skipped == {i for i in lemma3_skips(TensorSpace.gl(m, field))
                       if i < last}
    tried = set()

    def observe(index, ucoords, f, w, kept):
        if index in skipped:
            assert not kept, (index, ucoords, f)
            tried.add(index)

    mu = build_mu(TensorSpace.gl(m, field))
    assert reference_search(mu, gl_algebra_descriptor(m),
                            observe=observe) is not None
    assert tried == skipped


# the smallest budget that succeeds, measured before the search skipped
# candidates: a skipped candidate still counts as tried
@pytest.mark.parametrize("m, field, budget", [
    (2, QQ, 23), (2, PrimeField(2), 25), (2, PrimeField(101), 23),
    (3, QQ, 341), (3, PrimeField(2), 347), (3, PrimeField(101), 341),
    (4, QQ, 2063), (4, PrimeField(2), 2075), (4, PrimeField(101), 2063),
    (2, PrimeField(3), 23), (3, PrimeField(3), 341),
    (4, PrimeField(3), 2063)])
def test_budget_cuts_at_the_same_candidate(m, field, budget):
    space = TensorSpace.gl(m, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(m)
    full = search_spanning(mu, desc)
    assert search_spanning(mu, desc, budget=budget) == full
    with pytest.raises(SearchExhaustedError):
        search_spanning(mu, desc, budget=budget - 1)
    assert reference_search(mu, desc, budget=budget) == full
    assert reference_search(mu, desc, budget=budget - 1) is None


# gl_3 pairs: a transpose pair, e_12 with e_23, and two diagonal units,
# whose b_s - b_t has 2 fewer candidates than b_s + b_t when 2 != 0
@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
@pytest.mark.parametrize("pair", [((1, 2), (2, 1)), ((1, 2), (2, 3)),
                                  ((1, 1), (2, 2))],
                         ids=["transpose", "off-diagonal", "two-diagonal"])
def test_budget_cut_inside_a_skipped_minus_pair(pair, field):
    # every cut from the first candidate of u- = b_s - b_t to a few past
    # its last raises at the rank the reference search had reached
    space = TensorSpace.gl(3, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(3)
    s, t = (space.index_of[pos] for pos in pair)
    index = list(candidate_pool(space)).index({s: 1, t: -1})
    tried = []
    reference_search(mu, desc, observe=lambda i, u, f, w, kept:
                     tried.append((i, kept)))
    start = [i for i, _ in tried].index(index)
    count = [i for i, _ in tried].count(index)
    plus = [i for i, _ in tried].count(index - 1)
    assert count == plus - (2 if pair[0][0] == pair[0][1] else 0)
    for budget in range(start, start + count + 6):
        rank = sum(kept for _, kept in tried[:budget])
        with pytest.raises(SearchExhaustedError,
                           match=rf" at rank {rank} of {mu.kernel_dim}$"):
            search_spanning(mu, desc, budget=budget)
        assert reference_search(mu, desc, budget=budget) is None


# gl_3 pairs that Lemma 3 skips: two off-diagonal units in one row, and
# a diagonal unit with an off-diagonal one
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
@pytest.mark.parametrize("pair", [((1, 2), (1, 3)), ((2, 2), (3, 1))],
                         ids=["one-row", "diagonal-and-off"])
def test_budget_cut_inside_a_skipped_plus_pair(pair, field):
    # every cut from the first candidate of u+ = b_s + b_t to the end
    # of the u- after it, both skipped, raises at the rank the
    # reference search had reached
    space = TensorSpace.gl(3, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(3)
    s, t = (space.index_of[pos] for pos in pair)
    index = list(candidate_pool(space)).index({s: 1, t: 1})
    assert index in lemma3_skips(space)
    tried = []
    reference_search(mu, desc, observe=lambda i, u, f, w, kept:
                     tried.append((i, kept)))
    start = [i for i, _ in tried].index(index)
    count = [i for i, _ in tried].count(index)
    assert count == [i for i, _ in tried].count(index + 1)
    for budget in range(start, start + 2 * count + 2):
        rank = sum(kept for _, kept in tried[:budget])
        with pytest.raises(SearchExhaustedError,
                           match=rf" at rank {rank} of {mu.kernel_dim}$"):
            search_spanning(mu, desc, budget=budget)
        assert reference_search(mu, desc, budget=budget) is None


@pytest.mark.parametrize("field, succeeds", [
    (QQ, 341), (PrimeField(2), 347), (PrimeField(3), 341)])
def test_every_budget_cuts_at_the_reference_rank(field, succeeds):
    # every budget on gl_3, the basis stage's deferred rows and every
    # closed-form count of candidates included, returns the certificate
    # or raises at the rank the reference search had reached
    space = TensorSpace.gl(3, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(3)
    kept = []
    full = reference_search(mu, desc, observe=lambda i, u, f, w, k:
                            kept.append(k))
    assert len(kept) == succeeds
    for budget in range(succeeds):
        rank = sum(kept[:budget])
        with pytest.raises(SearchExhaustedError,
                           match=rf" at rank {rank} of {mu.kernel_dim}$"):
            search_spanning(mu, desc, budget=budget)
    assert search_spanning(mu, desc, budget=succeeds) == full


def ad_rows_null_basis(ucoords, mu) -> tuple:
    """ad_echelon's free columns in A(u), with their null vectors as
    field scalars, and dim C(u)."""
    field, d = mu.space.field, mu.space.d
    ad, active = ad_echelon(ucoords, mu)
    free = [f for f in sorted(active) if f not in ad.pivot_rows]
    return ([(f, field_row(w, m, field))
             for f, (w, m) in zip(free, ad.null_space(free))], d - ad.rank)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
def test_two_term_centralizers_in_closed_form(field):
    # every b_s + b_t of gl_m, m <= 7, and of gl_3 on the indices 2..4
    # of n = 5: the closed form gives ad_echelon's free columns in A(u),
    # in order, the same null vectors v = w / m, and dim C(u)
    spaces = [TensorSpace.gl(m, field) for m in range(1, 8)]
    spaces.append(TensorSpace(5, [(i, j) for i in range(2, 5)
                                  for j in range(2, 5)], field))
    for space in spaces:
        mu = build_mu(space)
        indices = sorted({i for i, _ in space.positions})
        for s, t in combinations(range(space.d), 2):
            got = [(f, field_row(w, 1, field)) for f, w in
                   two_term_centralizer(space, indices, s, t)]
            dim = two_term_dim(len(indices), space.positions[s],
                               space.positions[t])
            assert (got, dim) == ad_rows_null_basis(
                integer_coords({s: 1, t: 1}, field), mu), \
                (space, space.positions[s], space.positions[t])


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_budgeted_search_builds_no_ad_u_for_a_sum(monkeypatch, field):
    # under a budget the search counts the candidates of a sum that
    # Lemma 3 skips from dim C(u), and builds every other sum's in
    # closed form: ad_echelon never sees a two-term u
    space = TensorSpace.gl(4, field)
    mu = build_mu(space)
    desc = gl_algebra_descriptor(4)
    full = search_spanning(mu, desc)
    seen = []

    def counting(ucoords, mu):
        seen.append(ucoords)
        return ad_echelon(ucoords, mu)

    monkeypatch.setattr(certificates, "ad_echelon", counting)
    assert search_spanning(mu, desc, budget=10 ** 6) == full
    pool = list(candidate_pool(space))
    last = pool.index(seen[-1])
    assert any(i < last for i in lemma3_skips(space))
    assert len(seen) > space.d
    assert not [u for u in seen if len(u) == 2]


def test_verification_recomputes_kernel_dim():
    base = gl_certificate(2)
    inflated = Certificate(base.algebra, base.field, 999,
                           base.families, base.tensors)
    report = verify_certificate(inflated)
    assert report.proven
    assert report.kernel_dim == 13


def test_tamper_delete_fails_span():
    base = gl_certificate(2)
    for drop in (0, 6, 12):
        tensors = list(base.tensors)
        del tensors[drop]
        cert = Certificate(base.algebra, base.field, base.kernel_dim,
                           [("gl", 12)], tensors)
        report = verify_certificate(cert)
        assert report.verdict == FAILED_SPAN
        assert report.span_rank == 12
        assert not report.proven


def test_tamper_replace_fails_membership():
    base = gl_certificate(2)
    bad = RankOneTensor(elementary(2, 1, 1), elementary(2, 1, 2), "gl")
    tensors = list(base.tensors)
    tensors[4] = bad
    cert = Certificate(base.algebra, base.field, base.kernel_dim,
                       [("gl", 13)], tensors)
    report = verify_certificate(cert)
    assert report.verdict == FAILED_KERNEL_MEMBERSHIP
    assert report.first_noncommuting == 4
    assert "index 4" in report.summary()


def test_tamper_duplicate_fails_count():
    base = gl_certificate(2)
    tensors = list(base.tensors)
    tensors.append(tensors[0])
    cert = Certificate(base.algebra, base.field, base.kernel_dim,
                       [("gl", 14)], tensors)
    report = verify_certificate(cert)
    assert report.verdict == COUNT_MISMATCH
    assert report.span_rank == report.kernel_dim == 13
    assert report.tensor_count == 14


def is_pair(t) -> bool:
    return len(t.u.entries) == len(t.v.entries) == 1


def unit_column_tampers(cert):
    """Tampered tensor lists for the verifier's unit-column mask, with
    family counts kept in step: an elementary pair duplicated or
    deleted; (e_11 + e_22) (x) e_12 added, which commutes; and e_12 (x)
    (e_12 + e_13) added last or first, a commuting tensor whose row lies
    on the columns of two elementary pairs of the certificate."""
    tensors = [RankOneTensor(*t) for t in cert.tensors]
    field = cert.field
    n = cert.algebra.get("m") or cert.algebra["n"]
    pairs = [i for i, t in enumerate(tensors) if is_pair(t)]
    i = pairs[len(pairs) // 2]
    columns = {(*t.u.entries, *t.v.entries) for t in tensors if is_pair(t)}
    assert {((1, 2), (1, 2)), ((1, 2), (1, 3))} <= columns
    diagonal = SparseMatrix(n, field, {(1, 1): field.one, (2, 2): field.one})
    on_units = RankOneTensor(
        elementary(n, 1, 2, field),
        SparseMatrix(n, field, {(1, 2): field.one, (1, 3): field.one}),
        tensors[0].label)
    added = RankOneTensor(diagonal, elementary(n, 1, 2, field),
                          tensors[0].label)
    return {"duplicated": tensors[:i + 1] + tensors[i:],
            "deleted": tensors[:i] + tensors[i + 1:],
            "diagonal added": tensors + [added],
            "on units, last": tensors + [on_units],
            "on units, first": [on_units] + tensors}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)])
@pytest.mark.parametrize("build, kdim", [
    (lambda field: gl_certificate(3, field), 73),
    (lambda field: assemble_one_step_certificate(5, 3, 1, field=field), 211),
], ids=["gl_3", "one-step n=5 (3,1)"])
def test_unit_column_mask_tamper_pins(build, kdim, field):
    # reports recorded before the verifier masked unit columns; a count
    # of marks without deduplication, dense rows left unmasked, or
    # dense rows masked as they arrive each breaks one of them
    cert = build(field)
    expected = {"deleted": (kdim, kdim - 1, kdim - 1, None, FAILED_SPAN)}
    for name, tensors in unit_column_tampers(cert).items():
        report = verify_certificate(Certificate(
            cert.algebra, field, cert.kernel_dim,
            [(label, sum(t.label == label for t in tensors))
             for label, _ in cert.families], tensors))
        assert tuple(report) == expected.get(
            name, (kdim, kdim + 1, kdim, None, COUNT_MISMATCH)), name


@pytest.mark.parametrize("factor", [elementary(2, 1, 1, PrimeField(101)),
                                    elementary(3, 1, 1)])
def test_verify_rejects_factor_outside_the_space(factor):
    # a factor over another field or ambient size is named, with the
    # message coords_of gives, before any of its scalars is read
    base = gl_certificate(2)
    tensors = list(base.tensors)
    tensors[3] = RankOneTensor(factor, tensors[3][1], "gl")
    cert = Certificate(base.algebra, base.field, base.kernel_dim,
                       base.families, tensors)
    with pytest.raises(MembershipError,
                       match=r"^tensor 3 factor u: matrix over n=\d, "
                             r".* does not live in this space \(n=2, QQ\)$"):
        verify_certificate(cert)


def test_certificate_count_validation():
    base = gl_certificate(2)
    with pytest.raises(ValueError):
        Certificate(base.algebra, base.field, 13, [("gl", 12)], base.tensors)


def test_abelian_certificate():
    ladder = Ladder(4, [(2, 3)])
    space = ladder_space(ladder)
    cert = abelian_certificate(space, ladder_algebra_descriptor(ladder))
    assert len(cert.tensors) == 16
    assert cert.families == [("abelian", 16)]
    assert all(label == "abelian" for _, _, label in cert.tensors)
    assert verify_certificate(cert).proven


def test_abelian_certificate_small():
    ladder = Ladder(3, [(1, 2)])
    space = ladder_space(ladder)
    cert = abelian_certificate(space, ladder_algebra_descriptor(ladder))
    assert len(cert.tensors) == 4
    assert verify_certificate(cert).proven


def test_abelian_certificate_rejects_nonzero_product():
    with pytest.raises(ValueError):
        abelian_certificate(TensorSpace.gl(2), gl_algebra_descriptor(2))


def test_algebra_space_round_trip():
    ladder = Ladder(4, [(2, 2), (4, 4)])
    desc = ladder_algebra_descriptor(ladder)
    space = algebra_space(desc, QQ)
    assert space.positions == ladder.positions()
    assert algebra_space(gl_algebra_descriptor(3), QQ).d == 9


def test_algebra_space_rejects_unknown_kind():
    with pytest.raises(ValueError):
        algebra_space({"kind": "heisenberg", "n": 3}, QQ)


def test_report_summary_text():
    report = verify_certificate(gl_certificate(2))
    assert report.summary() == ("13 tensors, span rank 13, kernel dim 13: "
                                "proven-zpd")


def test_algebra_space_size_cap():
    # n and d are capped at MAX_ALGEBRA_SIZE before any position is
    # listed; for a ladder d comes from its steps in closed form
    assert MAX_ALGEBRA_SIZE == 1024
    assert algebra_space(gl_algebra_descriptor(32), QQ).d == 1024
    with pytest.raises(ValueError, match="too large"):
        algebra_space(gl_algebra_descriptor(33), QQ)
    # two steps on n = 40: 20*40 + 7*32 = 1024 and 20*40 + 9*25 = 1025
    at_cap = ladder_algebra_descriptor(Ladder(40, [(20, 1), (27, 9)]))
    assert algebra_space(at_cap, QQ).d == 1024
    with pytest.raises(ValueError, match="d = 1025"):
        algebra_space(
            ladder_algebra_descriptor(Ladder(40, [(20, 1), (29, 16)])), QQ)
    with pytest.raises(ValueError, match="n = 1025"):
        algebra_space(ladder_algebra_descriptor(Ladder(1025, [(1, 1025)])),
                      QQ)
    # the closed form agrees with the position set on small ladders
    for n in range(1, 6):
        for k in range(1, n + 1):
            for ladder in enumerate_ladders(n, k):
                space = algebra_space(ladder_algebra_descriptor(ladder), QQ)
                assert space.d == len(ladder.positions())

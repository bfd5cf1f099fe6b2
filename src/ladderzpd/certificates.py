"""Rank-one spanning certificates for Ker mu, their verification, and
the generic greedy search that finds them.

A certificate is a finite claim: this list of rank-one tensors spans the
kernel of mu on the named algebra.  Verification rebuilds everything
from the algebra descriptor and trusts nothing in the file: it checks
that every tensor's factors commute (so it is in Ker mu: the direct
product and mu, built from the product table, agree), that the tensor
rows are linearly independent, and that their count equals the
independently computed kernel dimension.  A passing certificate proves
the algebra is zero product determined; a failed search proves nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cache
from operator import itemgetter
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .elim import (IncrementalEchelon, IntRow, MaskedSpan, field_row,
                   integer_coords)
from .fields import Field, QQ
from .ladders import MAX_ALGEBRA_SIZE, Ladder, SearchExhaustedError
from .matrices import SparseMatrix
from .tensors import (MembershipError, MuMap, RankOneTensor, TensorSpace,
                      build_mu)

PROVEN_ZPD = "proven-zpd"
FAILED_KERNEL_MEMBERSHIP = "failed-kernel-membership"
FAILED_SPAN = "failed-span"
COUNT_MISMATCH = "count-mismatch"


class Certificate:
    """A labeled list of rank-one tensors claimed to span Ker mu.

    algebra: {"kind": "ladder-lie", "n": n, "steps": [(i,j), ...]}
             or {"kind": "gl-lie", "m": m}
    families: (label, count) pairs, each label listed once with the
    number of tensors carrying it; every tensor label is listed, and
    zero counts are allowed.  kernel_dim is the writer's claim;
    verification recomputes it and never trusts this number.

    Tensors may share factor objects, and read or assembled
    certificates do: one SparseMatrix per distinct factor.  Factors
    must never be mutated (see SparseMatrix).
    """

    __slots__ = ("algebra", "field", "kernel_dim", "families", "tensors")

    def __init__(self, algebra: dict, field: Field, kernel_dim: int,
                 families: Sequence[Tuple[str, int]],
                 tensors: Sequence[RankOneTensor]):
        families = [(str(label), int(count)) for label, count in families]
        tensors = list(tensors)
        listed, carried = dict(families), Counter(t.label for t in tensors)
        if len(listed) != len(families):
            raise ValueError("a family label is listed more than once")
        for label in sorted(listed.keys() | carried.keys()):
            if listed.get(label) != carried[label]:
                raise ValueError(f"family {label!r}: listed count "
                                 f"{listed.get(label)}, {carried[label]} "
                                 f"tensors carry the label")
        self.algebra = dict(algebra)
        self.field = field
        self.kernel_dim = int(kernel_dim)
        self.families = families
        self.tensors = tensors

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return (self.algebra == other.algebra and self.field == other.field
                and self.kernel_dim == other.kernel_dim
                and self.families == other.families
                and self.tensors == other.tensors)

    def __repr__(self):
        return (f"Certificate(algebra={self.algebra!r}, "
                f"kernel_dim={self.kernel_dim}, tensors={len(self.tensors)})")


class VerificationReport(NamedTuple):
    """Outcome of verifying one certificate, all quantities recomputed."""

    kernel_dim: int
    tensor_count: int
    span_rank: int
    first_noncommuting: Optional[int]
    verdict: str

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN_ZPD

    def summary(self) -> str:
        line = (f"{self.tensor_count} tensors, span rank {self.span_rank}, "
                f"kernel dim {self.kernel_dim}: {self.verdict}")
        if self.first_noncommuting is not None:
            line += f" (first non-commuting tensor at index {self.first_noncommuting})"
        return line

    def __repr__(self):
        return f"VerificationReport({self.summary()})"


def ladder_algebra_descriptor(ladder: Ladder) -> dict:
    return {"kind": "ladder-lie", "n": ladder.n,
            "steps": [list(s) for s in ladder.steps]}


def gl_algebra_descriptor(m: int) -> dict:
    return {"kind": "gl-lie", "m": m}


def algebra_space(descriptor: dict, field: Field) -> TensorSpace:
    """Reconstruct the tensor square named by an algebra descriptor,
    after checking n and d against MAX_ALGEBRA_SIZE (ValueError)."""
    kind = descriptor.get("kind")
    if kind == "ladder-lie":
        ladder = Ladder(descriptor["n"],
                        [tuple(s) for s in descriptor["steps"]])
        n, d = ladder.n, ladder.dim()
    elif kind == "gl-lie":
        n, d = descriptor["m"], descriptor["m"] ** 2
    else:
        raise ValueError(f"unknown algebra descriptor kind: {kind!r}")
    if max(n, d) > MAX_ALGEBRA_SIZE:
        raise ValueError(f"algebra too large to verify: n = {n}, d = {d} "
                         f"(the limit for each is {MAX_ALGEBRA_SIZE})")
    if kind == "gl-lie":
        return TensorSpace.gl(n, field)
    return TensorSpace(n, ladder.positions(), field)


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Rebuild mu from the descriptor and check the certificate against it.

    Checks, in order of the verdict they produce:
      - every tensor is in Ker mu (factors commute; the direct product
        and the mu-coordinate routes are both computed and must agree,
        which cross-checks the product table mu is built from);
      - the tensor rows span the whole kernel (rank = dim Ker mu);
      - the tensors are independent (count = rank), so the list is a
        basis, not a multiset.
    All three hold iff the verdict is proven-zpd.

    All of it runs on plain ints, in one pass over the tensors and a
    second over the rows that are not unit rows (below), with each
    factor object prepared once however many tensors share it.
    Its entries are scaled by integer_coords: over Q by the lcm of
    their denominators, over F_p not at all (the residues).  Scaling u
    by a > 0 and v by b > 0 scales u (x) v and [u, v] by ab != 0, so
    kernel membership, the span rank and the count are unchanged.  The
    scaled entries are kept as a list and grouped by row, and their
    basis indices give the coordinates, kept as (s, a) pairs.  Per
    tensor that is not an elementary pair (below):
      - the direct route adds each product of xy and subtracts each of
        yx in one dict, from the entries of one factor and the rows of
        the other, and never reads the product table;
      - for each product c = a*b of coordinates (s, a) of u and (t, b)
        of v, c times mu's +-1 column s*d + t is added into the mu
        route's image.
    Over F_p both zero tests are mod p.

    An elementary pair u (x) v, u = a e_ij and v = b e_kl with one
    coordinate each, (s, a) and (t, b), takes neither dict.  Here ab is a
    product of nonzero ints over Q, and of residues in [1, p) over F_p
    with p prime, so ab != 0 in the field.  Directly,
    [u, v] = ab (delta_jk e_il - delta_li e_kj), which is 0 iff
    (j != k and l != i) or i == j == k == l: with j = k and l = i it is
    ab (e_ii - e_jj), and otherwise at most one term is left.  Via mu,
    the image is ab times column s*d + t, which is 0 iff that column is
    not stored: products never yields two triples with the same (t, a)
    for b_s, so a stored column has distinct rows, each +-1, and is
    nonzero over Q and mod every p.  So the index test and
    "t not in columns[s]" decide membership, and must agree.

    The span row of u (x) v is the outer product of the coordinates,
    a*b at column s*d + t.  An elementary pair has a unit row: its one
    entry is ab != 0.  Its column is marked in the span's mask
    (elim.MaskedSpan, which proves the quotient) during the pass, and
    every other row is inserted after it, so the mask is whole first.
    The echelon reduces the unreduced products of residues mod p.

    A factor outside the algebra makes the certificate a claim about
    some other algebra, not a failed one about this algebra: it raises
    MembershipError naming the tensor index and the factor (u or v).
    """
    space = algebra_space(cert.algebra, cert.field)
    mu = build_mu(space, "lie")
    kdim = mu.kernel_dim
    d, columns = space.d, mu.columns
    span = MaskedSpan(space.field, d)
    marked = span.marked  # 1 at the column of each unit row
    p = span.echelon.p
    mod_p = p.__rmod__  # c -> c % p, for p > 0

    # id of a factor -> its scaled entries (i, j, x_ij), the same by row
    # i -> [(j, x_ij)], its coordinate pairs (s, a), and (i, j, s) for
    # a factor with one entry, else None.  The tensors keep every
    # factor alive, so no id is reused meanwhile.
    Pairs = List[Tuple[int, int]]
    Prepared = Tuple[List[Tuple[int, int, int]], Dict[int, Pairs], Pairs,
                     Optional[Tuple[int, int, int]]]
    prepared: Dict[int, Prepared] = {}

    def prepare(factor: SparseMatrix, idx: int, name: str) -> Prepared:
        # the factor's own field: a factor over another field then
        # meets coords_of's MembershipError, not a scalar error
        x = integer_coords(factor.entries, factor.field)
        try:
            coords = space.coords_of(factor, x)
        except MembershipError as exc:
            raise MembershipError(
                f"tensor {idx} factor {name}: {exc}") from None
        rows: Dict[int, Pairs] = {}
        for (i, j), c in x.items():
            rows.setdefault(i, []).append((j, c))
        entries = [(i, j, c) for (i, j), c in x.items()]
        pairs = list(coords.items())
        unit = None
        if len(pairs) == 1:
            (i, j, _), = entries
            unit = i, j, pairs[0][0]
        got = prepared[id(factor)] = entries, rows, pairs, unit
        return got

    dense: List[Tuple[Pairs, Pairs]] = []  # the other rows' coordinates
    first_bad: Optional[int] = None
    for idx, t in enumerate(cert.tensors):
        x, x_rows, ucoords, uunit = (prepared.get(id(t.u))
                                     or prepare(t.u, idx, "u"))
        y, y_rows, vcoords, vunit = (prepared.get(id(t.v))
                                     or prepare(t.v, idx, "v"))
        if uunit and vunit:
            i, j, s = uunit
            k, l, q = vunit
            direct = (j != k and l != i) or i == j == k == l
            via_mu = q not in columns[s]
            marked[s * d + q] = 1
        else:
            bracket: Dict[Tuple[int, int], int] = {}
            for i, k, a in x:
                for j, b in y_rows.get(k, ()):
                    bracket[i, j] = bracket.get((i, j), 0) + a * b
            for i, k, b in y:
                for j, a in x_rows.get(k, ()):
                    bracket[i, j] = bracket.get((i, j), 0) - b * a
            image: IntRow = {}
            for s, a in ucoords:
                by_t = columns[s]
                for k, b in vcoords:
                    c = a * b
                    for r, e in by_t.get(k, ()):
                        image[r] = image.get(r, 0) + c * e
            if p:
                direct = not bracket or not any(map(mod_p, bracket.values()))
                via_mu = not image or not any(map(mod_p, image.values()))
            else:
                direct = not any(bracket.values())
                via_mu = not any(image.values())
            dense.append((ucoords, vcoords))
        if direct != via_mu:
            raise AssertionError(
                "mu routes disagree: direct product and coordinate image "
                f"differ for {t!r}")
        if not direct and first_bad is None:
            first_bad = idx
    span.seal()
    for ucoords, vcoords in dense:
        span.insert(ucoords, vcoords)
    span_rank = span.rank
    count = len(cert.tensors)
    if first_bad is not None:
        verdict = FAILED_KERNEL_MEMBERSHIP
    elif span_rank < kdim:
        verdict = FAILED_SPAN
    elif count != span_rank:
        verdict = COUNT_MISMATCH
    else:
        verdict = PROVEN_ZPD
    return VerificationReport(kdim, count, span_rank, first_bad, verdict)


def ad_echelon(ucoords: IntRow,
               mu: MuMap) -> Tuple[IncrementalEchelon, Set[int]]:
    """ad_u in echelon form, from the integer coordinates of a positive
    multiple of u (same centralizer), and the set A(u) of its columns.
    The search builds it for one-term and three-or-more-term u; a
    two-term u has two_term_centralizer.

    Column k of ad_u is [u, b_k] = sum_s u_s [b_s, b_k], read off mu's
    columns for the bracket; the echelon's null space is the
    centralizer of u.  A(u) is every k with [b_s, b_k] != 0 for some s
    in u's support: the keys of the ad rows, kept even where the terms
    of [u, b_k] cancel (the engine drops those zero entries).  A column
    outside A(u) is free, with null vector the unit b_k.
    """
    # image coordinate a -> {basis index k: coefficient of b_a in [u, b_k]}
    ad: Dict[int, Dict[int, int]] = {}
    for s, us in ucoords.items():
        for k, col in mu.columns[s].items():
            for a, c in col:
                row = ad.setdefault(a, {})
                row[k] = row.get(k, 0) + us * c
    ech = IncrementalEchelon(mu.space.field)
    active: Set[int] = set()
    for row in ad.values():
        active.update(row)
        ech.insert(row)
    return ech, active


def two_term_dim(m: int, first: Tuple[int, int],
                 second: Tuple[int, int]) -> int:
    """dim C(u) for u = e_ab + e_ce on gl_m, first = (a, b) and
    second = (c, e) distinct (proof in search_spanning)."""
    (a, b), (c, e) = first, second
    if a == c or b == e:
        return (m - 1) ** 2 + 1
    wide = len({a, b, c, e}) == 4 or (a == b and c == e)
    return (m - 2) ** 2 + (4 if wide else 2)


@cache
def _vectors(text: str) -> List[List[Tuple[int, str, str]]]:
    """Vectors written as in search_spanning, e_eb - e_bb as "+eb -bb",
    comma-separated, as (sign, row letter, column letter) terms."""
    return [[(1 if term[0] == "+" else -1, term[1], term[2])
             for term in vec.split()] for vec in text.split(",")]


def two_term_centralizer(space: TensorSpace, indices: Sequence[int],
                         s: int, t: int) -> List[Tuple[int, IntRow]]:
    """The free columns f of ad_u in A(u), for u = b_s + b_t with s < t
    on gl over indices, each with its null vector v (1 at f, entries
    +-1), in column order: the free columns in A(u) and the null
    vectors ad_echelon and null_space give, with no ad_u built (proof
    in search_spanning).  In the core vectors the letters a, b, c, e
    stand for the indices of b_s = e_ab and b_t = e_ce."""
    index_of = space.index_of
    (a, b), (c, e) = space.positions[s], space.positions[t]
    if a == c:  # one row, b < e
        vecs = [{index_of[e, q]: 1, index_of[b, q]: -1} for q in indices
                if q not in (a, b, e)]
        core = ("+aa +ae, +aa +ee" if a == b else "+ab -bb, +aa +bb" if a == e
                else "+eb -bb, +aa +bb +be, "
                + ("+aa +bb +ee" if a < b else "+ee -be"))
    elif b == e:  # one column, a < c
        vecs = [{index_of[p, c]: 1, index_of[p, a]: -1} for p in indices
                if p not in (a, b, c)]
        core = ("+aa +ca, +aa +cc" if b == a else "+ab -aa, +aa +bb" if b == c
                else "+ac -aa, " + ("+aa +bb +ca, +aa +bb +cc" if b < c
                                    else "+cc -ca, +aa +bb +ca"))
    else:  # the components with no 0 and their last position in A(u)
        vecs = []
        core = ("+aa +bb, +ac +be, +ca +eb, +cc +ee" if len({a, b, c, e}) == 4
                else "+ac, +ca" if a == b and c == e
                else "+aa +bb, +ab +ba" if a == e and b == c
                else "+aa +bb +ee, +ab +be" if b == c
                else "+aa +bb +cc, +ab +ca" if a == e
                else "+cc +ee" if a == b else "+aa +bb")  # else c == e
    name = {"a": a, "b": b, "c": c, "e": e}
    vecs += [{index_of[name[i], name[j]]: x for x, i, j in vec}
             for vec in _vectors(core)]
    return sorted(((max(v), v) for v in vecs), key=itemgetter(0))


def candidate_pool(space: TensorSpace) -> Iterator[Dict[int, int]]:
    """Deterministic first factors for the greedy search, as integer
    coordinate maps with entries +-1.  The search builds only members
    with entries +1, and takes them as they are over Q and F_p.  Over
    F_2 each b_s - b_t repeats b_s + b_t.  Each b_s - b_t
    is the only member with a -1 entry.  It stays in the pool, and
    tests/oracles.reference_search tries its candidates; search_spanning
    skips it unbuilt (its Lemma 2) but still counts its candidates.  So
    it does with each b_s + b_t that its Lemma 3 proves spanned, most of
    them past gl_5 (376 of 630 on gl_6).

    In order: the basis elements; two-term sums and differences
    b_s + b_t / b_s - b_t in lexicographic (s, t, sign) order; directed
    three-cycle sums e_{i,j} + e_{j,k} + e_{k,i} for i < j < k (both
    orientations) whenever all three positions are present; and finally
    the diagonal unit of the position set when it is nonzero.

    The cycle candidates are what reach the antisymmetric part of the
    kernel: combinations such as e_{1,2} (x) e_{2,1} - e_{1,3} (x)
    e_{3,1} + e_{2,3} (x) e_{3,2} lie in Ker mu but cannot be written
    with factors supported on fewer than three positions (any commuting
    pair inside span{e_{i,j}, e_{j,i}} has proportional factors, which
    only yields the symmetric cross terms), so a pool of one- and
    two-term factors stalls strictly below the kernel dimension on gl_m
    for m >= 3.
    """
    d = space.d
    for s in range(d):
        yield {s: 1}
    for s in range(d):
        for t in range(s + 1, d):
            yield {s: 1, t: 1}
            yield {s: 1, t: -1}
    index_of = space.index_of
    indices = sorted({i for i, _ in space.positions}
                     | {j for _, j in space.positions})
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            for c in range(b + 1, len(indices)):
                i, j, k = indices[a], indices[b], indices[c]
                for cycle in (((i, j), (j, k), (k, i)),
                              ((i, k), (k, j), (j, i))):
                    if all(pos in index_of for pos in cycle):
                        yield {index_of[pos]: 1 for pos in cycle}
    diagonal = {k: 1 for k, (i, j) in enumerate(space.positions) if i == j}
    if diagonal:
        yield diagonal


def search_spanning(mu: MuMap, descriptor: dict,
                    budget: Optional[int] = None) -> Certificate:
    """Greedy deterministic search for a rank-one spanning set of Ker mu
    on mu.space, for mu built for the bracket.

    Iterates first factors u over candidate_pool; for each u every
    member v of its centralizer basis gives a candidate tensor u (x) v,
    kept iff it strictly increases the rank of the accumulated rows.
    The engine gets the outer products of the integer coordinates of u
    and of the integer null vectors of ad_u; the field-valued u and v
    are built only for a kept candidate, with one object per basis
    element shared by every tensor that has it as a factor.
    Returns a certificate, every tensor labeled "gl", as soon as the
    rank reaches dim Ker mu; raises SearchExhaustedError, naming the
    rank reached, when the pool runs out first.  The pool is finite and
    each u gives at most d candidates, so the search always ends;
    budget, when given, cuts it (the same error) after that many
    candidate tensors tried.  The rank is always the number of tensors
    kept, and the target test and every error read it.

    Lemma 0: every candidate of the basis stage (the pool's first d
    members, u = b_s) is kept.  Its rows lie in the columns s*d ..
    s*d + d - 1, apart from every other s, and within them they are
    the rows of a null basis, one per free column, so independent.  So
    the stage inserts nothing.  A unit row b_s (x) b_k marks its column
    in the span's mask (elim.MaskedSpan, which proves the quotient);
    the stage's other rows wait until it ends, when the mask is whole,
    and go in then.  Every later row goes in with the marked columns
    deleted.

    Past the basis stage (the pool's first d members, u = b_s), most
    candidates are skipped unbuilt, because the rows already span them:
      - Lemma 1: after the basis stage the span holds b_s (x) C(b_s) for
        every s.  Each b_s (x) w over C(b_s)'s null basis was tried, and
        was kept or already in the span; the span only grows.
      - So for a later u and a column f outside A(u) (see ad_echelon),
        f is free in ad_u with null vector b_f, and b_f commutes with
        every b_s in u's support: u (x) b_f = sum_s u_s b_s (x) b_f is in
        the span.  Only the free columns in A(u) are built and tried.
        A(u) must keep the columns whose terms cancel: there [u, b_f] = 0
        while [b_s, b_f] != 0, and u (x) b_f may well be new.
      - Lemma 2: for s < t and u+- = b_s +- b_t, u- (x) C(u-) lies in
        the span of b_s (x) C(b_s), b_t (x) C(b_t) and u+ (x) C(u+).
        When u- comes up the rows span all three: the first two by
        Lemma 1, the third because u+ is the pool member just before u-
        and each of its candidates was tried or skipped as spanned.  So
        each u- is skipped whole, with no ad_u, null space or row built.
      - Lemma 3: u+ (x) C(u+) is in the span when it comes up, and u+ is
        skipped whole, if b_s, b_t are neither a transpose pair nor both
        diagonal units and s ~ t in G_a for every a in E_s & E_t.  Here
        E_r is the set of a with b_a = +-[b_r, b_k] for some k: the
        columns of mu for b_r with one entry, each an off-diagonal b_a.
        G_a is a graph on the basis indices, kept as a union-find forest
        (Tarjan, JACM 22, 1975).  Once b_r + b_r' is processed, r and r'
        are joined in G_a for each a in E_r & E_r' such that
        b_a = +-[b_r, b_k] for some k with [b_r', b_k] = 0 and
        b_a = +-[b_r', b_k'] for some k' with [b_r, b_k'] = 0.  A pair is
        joined only after its own candidates, and a skipped pair joins
        nothing new.
    Proof of Lemma 2.  If x in C(u-) is y + z with [b_s, y] = 0 and
    [b_t, z] = 0, then [u+, z - y] = [b_s, z] - [b_t, y] = [b_s, x] -
    [b_t, x] = 0, and u- (x) x = 2 b_s (x) y - 2 b_t (x) z + u+ (x) (z - y).
    So it is enough that C(u-) lies in C(b_s) + C(b_t).  Over F_2,
    u- = u+ and there is nothing to prove; let 2 != 0.  Write b_s = e_ab,
    b_t = e_ce, and grade gl_m by weights: e_ij has weight w_i - w_j,
    for w_1..w_m the unit vectors of Z^m, so the weights are 0 and the
    roots w_i - w_j (i != j).  ad_{b_s} and ad_{b_t} add alpha = w_a -
    w_b and beta = w_c - w_e to a weight.
      - Two diagonal units (a = b, c = e) are the only pairs with
        alpha = beta.  x commutes with e_aa - e_cc iff x_ij = 0 whenever
        D_i != D_j, for D = 1 at a, -1 at c and 0 elsewhere.  As 2 != 0,
        1, -1 and 0 are distinct, so C(u-) is spanned by e_aa, e_cc and
        the e_ij with i, j not in {a, c}, and each of these commutes
        with both b_s and b_t.  This is the one use of 2 != 0.
      - Otherwise gamma = alpha - beta != 0.  Split x into its weight
        components x_l.  The weight l + alpha part of [u-, x] = 0 reads
        [b_s, x_l] = [b_t, x_(l + gamma)].  If l + gamma is not a weight,
        the right side is 0 and x_l is in C(b_s).  If l - gamma is not a
        weight, the same equation at l - gamma gives [b_t, x_l] = 0.
        Both are weights only if 2 gamma is a difference of two weights.
        The absolute values of the coordinates of such a difference sum
        to at most 4, and those of 2 gamma, nonzero, even and summing to
        0, to at least 4.  So 2 gamma = 2 (w_i - w_j), the two weights
        are gamma and -gamma, and l = 0: x_0 is diagonal.  The diagonal
        matrices in C(e_ab) are those with h_a = h_b (all of them if
        a = b), and two such sets add up to all diagonal matrices unless
        they are the same hyperplane.  That happens only for a transpose
        pair, e_ce = e_ba, and there gamma = 2 alpha, so 2 gamma is not
        2 (w_i - w_j).  So every x_l splits, and so does x.
    Proof of Lemma 3.  Each step holds over Q and every F_p, F_2 too.
      1. C(u+) lies in C(b_s) + C(b_t).  The proof of Lemma 2 shows it
         with [b_s, x_l] = -[b_t, x_(l + gamma)] as its equation, and it
         uses 2 != 0 only for two diagonal units.
      2. So x in C(u+) is y + z with [b_s, y] = 0 = [b_t, z].  Then
         u+ (x) x = b_s (x) y + b_t (x) z + b_s (x) z + b_t (x) y, the
         first two terms in the span by Lemma 1, and c = [b_s, z] =
         -[b_t, y] lies in Im ad b_s and Im ad b_t.  Im ad e_ij is
         spanned by the off-diagonal elements of row i and column j,
         which are the b_a for a in E_s, and by e_ii - e_jj if i != j.
         Two such images share a diagonal part only for a transpose
         pair, so c = sum c_a b_a over a in E_s & E_t.  For each such a,
         take p_r = +-b_k with [b_r, p_r] = b_a, for r = s and r = t.
         Then z - sum c_a p_s is in C(b_s) and y + sum c_a p_t is in
         C(b_t).  By Lemma 1 it is enough that b_s (x) p_s - b_t (x) p_t
         is in the span for each a, whichever p_s and p_t are taken.
      3. For an edge r - r' of G_a take p = +-b_k and p' = +-b_k' as in
         its rule, so [b_r, p] = b_a = [b_r', p'] and [b_r', p] = 0 =
         [b_r, p'].  Then p - p' is in C(b_r + b_r'), and
         b_r (x) p - b_r' (x) p' = (b_r + b_r') (x) (p - p')
                                   + b_r (x) p' - b_r' (x) p.
         The first term is in (b_r + b_r') (x) C(b_r + b_r'), spanned
         once that earlier pair is processed, and the other two are in
         the span by Lemma 1.  Sum these along a path from s to t in
         G_a.  At each inner vertex r two preimages p, p' of b_a may
         meet, and b_r (x) (p - p') is in the span by Lemma 1, as
         [b_r, p - p'] = 0.  What is left is b_s (x) p_s - b_t (x) p_t.
    Two-term sums in closed form.  For u = b_s + b_t, s < t, b_s = e_ab
    and b_t = e_ce, two_term_centralizer gives the free columns of ad_u
    in A(u) with their null vectors, and two_term_dim gives dim C(u),
    with no ad_u built: ad_echelon is left to the basis stage, the
    cycles and the diagonal unit.  Write J = {a, b, c, e} and m for the
    matrix size.  [u, x] = 0 reads, at each position (p, q),
        [p = a] x_bq + [p = c] x_eq = [q = b] x_pa + [q = e] x_pc.   (*)
    Lemma N: column k of ad_u is free iff some x in C(u) ends at k (is
    0 past k and not at k), and the null vector of a free column f is
    the one x in C(u) that is 1 at f and 0 at the other free columns.
    So if F is a set of dim C(u) columns, each f in F with an x in C(u)
    that ends at f, is 1 there and is 0 on the rest of F, then F is the
    free set and those x are the null vectors.  When the positions fall
    into groups and each equation of (*) involves one group, all of it
    holds group by group.  A column outside A(u) is free with null
    vector b_k (ad_echelon); the candidates are the free columns in A(u).
      - a != c and b != e: u e_b = e_a and u e_e = e_c, so each side of
        (*) has one term at most.  With sigma = {b: a, e: c}, (*) reads
        x_iq = x_(sigma i)(sigma q) for i, q in {b, e}; x_iq = 0 for i
        in {b, e} and q not, and for q in {a, c} and i not; and 0 = 0
        elsewhere.  The groups are the components of the edges
        (i, q) - (sigma i, sigma q) on the positions of {b, e}^2 and
        {a, c}^2, and every other position alone.  A component with no
        0 has its indicator as its one kernel vector, ending at its last
        position; a component with a 0 is all pivots.  A position alone
        is free iff i is not in {b, e} and q not in {a, c}, which gives
        (m - 2)^2, so dim C(u) is (m - 2)^2 plus the components with no
        0: {aa, bb}, {ac, be}, {ca, eb}, {cc, ee} for |J| = 4; {aa}, {ac},
        {ca}, {cc} for two diagonal units; and two otherwise ({aa, bb},
        {ab, ba} for a transpose pair; {aa, bb, ee}, {ab, be} for b = c;
        {aa, bb, cc}, {ab, ca} for a = e; {aa}, {cc, ee} for a = b;
        {aa, bb}, {cc} for c = e).  The candidates are their last
        positions, each with the indicator, but for {aa} and {cc}, which
        lie outside A(u).
      - a = c, so b < e: (*) reads x_pa = 0 for p != a, x_bq + x_eq = 0
        for q not in {b, e}, and x_aa = x_bb + x_eb = x_be + x_ee.
        A(u) is rows b and e and column a.  For q not in J the group
        {bq, eq} gives eq with e_eq - e_bq.  The core {aa, bb, be, eb,
        ee}, 5 positions under 2 independent equations, has 3 kernel
        dimensions (2 if a = b or a = e: 3 positions, 1 equation), and
        Lemma N checks its null vectors: for a = b, e_aa +
        e_ae and e_aa + e_ee; for a = e, e_ab - e_bb and e_aa + e_bb;
        else e_eb - e_bb, e_aa + e_bb + e_be, and e_aa + e_bb + e_ee if
        a < b or e_ee - e_be if a > b.  The rest of A(u) is 0, and the
        (m - 2)(m - 1) positions outside it are free: dim C(u) =
        (m - 1)^2 + 1.
      - b = e, so a < c: (*) reads x_bq = 0 for q != b, x_pa + x_pc = 0
        for p not in {a, c}, and x_bb = x_aa + x_ac = x_ca + x_cc.  In
        the same way, for p not in J, pc with e_pc - e_pa; in the core,
        for b = a, e_aa + e_ca and e_aa + e_cc; for b = c, e_ab - e_aa
        and e_aa + e_bb; else e_ac - e_aa, then e_aa + e_bb + e_ca and
        e_aa + e_bb + e_cc if b < c, or e_cc - e_ca and e_aa + e_bb +
        e_ca if b > c; and dim C(u) = (m - 1)^2 + 1.
    All of it holds over Q and every F_p, F_2 too: no step divides, and
    the entries are 0 and +-1.

    Skipped candidates would have been rejected, so the kept tensors,
    and the certificate, are those of trying every candidate in turn.
    Each still counts as tried, at its place in pool order (free column
    f of ad_u is candidate f - #{pivots < f} of u, and u has
    d - rank(ad_u) = dim C(u) of them; for a two-term u the pivots are
    A(u) less its free columns), so a budget cuts where it would
    anyway.  A cut among skipped candidates raises at the next candidate
    built, or at the end of the pool, at the same rank.  A u+, built or
    skipped by Lemma 3, counts two_term_dim, so no ad_u is built to
    count.  A skipped u- counts as many as u+, or 2 fewer when b_s and
    b_t are both diagonal and 2 != 0:
      - over F_2, u- = u+;
      - if neither a transpose pair nor two diagonal units, conjugation
        by a diagonal matrix of +-1s fixes one of b_s, b_t and negates
        the other (negate one index of b_t that is not in b_s, or the row
        index of b_s when b_t is diagonal).  This automorphism of gl_m
        maps u+ to +-u-, so their centralizers have one dimension;
      - for a transpose pair, with I = {a, b}, ad_u keeps gl_I, each
        block {e_ij : i in I} and {e_ji : i in I} with j not in I, and
        the gl of the other indices, where it is 0.  u on I is
        invertible, so ad_u is injective on those blocks, and not
        scalar, so its centralizer in gl_I is span{1_I, u}.  So
        dim C(u) = 2 + (m - 2)^2 for either sign;
      - a diagonal D has dim C(D) = #{(i, j) : D_i = D_j}, which is
        4 + (m - 2)^2 for e_aa + e_cc and 2 + (m - 2)^2 for e_aa - e_cc.
    """
    space = mu.space
    target = mu.kernel_dim
    field = space.field
    d = space.d
    span = MaskedSpan(field, d)
    marked = span.marked
    deferred: List[Tuple[int, IntRow]] = []  # basis stage: u, v but units

    def exhausted() -> SearchExhaustedError:
        return SearchExhaustedError(
            f"search budget exhausted on gl_{descriptor['m']} "
            f"at rank {len(chosen)} of {target}")

    chosen: List[RankOneTensor] = []  # as many as the rank of their rows
    positions, columns = space.positions, mu.columns
    indices = sorted({i for i, _ in positions})
    diagonal = {k for k, (i, j) in enumerate(positions) if i == j}
    # E_r as {a: every k with [b_r, b_k] = +-b_a}, from mu's columns
    # with one entry; and the forest of G_a, as a parent map, for each a
    images: List[Dict[int, List[int]]] = [{} for _ in range(d)]
    for r, by_t in enumerate(columns):
        for k, col in by_t.items():
            if len(col) == 1:
                images[r].setdefault(col[0][0], []).append(k)
    forests: List[Dict[int, int]] = [{} for _ in range(d)]

    def root(forest: Dict[int, int], r: int) -> int:
        while (q := forest.get(r, r)) != r:
            forest[r] = r = forest.get(q, q)  # path halving
        return r

    basis: Dict[int, SparseMatrix] = {}  # one object per basis factor

    def factor(coords: IntRow, den: int) -> SparseMatrix:
        if len(coords) == 1:  # coords = {k: den}, the factor is b_k
            k, = coords
            if k not in basis:
                basis[k] = space.basis_matrix(k)
            return basis[k]
        return space.from_coords(field_row(coords, den, field))

    tried = 0  # read only under a budget
    count = 0  # the number of candidates of the last u+ or basis u
    for index, ucoords in enumerate(candidate_pool(space)):
        if index == d:  # the basis stage is over: the mask is whole
            span.seal()
            for s, w in deferred:
                span.insert(((s, 1),), w.items())
        if -1 in ucoords.values():  # u- = b_s - b_t, by Lemma 2
            s, t = ucoords
            both = s in diagonal and t in diagonal
            tried += count - 2 if both and span.echelon.p != 2 else count
            continue
        pair = len(ucoords) == 2  # u+ = b_s + b_t
        if pair:
            s, t = ucoords
            count = two_term_dim(len(indices), positions[s], positions[t])
            common = [a for a in images[s] if a in images[t]]
            if (positions[s] != positions[t][::-1]
                    and not (s in diagonal and t in diagonal)
                    and all(root(forests[a], s) == root(forests[a], t)
                            for a in common)):  # by Lemma 3
                tried += count
                continue
            free = two_term_centralizer(space, indices, s, t)
            if budget is not None:  # A(u) less its free columns
                pivots = sorted((columns[s].keys() | columns[t].keys())
                                .difference(f for f, _ in free))
            nulls = [(f, (w, 1)) for f, w in free]
        else:
            ad, active = ad_echelon(ucoords, mu)
            pivots = sorted(ad.pivot_rows)
            cols = range(d) if index < d else sorted(active)
            fcols = [f for f in cols if f not in ad.pivot_rows]
            nulls = zip(fcols, ad.null_space(fcols))
            count = d - ad.rank
        u = None  # built at u's first kept tensor, shared by the rest
        for f, (w, m) in nulls:
            if budget is not None and \
                    tried + f - bisect_left(pivots, f) >= budget:
                raise exhausted()
            if index >= d:
                # w = m v with m > 0, so the row spans what u (x) v does
                if not span.insert(ucoords.items(), w.items()):
                    continue
            elif len(w) == 1:  # u = b_index, kept by Lemma 0
                marked[index * d + f] = 1
            else:
                deferred.append((index, w))
            if u is None:
                u = factor(ucoords, 1)
            chosen.append(RankOneTensor(u, factor(w, m), "gl"))
            if len(chosen) == target:
                return Certificate(descriptor, space.field, target,
                                   [("gl", len(chosen))], chosen)
        tried += count
        if pair:  # u+ (x) C(u+) is spanned now: Lemma 3's edges
            for a in common:
                if (any(k not in columns[t] for k in images[s][a])
                        and any(k not in columns[s] for k in images[t][a])):
                    forests[a][root(forests[a], s)] = root(forests[a], t)
    raise exhausted()


def abelian_certificate(space: TensorSpace, descriptor: dict) -> Certificate:
    """The trivial certificate for an algebra with zero product: all d^2
    elementary tensors b_s (x) b_t.  Requires mu to vanish identically."""
    mu = build_mu(space, "lie")
    if any(mu.columns):
        raise ValueError("mu is not identically zero on this algebra")
    d = space.d
    # one object per basis element, shared by every tensor carrying it
    basis = [space.basis_matrix(k) for k in range(d)]
    tensors = [RankOneTensor(x, y, "abelian") for x in basis for y in basis]
    return Certificate(descriptor, space.field, d * d,
                       [("abelian", d * d)], tensors)


@cache
def gl_certificate(m: int, field: Field = QQ,
                   budget: Optional[int] = None) -> Certificate:
    """Searched certificate for gl_m under the bracket; raises
    SearchExhaustedError when the budget runs out first.  It is not
    verified here: the search only claims a spanning set.  The CLI runs
    verify_certificate on every certificate, a gl block's included,
    before it reports or writes it.

    gl_m is checked against MAX_ALGEBRA_SIZE (ValueError) before any
    search.  Results are cached per argument list, so a repeat call
    returns the same certificate object and identical gl blocks are
    searched once; a raised error is not cached.
    """
    descriptor = gl_algebra_descriptor(m)
    space = algebra_space(descriptor, field)
    return search_spanning(build_mu(space, "lie"), descriptor, budget)

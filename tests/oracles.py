"""Independent dense reference implementations.

Everything here is deliberately naive: dense lists of Fractions,
textbook triple-loop products, and plain Gaussian elimination written
from scratch.  Tests use these as oracles to pin down expected ranks,
kernel dimensions, products, reduced echelon forms, null spaces,
centralizers, family counts and the one-step block bracket table
without trusting the package's sparse integer machinery.  product
and bracket multiply package matrices with entry_product, a sparse
product on entry maps, and mu_columns_by_products multiplies basis
matrices with them, not with the product table; flat_columns lays the
package's mu out in the same column order.  closed_by_products reads
closure off the product table (the bracket's) or off
mu_columns_by_products (the associative product's), the reference for
ladders.is_upper_triangular, whose docstring proves that it decides
closure.  The exceptions reuse
package pieces that share no code with what they check: the
field-scalar verification route (tensor_coords,
apply_to_coords, in_kernel, verify_by_field_coords) checks
certificates on the field's own scalars, where the package verifier
works on integer multiples of them; reduced and centralizer read the
engine's integer null space back as field scalars; and reference_search
is the package's greedy search with nothing skipped, the reference for
the candidates search_spanning skips; lemma3_skips decides which
b_s + b_t it may skip whole by paths in graphs, from dense brackets,
the reference for the closed-form rule of its Lemma 3.
reference_certificate_bytes
writes a certificate file as one plain json.dumps, the reference for
the splicing writer.  RankOneTensor names the fields of the (u, v,
label) triples that certificate.tensors yields, for tests that build
tensors by hand.

Over F_p the package's scalars are plain int residues with no field
arithmetic of their own.  The field arithmetic here is Fp's, a scalar
class of this module: lift turns a package scalar into one Fp can
compute with, and lower turns the result back.  product, bracket,
scaled, dense_rref, dense_kernel_of_rows, reduced and the field-scalar
route lift before they compute and lower what they return, so their
results compare exactly with the package's residues.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ladderzpd.certificates import (COUNT_MISMATCH, FAILED_KERNEL_MEMBERSHIP,
                                    FAILED_SPAN, PROVEN_ZPD, Certificate,
                                    VerificationReport, ad_echelon,
                                    algebra_space, candidate_pool)
from ladderzpd.elim import IncrementalEchelon, field_row, integer_coords
from ladderzpd.fields import QQ, FieldMismatchError, PrimeField
from ladderzpd.matrices import Entries, SparseMatrix, elementary
from ladderzpd.onestep import block_positions
from ladderzpd.tensors import ClosureError, MembershipError, build_mu

Dense = List[List[Fraction]]


class RankOneTensor(NamedTuple):
    """u (x) v with a family label, as a certificate's tensors give it:
    indexing and iterating certificate.tensors yield plain (u, v, label)
    tuples, which compare equal to these."""

    u: SparseMatrix
    v: SparseMatrix
    label: str


class Fp:
    """An element of the prime field Z/pZ, stored reduced to [0, p).

    Arithmetic accepts another Fp with the same modulus, or a plain int
    (coerced mod p).  Mixing moduli, or mixing with rationals, raises
    FieldMismatchError rather than silently coercing.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):
        raise AttributeError("Fp values are immutable")

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"prime fields F_{self.p} and F_{other.p} do not mix")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        raise FieldMismatchError(
            f"cannot combine F_{self.p} element with {type(other).__name__}")

    def __add__(self, other):
        return Fp(self.value + self._lift(other).value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return Fp(self.value - self._lift(other).value, self.p)

    def __rsub__(self, other):
        return Fp(self._lift(other).value - self.value, self.p)

    def __mul__(self, other):
        return Fp(self.value * self._lift(other).value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"prime fields F_{self.p} and F_{other.p} do not mix")
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((Fp, self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


def lift(x, field):
    """A package scalar as one with its field's arithmetic: an F_p
    residue becomes an Fp, a Fraction stays as it is."""
    return Fp(x, field.p) if isinstance(field, PrimeField) else x


def lower(x):
    """An oracle scalar as a package scalar: an Fp gives its residue."""
    return x.value if type(x) is Fp else x


def dense_zero(n: int) -> Dense:
    return [[Fraction(0)] * n for _ in range(n)]


def dense_elementary(n: int, i: int, j: int) -> Dense:
    out = dense_zero(n)
    out[i - 1][j - 1] = Fraction(1)
    return out


def dense_from_sparse(mat) -> Dense:
    """Dense copy of a sparse rational matrix."""
    out = dense_zero(mat.n)
    for (i, j), c in mat.entries.items():
        out[i - 1][j - 1] = c
    return out


def dense_add(a: Dense, b: Dense) -> Dense:
    n = len(a)
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def dense_scale(a: Dense, c: Fraction) -> Dense:
    return [[c * x for x in row] for row in a]


def dense_mult(a: Dense, b: Dense) -> Dense:
    n = len(a)
    out = dense_zero(n)
    for i in range(n):
        for j in range(n):
            s = Fraction(0)
            for k in range(n):
                s += a[i][k] * b[k][j]
            out[i][j] = s
    return out


def dense_bracket(a: Dense, b: Dense) -> Dense:
    ab = dense_mult(a, b)
    ba = dense_mult(b, a)
    n = len(a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def dense_is_zero(a: Dense) -> bool:
    return all(not x for row in a for x in row)


Rows = Dict[int, List[Tuple[int, object]]]


def rows_of(x: Entries) -> Rows:
    """The entries of x by row: i -> [(j, x_ij), ...]."""
    rows: Rows = {}
    for (i, j), c in x.items():
        rows.setdefault(i, []).append((j, c))
    return rows


def entry_product(x: Entries, rows_of_y: Rows) -> Entries:
    """The product xy of two matrices, x given as its entry map and y as
    rows_of(y).  The scalars may be field elements or plain ints; ints
    are multiplied exactly, with no reduction mod p.  No zero entry is
    kept."""
    acc: Entries = {}
    for (i, k), a in x.items():
        for j, b in rows_of_y.get(k, ()):
            pos = (i, j)
            s = acc.get(pos)
            v = a * b if s is None else s + a * b
            if v:
                acc[pos] = v
            elif s is not None:
                del acc[pos]
    return acc


def lifted(x: SparseMatrix) -> Entries:
    """The entries of a package matrix as oracle scalars (see lift)."""
    return {pos: lift(c, x.field) for pos, c in x.entries.items()}


def scaled(x: SparseMatrix, c) -> SparseMatrix:
    """c x for a package matrix x and package scalar c, multiplied on
    lifted scalars."""
    c = lift(c, x.field)
    return SparseMatrix(x.n, x.field,
                        {pos: lower(c * v) for pos, v in lifted(x).items()})


def product(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """xy of two package matrices, from entry_product on lifted
    entries."""
    entries = entry_product(lifted(x), rows_of(lifted(y)))
    return SparseMatrix(x.n, x.field,
                        {pos: lower(c) for pos, c in entries.items()})


def bracket(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """[x, y] = xy - yx of two package matrices, from entry_product on
    lifted entries."""
    ex, ey = lifted(x), lifted(y)
    entries = entry_product(ex, rows_of(ey))
    for pos, c in entry_product(ey, rows_of(ex)).items():
        entries[pos] = entries.get(pos, 0) - c
    return SparseMatrix(x.n, x.field,  # drops the zeros
                        {pos: lower(c) for pos, c in entries.items()})


def naive_rank(rows: Sequence[Sequence]) -> int:
    """Plain Gaussian elimination over exact scalars; no pivoting tricks."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / prow[col]
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        rank += 1
    return rank


def naive_mu_kernel_dim(n: int, positions: Sequence[Tuple[int, int]],
                        kind: str = "lie") -> int:
    """dim Ker mu for the span of elementary matrices at the given
    positions, built entirely from dense matrices: the coordinate row
    of every basis product, eliminated from scratch.

    Raises if some product escapes the span (the space is not closed).
    """
    pos = sorted(positions)
    index = {p: k for k, p in enumerate(pos)}
    d = len(pos)
    basis = [dense_elementary(n, i, j) for i, j in pos]
    rows = []
    for bs in basis:
        for bt in basis:
            if kind == "lie":
                prod = dense_bracket(bs, bt)
            else:
                prod = dense_mult(bs, bt)
            row = [Fraction(0)] * d
            for i in range(n):
                for j in range(n):
                    if prod[i][j]:
                        k = index.get((i + 1, j + 1))
                        if k is None:
                            raise ValueError(
                                f"product escapes the span at ({i+1},{j+1})")
                        row[k] = prod[i][j]
            rows.append(row)
    return d * d - naive_rank(rows)


def closed_by_products(space, kind: str) -> bool:
    """Closure under the bracket ("lie") read off the product table:
    True iff products(s) runs to its end for every basis element b_s;
    under the associative product, True iff mu_columns_by_products
    finds every product in the span.  On a ladder's space it is
    ladders.is_upper_triangular, for both kinds."""
    if kind not in ("associative", "lie"):
        raise ValueError(f"unknown product kind: {kind!r}")
    try:
        if kind == "lie":
            for s in range(space.d):
                list(space.products(s))
        else:
            mu_columns_by_products(space, kind)
    except (ClosureError, MembershipError):
        return False
    return True


def mu_columns_by_products(space, kind: str) -> list:
    """The columns of mu built without the product table: every pair of
    basis matrices multiplied (product, or bracket for kind "lie") and
    read back with coords_of, column s*d + t for b_s times b_t.  A
    product that leaves the span raises MembershipError."""
    multiply = bracket if kind == "lie" else product
    basis = [elementary(space.n, i, j, space.field)
             for i, j in space.positions]
    return [space.coords_of(multiply(x, y)) for x in basis for y in basis]


def flat_columns(mu) -> List[Dict[int, int]]:
    """mu's columns in the order of the tensor-square basis, column
    s*d + t at index s*d + t, as maps a -> c: the stored columns[s][t]
    pairs, and {} for each zero column mu does not store."""
    d = mu.space.d
    return [dict(mu.columns[s].get(t, ())) for s in range(d)
            for t in range(d)]


def dense_rref(rows: Sequence[Sequence], field) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form and 0-based pivot columns, by dense
    Gauss-Jordan on the field's own scalars (rows of package scalars
    lifted, the result lowered back).

    First-nonzero pivoting with immediate normalization; input rows are
    not modified.  Ragged rows are rejected.
    """
    work = [[lift(x, field) for x in r] for r in rows]
    if work:
        ncols = len(work[0])
        if any(len(r) != ncols for r in work):
            raise ValueError("ragged rows")
    else:
        ncols = 0
    zero, one = lift(field.zero, field), lift(field.one, field)
    pivots: List[int] = []
    pr = 0
    for col in range(ncols):
        src = next((r for r in range(pr, len(work)) if work[r][col]), None)
        if src is None:
            continue
        work[pr], work[src] = work[src], work[pr]
        inv = one / work[pr][col]
        if inv != one:
            work[pr] = [inv * x for x in work[pr]]
        for r in range(len(work)):
            if r != pr and work[r][col]:
                c = work[r][col]
                row, prow = work[r], work[pr]
                work[r] = [a - c * b for a, b in zip(row, prow)]
        pivots.append(col)
        pr += 1
        if pr == len(work):
            break
    # echelon: pivot rows first, then explicit zero rows
    for r in range(pr, len(work)):
        work[r] = [zero] * ncols
    return [[lower(x) for x in r] for r in work], pivots


def dense_kernel_of_rows(map_rows: Sequence[Sequence], domain_dim: int,
                         field) -> List[list]:
    """Null space of the map whose r-th row is the image of the r-th
    domain basis vector, read off dense_rref of the transpose: one
    vector per free column in ascending order, with a 1 there."""
    if len(map_rows) != domain_dim:
        raise ValueError("one row per domain basis vector expected")
    if domain_dim == 0:
        return []
    codim = len(map_rows[0])
    transposed = [[map_rows[r][c] for r in range(domain_dim)]
                  for c in range(codim)]
    reduced, pivots = dense_rref(transposed, field)
    basis = []
    for free in range(domain_dim):
        if free in pivots:
            continue
        vec = [field.zero] * domain_dim
        vec[free] = field.one
        for prow, pcol in enumerate(pivots):
            if reduced[prow][free]:
                vec[pcol] = lower(-lift(reduced[prow][free], field))
        basis.append(vec)
    return basis


def reduced(ech, ncols: int) -> Tuple[dict, List[dict]]:
    """The engine's reduced row echelon form and null space over columns
    range(ncols), in field scalars, both read off
    IncrementalEchelon.null_space.  The reduced row of pivot column piv
    holds 1 at piv and, at each free column f, minus the entry at piv of
    the null vector of f.  Returns the rows keyed by pivot column, in
    pivot order, and the null vectors in free-column order."""
    field = ech.field
    free = [f for f in range(ncols) if f not in ech.pivot_rows]
    kernel = [field_row(w, m, field)
              for w, m in ech.null_space(range(ncols))]
    rows = {piv: {piv: field.one} for piv in sorted(ech.pivot_rows)}
    for f, vec in zip(free, kernel):
        for piv, c in vec.items():
            if piv != f:
                rows[piv][f] = lower(-lift(c, field))
    return rows, kernel


def naive_rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of integer rows, by dense elimination on residues."""
    work = [[x % p for x in r] for r in rows]
    if not work:
        return 0
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], prow)]
        rank += 1
    return rank


def dense_centralizer(u, positions: Sequence[Tuple[int, int]],
                      n: int) -> Dense:
    """Centralizer of a rational matrix inside the span of elementary
    matrices at the given positions: coordinate vectors (basis in sorted
    position order) of the canonical null space basis of v -> [u, v],
    built from dense brackets."""
    pos = sorted(positions)
    index = {p: k for k, p in enumerate(pos)}
    dense_u = dense_from_sparse(u)
    rows = []
    for i, j in pos:
        br = dense_bracket(dense_u, dense_elementary(n, i, j))
        row = [Fraction(0)] * len(pos)
        for a in range(n):
            for b in range(n):
                if br[a][b]:
                    row[index[(a + 1, b + 1)]] = br[a][b]
        rows.append(row)
    return dense_kernel_of_rows(rows, len(pos), QQ)


def centralizer(u, space) -> list:
    """Basis of the centralizer of u in the space as package matrices:
    the null space of ad_echelon on u's coordinates, divided back into
    field scalars (1 at each free coordinate, in free-variable order)."""
    field = space.field
    ucoords = integer_coords(space.coords_of(u), field)
    ad, _ = ad_echelon(ucoords, build_mu(space))
    return [space.from_coords(field_row(w, m, field))
            for w, m in ad.null_space(range(space.d))]


def reference_search(mu, descriptor: dict, budget=None, observe=None):
    """The greedy search with nothing skipped: every u of candidate_pool,
    every null vector of ad_u, each tried against the span in turn, the
    budget counted one candidate at a time.  search_spanning must give
    the same result, or raise SearchExhaustedError where this returns
    None.  observe(index, ucoords, f, w, kept), when given,
    sees every candidate: pool index, u, free column, null vector, and
    whether the row was kept (False: it reduced to zero)."""
    space = mu.space
    field, d = space.field, space.d
    ech = IncrementalEchelon(field)
    chosen = []
    tried = 0
    for index, pool_coords in enumerate(candidate_pool(space)):
        ucoords = integer_coords(pool_coords, field)
        ad, _ = ad_echelon(ucoords, mu)
        free = [f for f in range(d) if f not in ad.pivot_rows]
        for f, (w, m) in zip(free, ad.null_space(range(d))):
            if budget is not None and tried >= budget:
                return None
            tried += 1
            kept = ech.insert({s * d + k: a * b for s, a in ucoords.items()
                               for k, b in w.items()})
            if observe is not None:
                observe(index, ucoords, f, w, kept)
            if kept:
                chosen.append(RankOneTensor(
                    space.from_coords(field_row(ucoords, 1, field)),
                    space.from_coords(field_row(w, m, field)), "gl"))
                if ech.rank == mu.kernel_dim:
                    return Certificate(descriptor, field, mu.kernel_dim,
                                       [("gl", len(chosen))], chosen)
    return None


def lemma3_skips(space) -> set:
    """Pool indices of the u = b_s + b_t that search_spanning's Lemma 3
    skips, decided by paths instead of its closed-form rule: the
    reference that rule is checked against.  u is skipped if b_s, b_t
    are neither a transpose pair nor both diagonal and s, t are joined
    in G_a for every a in E_s & E_t (E_r: the a with b_a = +-[b_r, b_k]
    for some k).  Once b_r + b_r' comes up, G_a gets the edge r - r'
    for each a in E_r & E_r' with b_a = +-[b_r, b_k] for a k with
    [b_r', b_k] = 0 and b_a = +-[b_r', b_k'] for a k' with
    [b_r, b_k'] = 0.  The brackets of basis elements are taken densely,
    and G_a is kept as adjacency sets, searched from s for t."""
    d = space.d
    basis = [space.basis_matrix(k) for k in range(d)]
    brackets = [[bracket(x, y).entries for y in basis] for x in basis]
    # images[r][a]: the k with [b_r, b_k] = +-b_a
    images = [{} for _ in range(d)]
    for r in range(d):
        for k in range(d):
            if len(brackets[r][k]) == 1:
                a = space.index_of[next(iter(brackets[r][k]))]
                images[r].setdefault(a, []).append(k)
    edges = {}

    def linked(a, s, t) -> bool:
        seen, todo = {s}, [s]
        while todo:
            for q in edges.get(a, {}).get(todo.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return t in seen

    skipped = set()
    for index, coords in enumerate(candidate_pool(space)):
        if len(coords) != 2 or -1 in coords.values():
            continue
        s, t = coords
        (i, j), (i2, j2) = space.positions[s], space.positions[t]
        common = set(images[s]) & set(images[t])
        if (i2, j2) != (j, i) and not (i == j and i2 == j2) and all(
                linked(a, s, t) for a in common):
            skipped.add(index)
        for a in common:
            if (any(not brackets[t][k] for k in images[s][a])
                    and any(not brackets[s][k] for k in images[t][a])):
                graph = edges.setdefault(a, {})
                graph.setdefault(s, set()).add(t)
                graph.setdefault(t, set()).add(s)
    return skipped


def expected_counts(p) -> List[Tuple[str, int]]:
    """Closed-form tensor count of every one-step family for the block
    profile p = (n1, n2, n3), in assembly order; the counts sum to
    d^2 - d + 1 for d = (n1+n2)(n2+n3)."""
    n1, n2, n3 = p
    return [
        ("pair-h-a", 2 * n1 * n2**2 * n3),
        ("pair-l-a", 2 * n1**2 * n2 * n3),
        ("pair-r-a", 2 * n1 * n2 * n3**2),
        ("pair-a-a", n1**2 * n3**2),
        ("pair-l-l", n1**2 * n2**2),
        ("pair-r-r", n2**2 * n3**2),
        ("gl-h", n2**4 - n2**2 + 1),
        ("T", 2 * n2**3 * n3 - 2 * n2**2 * n3),
        ("S", 2 * n2**2 * n3 - 2 * n2 * n3),
        ("R", n2 * n3),
        ("T-mirror", 2 * n1 * n2**3 - 2 * n1 * n2**2),
        ("S-mirror", 2 * n1 * n2**2 - 2 * n1 * n2),
        ("R-mirror", n1 * n2),
        ("U", 2 * n1 * n2**2 * n3 - 2 * n1 * n2 * n3),
        ("V", 2 * n1 * n2 * n3 - 2 * n1 * n3),
        ("W", n1 * n3),
    ]


# bracket containment of the one-step blocks: ordered block pair ->
# block the result must lie in (pairs absent from the map must bracket
# to zero)
BRACKET_TARGET = {
    ("h", "h"): "h",
    ("h", "l"): "l", ("l", "h"): "l",
    ("h", "r"): "r", ("r", "h"): "r",
    ("l", "r"): "a", ("r", "l"): "a",
}


def multiplication_table_check(p, space) -> bool:
    """Brute-force check of the block containment table against every
    elementary pair, bracketed as dense matrices, plus the block
    partition itself: the four blocks of block_positions(p) must be
    disjoint and cover the position set of the space exactly."""
    blocks = block_positions(p)
    union: set = set()
    total = 0
    for posns in blocks.values():
        union.update(posns)
        total += len(posns)
    if total != len(union) or union != set(space.positions):
        return False
    n = p.n
    for name1, pos1 in blocks.items():
        for name2, pos2 in blocks.items():
            target = BRACKET_TARGET.get((name1, name2))
            allowed = set(blocks[target]) if target is not None else set()
            for i, j in pos1:
                e1 = dense_elementary(n, i, j)
                for k, l in pos2:
                    br = dense_bracket(e1, dense_elementary(n, k, l))
                    if any(br[a][b] and (a + 1, b + 1) not in allowed
                           for a in range(n) for b in range(n)):
                        return False
    return True


# The field-scalar verification route: tensor coordinates and the image
# under mu computed on the field's own scalars (a Fraction, or an F_p
# residue lifted to an Fp), with no integer scaling, and the direct
# product by bracket.  Results are package scalars again.

def tensor_coords(t, space) -> dict:
    """Sparse coordinates of u (x) v in the tensor-square basis: the
    outer product of the factor coordinate vectors, entry (s, t) at
    column s*d + t.  A factor outside the algebra raises
    MembershipError naming it (u or v)."""
    factors = []
    for name, factor in zip("uv", t):
        try:
            factors.append(space.coords_of(factor))
        except MembershipError as exc:
            raise MembershipError(f"factor {name}: {exc}") from None
    ucoords, vcoords = factors
    d, field = space.d, space.field
    return {s * d + tt: lower(lift(us, field) * lift(vt, field))
            for s, us in ucoords.items() for tt, vt in vcoords.items()}


def apply_to_coords(mu, tcoords: dict) -> dict:
    """Image of a tensor (given in sparse tensor coordinates) in the
    algebra basis, in the field's scalars."""
    field, d = mu.space.field, mu.space.d
    acc: dict = {}
    for col, c in tcoords.items():
        c = lift(c, field)
        for k, v in mu.columns[col // d].get(col % d, ()):
            s = acc.get(k)
            t = c * v if s is None else s + c * v
            if t:
                acc[k] = t
            elif s is not None:
                del acc[k]
    return {k: lower(c) for k, c in acc.items()}


def in_kernel(t, mu, tcoords: dict) -> bool:
    """True iff the Lie-bracket map mu kills t, given tcoords =
    tensor_coords(t, mu.space): computed directly as the bracket of the
    factors and through the coordinate matrix of mu; the two routes
    must agree."""
    u, v, _ = t
    direct = not bracket(u, v).entries
    via_mu = not apply_to_coords(mu, tcoords)
    if direct != via_mu:
        raise AssertionError(
            "mu routes disagree: direct product and coordinate image "
            f"differ for {RankOneTensor(*t)!r}")
    return direct


def verify_by_field_coords(cert) -> VerificationReport:
    """verify_certificate on field scalars: the same checks and verdict
    order, with each tensor's coordinates taken unscaled."""
    space = algebra_space(cert.algebra, cert.field)
    mu = build_mu(space)
    kdim = mu.kernel_dim
    first_bad = None
    ech = IncrementalEchelon(space.field)
    for idx, t in enumerate(cert.tensors):
        try:
            tcoords = tensor_coords(t, space)
        except MembershipError as exc:
            raise MembershipError(f"tensor {idx} {exc}") from None
        if not in_kernel(t, mu, tcoords) and first_bad is None:
            first_bad = idx
        ech.insert(integer_coords(tcoords, space.field))
    span_rank = ech.rank
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


def reference_certificate_bytes(cert) -> bytes:
    """The certificate's canonical file, written plainly: one JSON
    object with every slot of every tensor formatted on its own and the
    head built here, dumped with sorted keys, no whitespace and one
    newline.  Nothing is taken from ladderzpd.certio, so comparing the
    two checks certificate_bytes' splice, per-factor memo and head."""
    field = cert.field

    def entries(mat):
        return [[i, j, field.format(c)]
                for (i, j), c in sorted(mat.entries.items())]

    algebra = cert.algebra
    if algebra["kind"] == "gl-lie":
        algebra = {"kind": "gl-lie", "m": algebra["m"]}
    else:
        algebra = {"kind": "ladder-lie", "n": algebra["n"],
                   "steps": [list(s) for s in algebra["steps"]]}
    obj = {
        "format_version": 1,
        "algebra": algebra,
        "field": ({"kind": "prime-field", "p": field.p}
                  if isinstance(field, PrimeField) else {"kind": "rational"}),
        "kernel_dim": cert.kernel_dim,
        "families": [{"label": label, "count": count}
                     for label, count in cert.families],
        "tensors": [{"family": label, "u": entries(u), "v": entries(v)}
                    for u, v, label in cert.tensors],
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode("utf-8")

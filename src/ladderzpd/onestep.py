"""Certificate construction for one-step ladder matrix Lie algebras.

A non-abelian one-step ladder (i1 >= j1) splits into four blocks sized
by (n1, n2, n3) = (j1 - 1, i1 - j1 + 1, n - i1):

    h: rows and cols (n1, n1+n2]      the middle square, a full gl_{n2}
    l: rows (0, n1], cols (n1, n1+n2]
    r: rows (n1, n1+n2], cols (n1+n2, n]
    a: rows (0, n1], cols (n1+n2, n]

The bracket obeys [h,h] in h, [h,l] in l, [h,r] in r, [l,r] in a, and
kills every other block pairing.  Ker mu then has a dimension given by
a closed-form polynomial in (n1, n2, n3), and is spanned by rank-one
tensors drawn from: the nine zero-bracket block pairings, a searched
certificate for the gl block, and the explicit two- and three-block
families (T/S/R between h and r, their mirrors between h and l, and
U/V/W between l and r).  Those three groups share one template and are
generated from a three-row table.  Assembly concatenates them all and
the result is checked by the generic certificate verifier, never
trusted.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, List, Optional, Tuple

from .certificates import (Certificate, abelian_certificate, algebra_space,
                           gl_certificate, ladder_algebra_descriptor)
from .fields import Field, QQ
from .ladders import BlockProfile, Ladder, block_profile
from .matrices import Position, SparseMatrix, elementary
from .tensors import Tensors, Triple

FAMILY_ORDER = (
    "pair-h-a", "pair-l-a", "pair-r-a", "pair-a-a", "pair-l-l", "pair-r-r",
    "gl-h",
    "T", "S", "R",
    "T-mirror", "S-mirror", "R-mirror",
    "U", "V", "W",
)


def kernel_dim_polynomial(p: BlockProfile) -> int:
    """Dimension of Ker mu for the profile, as the closed-form
    polynomial in (n1, n2, n3): d^2 - d + 1 for d = (n1+n2)(n2+n3),
    the algebra dimension."""
    n1, n2, n3 = p
    d = (n1 + n2) * (n2 + n3)
    return d * d - d + 1


def _ranges(p: BlockProfile) -> Tuple[range, range, range]:
    """The top, middle and right index ranges of the profile."""
    return (range(1, p.n1 + 1), range(p.n1 + 1, p.n1 + p.n2 + 1),
            range(p.n1 + p.n2 + 1, p.n + 1))


def block_positions(p: BlockProfile) -> Dict[str, List[Position]]:
    """The four disjoint position blocks, row-major within each block."""
    top, mid, right = _ranges(p)
    return {
        "h": [(i, j) for i in mid for j in mid],
        "l": [(i, j) for i in top for j in mid],
        "r": [(i, j) for i in mid for j in right],
        "a": [(i, j) for i in top for j in right],
    }


def pairing_families(p: BlockProfile, field: Field = QQ) -> Tensors:
    """All elementary tensors for the nine zero-bracket block pairings.

    Labels cover both directions: pair-h-a holds h (x) a followed by
    a (x) h, and likewise for pair-l-a and pair-r-a; the same-block
    pairings a-a, l-l, r-r already contain every ordered pair once.
    """
    # the blocks are disjoint: one e_{i,j} per position
    blocks = {name: [elementary(p.n, i, j, field) for i, j in posns]
              for name, posns in block_positions(p).items()}

    out = Tensors()
    for label, b1, b2 in (("pair-h-a", "h", "a"), ("pair-l-a", "l", "a"),
                          ("pair-r-a", "r", "a")):
        out._product(label, blocks[b1], blocks[b2])
        out._product(label, blocks[b2], blocks[b1])
    for label, b in (("pair-a-a", "a"), ("pair-l-l", "l"), ("pair-r-r", "r")):
        out._product(label, blocks[b], blocks[b])
    return out


# One row per explicit family group, from the paper's construction:
# the labels of its T-, S- and R-type families; the blocks giving the
# row range of the first factor and the column range of the second;
# the sign s of the S-type pair; whether the T-type pair leads with its
# second factor; and the hinge k of the R-type sum e(r,k) + e(k,c).
_EXPLICIT_FAMILIES = (
    (("T", "S", "R"), "mid", "right", -1, False, "row"),
    (("T-mirror", "S-mirror", "R-mirror"), "top", "mid", 1, True, "col"),
    (("U", "V", "W"), "top", "right", -1, False, "corner"),
)


def explicit_families(p: BlockProfile, field: Field = QQ) -> Tensors:
    """The T/S/R, mirror and U/V/W families, in that order.

    For each group, with r in its row range, c in its column range and
    a, b in the middle range:
      T-type: e(r,a) (x) e(b,c) for a != b, and its swap;
      S-type: (e(r,a) + s e(r,a+1)) (x) (e(a,c) - s e(a+1,c)) for a
        below the top of the middle range, and its swap;
      R-type: (e(r,k) + e(k,c)) (x) itself, k = r, c or n1 + n2.
    Every pair commutes: the brackets telescope or vanish blockwise.
    """
    ranges = dict(zip(("top", "mid", "right"), _ranges(p)))
    mid = ranges["mid"]

    # each factor is built once
    @cache
    def mat(*terms: Tuple[int, int, int]) -> SparseMatrix:
        return SparseMatrix(p.n, field, {(i, j): field.from_int(c)
                                         for i, j, c in terms})

    out: List[Triple] = []
    for labels, row_block, col_block, sign, swap, hinge in _EXPLICIT_FAMILIES:
        t_label, s_label, r_label = labels
        rows, cols = ranges[row_block], ranges[col_block]
        for r in rows:
            for a in mid:
                for b in mid:
                    if a == b:
                        continue
                    for c in cols:
                        x, y = mat((r, a, 1)), mat((b, c, 1))
                        if swap:
                            x, y = y, x
                        out.append((x, y, t_label))
                        out.append((y, x, t_label))
        for r in rows:
            for a in mid[:-1]:
                for c in cols:
                    x = mat((r, a, 1), (r, a + 1, sign))
                    y = mat((a, c, 1), (a + 1, c, -sign))
                    out.append((x, y, s_label))
                    out.append((y, x, s_label))
        for r in rows:
            for c in cols:
                k = r if hinge == "row" else c if hinge == "col" \
                    else p.n1 + p.n2
                x = mat((r, k, 1), (k, c, 1))
                out.append((x, x, r_label))
    return Tensors(out)


def gl_block_tensors(p: BlockProfile, field: Field = QQ,
                     budget: Optional[int] = None) -> Tensors:
    """Rank-one spanning tensors for the gl block: a searched
    certificate for gl_{n2}, each factor translated into the middle
    index range; raises SearchExhaustedError when the budget runs out."""
    found = gl_certificate(p.n2, field, budget).tensors
    out = Tensors()
    out.factors = [f.shifted(p.n1, p.n) for f in found.factors]
    out.us, out.vs = found.us[:], found.vs[:]
    out._label("gl-h", len(out.us))
    return out


def assemble_one_step_certificate(n: int, i1: int, j1: int,
                                  field: Field = QQ,
                                  budget: Optional[int] = None) -> Certificate:
    """Build the full rank-one spanning certificate for the one-step
    ladder {(i1, j1)} on n.

    Abelian case (i1 < j1): the all-elementary-tensors certificate.
    Otherwise: block pairings, the searched gl block, and the explicit
    families, concatenated in a fixed order.  The claimed kernel
    dimension is the closed-form polynomial; verification recomputes it.
    The ladder is checked against MAX_ALGEBRA_SIZE (ValueError) before
    anything is built or searched.
    """
    ladder = Ladder(n, [(i1, j1)])
    descriptor = ladder_algebra_descriptor(ladder)
    space = algebra_space(descriptor, field)
    profile = block_profile(ladder)
    if profile is None:
        return abelian_certificate(space, descriptor)

    tensors = pairing_families(profile, field)
    tensors += gl_block_tensors(profile, field, budget)
    tensors += explicit_families(profile, field)

    kdim = kernel_dim_polynomial(profile)
    if len(tensors) != kdim:
        raise AssertionError(
            f"assembled {len(tensors)} tensors but the kernel dimension "
            f"polynomial gives {kdim} at {tuple(profile)}")
    carried = dict(tensors.runs)  # one run per family label
    counts = [(label, carried.get(label, 0)) for label in FAMILY_ORDER]
    return Certificate(descriptor, field, kdim, counts, tensors)

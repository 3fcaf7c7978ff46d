import random
from fractions import Fraction

import numpy as np
import pytest

from gapcurve import linalg
from gapcurve.fields import GF, QQ


@pytest.fixture(params=["rational", "Fp:10007", "Fp:101"])
def field(request):
    if request.param == "rational":
        return QQ
    return GF(int(request.param.split(":")[1]))


@pytest.fixture
def rng():
    return random.Random(20260808)


def independent_rank(rows, field, ncols):
    """Rank oracle: a second elimination pass over a permuted coordinate order.

    Deliberately naive and independent of gapcurve.linalg: forward elimination
    only, columns visited in a fixed shuffled order.
    """
    perm = list(range(ncols))
    random.Random(99).shuffle(perm)
    mat = [[row[c] for c in perm] for row in rows]
    rank = 0
    rows_left = list(range(len(mat)))
    for col in range(ncols):
        pivot = None
        for r in rows_left:
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows_left.remove(pivot)
        prow = mat[pivot]
        inv = field.one / prow[col]
        for r in rows_left:
            f = mat[r][col]
            if f:
                factor = f * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def field_rref(rows, field):
    """RREF oracle: a plain Gauss–Jordan over field elements, one inverse per pivot.

    Independent of gapcurve.linalg's fraction-free kernel; returns (nonzero
    rows, pivot columns).
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.one / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        prow = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
    return mat[: len(pivots)], pivots


def stacked_pivots(blocks, counts, field) -> list:
    """Pivot columns of the stack of the first counts[i] rows of each block.

    The per-cell flag route: the blocks come from ``linalg.image_block`` and
    the stack is eliminated as it is, with nothing shared between cells.
    """
    stack = np.concatenate([b[:c] for b, c in zip(blocks, counts)])
    return linalg._eliminate(stack, field.characteristic, False)


def per_cell_flag_dims(center, curve, points, cells) -> dict:
    """dim(L ∩ F^α) for each cell by its own elimination: the number of pivots
    past the k columns of J·Mᵀ in the stack of the first α_i rows of each block."""
    m_rows = center.m_basis()
    order = max((max(alpha) for alpha in cells), default=0)
    blocks = [linalg.image_block(curve.osc_rows(p, order), m_rows, center.field) for p in points]
    k = len(m_rows)
    return {
        alpha: sum(c >= k for c in stacked_pivots(blocks, alpha, center.field)) for alpha in cells
    }


def proportional(row, want) -> bool:
    """Is the integer row one nonzero rational multiple of the row of rationals?"""
    j = next(j for j, x in enumerate(want) if x)
    c = Fraction(row[j]) / want[j]
    return c != 0 and [Fraction(x) for x in row] == [c * x for x in want]


def per_cell_jet_rank(space, alpha) -> int:
    """Jet rank at one cell: the rank of the window columns of alpha on their own."""
    n = space.ambient.truncation
    keep = [i * n + k for i, a in enumerate(alpha) for k in range(a)]
    if not keep or not space.pivots:
        return 0
    return linalg.rank(space._rows[:, keep], space.field)

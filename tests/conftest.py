import random

import pytest

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

"""Dense exact linear algebra over the base fields.

Matrices are lists of rows, rows are lists of field elements.  All routines
are exact.  Over a prime field the work is routed through an int64 numpy
kernel (integers mod p stay integers, so this is exact too); over the
rationals a plain Fraction elimination is used.
"""

from __future__ import annotations

import numpy as np

from .fields import GFElement, PrimeField

Matrix = list  # list of rows


# ---------------------------------------------------------------------------
# numpy kernel for F_p (int64 entries in [0, p))

def gfp_rref(a: np.ndarray, p: int):
    """In-place reduced row echelon form mod p.  Returns (rref, pivot cols)."""
    a = np.ascontiguousarray(a % p, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def gfp_rank(a: np.ndarray, p: int) -> int:
    return len(gfp_rref(a, p)[1])


def gfp_matrix(rows, ncols: int) -> np.ndarray:
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i] = [x.value for x in row]
    return out


def batch_inverse(vals: np.ndarray, p: int) -> np.ndarray:
    """Modular inverses of a vector of nonzero residues (Montgomery's trick)."""
    n = vals.shape[0]
    if n == 0:
        return vals.copy()
    prefix = np.empty(n, dtype=np.int64)
    acc = 1
    for i in range(n):
        prefix[i] = acc
        acc = acc * int(vals[i]) % p
    inv_acc = pow(int(acc), p - 2, p)
    out = np.empty(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[i] = int(prefix[i]) * inv_acc % p
        inv_acc = inv_acc * int(vals[i]) % p
    return out


# ---------------------------------------------------------------------------
# generic field-element elimination

def _rref_generic(rows, field):
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
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


def rref(rows, field):
    """Reduced row echelon form; returns (rows without zero rows, pivot cols)."""
    if not rows:
        return [], []
    if isinstance(field, PrimeField):
        a, piv = gfp_rref(gfp_matrix(rows, len(rows[0])), field.p)
        out = [[GFElement(field, int(x)) for x in row] for row in a]
        return out, piv
    return _rref_generic(rows, field)


def rank(rows, field) -> int:
    if not rows:
        return 0
    if isinstance(field, PrimeField):
        return gfp_rank(gfp_matrix(rows, len(rows[0])), field.p)
    return len(_rref_generic(rows, field)[1])


def nullspace(rows, field, ncols: int):
    """Basis of the right kernel {x : A x = 0} as a list of vectors."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def combine(coeffs, rows, field, width: int):
    """sum_i coeffs[i] * rows[i] as a fresh row of the given width."""
    out = [field.zero] * width
    for c, row in zip(coeffs, rows):
        if c:
            out = [acc + c * x for acc, x in zip(out, row)]
    return out


def solve_right(rows, rhs, field):
    """One solution x of A x = b, or None if inconsistent.

    ``rows`` is A (m x n), ``rhs`` has length m.
    """
    if not rows:
        return None if any(rhs) else []
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if n in pivots:
        return None
    x = [field.zero] * n
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n]
    return x


def intersection_dim(a_rows, b_rows, field) -> int:
    """dim(rowspace(A) ∩ rowspace(B)) via rank arithmetic."""
    ra = rank(a_rows, field)
    rb = rank(b_rows, field)
    if ra == 0 or rb == 0:
        return 0
    rab = rank(list(a_rows) + list(b_rows), field)
    return ra + rb - rab

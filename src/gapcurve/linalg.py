"""Dense exact linear algebra over the base fields.

Matrices are lists of rows, rows are lists of field elements.  All routines
are exact.  Over a prime field the work is routed through an int64 numpy
kernel (integers mod p stay integers, so this is exact too); over the
rationals a plain Fraction elimination is used.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import GFElement, PrimeField

Matrix = list  # list of rows


# ---------------------------------------------------------------------------
# numpy kernel for F_p (int64 entries in [0, p))

def gfp_rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p of a copy of a.  Returns (rref, pivot cols).

    Row r is zero left of its pivot column c, so only columns >= c change.  A
    product of two residues stays below 2^62 for p < 2^31, so each update is
    exact in int64 before it is reduced.
    """
    a = np.ascontiguousarray(a % p, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rows = a[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def gfp_pivots(a: np.ndarray, p: int) -> list:
    """Pivot columns of the RREF of a mod p, by forward elimination only.

    Only the rows below the pivot row r with a nonzero entry in the pivot
    column c change: row i becomes a[r, c]·row_i − a[i, c]·row_r, which needs
    no inverse.  Both products of residues stay below 2^62 for p < 2^31, so
    their difference is exact in int64 before it is reduced mod p.
    """
    a = np.asarray(a, dtype=np.int64) % p  # a fresh array: the input is untouched
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]  # row i now holds the old row r, zero in column c
        if nz.size > 1:
            rows = r + nz[1:]
            a[rows, c:] = (a[rows, c:] * a[r, c] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def gfp_matrix(rows, ncols: int) -> np.ndarray:
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i] = [x.value for x in row]
    return out


def gfp_elements(a: np.ndarray, field) -> list:
    """The rows of a residue array as lists of field elements (the inverse of gfp_matrix)."""
    return [[GFElement(field, x) for x in row] for row in a.tolist()]


def gfp_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """A·Bᵀ mod p.  Every product of two residues (below 2^62 for p < 2^31) is
    reduced before summing, so a sum of n terms stays below n·p and is exact."""
    return (a[:, None, :] * b[None, :, :] % p).sum(axis=2) % p


def batch_inverse(vals: np.ndarray, p: int) -> np.ndarray:
    """Modular inverses of a vector of nonzero residues: vals^(p-2) mod p.

    Vectorised square-and-multiply.  Requires p < 2^31, so that every product
    of two residues stays below 2^62 and int64 arithmetic is exact.
    """
    if p >= 1 << 31:
        raise ValidationError(f"batch_inverse needs p < 2^31, got {p}")
    base = np.asarray(vals, dtype=np.int64) % p
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
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
        return gfp_elements(a, field), piv
    return _rref_generic(rows, field)


def rank(rows, field) -> int:
    """Rank of a list of rows, or over F_p also of an int64 residue array."""
    if len(rows) == 0:
        return 0
    if isinstance(field, PrimeField):
        if not isinstance(rows, np.ndarray):
            rows = gfp_matrix(rows, len(rows[0]))
        return len(gfp_pivots(rows, field.p))
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


def image_block(rows, m_rows, field):
    """The block [J·Mᵀ | J] for the rows J of a subspace F and k forms M.

    Elimination picks pivots column by column, so in any stack of rows of
    such blocks (see ``stacked_pivots``) the pivots left of column k count
    rank(F·Mᵀ), all pivots count rank F, and the pivots at index >= k count
    dim(F ∩ ker Mᵀ).

    Over F_p the block is one int64 residue array, with J·Mᵀ from
    ``gfp_dot``.  Over the rationals it is a list of Fraction rows.
    """
    if isinstance(field, PrimeField):
        j = gfp_matrix(rows, len(m_rows[0]))
        return np.hstack([gfp_dot(j, gfp_matrix(m_rows, len(m_rows[0])), field.p), j])
    return [image + list(row) for image, row in zip(_dot_rows(rows, m_rows, field), rows)]


def _dot_rows(a_rows, b_rows, field):
    """A·Bᵀ as lists: entry (i, j) is the dot product of a_rows[i] and b_rows[j]."""
    return [
        [sum((x * y for x, y in zip(a, b) if x and y), field.zero) for b in b_rows]
        for a in a_rows
    ]


def stacked_pivots(blocks, counts, field) -> list:
    """Pivot columns of the stack of the first counts[i] rows of each block.

    The blocks come from ``image_block``; over F_p the stack stays int64 and
    only the pivot columns are computed, with no field elements built.
    """
    if isinstance(field, PrimeField):
        return gfp_pivots(np.concatenate([b[:c] for b, c in zip(blocks, counts)]), field.p)
    return _rref_generic([row for b, c in zip(blocks, counts) for row in b[:c]], field)[1]


def intersection_dim(a_rows, b_rows, field) -> int:
    """dim(rowspace(A) ∩ rowspace(B)) via rank arithmetic."""
    ra = rank(a_rows, field)
    rb = rank(b_rows, field)
    if ra == 0 or rb == 0:
        return 0
    rab = rank(list(a_rows) + list(b_rows), field)
    return ra + rb - rab

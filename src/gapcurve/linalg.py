"""Dense exact linear algebra over the base fields.

Matrices are lists of rows, rows are lists of field elements.  All routines
are exact and run on arrays from ``matrix``: over a prime field int64
residues mod p, over the rationals rows scaled into integers (Python ints in
an object array).  Two numpy kernels serve both fields.  Every elimination
runs in the fraction-free ``_eliminate``; reduced forms divide by each pivot
once, at the end.  Every product of two arrays runs in ``matmul``, which
states and enforces its int64 bound.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import GapcurveError
from .fields import GFElement


# ---------------------------------------------------------------------------
# one fraction-free elimination kernel for both fields

def _eliminate(a: np.ndarray, p: int, full: bool) -> list:
    """Echelonize the rows of a in place; returns the pivot columns.

    At each pivot (r, c) every other row i with a nonzero entry in column c
    becomes a[r, c]·row_i − a[i, c]·row_r, which needs no inverse.  Without
    ``full`` only the rows below r change, and only in columns >= c, as they
    are zero left of c.  With ``full`` the rows above r are cleared too; the
    factor a[r, c] scales their entries left of c, so the update spans all
    columns.  The first len(pivots) rows then hold the echelon form, each
    row with its own pivot scale.

    p > 0: a holds int64 residues mod p, reduced after each update.  Both
    products of residues stay below 2^62 for p < 2^31, so their difference
    is exact in int64.
    p = 0: a is an object array of Python ints (rows of Q scaled into Z), and
    each updated row is divided by its content, so the entries stay small.
    """
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]  # row i now holds the old row r, zero in column c
        if full:
            rows = a[:, c].nonzero()[0]
            rows, lo = rows[rows != r], 0
        else:
            rows, lo = (r + nz[1:] if nz.size > 1 else ()), c
        if len(rows):
            new = a[rows, lo:] * a[r, c] - np.outer(a[rows, c], a[r, lo:])
            a[rows, lo:] = new % p if p else _primitive(new)
        pivots.append(c)
        r += 1
    return pivots


def _primitive(a: np.ndarray) -> np.ndarray:
    """Each row of an integer array divided by its content; zero rows stay."""
    content = np.gcd.reduce(a, axis=1)
    content[content == 0] = 1
    return a // content[:, None]


def insert_row(rows: dict, v: np.ndarray, p: int) -> None:
    """Add the row v to an echelon state {leading column: row} unless it lies
    in its span; the keys are the pivot columns of the span's RREF.

    While v leads at a column c where a row u does, v becomes u[c]·v − v[c]·u,
    the step of ``_eliminate``.  p > 0: int64 residues; both products stay
    below 2^62 for p < 2^31, so their difference is exact.  p = 0: Python
    ints, each step divided by its content.
    """
    nz = v.nonzero()[0]
    while nz.size:
        c = int(nz[0])
        u = rows.get(c)
        if u is None:
            rows[c] = v
            return
        v = v * u[c] - u * v[c]
        if p:
            v %= p
        else:
            v //= np.gcd.reduce(v) or 1
        nz = v.nonzero()[0]


def echelon(a: np.ndarray, p: int):
    """(rows, pivot cols): the echelon form of a copy of an array from ``matrix``.

    p > 0: the RREF mod p, with one inverse per pivot row after the
    fraction-free elimination.  p = 0: primitive integer rows, each a multiple
    of its RREF row; ``elements`` divides each row by its pivot where field
    elements are needed.
    """
    a = a % p if p else a.copy()
    pivots = _eliminate(a, p, True)
    a = a[: len(pivots)]
    if not p:
        return _primitive(a), pivots
    inverses = [pow(int(a[i, c]), -1, p) for i, c in enumerate(pivots)]
    return a * np.array(inverses, dtype=np.int64)[:, None] % p, pivots


def matrix(rows, field, ncols: int) -> np.ndarray:
    """Rows of field elements as one array for the elimination kernel.

    Over F_p: int64 residues.  Over Q: an object array of Python ints, each
    row scaled into Z by the lcm of its denominators, so the row space is
    unchanged.
    """
    if field.characteristic:
        out = np.zeros((len(rows), ncols), dtype=np.int64)
        for i, row in enumerate(rows):
            out[i] = [x.value for x in row]
        return out
    out = np.zeros((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        # not lcm(*generator): each call would leave a resized tuple in the
        # interpreter's tuple free lists, about 1 MB over a Q workload
        scale = functools.reduce(math.lcm, (x.denominator for x in row), 1)
        out[i] = [x.numerator * (scale // x.denominator) for x in row]
    return out


def elements(a: np.ndarray, field) -> list:
    """The rows of an array from ``matrix`` or ``echelon`` as lists of field
    elements: over F_p the residues; over Q each row divided by its first
    nonzero entry, which turns an echelon row into its RREF row."""
    if field.characteristic:
        return [[GFElement(field, x) for x in row] for row in a.tolist()]
    out = []
    for row in a.tolist():
        lead = next((x for x in row if x), 1)
        out.append([Fraction(x, lead) for x in row])
    return out


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p of int64 residues (p > 0), or a @ b of Python ints in object
    arrays (p = 0); stacks of matrices broadcast as in ``@``.

    With n the inner dimension, a sum of n products of residues is exact in
    int64 while n·(p − 1)² < 2^63.  Past that, a splits into 16-bit halves and
    each half product is reduced mod p before the two are added: for p < 2^31
    its terms stay below 2^47, so n < 2^16 keeps each sum exact, and a larger
    n is refused.
    """
    if not p:
        return a @ b
    n = a.shape[-1]
    if n * (p - 1) ** 2 < 1 << 63:
        return a @ b % p
    if n >= 1 << 16:
        raise GapcurveError(f"no exact int64 product of inner dimension {n} mod {p}")
    return (((a >> 16) @ b % p << 16) + (a & 0xFFFF) @ b % p) % p


def reduce(a: np.ndarray, rows: np.ndarray, pivots: list, p: int) -> np.ndarray:
    """The rows of a reduced against echelon rows from ``echelon``: a fresh
    array, zero at every pivot column, each row congruent to its row of a
    modulo the span of ``rows`` (over Q, up to a nonzero scale).

    p > 0: the rows are RREF rows with pivot entries 1, so this is one product,
    a − a[:, pivots]·rows.  p = 0: pivot by pivot, each row v of a that is
    nonzero at the pivot c of a row u becomes u[c]·v − v[c]·u divided by its
    content, the step of ``_eliminate``, so primitive rows stay primitive.
    The rows are reduced, so a step leaves the other pivot columns as they are.
    """
    if p:
        return (a - matmul(a[:, pivots], rows, p)) % p
    a = a.copy()
    for u, c in zip(rows, pivots):
        sel = a[:, c].nonzero()[0]
        if len(sel):
            a[sel] = _primitive(a[sel] * u[c] - np.outer(a[sel, c], u))
    return a


def rref(rows, field):
    """Reduced row echelon form; returns (rows without zero rows, pivot cols)."""
    if not rows:
        return [], []
    a, piv = echelon(matrix(rows, field, len(rows[0])), field.characteristic)
    return elements(a, field), piv


def pivots(rows, field) -> list:
    """RREF pivot columns of rows of field elements, or of an array from
    ``matrix`` (left unchanged), by forward elimination only."""
    if len(rows) == 0:
        return []
    a = rows.copy() if isinstance(rows, np.ndarray) else matrix(rows, field, len(rows[0]))
    return _eliminate(a, field.characteristic, False)


def rank(rows, field) -> int:
    """Rank of rows of field elements, or of an array from ``matrix``."""
    return len(pivots(rows, field))


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

    Pivots are chosen column by column, so for any rows of such blocks (put
    into one echelon state by ``insert_row``) the pivots left of column k count
    rank(F·Mᵀ), all pivots count rank F, and the pivots at index >= k count
    dim(F ∩ ker Mᵀ).

    J and M become arrays from ``matrix`` and J·Mᵀ comes from ``matmul``.  Over
    the rationals the rows of J and M are scaled into Z one by one; that
    scales rows of the block and columns of J·Mᵀ, and moves no pivot.
    """
    n = len(m_rows[0])
    j = matrix(rows, field, n)
    return np.hstack([matmul(j, matrix(m_rows, field, n).T, field.characteristic), j])


def _dot_rows(a_rows, b_rows, field):
    """A·Bᵀ as lists: entry (i, j) is the dot product of a_rows[i] and b_rows[j]."""
    return [
        [sum((x * y for x, y in zip(a, b) if x and y), field.zero) for b in b_rows]
        for a in a_rows
    ]


def intersection_dim(a_rows, b_rows, field) -> int:
    """dim(rowspace(A) ∩ rowspace(B)) via rank arithmetic."""
    ra = rank(a_rows, field)
    rb = rank(b_rows, field)
    if ra == 0 or rb == 0:
        return 0
    rab = rank(list(a_rows) + list(b_rows), field)
    return ra + rb - rab

"""Truncated multibranch power series and their subspaces.

The ambient ring is a product of r truncated polynomial rings
K[t_1]/(t_1^N) x ... x K[t_r]/(t_r^N), with one uniform truncation order N.
Elements are coefficient tables; subspaces are kept in echelon form with
respect to the monomial order (branch ascending, exponent ascending), so the
unit and low-valuation elements carry the earliest pivots.  A subspace holds
its rows as one array of the elimination kernel in ``linalg``, int64 residues
over F_p and integer rows over Q, and one code path serves both fields.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product

import numpy as np

from .errors import AmbientMismatchError, ValidationError
from . import linalg


class _Infinity:
    """Order of vanishing of a branch that is zero up to the truncation.

    This is a truncation-relative statement: callers must read it as
    ">= N" unless N is known to exceed the stabilization bound.
    """

    __slots__ = ()

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("gapcurve-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"


INF = _Infinity()


class Ambient:
    """The ring S at finite precision: field, branch count, truncation."""

    __slots__ = ("field", "branches", "truncation")

    def __init__(self, field, branches: int, truncation: int):
        if branches < 1:
            raise ValidationError("need at least one branch")
        if truncation < 1:
            raise ValidationError("truncation order must be >= 1")
        self.field = field
        self.branches = branches
        self.truncation = truncation

    @property
    def width(self) -> int:
        return self.branches * self.truncation

    def __eq__(self, other):
        return (
            isinstance(other, Ambient)
            and self.field == other.field
            and self.branches == other.branches
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.field, self.branches, self.truncation))

    def __repr__(self):
        return f"Ambient({self.field.name}, r={self.branches}, N={self.truncation})"


def _check_same(a: "TruncatedSeries", b: "TruncatedSeries"):
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"{a.ambient} vs {b.ambient}")


class TruncatedSeries:
    """One element of the truncated product ring."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: Ambient, coeffs):
        self.ambient = ambient
        n = ambient.truncation
        cs = tuple(tuple(branch) for branch in coeffs)
        if len(cs) != ambient.branches or any(len(b) != n for b in cs):
            raise ValidationError("coefficient table shape does not match ambient")
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ambient: Ambient):
        z = ambient.field.zero
        return cls(ambient, [[z] * ambient.truncation for _ in range(ambient.branches)])

    @classmethod
    def unit(cls, ambient: Ambient):
        """The multiplicative unit (1, 1, ..., 1)."""
        z, o = ambient.field.zero, ambient.field.one
        return cls(ambient, [[o] + [z] * (ambient.truncation - 1) for _ in range(ambient.branches)])

    @classmethod
    def monomial(cls, ambient: Ambient, branch: int, exponent: int, coeff=None):
        """c * t_branch^exponent (zero on the other branches)."""
        if not 0 <= branch < ambient.branches:
            raise ValidationError(f"branch {branch} out of range")
        if not 0 <= exponent < ambient.truncation:
            raise ValidationError(f"exponent {exponent} outside truncation")
        s = cls.zero(ambient)
        table = [list(b) for b in s.coeffs]
        table[branch][exponent] = ambient.field.one if coeff is None else ambient.field(coeff)
        return cls(ambient, table)

    @classmethod
    def from_monomials(cls, ambient: Ambient, terms):
        """Sum of (branch, exponent, coeff) terms."""
        table = [[ambient.field.zero] * ambient.truncation for _ in range(ambient.branches)]
        for branch, exponent, coeff in terms:
            if not 0 <= branch < ambient.branches:
                raise ValidationError(f"branch {branch} out of range")
            if not 0 <= exponent < ambient.truncation:
                raise ValidationError(f"exponent {exponent} outside truncation N={ambient.truncation}")
            table[branch][exponent] = table[branch][exponent] + ambient.field(coeff)
        return cls(ambient, table)

    @classmethod
    def from_flat(cls, ambient: Ambient, row):
        n = ambient.truncation
        return cls(ambient, [row[i * n : (i + 1) * n] for i in range(ambient.branches)])

    def flat(self) -> list:
        """Coefficient row in the (branch, exponent) monomial order."""
        out = []
        for b in self.coeffs:
            out.extend(b)
        return out

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        _check_same(self, other)
        return TruncatedSeries(
            self.ambient,
            [[a + b for a, b in zip(ba, bb)] for ba, bb in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        _check_same(self, other)
        return TruncatedSeries(
            self.ambient,
            [[a - b for a, b in zip(ba, bb)] for ba, bb in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return TruncatedSeries(self.ambient, [[-a for a in b] for b in self.coeffs])

    def scale(self, c):
        c = self.ambient.field(c)
        return TruncatedSeries(self.ambient, [[c * a for a in b] for b in self.coeffs])

    def __mul__(self, other):
        """Branch-wise convolution truncated at N."""
        _check_same(self, other)
        n = self.ambient.truncation
        zero = self.ambient.field.zero
        table = []
        for ba, bb in zip(self.coeffs, other.coeffs):
            out = [zero] * n
            for i, a in enumerate(ba):
                if not a:
                    continue
                for j in range(n - i):
                    b = bb[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
            table.append(out)
        return TruncatedSeries(self.ambient, table)

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative powers need an explicit inverse")
        acc = TruncatedSeries.unit(self.ambient)
        for _ in range(e):
            acc = acc * self
        return acc

    def is_unit(self) -> bool:
        return all(b[0] for b in self.coeffs)

    def inverse(self) -> "TruncatedSeries":
        """Branch-wise power series inverse; requires a unit."""
        if not self.is_unit():
            raise ValidationError("series is not a unit (some branch constant term is zero)")
        n = self.ambient.truncation
        one = self.ambient.field.one
        table = []
        for branch in self.coeffs:
            inv0 = one / branch[0]
            out = [inv0]
            for k in range(1, n):
                acc = self.ambient.field.zero
                for j in range(1, k + 1):
                    if branch[j]:
                        acc = acc + branch[j] * out[k - j]
                out.append(-inv0 * acc)
            table.append(out)
        return TruncatedSeries(self.ambient, table)

    def __truediv__(self, other):
        return self * other.inverse()

    # -- valuations -----------------------------------------------------------

    def valuation(self):
        """Per-branch order of vanishing; INF for branches zero up to N."""
        out = []
        for branch in self.coeffs:
            v = INF
            for k, c in enumerate(branch):
                if c:
                    v = k
                    break
            out.append(v)
        return tuple(out)

    def coeff(self, branch: int, exponent: int):
        return self.coeffs[branch][exponent]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ambient == other.ambient
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ambient, self.coeffs))

    def __bool__(self):
        return any(any(b) for b in self.coeffs)

    def __repr__(self):
        parts = []
        for i, branch in enumerate(self.coeffs):
            for k, c in enumerate(branch):
                if c:
                    parts.append(f"{c}*t{i + 1}^{k}")
        return " + ".join(parts) if parts else "0"


def valuation(series: TruncatedSeries):
    return series.valuation()


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a * b


def _products(a: np.ndarray, b: np.ndarray, branches: int, p: int) -> np.ndarray:
    """Every product a_i·b_j of two arrays of series rows, as row i·len(b) + j.

    Branch-wise truncated convolution.  p > 0: int64 residues and one
    ``linalg.matmul`` over the branches, each the branch's columns of a times
    the Toeplitz matrix of b's, whose row m holds every b_j shifted by m; so
    the temporary is N·len(b)·N per branch, sized by the second operand.  p = 0:
    Python ints in object arrays, by N shifted multiply-adds, which skip the
    Toeplitz matrix's zero half; each product row is divided by its content,
    so it is a multiple of the product series.
    """
    n = a.shape[1] // branches
    if p:
        x = a.reshape(len(a), branches, n).transpose(1, 0, 2)
        # padded[j, k, n - 1 + e] is b_j's coefficient of t^e on branch k, zero for e < 0
        padded = np.zeros((len(b), branches, 2 * n - 1), dtype=a.dtype)
        padded[..., n - 1 :] = b.reshape(len(b), branches, n)
        shift = np.arange(n - 1, 2 * n - 1) - np.arange(n)[:, None]  # (m, l) -> n - 1 + l - m
        toeplitz = padded[:, :, shift].transpose(1, 2, 0, 3).reshape(branches, n, len(b) * n)
        out = linalg.matmul(x, toeplitz, p).reshape(branches, len(a), len(b), n)
        return out.transpose(1, 2, 0, 3).reshape(len(a) * len(b), branches * n)
    x = a.reshape(len(a), 1, branches, n)
    y = b.reshape(1, len(b), branches, n)
    out = np.zeros((len(a), len(b), branches, n), dtype=a.dtype)
    for i in range(n):
        out[..., i:] += x[..., i : i + 1] * y[..., : n - i]
    return linalg._primitive(out.reshape(len(a) * len(b), branches * n))


def _gfp_inverse(a: np.ndarray, branches: int, p: int) -> np.ndarray:
    """Branch-wise inverse of one unit series row by Newton's step x <- x·(2 - a·x),
    which doubles the number of correct coefficients."""
    n = a.shape[1] // branches
    x = np.zeros_like(a)
    x[0, ::n] = [pow(c, -1, p) for c in a[0, ::n].tolist()]
    for _ in range((n - 1).bit_length()):
        e = -_products(a, x, branches, p) % p
        e[0, ::n] = (e[0, ::n] + 2) % p
        x = _products(x, e, branches, p)
    return x


class SeriesSubspace:
    """A finite-dimensional subspace of the truncated ring, in echelon form.

    The rows are one (dim x r·N) array of the elimination kernel
    (``linalg.matrix``): over F_p the int64 residues of the RREF rows, over Q
    primitive integer rows in an object array, each a multiple of its RREF
    row.  Spans, products, closure and window ranks run on it alike for both
    fields.  ``rows`` and ``basis()`` box it into field elements, dividing each
    Q row by its pivot, for callers off the hot path.
    """

    __slots__ = ("ambient", "pivots", "_rows")

    def __init__(self, ambient: Ambient, rows, pivots):
        self.ambient = ambient
        if not isinstance(rows, np.ndarray):
            rows = linalg.matrix(rows, ambient.field, ambient.width)
        self._rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, ambient: Ambient, vectors) -> "SeriesSubspace":
        """Echelon span; deterministic given the input order.

        The vectors may also be one array of flat rows from ``linalg.matrix``.
        """
        if not isinstance(vectors, np.ndarray):
            vectors = list(vectors)
            for v in vectors:
                if isinstance(v, TruncatedSeries) and v.ambient != ambient:
                    raise AmbientMismatchError(f"{v.ambient} vs {ambient}")
            flat = [v.flat() if isinstance(v, TruncatedSeries) else list(v) for v in vectors]
            vectors = linalg.matrix(flat, ambient.field, ambient.width)
        return cls(ambient, *linalg.echelon(vectors, ambient.field.characteristic))

    @property
    def rows(self) -> list:
        return linalg.elements(self._rows, self.field)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def field(self):
        return self.ambient.field

    def basis(self):
        return [TruncatedSeries.from_flat(self.ambient, r) for r in self.rows]

    def contains(self, series: TruncatedSeries) -> bool:
        if series.ambient != self.ambient:
            raise AmbientMismatchError(f"{series.ambient} vs {self.ambient}")
        row = linalg.matrix([series.flat()], self.field, self.ambient.width)
        return linalg.rank(np.vstack([self._rows, row]), self.field) == self.dim

    def contains_unit(self) -> bool:
        """Is some element of the subspace a unit of S?

        Equivalent to: the projection U of the subspace onto the r constant
        coordinates contains a vector with all coordinates nonzero.  Once no
        coordinate vanishes identically on U, each one vanishes on a proper
        subspace, and a space over F_q is not a union of r <= q proper
        subspaces; only p < r needs a search.
        """
        r = self.ambient.branches
        p = self.field.characteristic
        u_rows, _ = linalg.echelon(self._rows[:, :: self.ambient.truncation], p)
        # some coordinate identically zero on U (or U = 0): no unit
        if not all(any(row[i] for row in u_rows) for i in range(r)):
            return False
        if not p or p >= r:
            return True
        # a combination of RREF rows carries its coefficients at the pivots,
        # so a vector without zero coordinates has all coefficients in F_p^*
        return any(
            np.all(np.dot(coeffs, u_rows) % p)
            for coeffs in product(range(1, p), repeat=len(u_rows))
        )

    def jet_rank(self, alpha) -> int:
        """Rank of the image of the subspace in prod_i K[t_i]/(t_i^alpha_i)."""
        return self._line_ranks(alpha)[-1]

    def _line_ranks(self, alpha) -> list:
        """Jet ranks at (alpha_1, ..., alpha_{r-1}, a) for a = 0, ..., alpha_r.

        The window columns are those of branches 1..r-1 followed by branch r by
        exponent, and the pivots of a column prefix are the pivots before its
        end, so one forward elimination gives the whole line.  For r = 1 the
        window is a prefix of the monomial order, and the RREF pivots decide.
        """
        n = self.ambient.truncation
        r = self.ambient.branches
        if len(alpha) != r:
            raise ValidationError(f"exponent vector has arity {len(alpha)}, want {r}")
        for a in alpha:
            if a < 0 or a > n:
                raise ValidationError(f"exponent vector {alpha} exceeds truncation N={n}")
        keep = [c for i, a in enumerate(alpha) for c in range(i * n, i * n + a)]
        pivots = self.pivots if r == 1 else linalg.pivots(self._rows[:, keep], self.field)
        base = len(keep) - alpha[-1]
        return [bisect_left(pivots, base + a) for a in range(alpha[-1] + 1)]

    def __repr__(self):
        return f"SeriesSubspace(dim={self.dim}, {self.ambient})"


def span_reduce(ambient: Ambient, vectors) -> SeriesSubspace:
    return SeriesSubspace.span(ambient, vectors)


def quotient_dim(space: SeriesSubspace, alpha) -> int:
    """dim S / (R + <t_1^a1, ..., t_r^ar>): |alpha| minus the jet rank of R.

    By the convention of the underlying theory, t_i^0 is the branch-i unit
    tuple, so a zero entry contributes the whole branch to the ideal.
    """
    return sum(alpha) - space.jet_rank(alpha)

"""Truncated multibranch power series and their subspaces.

The ambient ring is a product of r truncated polynomial rings
K[t_1]/(t_1^N) x ... x K[t_r]/(t_r^N), with one uniform truncation order N.
Elements are coefficient tables; subspaces are kept in reduced echelon form
with respect to the monomial order (branch ascending, exponent ascending),
so the unit and low-valuation elements carry the earliest pivots.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from itertools import product

from .errors import AmbientMismatchError, ValidationError
from .fields import PrimeField
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


class SeriesSubspace:
    """A finite-dimensional subspace of the truncated ring, in reduced echelon form."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: Ambient, rows, pivots):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, ambient: Ambient, vectors) -> "SeriesSubspace":
        """Reduced echelon span; deterministic given the input order."""
        flat = []
        for v in vectors:
            if isinstance(v, TruncatedSeries):
                if v.ambient != ambient:
                    raise AmbientMismatchError(f"{v.ambient} vs {ambient}")
                flat.append(v.flat())
            else:
                flat.append(list(v))
        rows, pivots = linalg.rref(flat, ambient.field)
        return cls(ambient, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def field(self):
        return self.ambient.field

    def basis(self):
        return [TruncatedSeries.from_flat(self.ambient, r) for r in self.rows]

    def contains(self, series: TruncatedSeries) -> bool:
        if series.ambient != self.ambient:
            raise AmbientMismatchError(f"{series.ambient} vs {self.ambient}")
        return linalg.rank(self.rows + [series.flat()], self.field) == self.dim

    def contains_unit(self) -> bool:
        """Is some element of the subspace a unit of S?

        Equivalent to: the projection U of the subspace onto the r constant
        coordinates contains a vector with all coordinates nonzero.  Once no
        coordinate vanishes identically on U, each one vanishes on a proper
        subspace, and a space over F_q is not a union of r <= q proper
        subspaces; only p < r needs a search.
        """
        n = self.ambient.truncation
        r = self.ambient.branches
        const_cols = [i * n for i in range(r)]
        proj = [[row[c] for c in const_cols] for row in self.rows]
        u_rows, _ = linalg.rref(proj, self.field)
        # some coordinate identically zero on U (or U = 0): no unit
        if not all(any(row[i] for row in u_rows) for i in range(r)):
            return False
        field = self.field
        if not isinstance(field, PrimeField) or field.p >= r:
            return True
        # a combination of RREF rows carries its coefficients at the pivots,
        # so a vector without zero coordinates has all coefficients in F_p^*
        units = [field(c) for c in range(1, field.p)]
        return any(
            all(linalg.combine(coeffs, u_rows, field, r))
            for coeffs in product(units, repeat=len(u_rows))
        )

    def jet_rank(self, alpha) -> int:
        """Rank of the image of the subspace in prod_i K[t_i]/(t_i^alpha_i)."""
        n = self.ambient.truncation
        r = self.ambient.branches
        if len(alpha) != r:
            raise ValidationError(f"exponent vector has arity {len(alpha)}, want {r}")
        for a in alpha:
            if a < 0 or a > n:
                raise ValidationError(f"exponent vector {alpha} exceeds truncation N={n}")
        if not self.rows:
            return 0
        if r == 1:
            # window is a prefix of the monomial order: pivots decide
            a = alpha[0]
            return sum(1 for p in self.pivots if p < a)
        keep = []
        for i, a in enumerate(alpha):
            keep.extend(range(i * n, i * n + a))
        if not keep:
            return 0
        truncated = [[row[c] for c in keep] for row in self.rows]
        return linalg.rank(truncated, self.field)

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

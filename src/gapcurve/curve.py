"""Curve models, osculating subspaces, and multifiltrations.

The built-in model is the rational normal curve of degree d: the projective
line carried into P^d by the full space of degree-d forms.  Coordinates on
the dual space V follow the monomial basis in the order

    x^d, x^{d-1} y, ..., y^d          (index k carries x^{d-k} y^k),

and local parameters are fixed once and for all: t = x/y - a at a finite
point (a:1), and t = y/x at (1:0).  Any unit rescaling of t would measure
the same valuations and gap values; pinning one makes runs reproducible.

A user-supplied model is a table of local expansions of a section basis at
finitely many points; it supports the same osculating/multifiltration
queries, with the section space dimension and genus provided by the caller.
"""

from __future__ import annotations

from math import comb

from . import linalg
from .errors import ValidationError
from .fields import PrimeField
from .series import Ambient, TruncatedSeries


class CurvePoint:
    """A point of the projective line, canonicalized to (a : 1) or (1 : 0)."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        a, b = field(a), field(b)
        if not a and not b:
            raise ValidationError("(0 : 0) is not a point")
        if b:
            self.a, self.b = a / b, field.one
        else:
            self.a, self.b = field.one, field.zero
        self.field = field

    @property
    def at_infinity(self) -> bool:
        return not self.b

    def coords(self):
        return (self.a, self.b)

    def sort_key(self):
        a = self.a
        key = a.value if hasattr(a, "value") else a
        return (1, 0) if self.at_infinity else (0, key)

    def __eq__(self, other):
        return (
            isinstance(other, CurvePoint)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return f"({self.a} : {self.b})"


class RationalNormalCurve:
    """The degree-d rational normal curve with its full section space."""

    genus = 0

    def __init__(self, field, degree: int):
        if degree < 1:
            raise ValidationError("degree must be >= 1")
        if isinstance(field, PrimeField) and field.p <= degree:
            raise ValidationError(
                f"prime field F_{field.p} too small for degree {degree} "
                "(jet matrices degenerate unless p > d)"
            )
        self.field = field
        self.degree = degree

    @property
    def dim_w(self) -> int:
        return self.degree + 1

    def point(self, a, b=None) -> CurvePoint:
        if b is None:
            a, b = a
        return CurvePoint(self.field, a, b)

    def veronese_row(self, point: CurvePoint):
        """Dual coordinates of the image of the point: (a^{d-k} b^k)_k."""
        return self.osc_rows(point, 1)[0]

    def osc_rows(self, point: CurvePoint, order: int):
        """Rows spanning the subspace of V dual to order-i vanishing at P.

        Row j extracts the t^j coefficient of a section's local expansion at
        P; the span of rows 0..i-1 annihilates exactly the sections vanishing
        to order >= i.
        """
        d = self.degree
        field = self.field
        if not 0 <= order <= d + 1:
            raise ValidationError(f"osculating order {order} out of range 0..{d + 1}")
        rows = []
        if point.at_infinity:
            for j in range(order):
                row = [field.zero] * (d + 1)
                row[j] = field.one
                rows.append(row)
            return rows
        a = point.a
        apow = [field.one]
        for _ in range(d):
            apow.append(apow[-1] * a)
        for j in range(order):
            row = []
            for k in range(d + 1):
                e = d - k - j
                row.append(field(comb(d - k, j)) * apow[e] if e >= 0 else field.zero)
            rows.append(row)
        return rows

    def section_value(self, coeffs, point: CurvePoint):
        """Evaluate a degree-d form (coefficients in monomial order) at P."""
        nu = self.veronese_row(point)
        acc = self.field.zero
        for c, v in zip(coeffs, nu):
            if c and v:
                acc = acc + self.field(c) * v
        return acc

    def local_expansion(self, coeffs, point: CurvePoint, truncation: int) -> TruncatedSeries:
        """Taylor expansion of the dehomogenized section in the local parameter."""
        d = self.degree
        field = self.field
        amb = Ambient(field, 1, truncation)
        out = [field.zero] * truncation
        if point.at_infinity:
            # s / x^d = sum_k c_k t^k with t = y/x
            for k in range(min(d + 1, truncation)):
                out[k] = field(coeffs[k])
            return TruncatedSeries(amb, [out])
        a = point.a
        apow = [field.one]
        for _ in range(d):
            apow.append(apow[-1] * a)
        # s / y^d = sum_k c_k (a + t)^{d-k}
        for m in range(truncation):
            acc = field.zero
            for k in range(d + 1):
                e = d - k - m
                if e >= 0:
                    c = field(coeffs[k])
                    if c:
                        acc = acc + c * field(comb(d - k, m)) * apow[e]
            out[m] = acc
        return TruncatedSeries(amb, [out])

    def all_points(self):
        """Every point of the projective line over a prime field."""
        field = self.field
        if not isinstance(field, PrimeField):
            raise ValidationError("point enumeration needs a finite field")
        pts = [CurvePoint(field, field(a), field.one) for a in range(field.p)]
        pts.append(CurvePoint(field, field.one, field.zero))
        return pts


class ExpansionCurveModel:
    """A curve given by local expansions of a section basis at chosen points.

    ``expansions`` maps each point key to a (dim_w x precision) table: row m
    is the expansion of basis section m at that point, in a fixed local
    parameter.  Only the supplied points can be queried; there is no
    automatic ramification search for these models.
    """

    def __init__(self, field, dim_w: int, degree: int, genus: int, expansions: dict):
        self.field = field
        self.dim_w = dim_w
        self.degree = degree
        self.genus = genus
        self._tables = {}
        for key, table in expansions.items():
            rows = [[field(c) for c in row] for row in table]
            if len(rows) != dim_w:
                raise ValidationError(f"expansion table at {key!r} must have {dim_w} rows")
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValidationError(f"ragged expansion table at {key!r}")
            self._tables[key] = rows

    @property
    def precision(self) -> int:
        return min(len(rows[0]) for rows in self._tables.values())

    def point(self, key):
        self._table(key)
        return key

    def _table(self, key):
        """The expansion table at a named point; unknown names are input errors."""
        table = self._tables.get(key)
        if table is None:
            raise ValidationError(f"no expansion table for point {key!r}")
        return table

    def osc_rows(self, point, order: int):
        table = self._table(point)
        if order > len(table[0]):
            raise ValidationError(
                f"osculating order {order} exceeds table precision {len(table[0])}"
            )
        return [[row[j] for row in table] for j in range(order)]

    def section_value(self, coeffs, point):
        table = self._table(point)
        acc = self.field.zero
        for c, row in zip(coeffs, table):
            c = self.field(c)
            if c and row[0]:
                acc = acc + c * row[0]
        return acc

    def local_expansion(self, coeffs, point, truncation: int) -> TruncatedSeries:
        table = self._table(point)
        if truncation > len(table[0]):
            raise ValidationError(
                f"requested precision {truncation} exceeds table precision {len(table[0])}"
            )
        field = self.field
        out = [field.zero] * truncation
        for c, row in zip(coeffs, table):
            c = field(c)
            if c:
                for j in range(truncation):
                    if row[j]:
                        out[j] = out[j] + c * row[j]
        return TruncatedSeries(Ambient(field, 1, truncation), [out])


def osc_subspace(curve, point, order: int):
    """Row-reduced basis of the osculating subspace V^i(P)."""
    rows = curve.osc_rows(point, order)
    red, _ = linalg.rref(rows, curve.field)
    return red


class Multifiltration:
    """Joint osculating data F^alpha at finitely many distinct points.

    Dimension queries are memoized; the cache only ever stores recomputable
    values, so concurrent readers at worst duplicate work.
    """

    def __init__(self, curve, points):
        points = list(points)
        if len(set(_point_key(p) for p in points)) != len(points):
            raise ValidationError("multifiltration points must be distinct")
        self.curve = curve
        self.points = points
        self._dim_cache: dict[tuple, int] = {}

    @property
    def arity(self) -> int:
        return len(self.points)

    def subspace_rows(self, alpha):
        if len(alpha) != len(self.points):
            raise ValidationError("exponent vector arity does not match point count")
        rows = []
        for point, a in zip(self.points, alpha):
            if a > 0:
                rows.extend(self.curve.osc_rows(point, min(a, self.curve.dim_w)))
        return rows

    def dim(self, alpha) -> int:
        alpha = tuple(alpha)
        v = self._dim_cache.get(alpha)
        if v is None:
            v = linalg.rank(self.subspace_rows(alpha), self.curve.field)
            self._dim_cache[alpha] = v
        return v


def _point_key(p):
    return p if not isinstance(p, CurvePoint) else (p.a, p.b)


def multifiltration_dim(filtration: Multifiltration, alpha) -> int:
    return filtration.dim(alpha)

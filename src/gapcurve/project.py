"""The projection pipeline: centers, ramification, local analysis, bounds.

Given an ell-dimensional center L inside the dual space V of a degree-d
curve model, the pipeline

  1. checks that the projectivized center misses the curve (equivalently,
     the complementary linear system M is basepoint free),
  2. finds the ramification clusters: fibers of the projection that are
     collapsed (two points with a common image, or a tangent line meeting
     the center),
  3. analyzes each cluster by building the gap function of the local
     sections two independent ways - from series expansions of M and from
     intersections of L with the multifiltration - and classifying it,
  4. verifies the genus bound: the total singularity degree is at most ell.

Ramification detection finds the base-field points of the collapsed fibers
by one of two routes.  The roots route is symbolic: Wronskian gcds for
tangency, and for secants one candidate form, the gcd of res_P'(H_1, H_2)
over two pairs of random integer combinations H of the collision biforms;
the base-field roots of both forms are extracted, and one partner form per
unplaced root gives its fiber.  Over the rationals it is the only route, the
two resultants are first taken mod one prime (when those images are coprime
the candidate is 1 and no exact resultant is computed), and any locus that
cannot be resolved to rational points is an explicit error.  Over a prime
field the images mod p are the resultants once p > deg + 1, and the roots
route runs above the scan's crossover, p > _ROUTE_CROSSOVER * (deg + 1);
below it the search scans every point of the projective line (exact int64
arithmetic).  Both F_p routes return the rational clusters only; points over
extension fields can optionally be certified absent, from the residual
degrees of the same two candidate forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import binforms, linalg
from .classify import (
    SingularityType,
    UnclassifiedDeltaError,
    classify_ring,
    classify_vector_space,
)
from .curve import (
    CurvePoint,
    ExpansionCurveModel,
    RationalNormalCurve,
    _expansions,
    _point_key,
)
from .errors import (
    ClassificationError,
    GapcurveError,
    HypothesisViolationError,
    IndeterminateOverFieldError,
    IrrationalRamificationError,
    ValidationError,
)
from .fields import PrimeField
from .gaps import TRUNCATION_CAP, VECTOR_SPACE, GapFunction, close_and_stabilize, simplex
from .series import Ambient, TruncatedSeries, _gfp_inverse, _products


class ProjectionCenter:
    """An ell-dimensional proper subspace L of V, echelonized, with M = L-perp."""

    def __init__(self, field, degree: int, rows):
        self.field = field
        self.degree = degree
        width = degree + 1
        for row in rows:
            if len(row) != width:
                raise ValidationError(f"center rows must have length {width}")
        red, piv = linalg.rref([[field(c) for c in row] for row in rows], field)
        if not red:
            raise ValidationError("center must be a nonzero subspace")
        if len(red) == width:
            raise ValidationError("center must be a proper subspace of V")
        self.rows = red
        self.pivots = piv
        self.ell = len(red)
        self.n = degree - self.ell
        self._m_rows = None

    @classmethod
    def from_rows(cls, field, degree, rows):
        return cls(field, degree, rows)

    @classmethod
    def from_points(cls, field, degree, point_rows):
        """Center spanned by explicit points of P(L), given by coordinates."""
        return cls(field, degree, point_rows)

    @classmethod
    def from_linear_system(cls, field, degree, m_rows):
        """Center orthogonal to a basis of the system M of degree-d forms."""
        width = degree + 1
        forms = [[field(c) for c in row] for row in m_rows]
        for row in forms:
            if len(row) != width:
                raise ValidationError(f"forms must have {width} coefficients")
        red, _ = linalg.rref(forms, field)
        if len(red) != len(forms):
            raise ValidationError("linear system basis is not independent")
        kernel = linalg.nullspace(red, field, width)
        return cls(field, degree, kernel)

    def m_basis(self):
        """Row-reduced basis of M = L-perp inside the space of forms."""
        if self._m_rows is None:
            kernel = linalg.nullspace(self.rows, self.field, self.degree + 1)
            self._m_rows, _ = linalg.rref(kernel, self.field)
        return self._m_rows

    def __repr__(self):
        return f"ProjectionCenter(ell={self.ell}, d={self.degree})"


@dataclass
class CenterVerdict:
    basepoint_free: bool
    basepoints: list
    indeterminate: bool = False
    detail: str = ""


@dataclass
class RamificationCluster:
    points: list  # CurvePoint, sorted
    tangent: list  # per-point: tangent line meets the center

    @property
    def branches(self) -> int:
        return len(self.points)


@dataclass
class ClusterReport:
    points: list
    tangent: list
    delta: int
    stype: SingularityType | None  # None when delta is out of classified range
    vs_label: str | None
    lambda_samples: dict
    section_used: list

    @property
    def branches(self) -> int:
        return len(self.points)

    @property
    def type_label(self) -> str:
        return self.stype.label if self.stype is not None else "unclassified"


@dataclass
class ProjectionReport:
    field_name: str
    degree: int
    n: int
    ell: int
    genus: int
    hypotheses: dict
    basepoint_free: bool | None  # None: not checked (clusters supplied by the caller)
    birational: bool
    clusters: list
    delta_total: int
    genus_bound: dict
    completeness: dict


# ---------------------------------------------------------------------------
# center validation


def check_center(center: ProjectionCenter, curve) -> CenterVerdict:
    """Basepoint-freeness of M, i.e. P(L) misses the curve.

    The basepoints are the common zeros of the forms of M: the roots of their
    gcd, sorted along the curve.  A gcd factor without base-field roots means
    basepoints over an extension, reported as indeterminate.
    """
    if center.degree != curve.degree or center.field != curve.field:
        raise ValidationError("center and curve ambient mismatch")
    forms = [_dual_to_form(row, center.degree, center.field) for row in center.m_basis()]
    roots, residual = binforms.projective_roots(binforms.gcd_many(forms))
    pts = sorted((CurvePoint(center.field, a, b) for (a, b), _ in roots), key=CurvePoint.sort_key)
    if residual:
        return CenterVerdict(
            False, pts, indeterminate=True,
            detail="possible basepoints over an extension of the base field",
        )
    return CenterVerdict(not pts, pts)


def _dual_to_form(coeffs, degree, field) -> binforms.BinaryForm:
    """Monomial-order coefficients (x^d first) to a BinaryForm in (a, b)."""
    return binforms.BinaryForm(field, [field(c) for c in reversed(list(coeffs))])


# ---------------------------------------------------------------------------
# ramification over a prime field: exhaustive scan

# Fibers are found by sorting one fingerprint per image: two Horner hashes
# mod 2^31 - 1 with fixed bases, packed into one int64.  Every step keeps
# h * base + x below 2^62 + 2^31, as h, base and the residue x are below 2^31.
_FINGERPRINT_MOD = (1 << 31) - 1
_FINGERPRINT_BASES = (1_000_003, 2_147_480_009)


def _point_from_index(curve, idx: int) -> CurvePoint:
    p = curve.field.p
    if idx == p:
        return CurvePoint(curve.field, curve.field.one, curve.field.zero)
    return CurvePoint(curve.field, curve.field(idx), curve.field.one)


def _ramification_scan_gfp(center: ProjectionCenter, curve):
    """Clusters over F_p from the images of all p + 1 points in M* = V/L.

    Column i of phi is (f(P_i))_f over the basis of M = L-perp: the image of
    nu(P_i) in V/L, nonzero away from basepoints.  P_i = (i : 1) for i < p and
    P_p = (1 : 0).  phi' is the image of the tangent vector nu' (the
    a-derivative, or the b-derivative at (1 : 0)).  The tangent line at P meets
    P(L) exactly when nu'(P) lies in L + <nu(P)>, that is when phi'(P) is
    parallel to phi(P), which a 2x2 minor against phi's first nonzero entry
    decides.  A fiber is a set of points whose normalized images agree; equal
    fingerprints are only candidates, grouped exactly by bytes, so a
    collision never merges two images.

    Every entry of phi is a sum of d + 1 products of residues, so int64 is
    exact only while (d + 1)(p - 1)^2 < 2^63.  That is checked before any
    array is allocated.
    """
    p, d = center.field.p, center.degree
    if (d + 1) * (p - 1) ** 2 >= 1 << 63:
        raise ValidationError(
            f"the F_p scan needs (d + 1)(p - 1)^2 < 2^63 for exact int64 images, and "
            f"d = {d}, p = {p} exceed it; name the clusters with 'clusters' instead"
        )
    m = linalg.matrix(center.m_basis(), center.field, d + 1)
    rev = m[:, ::-1]  # f(a : 1) = sum_e rev[:, e] a^e
    a = np.arange(p, dtype=np.int64)
    powers = np.ones((d + 1, p), dtype=np.int64)
    for e in range(1, d + 1):
        powers[e] = powers[e - 1] * a % p
    deriv = rev[:, 1:] * np.arange(1, d + 1) % p  # df/da = sum_e deriv[:, e] a^e
    phi = np.column_stack((rev @ powers % p, m[:, 0]))
    dphi = np.column_stack((deriv @ powers[:d] % p, m[:, 1]))

    idx = np.arange(p + 1)
    col = np.argmax(phi != 0, axis=0)
    lead = phi[col, idx]
    if not lead.all():
        raise ValidationError("basepoint present; run check_center first")
    tangent = ~np.any((dphi * lead - phi * dphi[col, idx]) % p, axis=0)
    norm = phi * linalg.batch_inverse(lead, p) % p

    keys = np.zeros((2, p + 1), dtype=np.int64)
    bases = np.array(_FINGERPRINT_BASES, dtype=np.int64)[:, None]
    for row in norm:
        keys = (keys * bases + row) % _FINGERPRINT_MOD
    key = keys[0] << 31 | keys[1]
    order = np.argsort(key)
    sorted_keys = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], p + 1]
    runs = ends - starts > 1
    groups = []
    for s, e in zip(starts[runs], ends[runs]):
        members = np.sort(order[s:e])  # ascending index is CurvePoint.sort_key order
        fibers: dict[bytes, list[int]] = {}
        for i, image in zip(members.tolist(), norm.T[members]):
            fibers.setdefault(image.tobytes(), []).append(i)
        groups += [g for g in fibers.values() if len(g) > 1]
    in_fiber = np.zeros(p + 1, dtype=bool)
    for g in groups:
        in_fiber[g] = True
    groups += [[i] for i in np.flatnonzero(tangent & ~in_fiber).tolist()]
    return [
        RamificationCluster(
            [_point_from_index(curve, i) for i in g], [bool(tangent[i]) for i in g]
        )
        for g in sorted(groups)
    ]


# ---------------------------------------------------------------------------
# ramification from candidate roots: both fields


# The secant candidate: how many pairs of combinations are drawn before the
# resultants count as vanishing identically, the fixed seed, the largest c_ij
# and the prime of the unit certificate over Q, the largest below 2^31.
_SECANT_DRAWS = 6
_SECANT_SEED = 20261020
_SECANT_COEFFICIENT = 9
_CERTIFICATE_PRIME = (1 << 31) - 1

# Over F_p the roots route replaces the O(p) scan once p > C (deg + 1), with
# deg = 2(d - 1)^2 the degree of the secant resultants: their images cost the
# same for every p > deg + 1, and root finding grows with log p only.  C is
# the crossover of the two routes' median times, measured at d = 5..8.
_ROUTE_CROSSOVER = 160


def _tangency_form(center: ProjectionCenter):
    """gcd of the pairwise Wronskians of the forms of M."""
    field = center.field
    d = center.degree
    forms = [_dual_to_form(row, d, field) for row in center.m_basis()]
    acc = None
    for i in range(len(forms)):
        fi_a, fi_b = binforms.derivative_a(forms[i]), binforms.derivative_b(forms[i])
        for j in range(i + 1, len(forms)):
            gj_a, gj_b = binforms.derivative_a(forms[j]), binforms.derivative_b(forms[j])
            w = fi_a.mul(gj_b)
            w2 = fi_b.mul(gj_a)
            wr = binforms.BinaryForm(field, [x - y for x, y in zip(w.coeffs, w2.coeffs)])
            if wr.is_zero():
                continue
            acc = wr if acc is None else binforms.form_gcd(acc, wr)
            if acc is not None and binforms.form_is_unit(acc):
                return acc
    if acc is None:
        raise HypothesisViolationError("every Wronskian vanishes: the map is degenerate")
    return acc


def _combination(center: ProjectionCenter, rng):
    """H = sum_{i<j} c_ij h_ij for random integers c_ij in 1..9, as integer rows.

    h_ij is the collision biform f_i(P) f_j(P') - f_j(P) f_i(P') of the basis
    forms of M, divided by the diagonal form (a b' - a' b), of bidegree
    (d - 1, d - 1).  Before the division the sum is sum_{i,j} C_ij f_i(P)
    f_j(P') for the antisymmetric C with C_ij = c_ij above the diagonal: M^T
    (C M), with one exact division.  Over Q, M is scaled into Z by one factor
    L common to all its forms, so the rows are L^2 H; over F_p, the residues.
    """
    p, d, k = center.field.characteristic, center.degree, center.n + 1
    # all of M as one row: one common factor over Q, not one per form
    m = linalg.matrix([sum(center.m_basis(), [])], center.field, k * (d + 1))
    m = m.reshape(k, d + 1).tolist()
    c = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            c[i][j] = rng.randint(1, _SECANT_COEFFICIENT)
            c[j][i] = -c[i][j]
    cm = [[sum(x * row[t] for x, row in zip(ci, m)) for t in range(d + 1)] for ci in c]
    # index s of a row carries x^(d-s) y^s, that is a^(d-s) b^s
    h = [[sum(u[d - s] * v[d - t] for u, v in zip(m, cm)) for t in range(d + 1)]
         for s in range(d + 1)]
    # long division by a b' - a' b: each quotient term is a sum along an antidiagonal
    quot = [[sum(h[i + t][j - t] for t in range(min(d - i, j) + 1)) for j in range(d)]
            for i in range(1, d + 1)]
    return [[x % p for x in row] for row in quot] if p else quot


def _secant_candidate_form(center: ProjectionCenter):
    """A form whose base-field roots cover every secant-cluster point.

    It is the gcd of res_P'(H_1, H_2) over two pairs of random combinations H
    of the collision biforms.  A common zero of the biforms is a zero of every
    H, over the algebraic closure too, so the draws only decide how many
    spurious factors remain.  A resultant that vanishes identically means a
    common factor of H_1 and H_2 in P'; it is drawn again a few times.

    Over F_p with p > deg + 1 the int64 kernel's images mod p are the
    resultants (``binforms.resultants``).  Over Q both resultants are first
    taken mod q = 2^31 - 1: nonzero images with a constant projective gcd
    prove the candidate is 1.  Were the resultants to share a factor of
    positive degree, its primitive integer multiple g would divide both over
    Z (Gauss's lemma); g mod q is then a nonzero form of positive degree, and
    both images vanish at its root over the closure of F_q.  Otherwise, and
    over F_p with p <= deg + 1, the exact resultants of the same pairs decide.
    """
    field = center.field
    p = field.characteristic
    rng = random.Random(_SECANT_SEED)

    def draw():
        return _combination(center, rng), _combination(center, rng)

    pairs = [draw(), draw()]
    if not p and binforms.unit_certificate(pairs, _CERTIFICATE_PRIME):
        return binforms.BinaryForm(field, [field.one])
    found = []
    for batch in chain([pairs], ([draw()] for _ in range(_SECANT_DRAWS - 2))):
        forms = (binforms.BinaryForm(field, c) for c in binforms.resultants(batch, p))
        found += [res for res in forms if not res.is_zero()]
        if len(found) >= 2:
            return binforms.form_gcd(*found[:2])
    raise HypothesisViolationError(
        "all collision resultants vanish identically: infinitely many secants "
        "meet the center (hypotheses violated?)"
    )


def _candidate_roots(center: ProjectionCenter, memo: dict | None):
    """Yield (kind, base-field roots, residual degree) for the tangency form,
    then for the secant candidate form; the roots cover every ramification
    point defined over the base field.  Each form is computed on first use
    and kept in ``memo`` when one is given, so one analysis builds it once."""
    memo = {} if memo is None else memo
    for kind, make in (("tangency", _tangency_form), ("secant", _secant_candidate_form)):
        if kind not in memo:
            form = make(center)
            memo[kind] = binforms.projective_roots(form) if binforms.form_has_roots(form) else None
        if memo[kind] is not None:
            yield kind, *memo[kind]


def _point_image(center: ProjectionCenter, curve, point):
    """phi(P) = (f(P))_f over the basis of M: the image of P in M* = V/L."""
    image = [e[0] for e in _expansions(curve, center.m_basis(), point, 1)]
    if not any(image):
        raise ValidationError(f"{point} is a basepoint")
    return image


def _partner_form(center: ProjectionCenter, image):
    """gcd{f in M : f(P) = 0} for image = phi(P).  Its roots are P's fiber, and a root
    Q is multiple exactly when phi'(Q) is parallel to phi(Q): Q is a tangent point."""
    field = center.field
    m_rows = center.m_basis()
    forms = []
    for combo in linalg.nullspace([image], field, len(m_rows)):
        row = linalg.combine(combo, m_rows, field, center.degree + 1)
        forms.append(_dual_to_form(row, center.degree, field))
    return binforms.gcd_many(forms)


_IRRATIONAL_CANDIDATES = {
    "tangency": "tangential ramification over an extension field; "
    "rerun over a prime field or supply clusters manually",
    "secant": "unresolved secant-elimination factor (ramification possibly over "
    "an extension field, or a spurious elimination factor); rerun over "
    "a prime field or supply clusters manually",
}


def _ramification_from_roots(center: ProjectionCenter, curve, memo=None):
    """Clusters from the candidates' base-field roots.  Over Q a residual
    factor raises.  Over F_p points over extensions are ignored, as the scan
    cannot see them, so the clusters are exactly the scan's whenever finitely
    many fibers collapse."""
    field = center.field
    over_q = not field.characteristic
    candidates = []
    for kind, roots, residual in _candidate_roots(center, memo):
        if residual and over_q:
            raise IrrationalRamificationError(_IRRATIONAL_CANDIDATES[kind])
        candidates += [CurvePoint(field, a, b) for (a, b), _ in roots]

    # each unplaced candidate's partner form gives its whole fiber, with tangency
    placed = set()
    clusters = []
    for pt in candidates:
        if pt in placed:
            continue
        image = _point_image(center, curve, pt)
        roots, residual = binforms.projective_roots(_partner_form(center, image))
        if residual and over_q:
            raise IrrationalRamificationError(
                f"fiber through {pt} contains points over an extension field"
            )
        mult = {CurvePoint(field, a, b): m for (a, b), m in roots}
        fiber = sorted(mult, key=CurvePoint.sort_key)
        placed.update(fiber)
        if len(fiber) >= 2 or mult[pt] >= 2:
            clusters.append(RamificationCluster(fiber, [mult[q] >= 2 for q in fiber]))
    clusters.sort(key=lambda c: c.points[0].sort_key())
    return clusters


def find_ramification(center: ProjectionCenter, curve, _memo=None):
    """All clusters of points collapsed by the projection.

    Requires a basepoint-free center; completeness guarantees differ by
    field (see the module docstring).  ``_memo`` is internal: a dict in which
    ``analyze`` keeps the candidate forms for its degree check.
    """
    if not isinstance(curve, RationalNormalCurve):
        raise ValidationError(
            "automatic ramification search is only available for the built-in "
            "rational normal model; supply clusters manually"
        )
    p = center.field.characteristic
    if p and p <= _ROUTE_CROSSOVER * (2 * (center.degree - 1) ** 2 + 1):
        return _ramification_scan_gfp(center, curve)
    return _ramification_from_roots(center, curve, _memo)


def certify_no_extension_ramification(center: ProjectionCenter, curve, _memo=None) -> dict:
    """Degree check over a prime field: do ramification points exist over
    extensions?  Returns residual degrees; zero residuals mean the search of
    rational points was complete.  ``_memo`` is as for find_ramification."""
    if not isinstance(center.field, PrimeField):
        raise ValidationError("certification is a prime-field operation")
    residual = {"tangency": 0, "secant": 0}
    for kind, _, extra in _candidate_roots(center, _memo):
        residual[kind] += extra
    return {
        "tangency_residual_degree": residual["tangency"],
        "secant_candidate_residual_degree": residual["secant"],
        "complete": not any(residual.values()),
    }


# ---------------------------------------------------------------------------
# cluster analysis


def _choose_section(center: ProjectionCenter, images, rng=None):
    """An element of M nonvanishing at every cluster point, given their images phi(P)."""
    field = center.field
    m_rows = center.m_basis()
    for i, row in enumerate(m_rows):
        if all(image[i] for image in images):
            return list(row)
    rng = rng or random.Random(20260808)
    for _ in range(64):
        combo = [field.random_element(rng) for _ in m_rows]
        if all(sum((c * v for c, v in zip(combo, image)), field.zero) for image in images):
            return linalg.combine(combo, m_rows, field, center.degree + 1)
    raise GapcurveError("could not find a section of M nonvanishing on the cluster")


def _cluster_series_builder(center, curve, points, s_coeffs):
    """builder(N) -> (ambient, vectors): the subspace (1/s) M at precision N, as
    one array of the elimination kernel with a row m·s^-1 for each m in M.

    Each point's jet rows J_P are built once per N and expand s and every
    section of M, side by side in one r·N row per section.  Over Q those rows
    are scaled into Z one by one, and s^-1 is computed once as one r·N row and
    scaled into Z by one common factor: a factor per branch would scale
    columns, which changes the span once r >= 2.
    """
    field = center.field
    p = field.characteristic
    m_rows = center.m_basis()
    r = len(points)

    def builder(n):
        amb = Ambient(field, r, n)
        if p:
            sections = linalg.matrix([s_coeffs, *m_rows], field, curve.dim_w)
            jets = [linalg.matrix(curve.osc_rows(q, n), field, curve.dim_w) for q in points]
            exps = np.hstack([linalg.dot(sections, j, p) for j in jets])
            return amb, _products(exps[1:], _gfp_inverse(exps[:1], r, p), r, p)
        per_point = [_expansions(curve, [s_coeffs, *m_rows], q, n) for q in points]
        s_exp, *m_exps = [sum(row, []) for row in zip(*per_point)]
        sinv = TruncatedSeries.from_flat(amb, s_exp).inverse().flat()
        m = linalg.matrix(m_exps, field, amb.width)
        return amb, _products(m, linalg.matrix([sinv], field, amb.width), r, p)

    return builder


def _validate_cluster(center, curve, points):
    """phi(P) for distinct, non-base points with one image point.  A user table needs
    full jet rank: no nonzero section of a degree-d model vanishes to order d + 1."""
    if len(points) != len(set(_point_key(p) for p in points)):
        raise ValidationError("cluster points must be distinct")
    if isinstance(curve, ExpansionCurveModel):
        for p in points:
            if linalg.rank(curve.osc_rows(p, curve.degree + 1), curve.field) < curve.dim_w:
                raise ValidationError(
                    f"the expansion table at {p!r} has jet rank below dim_w in its first "
                    f"d + 1 terms: no nonzero section of a degree-d model vanishes to order d + 1"
                )
    images = [_point_image(center, curve, p) for p in points]
    if linalg.rank(images, center.field) > 1:
        raise ValidationError("cluster points do not share an image point (secant property fails)")
    return images


def analyze_at_points(
    center: ProjectionCenter,
    curve,
    clusters,
    *,
    crosscheck: bool = True,
    truncation_cap: int = TRUNCATION_CAP,
    rng=None,
):
    """Per-cluster singularity analysis; clusters are lists of points.

    For each cluster the gap function of (1/s)M is built from series
    expansions, cross-checked cell by cell against the flag-side values
    dim(L cap F^alpha) for |alpha| <= d + 1 - 2*rho_g, classified via the
    vector-space table, and resolved through the algebra closure, which also
    yields the singularity degree.  The tangent flags are the flag-side cells
    2·e_i.  A user-supplied model's table precision caps the truncation.
    """
    if center.field != curve.field:
        raise ValidationError("center and curve ambient mismatch")
    if isinstance(curve, ExpansionCurveModel):
        truncation_cap = min(truncation_cap, curve.precision)
    reports = []
    bound = center.degree + 1 - 2 * curve.genus
    for raw_points in clusters:
        points = list(raw_points)
        images = _validate_cluster(center, curve, points)
        s_coeffs = _choose_section(center, images, rng)
        builder = _cluster_series_builder(center, curve, points, s_coeffs)
        start_n = max(2 * center.ell + 4, center.degree + 2)
        space, _, ring_gap, delta = close_and_stabilize(builder, start_n, cap=truncation_cap)
        vgap = GapFunction(space, VECTOR_SPACE)
        tangent_cells = [tuple(2 * (q == p) for q in points) for p in points]
        cells = list(simplex(bound, len(points))) if crosscheck else []
        flag = _flag_dims(center, curve, points, cells + tangent_cells)
        if crosscheck:
            _dual_path_check(flag, vgap, cells)

        vs_label = None
        stype = None
        try:
            vs_type = classify_vector_space(vgap)
            vs_label = vs_type.label
        except (ClassificationError, GapcurveError):
            vs_type = None
        try:
            stype = classify_ring(ring_gap)
        except UnclassifiedDeltaError:
            stype = None
        if stype is not None and vs_type is not None:
            if vs_type.is_ambiguous:
                if stype.label not in {m.label for m in vs_type.members()}:
                    raise GapcurveError(
                        f"ambiguity resolution left the pair: {vs_type.label} vs {stype.label}"
                    )
            elif not vs_type.is_smooth and vs_type.label != stype.label:
                raise GapcurveError(
                    f"vector-space and ring classifications disagree: "
                    f"{vs_type.label} vs {stype.label}"
                )

        samples = _lambda_samples(vgap, delta)
        reports.append(
            ClusterReport(
                points=list(points),
                tangent=[flag[cell] >= 1 for cell in tangent_cells],
                delta=delta,
                stype=stype,
                vs_label=vs_label,
                lambda_samples=samples,
                section_used=s_coeffs,
            )
        )
    return reports


def _lambda_samples(vgap: GapFunction, delta: int) -> dict:
    bound = min(2 * delta + 2, vgap.truncation, 10)
    cells = list(islice(simplex(bound, vgap.arity, minimum=1), 256))
    values = {alpha: vgap(alpha) for alpha in reversed(cells)}  # each line from its top
    return {alpha: values[alpha] for alpha in cells}


def _flag_dims(center, curve, points, cells) -> dict:
    """{alpha: dim(L cap F^alpha)} for the given cells, by one row-insertion walk.

    L is the kernel of v -> v·M^T with M = L-perp, so dim(L cap F^alpha) is the
    number of pivots past the k columns of J·M^T among the first alpha_i rows of
    each block W_{P_i} = [J_{P_i}·M^T | J_{P_i}] (``linalg.image_block``).  The
    cells are walked in lexicographic order with one echelon state per prefix
    alpha_1..alpha_i: a cell keeps the states it shares with the cell before,
    inserts rows where its first differing entry grew, and rebuilds the later
    states from there.  The same code serves the built-in curve and user models.
    """
    field = center.field
    m_rows = center.m_basis()
    k = len(m_rows)
    cells = sorted(set(cells))
    order = max((max(alpha) for alpha in cells), default=0)
    blocks = [linalg.image_block(curve.osc_rows(p, order), m_rows, field) for p in points]
    r = len(points)
    states = [{} for _ in range(r + 1)]
    prev = (0,) * r
    out = {}
    for alpha in cells:
        first = next((i for i in range(r) if alpha[i] != prev[i]), r)
        for i in range(first, r):
            if i > first:
                states[i + 1] = dict(states[i])
            for row in blocks[i][prev[i] if i == first else 0 : alpha[i]]:
                linalg.insert_row(states[i + 1], row, field.characteristic)
        out[alpha] = sum(c >= k for c in states[r])
        prev = alpha
    return out


def _dual_path_check(flag: dict, vgap, cells):
    """Series-side gap values must equal the flag-side values on the cells
    |alpha| <= d + 1 - 2*rho_g; no entry reaches the truncation N >= d + 2, the
    first one tried.  Each window line is compared from its top down, so one
    elimination fills it in the series memo."""
    for alpha in reversed(cells):
        series_val, flag_val = vgap(alpha), flag[alpha]
        if series_val != flag_val:
            raise GapcurveError(
                f"dual-path mismatch at alpha={alpha}: series {series_val} "
                f"vs flag {flag_val}"
            )


# ---------------------------------------------------------------------------
# the full pipeline


def analyze(
    center: ProjectionCenter,
    curve,
    *,
    clusters=None,
    enforce_hypotheses: bool = True,
    crosscheck: bool = True,
    certify: bool | None = None,
    truncation_cap: int = TRUNCATION_CAP,
    rng=None,
) -> ProjectionReport:
    """check_center -> find_ramification -> analyze_at_points -> verdicts.

    ``clusters`` (lists of curve points, or of point names for a user-supplied
    ExpansionCurveModel) replaces the basepoint check and the ramification
    search: basepoint-freeness is then reported as None, completeness is not
    assessed, and ``certify`` is ignored.  User-supplied models have no
    automatic search, so they require clusters.
    """
    d = center.degree
    if curve.dim_w != d + 1:
        raise ValidationError(
            f"the curve model has dim_w {curve.dim_w}, but the center's rows have length {d + 1}"
        )
    ell = center.ell
    n = center.n
    rho_g = curve.genus
    hypotheses = {
        "basepoint_free": None,
        "two_ell_lt_d_minus_2g": 2 * ell < d - 2 * rho_g,
        "ell_le_3": ell <= 3,
        "n_gt_2": n > 2,
    }

    searched = clusters is None
    if searched:
        if not isinstance(curve, RationalNormalCurve):
            raise ValidationError(
                "user-supplied curve models need explicit clusters (lists of point names)"
            )
        verdict = check_center(center, curve)
        hypotheses["basepoint_free"] = verdict.basepoint_free
        if verdict.indeterminate:
            raise IndeterminateOverFieldError(verdict.detail)
        if not verdict.basepoint_free:
            raise HypothesisViolationError(
                f"center meets the curve at {verdict.basepoints}; projection is not "
                "induced by a basepoint-free system"
            )
    if enforce_hypotheses and not hypotheses["two_ell_lt_d_minus_2g"]:
        raise HypothesisViolationError(
            f"2*ell < d - 2*genus fails (ell={ell}, d={d}, genus={rho_g}); "
            "pass enforce_hypotheses=False to measure anyway"
        )

    memo = {}  # the candidate forms, shared by the search and the degree check
    if searched:
        clusters = [c.points for c in find_ramification(center, curve, memo)]
    reports = analyze_at_points(
        center,
        curve,
        clusters,
        crosscheck=crosscheck,
        truncation_cap=truncation_cap,
        rng=rng,
    )
    delta_total = sum(r.delta for r in reports)

    if not searched:
        completeness = {"method": "manual clusters (user model)", "complete": None}
    elif isinstance(center.field, PrimeField):
        # rational points only; not certified unless asked
        completeness = {"method": "exhaustive scan of rational points", "complete": None}
        if certify:
            completeness.update(certify_no_extension_ramification(center, curve, memo))
    else:
        completeness = {
            "method": "symbolic elimination with rational root extraction",
            "complete": True,  # unresolved loci raise instead
        }

    report = ProjectionReport(
        field_name=center.field.name,
        degree=d,
        n=n,
        ell=ell,
        genus=rho_g,
        hypotheses=hypotheses,
        basepoint_free=hypotheses["basepoint_free"],
        birational=hypotheses["two_ell_lt_d_minus_2g"],
        clusters=reports,
        delta_total=delta_total,
        genus_bound={},
        completeness=completeness,
    )
    report.genus_bound = verify_genus_bound(report)
    return report


def verify_genus_bound(report: ProjectionReport) -> dict:
    """Total singularity degree against the center-dimension bound."""
    sigma = report.delta_total
    bound_ok = sigma <= report.ell
    out = {
        "sigma_delta": sigma,
        "ell": report.ell,
        "holds": bound_ok,
        "hypotheses_hold": bool(
            report.hypotheses.get("two_ell_lt_d_minus_2g") and report.basepoint_free
        ),
    }
    if report.genus == 0:
        out["d_minus_n"] = report.degree - report.n
        out["arithmetic_genus"] = sigma  # rho_a = rho_g + sum delta
    return out

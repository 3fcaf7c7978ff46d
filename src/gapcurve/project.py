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
on one route for both fields and every p, from the syzygies of phi = (f_0,
..., f_n), the basis forms of M.  A mu-basis p_1, ..., p_n of them (Cox,
Sederberg and Chen, CAGD 1998; Song and Goldman, CAGD 2009) cuts out phi(P)
exactly, so the biforms G_i = p_i(P)·phi(P') / (a b' - a' b), of low degree
mu_i - 1 in P, vanish together exactly on the secant pairs and, on the
diagonal, at the points whose tangent line meets the center.  The tangency
form is gcd_i G_i(P, P); the secant candidate is the gcd of res_P(H_1, H_2)
over two pairs of random combinations H of the G_i.  A tangent point P makes
(P, P) a common zero of the G_i, so the secant candidate's base-field roots
cover every cluster point; they are extracted, and one partner form per
unplaced root gives its fiber.  Over the rationals the tangency form's roots
are extracted too, and any locus that cannot be resolved to rational points
is an explicit error, the tangency form's first.  Over a prime field the
rational clusters are returned, and points over extension fields can
optionally be certified absent, from the residual degrees of the two
candidate forms.
"""

from __future__ import annotations

import functools
import math
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
# ramification from the syzygies of phi: both fields, every p


# The secant candidate: how many pairs of combinations are drawn before the
# resultants count as vanishing identically, the fixed seed and the largest
# coefficient of a draw.
_SECANT_DRAWS = 6
_SECANT_SEED = 20261020
_SECANT_COEFFICIENT = 9


def _mu_basis(center: ProjectionCenter):
    """(phi, [p_1, ..., p_n]): a mu-basis of the syzygies of phi = (f_0, ..., f_n).

    phi holds the basis forms of M as the rows of an array from
    ``linalg.matrix`` (over Q each scaled into Z), column e the coefficient of
    a^e b^(d - e).  p_i is a (mu_i + 1) x (n + 1) array of the same kind, row
    s the coefficient of a^s b^(mu_i - s), with sum_j p_ij f_j = 0; mu_1 <= ...
    <= mu_n, and every syzygy is a combination of the p_i with form
    coefficients.  Without basepoints sum mu_i = d, so mu_n <= ell + 1.

    One echelon (Hong, Hough and Kogan, JSC 2017) of the multiplication matrix
    of degree T = ell + 1, whose column k(n + 1) + j is a^k b^(T - k) f_j.  A
    column that depends on the columns before it gives b^(T - k) times a
    syzygy of degree k, and then so does its next shift; the dependent
    columns whose previous shift is independent give the basis, mu_i = k.
    """
    field, d, n = center.field, center.degree, center.n
    p = field.characteristic
    phi = linalg.matrix(center.m_basis(), field, d + 1)[:, ::-1]
    width, top = n + 1, center.ell + 1
    a = np.zeros((d + top + 1, width * (top + 1)), dtype=phi.dtype)
    for k in range(top + 1):
        a[k : k + d + 1, k * width : (k + 1) * width] = phi.T
    red, pivots = linalg.echelon(a, p)
    pivots = np.array(pivots)
    lead = red[np.arange(len(pivots)), pivots]
    taken = set(pivots.tolist())
    basis = []
    for c in range(a.shape[1]):
        if c in taken or (c >= width and c - width not in taken):
            continue
        # column c is sum_r red[r, c] / lead[r] times column pivots[r]
        rows = red[:, c].nonzero()[0]
        scale = 1 if p else functools.reduce(math.lcm, lead[rows].tolist(), 1)
        syz = np.zeros((c // width + 1) * width, dtype=a.dtype)
        syz[c] = scale
        syz[pivots[rows]] = -red[rows, c] * (scale // lead[rows])
        syz = syz % p if p else syz // np.gcd.reduce(syz)
        basis.append(syz.reshape(-1, width))
        if len(basis) == n:
            break
    return phi, basis


def _syzygy_biforms(center: ProjectionCenter):
    """G_i = p_i(P)·phi(P') / (a b' - a' b) for the mu-basis p_i: mu_i x d
    arrays, entry (s, t) the coefficient of a^s b^(mu_i - 1 - s) a'^t b'^(d - 1 - t).

    p_i(P)·phi(P) = 0, so the diagonal form divides.  At every P, over the
    closure too, the p_i(P) span the forms vanishing at phi(P); so for
    P' != P every G_i vanishes exactly when phi(P') = phi(P).  On the diagonal
    G_i(P, P) = -p_i(P)·phi_a(P) / b = p_i(P)·phi_b(P) / a, which vanishes
    for every i exactly when the tangent line at P meets the center.
    """
    p = center.field.characteristic
    d = center.degree
    phi, basis = _mu_basis(center)
    out = []
    for syz in basis:
        mu = len(syz) - 1
        prod = linalg.matmul(syz, phi, p)  # p_i(P)·phi(P'), entry (s, t) as above
        # long division by a b' - a' b: each quotient term is a sum along an antidiagonal
        quot = np.zeros((mu, d), dtype=prod.dtype)
        for u in range(1, mu + 1):
            quot[: mu - u + 1, u - 1 :] += prod[u:, : d - u + 1]
        out.append(quot % p if p else quot)
    return out


def _tangency_form(center: ProjectionCenter, biforms):
    """gcd_i G_i(P, P): its roots are the points whose tangent line meets
    the center."""
    field = center.field
    forms = []
    for g in biforms:
        diag = np.zeros(sum(g.shape) - 1, dtype=g.dtype)
        for s, row in enumerate(g):
            diag[s : s + len(row)] += row
        forms.append(binforms.BinaryForm(field, diag.tolist()))
    if all(f.is_zero() for f in forms):
        raise HypothesisViolationError("every tangent line meets the center: the map is degenerate")
    return binforms.gcd_many(forms)


def _secant_candidate_form(center: ProjectionCenter, biforms):
    """A form whose base-field roots cover every secant-cluster point.

    It is the gcd of res_P(H_1, H_2) over two pairs of random combinations
    H = sum r_i(P) G_i, each r_i of degree D - mu_i + 1 with D = mu_n - 1, so
    H has bidegree (D, d - 1) and each resultant degree 2D(d - 1); ell >= 1
    gives D >= 1.  A secant pair (P, P') or a tangent point P = P' is a common
    zero of the G_i, over the closure too, so P' is a root whatever the
    draws; they only decide how many spurious factors remain.  A resultant
    that vanishes identically means a common factor of H_1 and H_2 in P; it is
    drawn again a few times.  The resultants eliminate P, the columns of the
    transposed rows, exactly (``binforms.resultants``).
    """
    field = center.field
    p = field.characteristic
    top = max(len(g) for g in biforms)
    rng = random.Random(_SECANT_SEED)

    def combination():
        h = np.zeros((top, center.degree), dtype=biforms[0].dtype)
        for g in biforms:
            for u in range(top - len(g) + 1):  # r_i(P) G_i, one coefficient of r_i at a time
                h[u : u + len(g)] += rng.randint(1, _SECANT_COEFFICIENT) * g
        return (h.T % p if p else h.T).tolist()

    def draw():
        return combination(), combination()

    found = []
    for batch in chain([[draw(), draw()]], ([draw()] for _ in range(_SECANT_DRAWS - 2))):
        forms = (binforms.BinaryForm(field, c) for c in binforms.resultants(batch, p))
        found += [res for res in forms if not res.is_zero()]
        if len(found) >= 2:
            return binforms.form_gcd(*found[:2])
    raise HypothesisViolationError(
        "all secant resultants vanish identically: infinitely many secants "
        "meet the center (hypotheses violated?)"
    )


def _candidate_roots(center: ProjectionCenter, memo: dict | None, kinds=("tangency", "secant")):
    """Yield (kind, base-field roots, residual degree) for each kind of
    candidate form, the tangency form and the secant candidate by default; the
    secant candidate's roots alone cover every ramification point defined over
    the base field.  The biforms G_i and each form are computed on first use
    and kept in ``memo`` when one is given, so one analysis builds each once."""
    memo = {} if memo is None else memo
    if "biforms" not in memo:
        memo["biforms"] = _syzygy_biforms(center)
    for kind, make in (("tangency", _tangency_form), ("secant", _secant_candidate_form)):
        if kind not in kinds:
            continue
        if kind not in memo:
            form = make(center, memo["biforms"])
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


def find_ramification(center: ProjectionCenter, curve, _memo=None):
    """All clusters of points collapsed by the projection, from the secant
    candidate's base-field roots (over Q the tangency form's first), one
    partner form per unplaced root.

    Requires a basepoint-free center.  Over Q a residual factor raises; over
    F_p points over extensions are ignored, so the clusters are those of the
    rational points, and once p + 1 <= 2 ell (d - 1), a bound on the secant
    candidate's degree, every rational point is a candidate and no
    combination is drawn.  ``_memo`` is internal: a dict in which ``analyze``
    keeps the candidate forms for its degree check.
    """
    if not isinstance(curve, RationalNormalCurve):
        raise ValidationError(
            "automatic ramification search is only available for the built-in "
            "rational normal model; supply clusters manually"
        )
    field = center.field
    p = field.characteristic
    if center.n == 1:
        raise HypothesisViolationError(
            "n = 1: the projection maps the curve onto a line, so every fiber collapses"
        )
    if p and p + 1 <= 2 * center.ell * (center.degree - 1):
        candidates = curve.all_points()
    else:
        candidates = []
        # every tangent point is a secant root; over Q the tangency form names
        # an irrational tangent point in the error
        kinds = ("secant",) if p else ("tangency", "secant")
        for kind, roots, residual in _candidate_roots(center, _memo, kinds):
            if residual and not p:
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
        if residual and not p:
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
            exps = np.hstack([linalg.matmul(sections, j.T, p) for j in jets])
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

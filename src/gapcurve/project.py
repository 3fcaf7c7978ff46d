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

Over a prime field, ramification detection scans every point of the
projective line (exact int64 arithmetic); points living over extension
fields are not seen by the scan and can optionally be certified absent.
Over the rationals, detection is symbolic: Wronskian gcds for tangency,
resultant elimination plus rational-root extraction for secants, and any
locus that cannot be resolved to rational points is an explicit error.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Multifiltration,
    RationalNormalCurve,
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
from .gaps import TRUNCATION_CAP, VECTOR_SPACE, GapFunction, close_and_stabilize
from .series import Ambient, SeriesSubspace, TruncatedSeries


class ProjectionCenter:
    """An ell-dimensional subspace L of V, echelonized, with M = L-perp."""

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
    image: tuple  # normalized projective image coordinates

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
    """Basepoint-freeness of M, i.e. P(L) misses the curve."""
    if center.degree != curve.degree or center.field != curve.field:
        raise ValidationError("center and curve ambient mismatch")
    if isinstance(center.field, PrimeField):
        data = _scan_data(center, curve)
        idx = np.nonzero(~np.any(data["phi"], axis=1))[0]
        pts = [_point_from_index(curve, int(i)) for i in idx]
        return CenterVerdict(not pts, pts)
    # over the rationals: common zeros of the forms of M
    forms = [_dual_to_form(row, center.degree, center.field) for row in center.m_basis()]
    g = binforms.gcd_many(forms)
    roots, residual = binforms.projective_roots(g) if binforms.form_has_roots(g) else ([], 0)
    pts = [CurvePoint(center.field, a, b) for (a, b), _ in roots]
    if residual:
        return CenterVerdict(
            False, pts, indeterminate=True,
            detail="possible basepoints over an extension of the rationals",
        )
    return CenterVerdict(not pts, pts)


def _dual_to_form(coeffs, degree, field) -> binforms.BinaryForm:
    """Monomial-order coefficients (x^d first) to a BinaryForm in (a, b)."""
    return binforms.BinaryForm(field, [field(c) for c in reversed(list(coeffs))])


# ---------------------------------------------------------------------------
# ramification over a prime field: exhaustive scan

_scan_cache: dict = {}


def _vandermonde_rows(p: int, d: int):
    """nu and nu' rows for all p+1 points, int64, cached per (p, d)."""
    key = (p, d)
    hit = _scan_cache.get(key)
    if hit is not None:
        return hit
    a = np.arange(p, dtype=np.int64)
    powers = np.ones((d + 1, p), dtype=np.int64)
    for e in range(1, d + 1):
        powers[e] = powers[e - 1] * a % p
    nu = np.zeros((p + 1, d + 1), dtype=np.int64)
    nu_t = np.zeros((p + 1, d + 1), dtype=np.int64)
    for k in range(d + 1):
        nu[:p, k] = powers[d - k]
        if d - k - 1 >= 0:
            nu_t[:p, k] = (d - k) * powers[d - k - 1] % p
    nu[p, 0] = 1  # the point (1:0)
    nu_t[p, 1] = 1
    _scan_cache[key] = (nu, nu_t)
    return nu, nu_t


def _point_from_index(curve, idx: int) -> CurvePoint:
    p = curve.field.p
    if idx == p:
        return CurvePoint(curve.field, curve.field.one, curve.field.zero)
    return CurvePoint(curve.field, curve.field(idx), curve.field.one)


def _scan_data(center: ProjectionCenter, curve) -> dict:
    p = center.field.p
    d = center.degree
    nu, nu_t = _vandermonde_rows(p, d)
    m = np.array([[c.value for c in row] for row in center.m_basis()], dtype=np.int64)
    phi = nu @ m.T % p
    return {"nu": nu, "nu_t": nu_t, "phi": phi}


def _ramification_scan_gfp(center: ProjectionCenter, curve):
    p = center.field.p
    data = _scan_data(center, curve)
    nu, nu_t, phi = data["nu"], data["nu_t"], data["phi"]

    # tangency: rank([L; nu; nu']) <= ell + 1, tested after reducing mod L
    lrows = np.array([[c.value for c in row] for row in center.rows], dtype=np.int64)
    piv = np.array(center.pivots, dtype=np.int64)
    nu_r = (nu - nu[:, piv] @ lrows) % p
    nut_r = (nu_t - nu_t[:, piv] @ lrows) % p
    cross = nu_r[:, :, None] * nut_r[:, None, :] % p
    minors = (cross - cross.transpose(0, 2, 1)) % p
    tangent_mask = ~np.any(minors, axis=(1, 2))

    # fibers: group points by normalized image
    lead = np.argmax(phi != 0, axis=1)
    lead_vals = phi[np.arange(phi.shape[0]), lead]
    if np.any(lead_vals == 0):
        raise ValidationError("basepoint present; run check_center first")
    inv = linalg.batch_inverse(lead_vals, p)
    norm = phi * inv[:, None] % p
    fibers: dict[bytes, list[int]] = {}
    for i in range(norm.shape[0]):
        fibers.setdefault(norm[i].tobytes(), []).append(i)

    clusters = []
    for key, members in fibers.items():
        if len(members) < 2 and not any(tangent_mask[i] for i in members):
            continue
        pts = [_point_from_index(curve, i) for i in members]
        tangs = [bool(tangent_mask[i]) for i in members]
        order = sorted(range(len(pts)), key=lambda j: pts[j].sort_key())
        image = _normalized_image(center, curve, pts[0])
        clusters.append(
            RamificationCluster([pts[j] for j in order], [tangs[j] for j in order], image)
        )
    clusters.sort(key=lambda c: c.points[0].sort_key())
    return clusters


def _normalized_image(center: ProjectionCenter, curve, point: CurvePoint):
    vals = [curve.section_value(row, point) for row in center.m_basis()]
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise ValidationError(f"{point} is a basepoint")
    inv = center.field.one / lead
    return tuple(v * inv for v in vals)


# ---------------------------------------------------------------------------
# ramification over the rationals: symbolic elimination


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


def _collision_forms(center: ProjectionCenter):
    """Stripped, deduplicated collision biforms plus their content forms.

    The content forms record first-point lines where some collision biform
    vanishes identically; their roots rejoin the candidate set directly.
    """
    field = center.field
    d = center.degree
    m_rows = center.m_basis()
    hs = {}
    contents = []
    for i in range(len(m_rows)):
        for j in range(i + 1, len(m_rows)):
            b = binforms.collision_biform(m_rows[i], m_rows[j], field, d)
            if b.is_zero():
                continue
            h = b.divide_diagonal()
            h, cs = h.strip_contents()
            contents.extend(cs)
            h = h.normalized()
            hs.setdefault(h.key(), h)
    return list(hs.values()), contents


def _secant_candidate_form(center: ProjectionCenter):
    """(candidate form or None, content forms): rational roots of these cover
    every secant-cluster point."""
    hs, contents = _collision_forms(center)
    if not hs:
        raise HypothesisViolationError("collision ideal vanishes identically")
    if len(hs) == 1 and hs[0].deg_p == 0 and hs[0].deg_q == 0:
        return None, contents  # constants: no collisions beyond content lines
    acc = None
    nonzero = 0
    stable = 0
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            res = binforms.resultant_in_q(hs[i], hs[j])
            if res.is_zero():
                continue
            nonzero += 1
            nxt = res if acc is None else binforms.form_gcd(acc, res)
            stable = stable + 1 if acc is not None and nxt == acc else 0
            acc = nxt
            if binforms.form_is_unit(acc) or stable >= 3 or nonzero >= 12:
                return acc, contents
    if acc is None and len(hs) >= 2:
        raise HypothesisViolationError(
            "all collision resultants vanish identically: infinitely many secants "
            "meet the center (hypotheses violated?)"
        )
    return acc, contents


def _candidate_roots(center: ProjectionCenter):
    """Yield (kind, base-field roots, residual degree) for the tangency form,
    then for each secant candidate form; the roots cover every ramification
    point defined over the base field."""
    tform = _tangency_form(center)
    if binforms.form_has_roots(tform):
        yield "tangency", *binforms.projective_roots(tform)
    sform, contents = _secant_candidate_form(center)
    for cform in [sform] + contents:
        if cform is not None and binforms.form_has_roots(cform):
            yield "secant", *binforms.projective_roots(cform)


def _partner_form(center: ProjectionCenter, curve, point: CurvePoint):
    """Form cutting out the partners of a point: roots of gcd{f in M : f(P)=0}."""
    field = center.field
    m_rows = center.m_basis()
    vals = [curve.section_value(row, point) for row in m_rows]
    forms = []
    for combo in linalg.nullspace([vals], field, len(m_rows)):
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


def _ramification_symbolic_q(center: ProjectionCenter, curve):
    field = center.field
    candidates: dict[tuple, CurvePoint] = {}
    for kind, roots, residual in _candidate_roots(center):
        if residual:
            raise IrrationalRamificationError(_IRRATIONAL_CANDIDATES[kind])
        for (a, b), _ in roots:
            pt = CurvePoint(field, a, b)
            candidates[(pt.a, pt.b)] = pt

    # resolve each candidate's fiber exactly; drop non-ramified candidates
    confirmed: dict[tuple, CurvePoint] = {}
    for pt in list(candidates.values()):
        g = _partner_form(center, curve, pt)
        roots, residual = binforms.projective_roots(g)
        if residual:
            raise IrrationalRamificationError(
                f"fiber through {pt} contains points over an extension field"
            )
        fiber = [CurvePoint(field, a, b) for (a, b), mult in roots]
        own_mult = next(m for (a, b), m in roots if CurvePoint(field, a, b) == pt)
        if len(fiber) >= 2 or own_mult >= 2:
            for q in fiber:
                confirmed[(q.a, q.b)] = q

    # group by exact image
    fibers: dict[tuple, list[CurvePoint]] = {}
    for pt in confirmed.values():
        fibers.setdefault(_normalized_image(center, curve, pt), []).append(pt)

    clusters = []
    for image, pts in fibers.items():
        pts = sorted(pts, key=lambda q: q.sort_key())
        tangs = [_is_tangent(center, curve, q) for q in pts]
        if len(pts) < 2 and not any(tangs):
            continue
        clusters.append(RamificationCluster(pts, tangs, image))
    clusters.sort(key=lambda c: c.points[0].sort_key())
    return clusters


def _is_tangent(center: ProjectionCenter, curve, point: CurvePoint) -> bool:
    rows = curve.osc_rows(point, 2)
    return linalg.intersection_dim(center.rows, rows, center.field) >= 1


def find_ramification(center: ProjectionCenter, curve):
    """All clusters of points collapsed by the projection.

    Requires a basepoint-free center; completeness guarantees differ by
    field (see the module docstring).
    """
    if not isinstance(curve, RationalNormalCurve):
        raise ValidationError(
            "automatic ramification search is only available for the built-in "
            "rational normal model; supply clusters manually"
        )
    if isinstance(center.field, PrimeField):
        return _ramification_scan_gfp(center, curve)
    return _ramification_symbolic_q(center, curve)


def certify_no_extension_ramification(center: ProjectionCenter, curve) -> dict:
    """Degree check over a prime field: do ramification points exist over
    extensions?  Returns residual degrees; zero residuals mean the scan was
    complete."""
    if not isinstance(center.field, PrimeField):
        raise ValidationError("certification is a prime-field operation")
    residual = {"tangency": 0, "secant": 0}
    for kind, _, extra in _candidate_roots(center):
        residual[kind] += extra
    return {
        "tangency_residual_degree": residual["tangency"],
        "secant_candidate_residual_degree": residual["secant"],
        "complete": not any(residual.values()),
    }


# ---------------------------------------------------------------------------
# cluster analysis


def _choose_section(center: ProjectionCenter, curve, points, rng=None):
    """An element of M nonvanishing at every cluster point."""
    field = center.field
    m_rows = center.m_basis()
    for row in m_rows:
        if all(curve.section_value(row, p) for p in points):
            return list(row)
    import random as _random

    rng = rng or _random.Random(20260808)
    for _ in range(64):
        combo = [field.random_element(rng) for _ in m_rows]
        row = linalg.combine(combo, m_rows, field, center.degree + 1)
        if all(curve.section_value(row, p) for p in points):
            return row
    raise GapcurveError("could not find a section of M nonvanishing on the cluster")


def _cluster_series_builder(center, curve, points, s_coeffs):
    """builder(N) -> (ambient, vectors): the subspace (1/s) M at precision N."""

    def builder(n):
        field = center.field
        amb = Ambient(field, len(points), n)
        inv = [curve.local_expansion(s_coeffs, p, n).inverse() for p in points]
        vectors = []
        for row in center.m_basis():
            branches = []
            for p, sinv in zip(points, inv):
                e = curve.local_expansion(row, p, n) * sinv
                branches.append(e.coeffs[0])
            vectors.append(TruncatedSeries(amb, branches))
        return amb, vectors

    return builder


def _validate_cluster(center, curve, points):
    if len(points) != len(set(_point_key(p) for p in points)):
        raise ValidationError("cluster points must be distinct")
    if len(points) >= 2:
        images = {_normalized_image(center, curve, p) for p in points}
        if len(images) != 1:
            raise ValidationError(
                "cluster points do not share an image point (secant property fails)"
            )


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
    yields the singularity degree.  A user-supplied model's table precision
    caps the truncation.
    """
    if isinstance(curve, ExpansionCurveModel):
        truncation_cap = min(truncation_cap, curve.precision)
    reports = []
    d = center.degree
    rho_g = curve.genus
    for raw_points in clusters:
        points = list(raw_points)
        _validate_cluster(center, curve, points)
        s_coeffs = _choose_section(center, curve, points, rng)
        builder = _cluster_series_builder(center, curve, points, s_coeffs)
        start_n = max(2 * center.ell + 4, d + 2)
        closed, ring_gap, delta = close_and_stabilize(builder, start_n, cap=truncation_cap)
        n_used = closed.ambient.truncation
        amb, vectors = builder(n_used)
        space = SeriesSubspace.span(amb, vectors)
        vgap = GapFunction(space, VECTOR_SPACE)

        if crosscheck:
            _dual_path_check(center, curve, points, vgap, d, rho_g)

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
        tangs = [_is_tangent(center, curve, p) for p in points]
        reports.append(
            ClusterReport(
                points=list(points),
                tangent=tangs,
                delta=delta,
                stype=stype,
                vs_label=vs_label,
                lambda_samples=samples,
                section_used=s_coeffs,
            )
        )
    return reports


def _lambda_samples(vgap: GapFunction, delta: int) -> dict:
    r = vgap.arity
    bound = min(2 * delta + 2, vgap.truncation, 10)
    out = {}
    count = 0
    from .gaps import simplex

    for alpha in simplex(bound, r, minimum=1):
        out[alpha] = vgap(alpha)
        count += 1
        if count >= 256:
            break
    return out


def _dual_path_check(center, curve, points, vgap, d, rho_g):
    """Series-side gap values must equal flag-side dim(L cap F^alpha)."""
    filt = Multifiltration(curve, points)
    r = len(points)
    bound = d + 1 - 2 * rho_g
    n = vgap.truncation
    from .gaps import simplex

    for alpha in simplex(bound, r):
        if any(a > n for a in alpha):
            continue
        flag_rows = filt.subspace_rows(alpha)
        flag_dim = linalg.intersection_dim(center.rows, flag_rows, center.field)
        series_val = vgap(alpha)
        if series_val != flag_dim:
            raise GapcurveError(
                f"dual-path mismatch at alpha={alpha}: series {series_val} "
                f"vs flag {flag_dim}"
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

    if searched:
        clusters = [c.points for c in find_ramification(center, curve)]
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
            completeness.update(certify_no_extension_ramification(center, curve))
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

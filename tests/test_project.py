import random
from itertools import combinations

import pytest

from gapcurve import linalg
from gapcurve.curve import ExpansionCurveModel, RationalNormalCurve
from gapcurve.errors import (
    HypothesisViolationError,
    IndeterminateOverFieldError,
    ValidationError,
)
from gapcurve.fields import GF, QQ
from gapcurve.project import (
    ProjectionCenter,
    analyze,
    analyze_at_points,
    certify_no_extension_ramification,
    check_center,
    find_ramification,
    verify_genus_bound,
)

F = GF(10007)


def monomial_rows(d, indices):
    rows = []
    for idx in indices:
        row = [0] * (d + 1)
        row[idx] = 1
        rows.append(row)
    return rows


def sharp_family_system(d, n):
    """x^d together with x^(n-k) y^(d-n+k), k = 1..n: singular only at (1:0)."""
    return monomial_rows(d, [0] + list(range(d - n + 1, d + 1)))


def quintic_345_center(field):
    # M = {x^5, x^2 y^3, x y^4, y^5}
    return ProjectionCenter.from_linear_system(field, 5, monomial_rows(5, [0, 3, 4, 5]))


def test_center_constructors_round_trip():
    c = quintic_345_center(F)
    assert c.ell == 2 and c.n == 3
    m = c.m_basis()
    assert len(m) == 4
    # L is orthogonal to M under the coefficient pairing
    for lrow in c.rows:
        for mrow in m:
            acc = F.zero
            for a, b in zip(lrow, mrow):
                acc = acc + a * b
            assert acc == F.zero
    again = ProjectionCenter.from_rows(F, 5, c.rows)
    assert again.rows == c.rows


def test_check_center_quintic_free():
    for field in (F, QQ):
        c = quintic_345_center(field)
        curve = RationalNormalCurve(field, 5)
        v = check_center(c, curve)
        assert v.basepoint_free and not v.basepoints


def test_check_center_constructed_hit():
    curve = RationalNormalCurve(F, 5)
    pt = curve.point(7, 1)
    nu = curve.veronese_row(pt)
    other = [F(1)] + [F.zero] * 5
    c = ProjectionCenter.from_rows(F, 5, [nu, other])
    v = check_center(c, curve)
    assert not v.basepoint_free
    assert pt in v.basepoints


def test_check_center_indeterminate_over_q():
    # M = (x^2 - 2 y^2) * all cubics: basepoints at the irrational x = +-sqrt(2) y
    d = 5
    rows = []
    for j in range(4):  # (x^2 - 2y^2) x^(3-j) y^j = x^(5-j) y^j - 2 x^(3-j) y^(j+2)
        row = [QQ(0)] * 6
        row[j] = QQ(1)
        row[j + 2] = QQ(-2)
        rows.append(row)
    c = ProjectionCenter.from_linear_system(QQ, d, rows)
    v = check_center(c, RationalNormalCurve(QQ, d))
    assert v.indeterminate and not v.basepoint_free


def test_find_ramification_quintic_345():
    for field in (F, QQ):
        c = quintic_345_center(field)
        curve = RationalNormalCurve(field, 5)
        clusters = find_ramification(c, curve)
        assert len(clusters) == 1
        (cl,) = clusters
        assert cl.branches == 1
        assert cl.points[0].at_infinity
        assert cl.tangent == [True]


def test_find_ramification_generic_line_misses():
    # a generic dim-2 center misses the secant variety of the quintic
    rng = random.Random(4)
    curve = RationalNormalCurve(F, 5)
    found = 0
    for _ in range(5):
        while True:
            rows = [[F.random_element(rng) for _ in range(6)] for _ in range(2)]
            c = ProjectionCenter.from_rows(F, 5, rows)
            if c.ell == 2 and check_center(c, curve).basepoint_free:
                break
        found += len(find_ramification(c, curve))
    assert found == 0


def naive_ramification_oracle(center, curve):
    """Brute force over all points and pairs with generic-field linalg."""
    pts = curve.all_points()
    singular = set()
    for p in pts:
        rows = curve.osc_rows(p, 2)
        if linalg.intersection_dim(center.rows, rows, center.field) >= 1:
            singular.add(p.coords())
    for p, q in combinations(pts, 2):
        rows = curve.osc_rows(p, 1) + curve.osc_rows(q, 1)
        if linalg.intersection_dim(center.rows, rows, center.field) >= 1:
            singular.add(p.coords())
            singular.add(q.coords())
    return singular


def naive_basepoint_oracle(center, curve):
    """A point is a basepoint iff every section of M vanishes there."""
    out = set()
    for p in curve.all_points():
        if all(not curve.section_value(row, p) for row in center.m_basis()):
            out.add(p.coords())
    return out


def test_scan_matches_naive_oracle_small_field():
    field = GF(61)
    curve = RationalNormalCurve(field, 8)
    rng = random.Random(12)
    tried = 0
    for center_rows in [
        monomial_rows(8, [1, 2, 3]),  # sharp-family center (d=8, n=5), via M
        None,
        None,
    ]:
        if center_rows is not None:
            c = ProjectionCenter.from_linear_system(
                field, 8, monomial_rows(8, [0] + list(range(4, 9)))
            )
        else:
            while True:
                rows = [[field.random_element(rng) for _ in range(9)] for _ in range(3)]
                c = ProjectionCenter.from_rows(field, 8, rows)
                if c.ell == 3 and check_center(c, curve).basepoint_free:
                    break
        verdict = check_center(c, curve)
        assert {p.coords() for p in verdict.basepoints} == naive_basepoint_oracle(c, curve)
        got = {p.coords() for cl in find_ramification(c, curve) for p in cl.points}
        assert got == naive_ramification_oracle(c, curve)
        tried += 1
    assert tried == 3


def test_analyze_quintic_345_cusp():
    for field in (F, QQ):
        c = quintic_345_center(field)
        curve = RationalNormalCurve(field, 5)
        report = analyze(c, curve)
        assert report.delta_total == 2
        assert len(report.clusters) == 1
        cl = report.clusters[0]
        assert cl.type_label == "2.1.a"
        assert cl.delta == 2
        assert report.genus_bound["holds"]
        assert report.genus_bound["d_minus_n"] == 2


def test_analyze_quintic_second_parametrization():
    # x^5 + x^3 y^2, x^2 y^3, x y^4, y^5: the other canonical (3,4,5)-cusp quintic
    rows = monomial_rows(5, [3, 4, 5])
    extra = [0] * 6
    extra[0] = 1
    extra[2] = 1
    c = ProjectionCenter.from_linear_system(F, 5, [extra] + rows)
    report = analyze(c, RationalNormalCurve(F, 5))
    assert [cl.type_label for cl in report.clusters] == ["2.1.a"]
    assert report.delta_total == 2


def test_analyze_quintic_cusp_with_smooth_branch_family():
    # x^5 + c x y^4 - y^5, x^2 y^3, x^3 y^2, x^4 y  ->  2.2.b for c != 0
    for field, cs in ((F, [1, 2, 3]), (QQ, [1])):
        curve = RationalNormalCurve(field, 5)
        for cval in cs:
            lead = [0] * 6
            lead[0] = 1
            lead[4] = cval
            lead[5] = -1
            rows = [lead] + monomial_rows(5, [3, 2, 1])
            c = ProjectionCenter.from_linear_system(field, 5, rows)
            report = analyze(c, curve)
            assert report.delta_total == 2
            assert [cl.type_label for cl in report.clusters] == ["2.2.b"]
            (cl,) = report.clusters
            assert cl.branches == 2
            assert cl.vs_label == "2.2.b"


def test_analyze_sharp_family_d6_and_d7():
    # degree d, measured singularity degree d - n at the single cluster (1:0)
    for field in (F, QQ):
        for d, n in [(6, 4), (7, 4)]:
            c = ProjectionCenter.from_linear_system(field, d, sharp_family_system(d, n))
            curve = RationalNormalCurve(field, d)
            report = analyze(c, curve)
            assert len(report.clusters) == 1
            (cl,) = report.clusters
            assert cl.points[0].at_infinity
            assert cl.delta == d - n
            assert report.genus_bound["holds"]
            assert report.genus_bound["sigma_delta"] == d - n == report.genus_bound["d_minus_n"]


def test_analyze_hypothesis_gate_refusal():
    # d = 5 with ell = 3 violates 2*ell < d
    c = ProjectionCenter.from_linear_system(F, 5, monomial_rows(5, [0, 4, 5]))
    with pytest.raises(HypothesisViolationError):
        analyze(c, RationalNormalCurve(F, 5))


def test_analyze_necessity_example_d_equals_2n():
    # d = 2n: gate fails, measured delta is n + 1 = d - n + 1
    n = 3
    d = 2 * n
    system = monomial_rows(d, [0] + list(range(n + 1, d + 1)))
    c = ProjectionCenter.from_linear_system(F, d, system)
    curve = RationalNormalCurve(F, d)
    assert not (2 * c.ell < d)
    report = analyze(c, curve, enforce_hypotheses=False)
    assert report.hypotheses["two_ell_lt_d_minus_2g"] is False
    assert len(report.clusters) == 1
    assert report.clusters[0].delta == n + 1
    assert report.clusters[0].type_label == "unclassified"
    bound = verify_genus_bound(report)
    assert not bound["hypotheses_hold"]
    assert bound["sigma_delta"] == n + 1 == d - n + 1


def test_analyze_at_points_manual_cluster_validation():
    c = quintic_345_center(F)
    curve = RationalNormalCurve(F, 5)
    p1 = curve.point(1, 1)
    p2 = curve.point(2, 1)
    with pytest.raises(ValidationError):
        analyze_at_points(c, curve, [[p1, p2]])  # different images: not a fiber
    # a smooth point alone is fine and reports delta = 0
    reports = analyze_at_points(c, curve, [[p1]])
    assert reports[0].delta == 0
    assert reports[0].stype is not None and reports[0].stype.is_smooth


def test_certify_no_extension_ramification():
    c = quintic_345_center(F)
    curve = RationalNormalCurve(F, 5)
    out = certify_no_extension_ramification(c, curve)
    assert out["complete"] in (True, False)
    report = analyze(c, curve, certify=True)
    assert report.completeness["complete"] is not None


def test_certify_flags_conjugate_pair_over_fp():
    # a center through the rational midpoint of the secant joining the
    # conjugate points (+-sqrt(s) : 1), s a non-residue: the rational scan
    # cannot see the collapsed fiber, the degree check reports it
    p = F.p
    s = next(x for x in range(2, 50) if pow(x, (p - 1) // 2, p) == p - 1)
    d = 7
    curve = RationalNormalCurve(F, d)
    row1 = [
        F(2 * pow(s, (d - k) // 2, p)) if (d - k) % 2 == 0 else F.zero for k in range(d + 1)
    ]
    row2 = [F.zero] * (d + 1)
    row2[0] = F(1)
    row2[6] = F(5)
    c = ProjectionCenter.from_rows(F, d, [row1, row2])
    assert check_center(c, curve).basepoint_free
    out = certify_no_extension_ramification(c, curve)
    assert not out["complete"]
    assert out["secant_candidate_residual_degree"] > 0 or out["tangency_residual_degree"] > 0
    # the conjugate fiber has no rational member for the scan to report
    scanned = {q.coords() for cl in find_ramification(c, curve) for q in cl.points}
    conjugate_fiber_markers = {(F(x), F.one) for x in (s,)}  # sqrt(s) itself is irrational
    assert not (scanned & conjugate_fiber_markers)


def test_irrational_ramification_over_q():
    # the secant through the conjugate points x = +-sqrt(2) has a rational
    # midpoint nu(sqrt2) + nu(-sqrt2); a center through it meets that secant,
    # so the singular fiber lives over an extension and detection must error
    curve = RationalNormalCurve(QQ, 7)
    # nu(a)_k = a^(7-k); summing over the conjugates kills odd powers
    row1 = [QQ(2) ** ((7 - k) // 2) * 2 if (7 - k) % 2 == 0 else QQ(0) for k in range(8)]
    row2 = [QQ(0)] * 8
    row2[0] = QQ(1)
    row2[6] = QQ(5)
    c = ProjectionCenter.from_rows(QQ, 7, [row1, row2])
    assert check_center(c, curve).basepoint_free
    with pytest.raises(IndeterminateOverFieldError):
        find_ramification(c, curve)


def test_sandwich_inequality_across_clusters():
    # sum of per-cluster gap values <= gap of the joint ring <= gap of the
    # joint generating space, on a center with a node and a cusp
    from gapcurve.classify import concrete_type
    from gapcurve.gaps import ALGEBRA_CLOSED, VECTOR_SPACE, GapFunction, close_algebra
    from gapcurve.schubert import sample_configuration, stratum_spec
    from gapcurve.series import Ambient, SeriesSubspace, TruncatedSeries

    curve = RationalNormalCurve(F, 8)
    pts = [curve.point(a, 1) for a in (3, 11, 42)]
    node = stratum_spec(concrete_type("1.2"), pts[:2], curve, 3)
    cusp = stratum_spec(concrete_type("1.1"), pts[2:], curve, 3)
    center = sample_configuration([node, cusp], 3, 17, curve)

    m_rows = center.m_basis()
    s = next(row for row in m_rows if all(curve.section_value(row, p) for p in pts))
    n = 12
    amb = Ambient(F, 3, n)
    inv = [curve.local_expansion(s, p, n).inverse() for p in pts]
    vectors = []
    for row in m_rows:
        branches = [(curve.local_expansion(row, p, n) * si).coeffs[0] for p, si in zip(pts, inv)]
        vectors.append(TruncatedSeries(amb, branches))
    space = SeriesSubspace.span(amb, vectors)
    vgap = GapFunction(space, VECTOR_SPACE)
    rgap = GapFunction(close_algebra(space), ALGEBRA_CLOSED)

    def branch_gap(idx):
        sub = SeriesSubspace.span(
            Ambient(F, 1, n), [TruncatedSeries(Ambient(F, 1, n), [v.coeffs[idx]]) for v in vectors]
        )
        return GapFunction(close_algebra(sub), ALGEBRA_CLOSED)

    # clusters: {branch 0, branch 1} is the node fiber, {branch 2} the cusp
    node_gap = GapFunction(
        close_algebra(
            SeriesSubspace.span(
                Ambient(F, 2, n),
                [TruncatedSeries(Ambient(F, 2, n), [v.coeffs[0], v.coeffs[1]]) for v in vectors],
            )
        ),
        ALGEBRA_CLOSED,
    )
    cusp_gap = branch_gap(2)
    rng = random.Random(6)
    for _ in range(40):
        alpha = tuple(rng.randrange(0, 6) for _ in range(3))
        lower = node_gap(alpha[:2]) + cusp_gap(alpha[2:])
        mid = rgap(alpha)
        upper = vgap(alpha)
        assert lower <= mid <= upper, alpha


def test_delta_attained_inside_window():
    # max of the ring gap over |alpha| <= 2*delta equals delta
    from gapcurve.gaps import ALGEBRA_CLOSED, GapFunction, close_algebra, simplex
    from gapcurve.series import Ambient, SeriesSubspace, TruncatedSeries

    rng = random.Random(15)
    field = GF(101)
    checked = 0
    while checked < 15:
        r = rng.randrange(1, 3)
        n = 14
        amb = Ambient(field, r, n)
        vecs = [TruncatedSeries.unit(amb)]
        for i in range(r):
            for e in sorted({rng.randrange(1, 5) for _ in range(2)}):
                vecs.append(TruncatedSeries.monomial(amb, i, e))
        gap = GapFunction(close_algebra(SeriesSubspace.span(amb, vecs)), ALGEBRA_CLOSED)
        try:
            delta = gap.degree()
        except Exception:
            continue
        best = max(gap(alpha) for alpha in simplex(2 * delta, r))
        assert best == delta
        checked += 1


def _pinf_model(d=5, precision=16):
    """Expansion tables of the rational curve's monomial basis at (1:0)."""
    curve = RationalNormalCurve(F, d)
    inf = curve.point(1, 0)
    table = []
    for k in range(d + 1):
        row = [0] * (d + 1)
        row[k] = 1
        table.append(list(curve.local_expansion(row, inf, precision).coeffs[0]))
    return ExpansionCurveModel(F, d + 1, d, 0, {"Pinf": table})


def test_user_model_cluster_analysis_matches_builtin():
    curve = RationalNormalCurve(F, 5)
    c = quintic_345_center(F)
    got = analyze_at_points(c, _pinf_model(), [["Pinf"]], crosscheck=False)
    want = analyze_at_points(c, curve, [[curve.point(1, 0)]])
    assert got[0].delta == want[0].delta == 2
    assert got[0].type_label == want[0].type_label == "2.1.a"


def test_user_model_unknown_point_name():
    c = quintic_345_center(F)
    model = _pinf_model()
    with pytest.raises(ValidationError):
        analyze_at_points(c, model, [["nope"]])
    with pytest.raises(ValidationError):
        analyze(c, model, clusters=[["Pinf", "nope"]])
    with pytest.raises(ValidationError):
        model.osc_rows("nope", 1)


def test_analyze_with_clusters(monkeypatch):
    from gapcurve import project

    c = quintic_345_center(F)
    curve = RationalNormalCurve(F, 5)
    inf = curve.point(1, 0)
    searched = analyze(c, curve)
    given = analyze(c, curve, clusters=[[inf]], certify=True)
    assert given.basepoint_free is None and given.hypotheses["basepoint_free"] is None
    assert given.completeness == {"method": "manual clusters (user model)", "complete": None}
    assert [cl.type_label for cl in given.clusters] == ["2.1.a"]
    assert given.clusters[0].delta == searched.clusters[0].delta == 2
    assert given.genus_bound["holds"] and not given.genus_bound["hypotheses_hold"]

    # a user model is never scanned: no basepoint verdict from the wrong curve
    def no_scan(*args):
        raise AssertionError("check_center called for a user-supplied model")

    monkeypatch.setattr(project, "check_center", no_scan)
    model = _pinf_model()
    with pytest.raises(ValidationError):
        analyze(c, model)
    report = analyze(c, model, clusters=[["Pinf"]])
    assert [cl.points for cl in report.clusters] == [["Pinf"]]
    assert report.delta_total == 2


import ast
import functools
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, count, permutations
from pathlib import Path

import numpy as np
import pytest

from gapcurve import binforms, linalg, project
from gapcurve.binforms import BinaryForm, form_gcd
from gapcurve.classify import enumerate_types
from gapcurve.curve import ExpansionCurveModel, Multifiltration, RationalNormalCurve
from gapcurve.errors import (
    GapcurveError,
    HypothesisViolationError,
    IndeterminateOverFieldError,
    ValidationError,
)
from gapcurve.fields import GF, QQ, is_prime
from gapcurve.gaps import VECTOR_SPACE, GapFunction, simplex
from gapcurve.project import (
    ProjectionCenter,
    _choose_section,
    _cluster_series_builder,
    _flag_dims,
    _mu_basis,
    _point_image,
    _secant_candidate_form,
    _syzygy_biforms,
    _tangency_form,
    analyze,
    analyze_at_points,
    certify_no_extension_ramification,
    check_center,
    find_ramification,
    verify_genus_bound,
)
from gapcurve.schubert import sample_center, stratum_spec
from gapcurve.series import SeriesSubspace

import conftest
from conftest import (
    batch_inverse,
    exact_secant_candidate,
    independent_rank,
    pairwise_secant_roots,
    per_cell_flag_dims,
    per_cell_jet_rank,
    proportional,
    ramification_scan,
    syzygy_biforms,
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


@pytest.mark.parametrize("field", [F, QQ], ids=["p10007", "QQ"])
def test_center_equal_to_v_rejected(field):
    with pytest.raises(ValidationError, match="proper subspace of V"):
        ProjectionCenter.from_rows(field, 5, monomial_rows(5, range(6)))
    with pytest.raises(ValidationError, match="proper subspace of V"):
        ProjectionCenter.from_linear_system(field, 5, [])


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


@pytest.mark.parametrize(
    "center_field, curve_field", [(QQ, GF(101)), (GF(101), QQ)], ids=["QQ-on-p101", "p101-on-QQ"]
)
def test_named_clusters_need_the_center_field(center_field, curve_field):
    # named clusters skip check_center, so analyze_at_points checks the field itself
    curve = RationalNormalCurve(curve_field, 5)
    with pytest.raises(ValidationError, match="center and curve ambient mismatch"):
        analyze(quintic_345_center(center_field), curve, clusters=[[curve.point(1, 0)]])


def conjugate_basepoint_system(d):
    """(x^2 + y^2) * all forms of degree d - 2: basepoints where x = +-i y."""
    return [[1 if k in (j, j + 2) else 0 for k in range(d + 1)] for j in range(d - 1)]


def test_check_center_conjugate_basepoints_over_fp():
    # p = 10007 = 3 mod 4: the basepoints (+-i : 1) lie over F_p^2 and no
    # rational point is a basepoint, so the verdict must be indeterminate
    curve = RationalNormalCurve(F, 8)
    c = ProjectionCenter.from_linear_system(F, 8, conjugate_basepoint_system(8))
    v = check_center(c, curve)
    assert v.indeterminate and not v.basepoint_free and not v.basepoints
    with pytest.raises(IndeterminateOverFieldError):
        analyze(c, curve)
    # p = 61 = 1 mod 4: x^2 + y^2 splits and the basepoints are rational
    field = GF(61)
    curve = RationalNormalCurve(field, 8)
    c = ProjectionCenter.from_linear_system(field, 8, conjugate_basepoint_system(8))
    v = check_center(c, curve)
    assert not v.indeterminate and not v.basepoint_free
    assert {p.coords() for p in v.basepoints} == naive_basepoint_oracle(c, curve)
    assert v.basepoints == sorted(v.basepoints, key=lambda q: q.sort_key())


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
    p_pt, q_pt = curve.point(3, 1), curve.point(17, 1)
    nu_p, nut_p = curve.osc_rows(p_pt, 2)
    secant = [a + b for a, b in zip(nu_p, curve.veronese_row(q_pt))]
    tried = 0
    for kind in ["sharp", "secant", "random", "random"]:
        if kind == "sharp":  # sharp-family center (d=8, n=5), via M
            c = ProjectionCenter.from_linear_system(
                field, 8, monomial_rows(8, [0] + list(range(4, 9)))
            )
        elif kind == "secant":  # a fiber {P, Q} with the tangent line at P
            c = ProjectionCenter.from_rows(field, 8, [secant, nut_p, monomial_rows(8, [4])[0]])
        else:
            while True:
                rows = [[field.random_element(rng) for _ in range(9)] for _ in range(3)]
                c = ProjectionCenter.from_rows(field, 8, rows)
                if c.ell == 3 and check_center(c, curve).basepoint_free:
                    break
        verdict = check_center(c, curve)
        assert {p.coords() for p in verdict.basepoints} == naive_basepoint_oracle(c, curve)
        clusters = find_ramification(c, curve)
        got = {p.coords() for cl in clusters for p in cl.points}
        assert got == naive_ramification_oracle(c, curve)
        for cl in clusters:
            assert cl.tangent == [
                linalg.intersection_dim(c.rows, curve.osc_rows(p, 2), field) >= 1
                for p in cl.points
            ]
        tried += 1
    assert tried == 4


def _vandermonde_scan(center, curve):
    """The F_p scan in the coordinates of V, kept as the oracle: nu and nu'
    rows for all p + 1 points, fibers from a bytes dict over every normalized image,
    tangency from 2x2 minors of nu and nu' reduced mod L through its pivots.
    Returns (points, tangent flags) per cluster, sorted along the curve."""
    field, d, p = center.field, center.degree, center.field.p
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
    phi = nu @ linalg.matrix(center.m_basis(), field, d + 1).T % p
    idx = np.arange(p + 1)
    lead = phi[idx, np.argmax(phi != 0, axis=1)]
    assert lead.all()
    norm = phi * batch_inverse(lead, p)[:, None] % p
    fibers = {}
    for i in range(p + 1):
        fibers.setdefault(norm[i].tobytes(), []).append(i)
    lrows = linalg.matrix(center.rows, field, d + 1)
    piv = np.array(center.pivots, dtype=np.int64)
    nu_r = (nu - nu[:, piv] @ lrows) % p
    nut_r = (nu_t - nu_t[:, piv] @ lrows) % p
    col = np.argmax(nu_r != 0, axis=1)
    minors = (nut_r * nu_r[idx, col, None] - nu_r * nut_r[idx, col, None]) % p
    tangent = ~np.any(minors, axis=1)
    clusters = [
        ([curve.point(1, 0) if i == p else curve.point(i, 1) for i in members],
         [bool(tangent[i]) for i in members])
        for members in fibers.values()
        if len(members) > 1 or tangent[members[0]]
    ]
    return sorted(clusters, key=lambda c: c[0][0].sort_key())


def _scan_lists(clusters):
    return [(cl.points, cl.tangent) for cl in clusters]


def _stratum_samples(field, d, ell, rng):
    """One seeded stratum sample per type feasible at (d, ell), with the
    planted points; at ell = 2 a second sample per type, so that the planted
    points include (1 : 0), (0 : 1) and a fiber holding both."""
    curve = RationalNormalCurve(field, d)
    for stype in (t for t in enumerate_types() if t.delta <= ell):
        firsts = [[(1, 0), (0, 1)], [(0, 1)]] if ell == 2 else [[]]
        for first in firsts:
            points = [curve.point(*c) for c in first][: stype.branches]
            while len(points) < stype.branches:
                cand = curve.point(rng.randrange(1, field.p), 1)
                if cand not in points:
                    points.append(cand)
            spec = stratum_spec(stype, points, curve, ell)
            yield sample_center(spec, rng.randrange(10**6), curve), curve, points


@pytest.mark.parametrize("field", [GF(101), F], ids=["GF(101)", "GF(10007)"])
def test_scan_matches_vandermonde_oracle(field):
    """The search returns the clusters of the scan in the coordinates of V
    exactly: points, order and tangent flags, on stratum samples (random
    centers almost never have clusters)."""
    rng = random.Random(18)
    tried = 0
    for d, ell in [(8, 3), (5, 2)]:
        for center, curve, points in _stratum_samples(field, d, ell, rng):
            got = _scan_lists(find_ramification(center, curve))
            assert got == _vandermonde_scan(center, curve)
            assert {q for pts, _ in got for q in pts} >= set(points)
            tried += 1
    assert tried == 21 + 14


def test_fingerprint_collisions_never_merge_images(monkeypatch):
    """With the fingerprint modulus 1 every image collides in the scan oracle,
    and the exact grouping inside the one run still returns the same
    clusters, which are the search's."""
    field = GF(1009)
    samples = list(_stratum_samples(field, 8, 3, random.Random(7)))
    before = [_scan_lists(ramification_scan(c, curve)) for c, curve, _ in samples]
    assert all(before) and len(before) == 21
    monkeypatch.setattr(conftest, "_FINGERPRINT_MOD", 1)
    assert [_scan_lists(ramification_scan(c, curve)) for c, curve, _ in samples] == before
    assert [_scan_lists(find_ramification(c, curve)) for c, curve, _ in samples] == before


# ---------------------------------------------------------------------------
# the search over F_p, against the scan as its oracle


def _both_routes(center, curve):
    """(scan oracle, search) clusters as (points, tangent flags) lists."""
    return (
        _scan_lists(ramification_scan(center, curve)),
        _scan_lists(find_ramification(center, curve)),
    )


@pytest.mark.parametrize("p", [10007, 100003])
def test_roots_route_matches_the_scan(p):
    """Points, order and tangent flags agree exactly on stratum samples, whose
    planted points include (1 : 0), (0 : 1) and a fiber holding both, and on
    generic centers."""
    field = GF(p)
    rng = random.Random(25)
    tried = generic = 0
    for d, ell in [(8, 3), (5, 2)]:
        for center, curve, points in _stratum_samples(field, d, ell, rng):
            scan, roots = _both_routes(center, curve)
            assert roots == scan, (d, points)
            assert {q for pts, _ in roots for q in pts} >= set(points)
            tried += 1
        for _ in range(4):
            rows = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(ell)]
            center = ProjectionCenter.from_rows(field, d, rows)
            if check_center(center, curve).basepoint_free:
                scan, roots = _both_routes(center, curve)
                assert roots == scan, rows
                generic += 1
    assert tried == 21 + 14 and generic >= 6


def test_roots_route_matches_the_scan_on_stored_centers():
    """The benchmark's 360 stored centers over F_100003, d = 5..8, ell <= 3."""
    stored = json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    field = GF(100003)
    assert stored["fp_large_p"]["field"] == field.name
    curves = {}
    clustered = 0
    for entry in stored["fp_large_p"]["centers"]:
        d = entry["degree"]
        curve = curves.setdefault(d, RationalNormalCurve(field, d))
        scan, roots = _both_routes(ProjectionCenter.from_rows(field, d, entry["rows"]), curve)
        assert roots == scan, entry["rows"]
        clustered += bool(scan)
    assert len(stored["fp_large_p"]["centers"]) == 360 and clustered >= 50


# Until the search took the candidate roots at every p, it scanned F_p up to
# p = C (deg + 1), deg = 2 (d - 1)^2, with this C; the tests probe both sides.
_OLD_CROSSOVER = 160


@pytest.mark.parametrize("d, ell", [(5, 2), (8, 3)])
def test_route_crossover(d, ell):
    """One route at every p: on stratum samples on both sides of the old
    crossover, and on centers with a planted secant and tangent line at the
    smallest and largest primes with p + 1 <= 2 ell (d - 1), where every
    rational point is a candidate and the search draws no combination, and at
    the first prime past that bound, where the candidate forms take over, the
    search returns the scan oracle's clusters."""
    bound = _OLD_CROSSOVER * (2 * (d - 1) ** 2 + 1)
    below = next(q for q in range(bound, 0, -1) if is_prime(q))
    above = next(q for q in count(bound + 1) if is_prime(q))
    for p in (below, above):
        for center, curve, points in _stratum_samples(GF(p), d, ell, random.Random(p)):
            scan, roots = _both_routes(center, curve)
            assert roots == scan, (p, points)
            assert {q for pts, _ in roots for q in pts} >= set(points)
    small = [q for q in range(d + 1, 2 * ell * (d - 1)) if is_prime(q)]
    past = next(q for q in count(2 * ell * (d - 1)) if is_prime(q))
    clustered = 0
    for p in (small[0], small[-1], past):
        centers, curve = _planted_centers(GF(p), d, ell, random.Random(p), 8)
        for center in centers:
            scan, roots = _both_routes(center, curve)
            assert roots == scan, (p, center.rows)
            clustered += bool(scan)
    assert clustered == 3 * 8


# ---------------------------------------------------------------------------
# one search at every p: the scan oracle, and centers whose fibers all collapse


def _planted_centers(field, d, ell, rng, count, planted=True):
    """Centers that meet the secant line of two random points and, for
    ell >= 2, the tangent line at a third, the other rows random (all random
    unless planted); those that miss the curve, with the curve."""
    curve = RationalNormalCurve(field, d)
    out = []
    while len(out) < count:
        rows = []
        if planted:
            p1, p2, p3 = (curve.point(1, 0) if i == field.p else curve.point(i, 1)
                          for i in rng.sample(range(field.p + 1), 3))
            c = field(rng.randrange(1, field.p))
            rows = [[x + c * y for x, y in zip(curve.veronese_row(p1), curve.veronese_row(p2))]]
            rows += [curve.osc_rows(p3, 2)[1]] * (ell >= 2)
        rows += [[field.random_element(rng) for _ in range(d + 1)] for _ in range(ell - len(rows))]
        center = ProjectionCenter.from_rows(field, d, rows)
        if center.ell == ell and check_center(center, curve).basepoint_free:
            out.append(center)
    return out, curve


@pytest.mark.parametrize("p", [3, 7, 101, 10007, 100003])
def test_search_matches_the_scan_at_every_p(p):
    """At d = 2..9, on centers with a planted secant and tangent line and on
    random ones, the search returns the scan oracle's clusters; centers with
    n = 1 raise.  Up to p + 1 = 2 ell (d - 1) every rational point is a
    candidate."""
    field = GF(p)
    rng = random.Random(p)
    tried = clustered = 0
    for d in range(2, min(10, p)):
        for ell in range(1, min(3, d - 1) + 1):
            planted, curve = _planted_centers(field, d, ell, rng, 2)
            for center in planted + _planted_centers(field, d, ell, rng, 1, planted=False)[0]:
                if center.n == 1:
                    with pytest.raises(HypothesisViolationError, match="every fiber collapses"):
                        find_ramification(center, curve)
                    continue
                scan, roots = _both_routes(center, curve)
                assert roots == scan, (d, ell, center.rows)
                tried += 1
                clustered += bool(scan)
    assert tried == {3: 0, 7: 27}.get(p, 54) and clustered >= tried // 2


@pytest.mark.parametrize("p", [101, 1009])
def test_every_fiber_collapses_when_n_is_1(p):
    # the conic through no rational point of L = <(1, 2, 5)> maps onto a line:
    # every fiber has two points, and the search refuses at every p, as the
    # analysis does when the hypotheses are not enforced
    field = GF(p)
    center = ProjectionCenter.from_rows(field, 2, [[1, 2, 5]])
    curve = RationalNormalCurve(field, 2)
    assert check_center(center, curve).basepoint_free
    with pytest.raises(HypothesisViolationError, match="every fiber collapses"):
        find_ramification(center, curve)
    with pytest.raises(HypothesisViolationError, match="every fiber collapses"):
        analyze(center, curve, enforce_hypotheses=False)
    # below p + 1 = 2 ell (d - 1) every point would be a candidate: still refused
    rows = [[int(i == j) for j in range(9)] for i in range(1, 8)]  # M = <x^8, y^8>
    center = ProjectionCenter.from_rows(GF(11), 8, rows)
    with pytest.raises(HypothesisViolationError, match="every fiber collapses"):
        find_ramification(center, RationalNormalCurve(GF(11), 8))


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


@pytest.mark.parametrize("p, d, ell", [(97, 8, 3), (13, 5, 2)])
def test_certify_at_a_prime_below_the_resultant_degree(p, d, ell):
    # the secant resultants of these centers have more nodes than F_p has points
    field = GF(p)
    rng = random.Random(5)
    rows = [[field(rng.randrange(p)) for _ in range(d + 1)] for _ in range(ell)]
    c = ProjectionCenter.from_rows(field, d, rows)
    report = analyze(c, RationalNormalCurve(field, d), certify=True)
    assert report.completeness["complete"] is True


@pytest.mark.parametrize("p", [10007, 31, 11])
def test_certify_flags_conjugate_pair_over_fp(p):
    # a center through the rational midpoint of the secant joining the
    # conjugate points (+-sqrt(s) : 1), s a non-residue: the search of rational
    # points cannot see the collapsed fiber, the degree check reports it.  At
    # p = 11 the degree-12 secant resultants have more nodes than F_p has
    # points, and the search takes every rational point as a candidate.
    F = GF(p)
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
    # the residual is the planted conjugate pair alone: a^2 - s b^2
    assert out["secant_candidate_residual_degree"] == 2
    pair = BinaryForm(F, [F(-s), F.zero, F.one])
    assert form_gcd(_secant_candidate_form(c, _syzygy_biforms(c)), pair) == pair
    # the conjugate fiber has no rational member for the scan to report
    scanned = {q.coords() for cl in find_ramification(c, curve) for q in cl.points}
    conjugate_fiber_markers = {(F(x), F.one) for x in (s,)}  # sqrt(s) itself is irrational
    assert not (scanned & conjugate_fiber_markers)


@pytest.mark.parametrize("p", [10007, 31, 11])
def test_certify_flags_conjugate_tangent_points_over_fp(p):
    # a center meeting the tangent lines at the conjugate points (+-sqrt(s) : 1),
    # s a non-residue, in nu(a) + nu'(a) and its conjugate: no rational point is
    # tangent, and the tangency form is a^2 - s b^2 alone
    F = GF(p)
    s = next(x for x in range(2, 50) if pow(x, (p - 1) // 2, p) == p - 1)
    d = 7

    def part(e, odd):  # the coefficient of sqrt(s)^odd in sqrt(s)^e
        return pow(s, (e - odd) // 2, p) if e >= 0 and e % 2 == odd else 0

    rows = [[part(d - k, odd) + (d - k) * part(d - k - 1, odd) for k in range(d + 1)]
            for odd in (0, 1)]
    c = ProjectionCenter.from_rows(F, d, [[F(x) for x in row] for row in rows])
    curve = RationalNormalCurve(F, d)
    assert check_center(c, curve).basepoint_free
    out = certify_no_extension_ramification(c, curve)
    assert out["tangency_residual_degree"] == 2 and not out["complete"]
    assert _tangency_form(c, _syzygy_biforms(c)) == BinaryForm(F, [F(-s), F.zero, F.one])
    assert find_ramification(c, curve) == []


@pytest.mark.parametrize("p", [101, 10007])
def test_tangency_form_roots_are_the_tangent_points(p):
    # on stratum samples, the rational roots of gcd_i G_i(P, P) are exactly
    # the points the scan oracle flags as tangent
    tangent = 0
    for center, curve, _ in _stratum_samples(GF(p), 8, 3, random.Random(p)):
        form = _tangency_form(center, _syzygy_biforms(center))
        roots = {curve.point(*q) for q, _ in binforms.projective_roots(form)[0]}
        flagged = {q for cl in ramification_scan(center, curve)
                   for q, t in zip(cl.points, cl.tangent) if t}
        assert roots == flagged, center.rows
        tangent += bool(flagged)
    assert tangent >= 10


# ---------------------------------------------------------------------------
# the secant candidate: two pairs of random combinations of the collision biforms


def _candidate_roots_of(center):
    form = _secant_candidate_form(center, _syzygy_biforms(center))
    return {pt for pt, _ in project.binforms.projective_roots(form)[0]}


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "GF(10007)"])
def test_secant_candidate_within_the_pairwise_route(field):
    """On stratum members at d = 5..7 every cluster point is a root of the
    candidate, and the candidate's roots are among those of the pairwise
    route over all pairs with content forms."""
    rng = random.Random(20261020)
    types = [t for t in enumerate_types() if t.delta <= 2]
    for d, count in ((5, 3), (6, 1), (7, 1)):
        curve = RationalNormalCurve(field, d)
        for stype in rng.sample(types, count):
            points = []
            while len(points) < stype.branches:
                q = curve.point(rng.randint(-9, 9) if field is QQ else rng.randrange(field.p), 1)
                if q not in points:
                    points.append(q)
            spec = stratum_spec(stype, points, curve, 2)
            center = sample_center(spec, rng.randrange(10**6), curve)
            roots = _candidate_roots_of(center)
            assert roots <= pairwise_secant_roots(center), (d, stype.label)
            placed = {q.coords() for cl in analyze(center, curve).clusters for q in cl.points}
            assert set(points) <= {curve.point(*q) for q in placed}
            assert placed <= roots, (d, stype.label)


@pytest.mark.parametrize("field", [QQ, F, GF(7)], ids=["QQ", "GF(10007)", "GF(7)"])
def test_syzygy_biforms_match_field_arithmetic(field):
    # p_i(P)·phi(P') on integer rows, divided by the diagonal along the
    # antidiagonals, against the product and the division of BiForm in field
    # arithmetic; and the mu_i x d shapes of the G_i
    rng = random.Random(11)
    for d, ell in ((4, 1), (5, 2), (7, 3)):
        rows = [[field(rng.randint(-9, 9)) / field(rng.randint(1, 5)) for _ in range(d + 1)]
                for _ in range(ell)]
        center = ProjectionCenter.from_rows(field, d, rows)
        got = _syzygy_biforms(center)
        want = syzygy_biforms(center)
        assert [g.shape for g in got] == [(len(syz) - 1, d) for syz in _mu_basis(center)[1]]
        for g, h in zip(got, want):
            assert [[field(int(c)) for c in row] for row in g.tolist()] == h.coeffs, d
            assert all(type(c) is int for row in g.tolist() for c in row)


def test_stored_q_candidates_match_the_exact_route():
    # the benchmark's 200 stored generic centers over Q at d = 5: every
    # candidate equals the one built in field arithmetic, and most are units
    stored = json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    units = 0
    for entry in stored["q_roundtrip"]["centers"]:
        center = ProjectionCenter.from_rows(QQ, entry["degree"], entry["rows"])
        got = _secant_candidate_form(center, _syzygy_biforms(center))
        units += binforms.form_is_unit(got)
        assert got == exact_secant_candidate(center)
    assert units >= 150


def test_secant_candidate_over_fp_is_the_gcd_of_the_images(monkeypatch):
    # past the nodes (p > deg + 1) the images mod p are the resultants: no
    # exact resultant is computed, and the candidate is the exact route's
    calls = []
    exact = project.binforms.resultant_z
    monkeypatch.setattr(project.binforms, "resultant_z", lambda *h: calls.append(1) or exact(*h))
    rng = random.Random(25)
    types = [t for t in enumerate_types() if t.branches >= 2 and t.delta <= 2]
    for d in range(5, 9):
        curve = RationalNormalCurve(F, d)
        for stype in rng.sample(types, 2):
            points = [curve.point(a, 1) for a in rng.sample(range(F.p), stype.branches)]
            spec = stratum_spec(stype, points, curve, 2)
            center = sample_center(spec, rng.randrange(10**6), curve)
            biforms = _syzygy_biforms(center)
            calls.clear()
            got = _secant_candidate_form(center, biforms)
            assert not calls and not binforms.form_is_unit(got), (d, stype.label)
            assert got == exact_secant_candidate(center), (d, stype.label)
            assert len(calls) >= 2  # the oracle's exact resultants are counted
            roots = {q for q, _ in binforms.projective_roots(got)[0]}
            assert {q.coords() for q in points} <= roots
    # both resultants vanish identically, through every redraw
    center = ProjectionCenter.from_linear_system(F, 3, monomial_rows(3, [0, 3]))
    biforms = _syzygy_biforms(center)
    calls.clear()
    with pytest.raises(HypothesisViolationError, match="vanish identically"):
        _secant_candidate_form(center, biforms)
    assert not calls


@pytest.mark.parametrize("p", [10007, 100003])
def test_certified_analysis_builds_each_candidate_form_once(monkeypatch, p):
    # the search and the degree check share the mu-basis and the candidate forms
    calls, bases = [], []
    make, mu_basis = project._secant_candidate_form, project._mu_basis
    monkeypatch.setattr(project, "_secant_candidate_form", lambda *a: calls.append(1) or make(*a))
    monkeypatch.setattr(project, "_mu_basis", lambda c: bases.append(1) or mu_basis(c))
    field = GF(p)
    rng = random.Random(3)
    for d, ell, label in [(5, 2, "2.2.a"), (6, 2, "1.2"), (8, 3, "3.3.a")]:
        curve = RationalNormalCurve(field, d)
        stype = next(t for t in enumerate_types() if t.label == label)
        points = [curve.point(a, 1) for a in rng.sample(range(p), stype.branches)]
        center = sample_center(stratum_spec(stype, points, curve, ell), 7, curve)
        calls.clear()
        bases.clear()
        report = analyze(center, curve, certify=True)
        assert len(calls) == len(bases) == 1, (p, d)
        assert report.completeness["method"] == "exhaustive scan of rational points"
        assert [cl.type_label for cl in report.clusters] == [label]


def test_generic_centers_at_d9_over_q_are_complete():
    # the pairwise route left a degree-72 residual here and raised
    rng = random.Random(5)
    curve = RationalNormalCurve(QQ, 9)
    for _ in range(4):
        rows = [[QQ(rng.randint(-9, 9)) for _ in range(10)] for _ in range(3)]
        center = ProjectionCenter.from_rows(QQ, 9, rows)
        report = analyze(center, curve)
        assert report.completeness["complete"] is True and report.clusters == []
        # the candidate is two small exact resultants of combinations of the G_i
        biforms = _syzygy_biforms(center)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            _secant_candidate_form(center, biforms)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.05, seconds


def test_sign_centers_at_d8_over_q_analyze():
    # entries in {-1, 0, 1}: the pairwise route refused draws 8, 15 and 24 on
    # spurious content factors
    rng = random.Random(8)
    draws = [[[QQ(rng.randint(-1, 1)) for _ in range(9)] for _ in range(3)] for _ in range(30)]
    curve = RationalNormalCurve(QQ, 8)
    for k in (8, 15, 24):
        report = analyze(ProjectionCenter.from_rows(QQ, 8, draws[k]), curve)
        assert report.completeness["complete"] is True, k


def test_generic_centers_at_d9_over_fp_certify():
    # the pairwise route reported secant residuals of 48-72 here
    rng = random.Random(3)
    curve = RationalNormalCurve(F, 9)
    for _ in range(3):
        rows = [[F(rng.randrange(F.p)) for _ in range(10)] for _ in range(3)]
        report = analyze(ProjectionCenter.from_rows(F, 9, rows), curve, certify=True)
        assert report.completeness["complete"] is True
        assert report.completeness["secant_candidate_residual_degree"] == 0


def test_vanishing_combination_resultants_are_a_violation():
    # M = <x^3, y^3> (n = 1): one syzygy, so every combination is a multiple
    # of G_1 and each resultant vanishes identically
    center = ProjectionCenter.from_linear_system(QQ, 3, monomial_rows(3, [0, 3]))
    with pytest.raises(HypothesisViolationError, match="vanish identically"):
        _secant_candidate_form(center, _syzygy_biforms(center))


# ---------------------------------------------------------------------------
# the mu-basis against an independent oracle


def _form_mul(f, g, field):
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def _cross_product(columns, field):
    """(-1)^j times the n x n minor without row j of the (n + 1) x n matrix of
    forms with the given columns, by Laplace expansion along the last column
    over row subsets; forms are low-first lists of field elements."""

    @functools.cache
    def det(subset):  # the rows in subset, the first len(subset) columns
        if not subset:
            return (field.one,)
        col, acc = columns[len(subset) - 1], None
        for pos, r in enumerate(subset):
            term = _form_mul(col[r], det(subset[:pos] + subset[pos + 1 :]), field)
            if (len(subset) - 1 - pos) % 2:
                term = [-x for x in term]
            acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        return tuple(acc)

    full = tuple(range(len(columns[0])))
    return [[x if j % 2 == 0 else -x for x in det(full[:j] + full[j + 1 :])] for j in full]


def _syzygy_count(phi, t, field):
    """The dimension of the syzygies of degree t: the nullity of the
    multiplication matrix, by the rank oracle of conftest."""
    k, d = len(phi), len(phi[0]) - 1
    rows = [
        [phi[j][m - s] if 0 <= m - s <= d else field.zero for s in range(t + 1) for j in range(k)]
        for m in range(d + t + 1)
    ]
    return k * (t + 1) - independent_rank(rows, field, k * (t + 1))


def _mu_basis_centers(field, rng):
    """Random centers at d = 2..9, ell = 1..3, the sharp families with
    ell = 2 and 3 (profiles (1, ..., 1, 3) and (1, ..., 1, 4)), and over
    fields with at least 101 elements stratum samples at (d, ell) = (5, 2)
    and (8, 3)."""
    for d in range(2, 10):
        for ell in range(1, min(3, d - 1) + 1):
            rows = [[field(rng.randint(-9, 9)) for _ in range(d + 1)] for _ in range(ell)]
            yield ProjectionCenter.from_rows(field, d, rows)
        for ell in (2, 3):
            if d > ell + 1:
                yield ProjectionCenter.from_linear_system(field, d, sharp_family_system(d, d - ell))
    if field == QQ or field.p >= 101:
        for d, ell in ((5, 2), (8, 3)):
            curve = RationalNormalCurve(field, d)
            for stype in (t for t in enumerate_types() if t.delta <= ell):
                points = [curve.point(1, 0)] + [curve.point(a, 1) for a in range(1, stype.branches)]
                spec = stratum_spec(stype, points, curve, ell)
                yield sample_center(spec, rng.randrange(10**6), curve)


@pytest.mark.parametrize(
    "field",
    [QQ, GF(3), GF(7), GF(101), GF(2**31 - 1)],
    ids=["QQ", "GF(3)", "GF(7)", "GF(101)", "GF(2^31-1)"],
)
def test_mu_basis_against_an_independent_oracle(field):
    """Each p_i is a syzygy of phi, whose rows are multiples of the forms of
    M; sum mu_i = d - deg gcd(M); the signed n x n minors of the p_i are c·phi
    with c a nonzero constant; and for every t the syzygies of degree t
    number sum max(0, t - mu_i + 1) by a plain nullity."""
    rng = random.Random(26)
    profiles = set()
    for center in _mu_basis_centers(field, rng):
        d, n = center.degree, center.n
        raw, basis = _mu_basis(center)
        phi = [[field(c) for c in row] for row in raw.tolist()]
        for row, m_row in zip(raw.tolist(), center.m_basis()):
            assert proportional(row[::-1], m_row) if field == QQ else row[::-1] == m_row
        syz = [[[field(c) for c in col] for col in p.T.tolist()] for p in basis]
        mu = [len(s[0]) - 1 for s in syz]
        assert len(syz) == n and mu == sorted(mu) and mu[0] >= 1
        for s, m in zip(syz, mu):
            total = [field.zero] * (m + d + 1)
            for p_ij, f_j in zip(s, phi):
                total = [x + y for x, y in zip(total, _form_mul(p_ij, f_j, field))]
            assert not any(total), mu
        common = binforms.gcd_many([BinaryForm(field, row) for row in phi])
        assert sum(mu) == d - common.formal_degree, mu
        for t in range(mu[-1] + 2):
            assert _syzygy_count(phi, t, field) == sum(max(0, t - m + 1) for m in mu), (t, mu)
        if sum(mu) == d:
            minors = _cross_product(syz, field)
            j, e = next((j, e) for j, row in enumerate(phi) for e, c in enumerate(row) if c)
            c = minors[j][e] / phi[j][e]
            assert c != 0 and minors == [[c * x for x in row] for row in phi], mu
            profiles.add((d, tuple(mu)))
    assert {(8, (1, 1, 1, 1, 4)), (5, (1, 1, 3)), (8, (1, 1, 2, 2, 2))} <= profiles, profiles


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


def test_named_basepoint_is_validation_error():
    # every form of M is divisible by x^2, so all of them vanish at (0:1)
    c = ProjectionCenter.from_linear_system(F, 5, monomial_rows(5, [0, 1, 2, 3]))
    curve = RationalNormalCurve(F, 5)
    basepoint = _named_model(curve, {"B": curve.point(0, 1)}, 16)
    with pytest.raises(ValidationError, match="is a basepoint"):
        analyze(c, basepoint, clusters=[["B"]])
    with pytest.raises(ValidationError, match="is a basepoint"):
        analyze(c, curve, clusters=[[curve.point(0, 1)]])


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


# ---------------------------------------------------------------------------
# dual path: the flag walk against the intersection_dim oracle


def _random_center_near(curve, points, ell, rng):
    """An ell-dimensional center; half the time with a vector of some F^beta,
    so that dim(L cap F^alpha) is nonzero at small alpha too."""
    field = curve.field
    width = curve.degree + 1
    while True:
        rows = [[field.random_element(rng) for _ in range(width)] for _ in range(ell)]
        if rng.random() < 0.5:
            point = rng.choice(points)
            osc = curve.osc_rows(point, rng.randint(1, 3))
            coeffs = [field.random_nonzero(rng) for _ in osc]
            rows[0] = linalg.combine(coeffs, osc, field, width)
        if linalg.rank(rows, field) == ell:
            return ProjectionCenter.from_rows(field, curve.degree, rows)


def _assert_flag_dims_match_oracle(center, curve, points, order):
    cells = list(simplex(order, len(points)))
    flag = _flag_dims(center, curve, points, cells)
    assert sorted(flag) == cells
    filt = Multifiltration(curve, points)
    values = set()
    for alpha in cells:
        want = linalg.intersection_dim(center.rows, filt.subspace_rows(alpha), center.field)
        assert flag[alpha] == want, (alpha, points)
        values.add(want)
    return values


@pytest.mark.parametrize("d", [5, 8])
@pytest.mark.parametrize(
    "field", [GF(101), GF(10007), GF(2**31 - 1), QQ], ids=["p101", "p10007", "p2^31-1", "QQ"]
)
def test_flag_dims_match_intersection_oracle(field, d):
    rng = random.Random(8000 + d)
    curve = RationalNormalCurve(field, d)
    values = set()
    for trial in range(4):
        r = rng.randint(1, 3)
        points = [curve.point(1, 0)] if trial % 2 == 0 else []
        while len(points) < r:
            p = curve.point(rng.randrange(-50, 50) if field == QQ else field.random_element(rng), 1)
            if p not in points:
                points.append(p)
        center = _random_center_near(curve, points, rng.randint(1, 3), rng)
        values |= _assert_flag_dims_match_oracle(center, curve, points, d + 1)
    assert max(values) >= 2  # the cells reach nontrivial intersections


def _named_model(curve, names, precision, genus=0):
    """A user model from the curve's monomial expansions at the named points."""
    d = curve.degree
    tables = {}
    for name, point in names.items():
        tables[name] = []
        for k in range(d + 1):
            row = [0] * (d + 1)
            row[k] = 1
            tables[name].append(list(curve.local_expansion(row, point, precision).coeffs[0]))
    return ExpansionCurveModel(curve.field, d + 1, d, genus, tables)


def test_flag_dims_match_intersection_oracle_user_model():
    d = 6
    curve = RationalNormalCurve(F, d)
    names = {"P": curve.point(1, 0), "Q": curve.point(3, 1), "R": curve.point(11, 1)}
    model = _named_model(curve, names, d + 2)
    rng = random.Random(31)
    for _ in range(3):
        center = _random_center_near(curve, list(names.values()), 2, rng)
        values = _assert_flag_dims_match_oracle(center, model, list(names), d + 1)
        assert values >= {0, 1, 2}


def _tangent_oracle(center, curve, points):
    return [
        linalg.intersection_dim(center.rows, curve.osc_rows(p, 2), center.field) >= 1
        for p in points
    ]


def _distinct_points(curve, r, rng):
    field = curve.field
    small = field != QQ and field.p <= r  # too few affine points without (1:0)
    points = [curve.point(1, 0)] if small or rng.random() < 0.5 else []
    while len(points) < r:
        a = rng.randrange(-50, 50) if field == QQ else field.random_element(rng)
        if curve.point(a, 1) not in points:
            points.append(curve.point(a, 1))
    return points


def _tangent_cells(r):
    return [tuple(2 * (j == i) for j in range(r)) for i in range(r)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "field", [QQ, GF(3), GF(101), GF(2**31 - 1)], ids=["QQ", "p3", "p101", "p2^31-1"]
)
def test_flag_walk_matches_per_cell_oracle(field, r):
    """The row-insertion walk gives every cell the value of its own elimination:
    the whole compared simplex, sparse cells in any order, and lone cells."""
    rng = random.Random(9100 + r)
    values = set()
    for d in (2,) if field == GF(3) else (5, 7):  # the built-in curve needs p > d
        curve = RationalNormalCurve(field, d)
        for _ in range(3):
            points = _distinct_points(curve, r, rng)
            center = _random_center_near(curve, points, rng.randint(1, min(3, d)), rng)
            cells = list(simplex(d + 1, r))
            want = per_cell_flag_dims(center, curve, points, cells)
            assert _flag_dims(center, curve, points, cells + _tangent_cells(r)) == want
            sparse = rng.sample(cells, len(cells) // 3)
            assert _flag_dims(center, curve, points, sparse) == {a: want[a] for a in sparse}
            lone = rng.choice(cells)
            assert _flag_dims(center, curve, points, [lone]) == {lone: want[lone]}
            values.update(want.values())
    assert max(values) >= 1


def test_flag_walk_matches_per_cell_oracle_positive_genus(monkeypatch):
    """A user model of genus 3 at d = 6 compares the cells |alpha| <= 1 only, so
    the tangent cells 2·e_i lie outside the compared simplex and the walk adds
    them; their values and the tangent flags match the per-cell route."""
    curve = RationalNormalCurve(F, 6)
    names = {"P": curve.point(1, 0), "Q": curve.point(3, 1), "R": curve.point(11, 1)}
    model = _named_model(curve, names, 16, genus=3)
    assert model.degree + 1 - 2 * model.genus == 1
    walks = []
    real = project._flag_dims

    def spy(center, curve, points, cells):
        out = real(center, curve, points, cells)
        walks.append((center, points, list(cells), out))
        return out

    cusp = sample_center(stratum_spec("1.1", [names["P"]], curve, 2), 5, curve)
    node = sample_center(stratum_spec("1.2", [names["Q"], names["R"]], curve, 2), 5, curve)
    tangents = set()
    monkeypatch.setattr(project, "_flag_dims", spy)
    for center, clusters in [(cusp, [["P"], ["Q"]]), (node, [["Q", "R"], ["P"]])]:
        for report in analyze_at_points(center, model, clusters):
            assert report.tangent == _tangent_oracle(center, model, report.points)
            tangents.update(report.tangent)
    assert tangents == {True, False}
    for center, points, cells, out in walks:
        tangent_cells = _tangent_cells(len(points))
        assert not set(tangent_cells) & set(simplex(1, len(points)))
        assert set(tangent_cells) <= set(cells)
        assert out == per_cell_flag_dims(center, model, points, sorted(set(cells)))


@pytest.mark.parametrize(
    "field", [GF(101), GF(2**31 - 1)], ids=["p101", "p2^31-1"]
)
def test_flag_walk_matches_per_cell_oracle_on_schubert_chains(field):
    """The Schubert samplers' chains (r = 1..4 at d = 8, ell = 3) through the walk."""
    curve = RationalNormalCurve(field, 8)
    rng = random.Random(77)
    seen = set()
    for stype in enumerate_types():
        points = _distinct_points(curve, stype.branches, rng)
        spec = stratum_spec(stype, points, curve, 3)
        center = sample_center(spec, rng.randrange(10**6), curve)
        want = per_cell_flag_dims(center, curve, spec.points, spec.chain)
        assert _flag_dims(center, curve, spec.points, spec.chain) == want, stype.label
        seen.add(stype.branches)
    assert seen == {1, 2, 3, 4}


def test_flag_walk_matches_per_cell_oracle_on_schubert_chains_over_q():
    curve = RationalNormalCurve(QQ, 5)
    rng = random.Random(78)
    for stype in enumerate_types():
        if stype.delta > 2:
            continue
        points = _distinct_points(curve, stype.branches, rng)
        spec = stratum_spec(stype, points, curve, 2)
        center = sample_center(spec, rng.randrange(10**6), curve)
        want = per_cell_flag_dims(center, curve, spec.points, spec.chain)
        assert _flag_dims(center, curve, spec.points, spec.chain) == want, stype.label


def test_tangent_flags_match_intersection_oracle_over_q():
    # both the Q route's clusters and the analyzed cluster reports
    curve = RationalNormalCurve(QQ, 5)
    seen = set()
    cases = [
        ("1.1", [(2, 1)]),
        ("1.2", [(1, 1), (-3, 1)]),
        ("2.2.b", [(1, 0), (4, 1)]),
        ("2.3", [(1, 0), (2, 1), (-5, 1)]),  # a three-point fiber
        ("2.2.a", [(0, 1), (3, 1)]),  # a tacnode: shared tangent, neither point tangent
    ]
    for label, coords in cases:
        spec = stratum_spec(label, [curve.point(*c) for c in coords], curve, 2)
        center = sample_center(spec, 13, curve)
        clusters = find_ramification(center, curve) + analyze(center, curve).clusters
        assert clusters
        for cl in clusters:
            assert cl.tangent == _tangent_oracle(center, curve, cl.points)
            seen.update(cl.tangent)
    assert seen == {True, False}

    # two cusps in one fiber (delta past the table, so the search alone):
    # L = <nu'(P), nu'(Q), nu(P) - nu(Q)> makes both roots of the partner form double
    p, q = curve.point(2, 1), curve.point(1, 0)
    (p0, p1), (q0, q1) = curve.osc_rows(p, 2), curve.osc_rows(q, 2)
    center = ProjectionCenter.from_rows(QQ, 5, [p1, q1, [x - y for x, y in zip(p0, q0)]])
    [cluster] = find_ramification(center, curve)
    assert cluster.points == [p, q] and cluster.tangent == [True, True]
    assert cluster.tangent == _tangent_oracle(center, curve, cluster.points)


def test_one_build_per_truncation(monkeypatch):
    """close_and_stabilize returns the span it closed, so no cluster builds
    its series at any truncation twice."""
    real = project._cluster_series_builder
    builds = []

    def spy(*args):
        builder, seen = real(*args), []
        builds.append(seen)

        def counted(n):
            seen.append(n)
            return builder(n)

        return counted

    monkeypatch.setattr(project, "_cluster_series_builder", spy)
    for field in (F, QQ):
        curve = RationalNormalCurve(field, 5)
        analyze(quintic_345_center(field), curve)
        analyze(sample_center(stratum_spec("1.2", [curve.point(1, 1), curve.point(3, 1)],
                                           curve, 2), 3, curve), curve)
    assert len(builds) == 4
    assert all(seen and len(seen) == len(set(seen)) for seen in builds)


def test_tangent_flags_match_intersection_oracle_user_model():
    curve = RationalNormalCurve(F, 6)
    names = {"P": curve.point(1, 0), "Q": curve.point(3, 1), "R": curve.point(11, 1)}
    model = _named_model(curve, names, 16)
    cusp = sample_center(stratum_spec("1.1", [names["P"]], curve, 2), 5, curve)
    node = sample_center(stratum_spec("1.2", [names["Q"], names["R"]], curve, 2), 5, curve)
    seen = set()
    for center, clusters in [(cusp, [["P"], ["Q"]]), (node, [["Q", "R"], ["P"]])]:
        for report in analyze_at_points(center, model, clusters):
            assert report.tangent == _tangent_oracle(center, model, report.points)
            seen.update(report.tangent)
    assert seen == {True, False}


def test_dual_path_mismatch_raises(monkeypatch):
    real = GapFunction.__call__

    def off_by_one_at_2(self, alpha):
        value = real(self, alpha)
        return value + 1 if self.kind == VECTOR_SPACE and tuple(alpha) == (2,) else value

    monkeypatch.setattr(GapFunction, "__call__", off_by_one_at_2)
    with pytest.raises(GapcurveError, match=r"dual-path mismatch at alpha=\(2,\)"):
        analyze(quintic_345_center(F), RationalNormalCurve(F, 5))


# planted clusters over F_(2^31 - 1) at d = 8, ell = 3
_LARGEST_PRIME_CASES = [
    ("2.2.a", [(2**30 + 12345, 1), (1, 0)]),
    ("3.3.a", [(2**31 - 1000, 1), (987654321, 1), (1, 0)]),
]


def test_analyze_clusters_at_largest_prime():
    """Named clusters over F_(2^31 - 1): the whole cluster pipeline, dual-path
    check included, runs at the largest allowed prime.  (The search finds the
    same clusters, see test_search_at_the_largest_prime.)

    A row-reduced M has at most ell + 1 nonzero entries per row, so its
    products rarely reach 2^63; the overflow bound of ``linalg.image_block``
    itself is pinned with dense M in test_linalg.
    """
    field = GF(2**31 - 1)
    curve = RationalNormalCurve(field, 8)
    for label, coords in _LARGEST_PRIME_CASES:
        points = [curve.point(*c) for c in coords]
        center = sample_center(stratum_spec(label, points, curve, 3), 7, curve)
        report = analyze(center, curve, clusters=[points])
        assert [cl.type_label for cl in report.clusters] == [label]
        assert report.completeness["complete"] is None


def _probe(source, *args):
    """Run a probe script in a fresh interpreter under a 2 GB address-space
    limit, so that an array of order p at p = 2^31 - 1 fails fast."""
    src = Path(project.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])  # the oracles of conftest
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    header = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    out = subprocess.run(
        [sys.executable, "-c", header + source, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


_SCAN_BOUND_PROBE = """
import sys
from gapcurve import GF, ProjectionCenter, RationalNormalCurve, ValidationError
from conftest import ramification_scan
d, n, field = int(sys.argv[1]), int(sys.argv[2]), GF(2**31 - 1)
system = [[int(j == k) for j in range(d + 1)] for k in [0] + list(range(d - n + 1, d + 1))]
center = ProjectionCenter.from_linear_system(field, d, system)
try:
    ramification_scan(center, RationalNormalCurve(field, d))
except ValidationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("d, n", [(5, 3), (8, 5)])
def test_scan_refuses_fields_past_its_int64_bound(d, n):
    """At p = 2^31 - 1, (d + 1)(p - 1)^2 >= 2^63, so the scan oracle raises a
    ValidationError on a sharp-family center before it allocates an array
    (find_ramification answers there, see test_search_at_the_largest_prime)."""
    out = _probe(_SCAN_BOUND_PROBE, d, n)
    assert "(d + 1)(p - 1)^2 < 2^63" in out
    assert "clusters" in out


_SEARCH_PROBE = """
import json, sys
from gapcurve import GF, ProjectionCenter, RationalNormalCurve, analyze, sample_center, stratum_spec
field = GF(2**31 - 1)
curve = RationalNormalCurve(field, 8)
out = []
for label, coords in json.loads(sys.argv[1]):
    points = [curve.point(*c) for c in coords]
    center = sample_center(stratum_spec(label, points, curve, 3), 7, curve)
    out.append(analyze(center, curve))
for d, n in [(5, 3), (8, 5)]:
    system = [[int(j == k) for j in range(d + 1)] for k in [0] + list(range(d - n + 1, d + 1))]
    center = ProjectionCenter.from_linear_system(field, d, system)
    out.append(analyze(center, RationalNormalCurve(field, d)))
print(json.dumps([
    [[cl.type_label, [[q.a.value, q.b.value] for q in cl.points]] for cl in report.clusters]
    for report in out
]))
"""


def test_search_at_the_largest_prime():
    """The search over F_(2^31 - 1) finds the planted clusters of
    test_analyze_clusters_at_largest_prime, and the cusps of the sharp family
    at (1 : 0), with no array of order p."""
    got = json.loads(_probe(_SEARCH_PROBE, json.dumps(_LARGEST_PRIME_CASES)))
    # sort_key order: finite points by value, then (1 : 0)
    want = [[[label, sorted(map(list, coords), key=lambda c: (c[1] == 0, c[0]))]]
            for label, coords in _LARGEST_PRIME_CASES]
    assert got == want + [[["2.1.a", [[1, 0]]]], [["3.1.a", [[1, 0]]]]]


def test_int64_cluster_builder_matches_boxed_series():
    """The cluster builder's array is m/s for m in M, checked against boxed
    local expansions, series inverse and products: over F_p as residues, over
    Q as integer rows, each one rational multiple of its m/s row across all
    branches.  The values s(P) differ between the points, so scaling s^-1
    into Z branch by branch would scale columns and fail."""
    from gapcurve.series import Ambient, TruncatedSeries

    rng = random.Random(12)
    for field in (F, GF(2**31 - 1), QQ):
        curve = RationalNormalCurve(field, 8)
        a = Fraction(-5, 2) if field == QQ else 2**20 + 7
        points = [curve.point(3, 1), curve.point(a, 1), curve.point(1, 0)]
        rows = [[field.random_element(rng) for _ in range(9)] for _ in range(3)]
        center = ProjectionCenter.from_rows(field, 8, rows)
        s = _choose_section(center, [_point_image(center, curve, p) for p in points], rng)
        for n in (1, 5, 12):
            amb, got = _cluster_series_builder(center, curve, points, s)(n)
            inv = [curve.local_expansion(s, p, n).inverse() for p in points]
            want = [
                TruncatedSeries(
                    amb,
                    [(curve.local_expansion(m, p, n) * si).coeffs[0] for p, si in zip(points, inv)],
                ).flat()
                for m in center.m_basis()
            ]
            if field == QQ:
                assert len({curve.section_value(s, p) for p in points}) == len(points)
                assert got.dtype == object and len(got) == len(want)
                assert all(proportional(g, w) for g, w in zip(got.tolist(), want))
            else:
                assert linalg.elements(got, field) == want


def test_basepoint_at_the_largest_prime_exits_3():
    """check_center finds the basepoint (1 : 1) at p = 2^31 - 1 without an
    array of p entries: the CLI exits 3 under a 2 GB address-space limit."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(project.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    params = '{"degree": 5, "center": {"rows": [[1, 1, 1, 1, 1, 1]]}}'
    out = subprocess.run(
        [sys.executable, "-m", "gapcurve.cli", "analyze-projection", "--field", "Fp:2147483647",
         "--params", params],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert out.returncode == 3, out.stderr
    assert "(1 : 1)" in out.stdout + out.stderr


# ---------------------------------------------------------------------------
# PGL_2 metamorphic oracle: a change of coordinates on the line moves the
# clusters and nothing else, whatever route found them


def sym_matrix(g, d, field):
    """S = Sym^d(g), so that nu(g P) = S nu(P) for nu(a : b) = (a^(d-k) b^k)_k
    and g = ((al, be), (ga, de)) acting by (a : b) -> (al a + be b : ga a + de b)."""
    (al, be), (ga, de) = g
    rows = []
    for k in range(d + 1):
        row = [field.one]  # row[j] multiplies a^(deg - j) b^j
        for x, y in [(al, be)] * (d - k) + [(ga, de)] * k:
            row = [x * c + y * c_prev for c, c_prev in zip(row + [field.zero], [field.zero] + row)]
        rows.append(row)
    return rows


def _outcome(center, curve, move=lambda q: q):
    """The clusters as a set of (points with tangent flags, label, delta), or
    the kind of error the analysis raised."""
    try:
        report = analyze(center, curve)
    except GapcurveError as exc:
        return type(exc).__name__
    return {
        (frozenset((move(q).coords(), t) for q, t in zip(cl.points, cl.tangent)),
         cl.type_label, cl.delta)
        for cl in report.clusters
    }


@pytest.mark.parametrize(
    "field, d, ell, entry",
    [(GF(101), 8, 3, 100), (F, 8, 3, F.p - 1), (QQ, 5, 2, 2000)],
    ids=["GF(101)", "GF(10007)", "QQ"],
)
def test_analysis_commutes_with_pgl2(field, d, ell, entry):
    """For each type, the center S L, S = Sym^d(g), has the clusters g(P) of
    the sampled L's clusters P, with the same labels, delta and tangent flags.
    Every third g sends a planted point to (1 : 0), and every third sample
    plants one there.  Over QQ the entries of g reach 2000, so the moved
    points have real height."""
    rng = random.Random(5)
    curve = RationalNormalCurve(field, d)
    low, high = (-50, 50) if field is QQ else (0, field.p - 1)
    for trial, stype in enumerate(t for t in enumerate_types() if d == 8 or t.delta <= 2):
        points = [curve.point(1, 0)] if trial % 3 == 2 else []
        while len(points) < stype.branches:
            cand = curve.point(rng.randint(low, high), 1)
            if cand not in points:
                points.append(cand)
        spec = stratum_spec(stype, points, curve, ell)
        center = sample_center(spec, rng.randrange(10**6), curve)
        al, be, ga, de = (field(rng.randint(-entry, entry)) for _ in range(4))
        if trial % 3 == 1:
            ga, de = field.one, -points[0].a  # g sends the first planted point to (1 : 0)
        if not al * de - be * ga:
            continue
        sym = sym_matrix(((al, be), (ga, de)), d, field)
        moved = ProjectionCenter.from_rows(
            field, d, [[sum((c * x for c, x in zip(srow, row)), field.zero) for srow in sym]
                       for row in center.rows]
        )

        def move(q):
            return curve.point(al * q.a + be * q.b, ga * q.a + de * q.b)

        assert _outcome(moved, curve) == _outcome(center, curve, move), stype.label


# ---------------------------------------------------------------------------
# the dual path compares every cell; relabelled points permute the report


def _sampled(label, coords, d=8, ell=3, seed=5):
    curve = RationalNormalCurve(F, d)
    points = [curve.point(*c) for c in coords]
    return sample_center(stratum_spec(label, points, curve, ell), seed, curve), curve, points


def _mismatch(excinfo):
    """(alpha, series value, flag value) from a dual-path mismatch message."""
    m = re.search(r"alpha=(\([\d, ]*\)): series (\d+) vs flag (\d+)", str(excinfo.value))
    return ast.literal_eval(m.group(1)), int(m.group(2)), int(m.group(3))


def test_dual_path_check_names_a_cell_of_a_corrupted_flag_block(monkeypatch):
    """One corrupted row of one point's block [J·Mᵀ | J] makes the check raise at
    a cell where the per-cell route, given the same block, differs too."""
    center, curve, points = _sampled("2.2.a", [(5, 1), (1, 0)])
    cells = list(simplex(center.degree + 1, 2))
    clean = per_cell_flag_dims(center, curve, points, cells)
    real = linalg.image_block

    def corrupted(rows, m_rows, field):
        block = real(rows, m_rows, field)
        if rows == curve.osc_rows(points[1], len(rows)):
            block = block.copy()
            block[2, : len(m_rows)] = 0  # row 2 of the second point's block loses its image
        return block

    monkeypatch.setattr(linalg, "image_block", corrupted)
    bad = per_cell_flag_dims(center, curve, points, cells)
    with pytest.raises(GapcurveError, match="dual-path mismatch") as excinfo:
        analyze(center, curve, clusters=[points])
    alpha, series_val, flag_val = _mismatch(excinfo)
    assert (series_val, flag_val) == (clean[alpha], bad[alpha]) and clean[alpha] != bad[alpha]


def test_dual_path_check_names_a_cell_of_a_corrupted_series_row(monkeypatch):
    """One corrupted row of the series span makes the check raise at a cell where
    the per-cell jet rank of the corrupted span differs from the flag."""
    center, curve, points = _sampled("3.3.a", [(5, 1), (1, 0), (17, 1)])
    cells = list(simplex(center.degree + 1, 3))
    flag = per_cell_flag_dims(center, curve, points, cells)
    spans = []

    def corrupted(space, kind):
        rows = space._rows.copy()
        rows[1] = rows[0]  # the span loses its second row
        spans.append(SeriesSubspace(space.ambient, rows, space.pivots))
        return GapFunction(spans[-1], kind)

    monkeypatch.setattr(project, "GapFunction", corrupted)
    with pytest.raises(GapcurveError, match="dual-path mismatch") as excinfo:
        analyze(center, curve, clusters=[points])
    alpha, series_val, flag_val = _mismatch(excinfo)
    assert series_val == sum(alpha) - per_cell_jet_rank(spans[-1], alpha)
    assert flag_val == flag[alpha] != series_val


def test_dual_path_check_compares_every_cell(monkeypatch):
    """An off-by-one flag value at any one cell of |alpha| <= d + 1 is caught and named."""
    center, curve, points = _sampled("2.2.b", [(1, 0), (4, 1)], d=5, ell=2)
    cells = list(simplex(center.degree + 1, 2))
    real = project._flag_dims
    for target in cells:

        def off_by_one(*args, target=target):
            out = real(*args)
            out[target] += 1
            return out

        monkeypatch.setattr(project, "_flag_dims", off_by_one)
        with pytest.raises(GapcurveError, match="dual-path mismatch") as excinfo:
            analyze(center, curve, clusters=[points])
        assert _mismatch(excinfo)[0] == target


def _permuted(alpha, perm):
    return tuple(alpha[i] for i in perm)


def _assert_permuted_report(base, got, perms, rename=None):
    """got's clusters are base's with points renamed and in the orders perms;
    all else is equal."""
    assert replace(got, clusters=[]) == replace(base, clusters=[])
    assert len(got.clusters) == len(base.clusters)
    for cl, g, perm in zip(base.clusters, got.clusters, perms):
        assert g.points == [(rename or {}).get(cl.points[i], cl.points[i]) for i in perm]
        assert g.tangent == [cl.tangent[i] for i in perm]
        samples = {_permuted(alpha, perm): v for alpha, v in cl.lambda_samples.items()}
        assert g.lambda_samples == samples
        rest = dict(points=[], tangent=[], lambda_samples={})
        assert replace(g, **rest) == replace(cl, **rest)


def test_permuted_cluster_points_permute_the_report():
    """Every order of a named cluster's points permutes the flag table, the
    lambda samples and the tangent flags, and leaves the rest of the report as is."""
    center, curve, points = _sampled("3.3.a", [(2, 1), (1, 0), (7, 1)], seed=11)
    base = analyze(center, curve, clusters=[points])
    cells = list(simplex(center.degree + 1, 3))
    flag = _flag_dims(center, curve, points, cells)
    assert set(base.clusters[0].tangent) == {True, False}
    for perm in permutations(range(3)):
        moved = [points[i] for i in perm]
        got = analyze(center, curve, clusters=[moved])
        _assert_permuted_report(base, got, [perm])
        moved_flag = _flag_dims(center, curve, moved, [_permuted(a, perm) for a in cells])
        assert moved_flag == {_permuted(a, perm): v for a, v in flag.items()}


def test_relabelled_expansion_table_permutes_the_report():
    """Renaming the points of a user table and listing them in another order
    permutes each cluster and changes nothing else."""
    curve = RationalNormalCurve(F, 6)
    names = {"P": curve.point(1, 0), "Q": curve.point(3, 1), "R": curve.point(11, 1)}
    model = _named_model(curve, names, 16)
    rename = {"P": "Z", "Q": "X", "R": "Y"}
    renamed = ExpansionCurveModel(
        F, model.dim_w, model.degree, 0, {rename[k]: model._tables[k] for k in names}
    )
    node = sample_center(stratum_spec("1.2", [names["Q"], names["R"]], curve, 2), 5, curve)
    base = analyze(node, model, clusters=[["Q", "R"], ["P"]])
    got = analyze(node, renamed, clusters=[["Y", "X"], ["Z"]])
    assert [cl.type_label for cl in base.clusters] == ["1.2", "Smooth"]
    _assert_permuted_report(base, got, [(1, 0), (0,)], rename)

import random

import pytest

from gapcurve import linalg
from gapcurve.classify import concrete_type, enumerate_types
from gapcurve.curve import RationalNormalCurve
from gapcurve.errors import HypothesisViolationError, ValidationError
from gapcurve.fields import GF, QQ
from gapcurve.project import ProjectionCenter, analyze
from gapcurve.schubert import (
    Partition,
    _conditions_hold_exactly,
    _draw_cell,
    _vector_dims,
    closed_conditions,
    configuration_codim,
    sample_center,
    sample_configuration,
    stratum_partition,
    stratum_spec,
    table_codim,
)

F = GF(10007)


def distinct_points(curve, count, rng):
    pts = []
    while len(pts) < count:
        cand = curve.point(rng.randrange(curve.field.p), 1)
        if cand not in pts:
            pts.append(cand)
    return pts


def spec_for(label, d, n, seed=1):
    rng = random.Random(seed)
    curve = RationalNormalCurve(F, d)
    stype = concrete_type(label)
    pts = distinct_points(curve, stype.branches, rng)
    return stratum_spec(stype, pts, curve, d - n), curve


def test_partition_sizes_match_codim_formulas():
    # partition size = table codimension + branch count, for n = 4, 5, 6
    for n in (4, 5, 6):
        for t in enumerate_types():
            part = stratum_partition(t, n)
            assert part.size == table_codim(t, n) + t.branches, (t.label, n)
            assert part.fits(3, n + 1)


def test_stratum_spec_examples():
    # ordinary triple point at d=8, n=5: codim 2n-3 = 7
    spec, _ = spec_for("2.3", 8, 5)
    assert spec.codim == 7
    assert spec.partition.parts == (5, 5)
    # node: codim n-2
    spec, _ = spec_for("1.2", 8, 5)
    assert spec.codim == 3
    assert spec.partition.parts == (5,)
    # cusp with coplanar smooth branch: codim 3n-4 = 11
    spec, _ = spec_for("3.2.e", 8, 5)
    assert spec.codim == 11
    assert spec.partition.parts == (5, 5, 3)
    assert spec.chain == [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]


def test_stratum_spec_validation():
    curve = RationalNormalCurve(F, 8)
    rng = random.Random(0)
    with pytest.raises(ValidationError):
        stratum_spec(concrete_type("2.3"), distinct_points(curve, 2, rng), curve, 3)
    with pytest.raises(HypothesisViolationError):
        # delta exceeds ell
        stratum_spec(concrete_type("3.1.a"), distinct_points(curve, 1, rng), curve, 2)
    with pytest.raises(HypothesisViolationError):
        # 2*ell < d fails at d = 5, ell = 3
        small = RationalNormalCurve(F, 5)
        stratum_spec(concrete_type("3.1.a"), distinct_points(small, 1, rng), small, 3)


def test_conditions_include_standardness_cell():
    conds = dict(closed_conditions(concrete_type("3.2.e")))
    assert conds[(1, 1)] == 1
    assert conds[(4, 2)] == 3
    conds = dict(closed_conditions(concrete_type("2.3")))
    assert conds[(1, 1, 1)] == 2


def test_sample_center_deterministic():
    spec, curve = spec_for("1.1", 8, 5)
    c1 = sample_center(spec, 42, curve)
    c2 = sample_center(spec, 42, curve)
    c3 = sample_center(spec, 43, curve)
    assert c1.rows == c2.rows
    assert c1.rows != c3.rows


def test_sample_and_analyze_representative_types():
    # one representative per shape of sampler: cell-sampled shallow types and
    # the two deep pair members (full 21-type round trip runs in acceptance)
    cases = [("1.1", 5, 3), ("1.2", 5, 3), ("2.2.b", 5, 3), ("2.3", 8, 5),
             ("3.2.e", 8, 5), ("3.1.d", 8, 5), ("3.2.f", 8, 5), ("3.4", 8, 5)]
    rng = random.Random(7)
    for label, d, n in cases:
        curve = RationalNormalCurve(F, d)
        stype = concrete_type(label)
        hits = 0
        for attempt in range(6):
            pts = distinct_points(curve, stype.branches, rng)
            spec = stratum_spec(stype, pts, curve, d - n)
            center = sample_center(spec, rng.randrange(10**6), curve)
            report = analyze(center, curve)
            got = {tuple(q.coords()) for cl in report.clusters for q in cl.points}
            want = {tuple(q.coords()) for q in pts}
            if got == want and [cl.type_label for cl in report.clusters] == [label]:
                hits += 1
                break
        assert hits, f"no clean sample for {label} at (d, n) = ({d}, {n})"


def test_q_round_trip_at_real_heights():
    # over Q, planted points (a : 1) with |a| <= 10^5 give elimination forms
    # with coefficients far past 10^12, where a divisor search cannot go
    rng = random.Random(3)
    curve = RationalNormalCurve(QQ, 5)
    for stype in (t for t in enumerate_types() if t.delta <= 2):
        pts = []
        while len(pts) < stype.branches:
            cand = curve.point(rng.randint(-10**5, 10**5), 1)
            if cand not in pts:
                pts.append(cand)
        spec = stratum_spec(stype, pts, curve, 2)
        report = analyze(sample_center(spec, rng.randrange(10**9), curve), curve)
        got = {q.coords() for cl in report.clusters for q in cl.points}
        assert got == {q.coords() for q in pts}, stype.label
        assert [cl.type_label for cl in report.clusters] == [stype.label]


def test_sampled_center_meets_flag_exactly():
    spec, curve = spec_for("2.1.a", 8, 5, seed=3)
    center = sample_center(spec, 11, curve)
    for alpha, rows in spec.flag:
        got = linalg.intersection_dim(center.rows, rows, F)
        m = sum(alpha)
        want = sum(1 for v in [2, 3] if v <= m)  # vector dims for 2.1.a
        assert got == want


def _conditions_oracle(center, spec):
    """The closed conditions by rank arithmetic on the spec's flag rows."""
    vdims = _vector_dims(spec.conditions)
    return all(
        linalg.intersection_dim(center.rows, rows, center.field)
        == sum(1 for v in vdims if v <= sum(alpha))
        for alpha, rows in spec.flag
    )


@pytest.mark.parametrize("field", [GF(10007), QQ], ids=["p10007", "QQ"])
def test_conditions_hold_exactly_matches_intersection_oracle(field):
    # Draws from each spec's cell, and centers through the point (1:0) that
    # every spec uses, checked against every spec: a draw from another cell
    # or through the curve is rejected, so both verdicts are compared.
    rng = random.Random(41)
    curve = RationalNormalCurve(field, 8)
    specs = []
    for label in ["1.1", "1.2", "2.1.a", "2.3", "3.2.e"]:
        stype = concrete_type(label)
        pts = [curve.point(k, 1) for k in rng.sample(range(1, 40), stype.branches - 1)]
        specs.append(stratum_spec(stype, pts + [curve.point(1, 0)], curve, 3))
    centers = [_draw_cell([spec], 3, curve, rng) for spec in specs for _ in range(3)]
    for _ in range(3):
        rows = _draw_cell([], 2, curve, rng).rows + [curve.veronese_row(curve.point(1, 0))]
        centers.append(ProjectionCenter.from_rows(field, 8, rows))
    verdicts = []
    for center in filter(None, centers):
        for spec in specs:
            got = _conditions_hold_exactly(center, spec, curve)
            assert got == _conditions_oracle(center, spec), spec.stype
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_configuration_codim_quintic():
    # two nodes on a quintic: codim 2(n-2) = 2; Grassmannian has dimension 8
    codim, family = configuration_codim(["1.2", "1.2"], 5, 3)
    assert codim == 2
    assert family == 8 - 2
    codim, family = configuration_codim(["2.2.b"], 5, 3)
    assert codim == 2 * 3 - 2 == 4
    with pytest.raises(HypothesisViolationError):
        configuration_codim(["1.1", "1.1", "1.1", "1.2"], 8, 5)


def test_quintic_stratum_dims_range():
    # dims of singular strata on the quintic Grassmannian G(2,6) range 3..8
    feasible = []
    for t in enumerate_types():
        if t.delta > 2:
            continue
        feasible.append((t.label,))
    for a in ("1.1", "1.2"):
        for b in ("1.1", "1.2"):
            feasible.append(tuple(sorted((a, b))))
    dims = set()
    for config in set(feasible):
        try:
            _, family = configuration_codim(list(config), 5, 3)
        except HypothesisViolationError:
            continue
        dims.add(family)
    dims.add(8)  # the smooth stratum
    assert min(dims) == 3 and max(dims) == 8


def test_configuration_aliases_and_errors():
    codim, _ = configuration_codim(["3.3.d"], 8, 5)  # stratum-table alias of 3.4
    assert codim == 3 * 5 - 4
    with pytest.raises(ValidationError):
        configuration_codim(["Smooth"], 8, 5)


def test_joint_configuration_sample():
    # node + cusp at d=8, n=5: the strata intersect (Pieri-compatible smoke test)
    curve = RationalNormalCurve(F, 8)
    rng = random.Random(5)
    pts = distinct_points(curve, 3, rng)
    node = stratum_spec(concrete_type("1.2"), pts[:2], curve, 3)
    cusp = stratum_spec(concrete_type("1.1"), pts[2:], curve, 3)
    center = sample_configuration([node, cusp], 3, 99, curve)
    report = analyze(center, curve)
    labels = sorted(cl.type_label for cl in report.clusters)
    assert labels == ["1.1", "1.2"]
    assert report.delta_total == 2


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition((2, 3))
    with pytest.raises(ValidationError):
        Partition((3, 0))
    assert Partition((5, 4, 4)).size == 13

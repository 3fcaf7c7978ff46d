import random
from math import comb

import pytest

from gapcurve import linalg
from gapcurve.curve import (
    CurvePoint,
    ExpansionCurveModel,
    Multifiltration,
    RationalNormalCurve,
    multifiltration_dim,
    osc_subspace,
)
from gapcurve.errors import ValidationError
from gapcurve.fields import GF, QQ

from conftest import independent_rank


def monomial(d, k):
    """Coefficient vector of x^(d-k) y^k."""
    out = [0] * (d + 1)
    out[k] = 1
    return out


def test_point_canonicalization():
    p1 = CurvePoint(QQ, QQ(2), QQ(4))
    assert p1.coords() == (QQ("1/2"), QQ(1))
    inf = CurvePoint(QQ, QQ(3), QQ(0))
    assert inf.at_infinity and inf.coords() == (QQ(1), QQ(0))
    with pytest.raises(ValidationError):
        CurvePoint(QQ, QQ(0), QQ(0))
    assert CurvePoint(QQ, QQ(1), QQ(2)) == CurvePoint(QQ, QQ(2), QQ(4))


def test_small_field_guard():
    with pytest.raises(ValidationError):
        RationalNormalCurve(GF(3), 5)


def test_osc_dims_rational_normal():
    # dim V^i(P) = i for every point and order
    curve = RationalNormalCurve(GF(101), 5)
    rng = random.Random(1)
    for _ in range(10):
        pt = curve.point(rng.randrange(101), rng.randrange(101) if rng.random() < 0.9 else 0)
        for i in range(0, curve.degree + 2):
            rows = osc_subspace(curve, pt, i)
            assert len(rows) == i
    assert osc_subspace(curve, curve.point(3, 1), 0) == []


def test_osc_rank_oracle():
    curve = RationalNormalCurve(GF(10007), 5)
    rng = random.Random(7)
    for _ in range(5):
        pt = curve.point(rng.randrange(10007), 1)
        rows = curve.osc_rows(pt, 3)
        assert independent_rank(rows, curve.field, 6) == 3


def test_osc_monomial_point():
    # at (1:0) the sections vanishing to order >= 2 are those whose x^d and
    # x^{d-1}y coefficients vanish, so V^2 is spanned by the first two duals
    curve = RationalNormalCurve(QQ, 3)
    rows = osc_subspace(curve, curve.point(1, 0), 2)
    assert rows == [[QQ(1), QQ(0), QQ(0), QQ(0)], [QQ(0), QQ(1), QQ(0), QQ(0)]]


def test_osc_nesting():
    curve = RationalNormalCurve(QQ, 6)
    pt = curve.point(2, 1)
    prev = []
    for i in range(curve.degree + 2):
        rows = osc_subspace(curve, pt, i)
        assert len(rows) == i
        if prev:
            assert linalg.rank(prev + rows, QQ) == len(rows)  # nested
        prev = rows


def test_local_expansion_golden():
    curve = RationalNormalCurve(QQ, 5)
    inf = curve.point(1, 0)
    # x^2 y^3 at (1:0) expands to t^3
    s = curve.local_expansion(monomial(5, 3), inf, 8)
    assert s.valuation() == (3,)
    assert s.coeff(0, 3) == QQ(1) and not s.coeff(0, 4)
    # x^5 + x^3 y^2 expands to 1 + t^2
    coeffs = [0] * 6
    coeffs[0] = 1
    coeffs[2] = 1
    s = curve.local_expansion(coeffs, inf, 8)
    assert s.coeff(0, 0) == QQ(1) and s.coeff(0, 2) == QQ(1)
    assert sum(1 for k in range(8) if s.coeff(0, k)) == 2


def test_local_expansion_unit_when_nonvanishing():
    curve = RationalNormalCurve(QQ, 4)
    pt = curve.point(2, 1)
    coeffs = [1, 0, 0, 0, 1]  # x^4 + y^4: value 17 at (2:1)
    s = curve.local_expansion(coeffs, pt, 6)
    assert s.is_unit()
    assert s.coeff(0, 0) == curve.section_value(coeffs, pt) == QQ(17)
    # the zero section expands to zero
    z = curve.local_expansion([0] * 5, pt, 6)
    assert not z


def test_local_expansion_past_degree_is_zero():
    # a degree-d section has no t^j term for j > d, so J_P's rows past d vanish
    d = 4
    coeffs = [3, 1, 4, 1, 5]
    for field in (QQ, GF(101)):
        curve = RationalNormalCurve(field, d)
        for a in (2, -7):
            # oracle: s(a + t, 1) = sum_k c_k (a + t)^(d-k), expanded binomially
            want = [0] * (3 * d)
            for k, c in enumerate(coeffs):
                for m in range(d - k + 1):
                    want[m] += c * comb(d - k, m) * a ** (d - k - m)
            got = curve.local_expansion(coeffs, curve.point(a, 1), 3 * d).coeffs[0]
            assert list(got) == [field(w) for w in want]
        at_inf = curve.local_expansion(coeffs, curve.point(1, 0), 3 * d).coeffs[0]
        assert list(at_inf) == [field(c) for c in coeffs] + [field.zero] * (2 * d - 1)
        with pytest.raises(ValidationError):
            curve.osc_rows(curve.point(1, 0), -1)


def test_user_model_expansion_past_precision_raises():
    model = ExpansionCurveModel(QQ, 3, 2, 0, {"P": [[1, 0, 2], [0, 1, 0], [0, 0, 1]]})
    assert list(model.local_expansion([1, 2, 3], "P", 3).coeffs[0]) == [QQ(1), QQ(2), QQ(5)]
    assert model.section_value([1, 2, 3], "P") == QQ(1)
    with pytest.raises(ValidationError):
        model.local_expansion([1, 2, 3], "P", 4)
    with pytest.raises(ValidationError):
        ExpansionCurveModel(QQ, 1, 2, 0, {"P": [[]]})


def test_user_model_without_tables_is_refused():
    # without a table there is no precision to cap the truncation by
    with pytest.raises(ValidationError, match="at least one point table"):
        ExpansionCurveModel(QQ, 6, 5, 0, {})


def test_expansion_order_matches_osc_pairing():
    # ord_t(expansion of s at P) >= i  <=>  s in the annihilator of V^i(P)
    curve = RationalNormalCurve(GF(10007), 6)
    rng = random.Random(3)
    field = curve.field
    for _ in range(25):
        pt = curve.point(rng.randrange(10007), 1 if rng.random() < 0.9 else 0)
        coeffs = [field.random_element(rng) for _ in range(7)]
        exp = curve.local_expansion(coeffs, pt, 8)
        val = exp.valuation()[0]
        for i in range(0, 8):
            pairing_zero = all(
                not sum((c * v for c, v in zip(coeffs, row)), field.zero)
                for row in curve.osc_rows(pt, i)
            )
            assert pairing_zero == (val >= i or not any(coeffs))


def test_multifiltration_dims():
    curve = RationalNormalCurve(QQ, 5)
    pts = [curve.point(0, 1), curve.point(1, 1)]
    filt = Multifiltration(curve, pts)
    assert multifiltration_dim(filt, (2, 2)) == 4
    assert multifiltration_dim(filt, (0, 0)) == 0
    assert multifiltration_dim(filt, (3, 3)) == 6  # |alpha| = d + 1 boundary


def test_multifiltration_dim_equals_size():
    # dim F^alpha = |alpha| whenever |alpha| <= d + 1 (genus zero)
    rng = random.Random(9)
    for d in (4, 7, 10):
        curve = RationalNormalCurve(GF(10007), d)
        for _ in range(8):
            r = rng.randrange(1, 4)
            pts = []
            while len(pts) < r:
                cand = curve.point(rng.randrange(10007), 1)
                if cand not in pts:
                    pts.append(cand)
            filt = Multifiltration(curve, pts)
            alpha = [0] * r
            budget = rng.randrange(0, d + 2)
            for _ in range(budget):
                alpha[rng.randrange(r)] += 1
            assert filt.dim(alpha) == min(sum(alpha), d + 1) if sum(alpha) <= d + 1 else True
            if sum(alpha) <= d + 1:
                assert filt.dim(alpha) == sum(alpha)


def test_multifiltration_symmetry():
    curve = RationalNormalCurve(QQ, 6)
    p1, p2 = curve.point(1, 1), curve.point(3, 1)
    f12 = Multifiltration(curve, [p1, p2])
    f21 = Multifiltration(curve, [p2, p1])
    for alpha in [(1, 2), (2, 1), (3, 2)]:
        assert f12.dim(alpha) == f21.dim(tuple(reversed(alpha)))


def test_multifiltration_distinct_points_required():
    curve = RationalNormalCurve(QQ, 4)
    with pytest.raises(ValidationError):
        Multifiltration(curve, [curve.point(1, 1), curve.point(1, 1)])


def test_expansion_model_matches_rational_normal():
    # a user-supplied table built from the rational normal curve behaves the same
    d = 5
    curve = RationalNormalCurve(QQ, d)
    pts = [curve.point(0, 1), curve.point(1, 0)]
    precision = 6
    tables = {}
    for key, pt in zip(["P0", "Pinf"], pts):
        rows = []
        for k in range(d + 1):
            exp = curve.local_expansion(monomial(d, k), pt, precision)
            rows.append(list(exp.coeffs[0]))
        tables[key] = rows
    model = ExpansionCurveModel(QQ, d + 1, d, 0, tables)
    assert model.precision == precision
    for key, pt in zip(["P0", "Pinf"], pts):
        for i in range(precision):
            got = linalg.rank(model.osc_rows(key, i), QQ)
            want = linalg.rank(curve.osc_rows(pt, i), QQ)
            assert got == want == i
    filt_user = Multifiltration(model, ["P0", "Pinf"])
    filt_true = Multifiltration(curve, pts)
    for alpha in [(1, 1), (2, 3), (3, 3)]:
        assert filt_user.dim(alpha) == filt_true.dim(alpha)
    s = model.local_expansion([1, 0, 0, 1, 0, 0], "Pinf", 6)
    t = curve.local_expansion([1, 0, 0, 1, 0, 0], pts[1], 6)
    assert s.coeffs == t.coeffs

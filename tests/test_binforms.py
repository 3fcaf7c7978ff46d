import random
import time
from collections import Counter
from itertools import islice
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcurve import binforms
from gapcurve.binforms import (
    BinaryForm,
    _newton,
    _divides,
    _divmod,
    _split_parts,
    form_gcd,
    gcd_many,
    projective_roots,
)
from gapcurve.errors import GapcurveError
from gapcurve.fields import GF, QQ
from gapcurve.project import ProjectionCenter

from conftest import (
    BiForm,
    biform_columns,
    integer_rows,
    collision_biform,
    derivative_a,
    oracle_form_gcd,
    poly_gcd,
    primitive,
    resultant_in_q,
    scan_roots_gfp,
    secant_combinations,
)


def poly_from_roots(field, roots, lead=1):
    """Binary form with the given finite roots (b = 1 points)."""
    coeffs = [field(lead)]
    for r in roots:
        # multiply by (a - r b): coeffs are low a-power first
        new = [field.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i] = new[i] - field(r) * c
            new[i + 1] = new[i + 1] + c
        coeffs = new
    return BinaryForm(field, coeffs)


def at_first_point(h, x):
    """The binary form in the second point left by a biform at (x : 1)."""
    cols = range(h.deg_q + 1)
    return BinaryForm(h.field, [sum(row[j] * x**i for i, row in enumerate(h.coeffs)) for j in cols])


def test_evaluate_and_roots_rational():
    f = poly_from_roots(QQ, [1, 1, -2])  # (a-b)^2 (a+2b)
    assert f.evaluate(1, 1) == 0
    assert f.evaluate(-2, 1) == 0
    assert f.evaluate(3, 1) != 0
    roots, residual = projective_roots(f)
    assert residual == 0
    assert sorted((str(a), str(b), m) for (a, b), m in roots) == [
        ("-2", "1", 1),
        ("1", "1", 2),
    ]


def test_roots_at_zero_and_infinity():
    # a^2 * b * (a - b) over F_101
    field = GF(101)
    base = poly_from_roots(field, [0, 0, 1])
    f = BinaryForm(field, list(base.coeffs) + [field.zero])  # multiply by b
    roots, residual = projective_roots(f)
    assert residual == 0
    out = {((a.value, b.value) if hasattr(a, "value") else (a, b)): m for (a, b), m in roots}
    assert out[(0, 1)] == 2
    assert out[(1, 0)] == 1
    assert out[(1, 1)] == 1


def test_roots_residual_irrational():
    # a^2 - 2 b^2 has no rational roots
    f = BinaryForm(QQ, [-2, 0, 1])
    roots, residual = projective_roots(f)
    assert roots == []
    assert residual == 2
    # over F_7, 2 = 3^2 so it splits
    f7 = BinaryForm(GF(7), [-2, 0, 1])
    roots7, residual7 = projective_roots(f7)
    assert residual7 == 0
    assert sorted(a.value for (a, _), _ in roots7) == [3, 4]


def test_rational_roots_with_fractions():
    # (2a - b)(a + 3b) = 2a^2 + 5ab - 3b^2
    f = BinaryForm(QQ, [-3, 5, 2])
    roots, residual = projective_roots(f)
    assert residual == 0
    assert sorted(a for (a, _), _ in roots) == [Fraction(-3), Fraction(1, 2)]


# ---------------------------------------------------------------------------
# rational roots: F_p roots lifted p-adically, against trial division


def _divisors(n):
    """Positive divisors of n != 0 in increasing order, by trial division."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _synthetic_division(cs, x):
    """(quotient, remainder) of a low-first list by (a - x), by Horner."""
    acc, out = 0, []
    for c in reversed(cs):
        acc = acc * x + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def trial_division_roots(poly):
    """Oracle for the rational roots of a polynomial with nonzero ends: try
    every +-u/v with u | poly(0) and v | lead, and count each root's
    multiplicity by repeated synthetic division."""
    den = lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * den) for c in poly]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    dens = _divisors(ints[-1])
    candidates = {Fraction(s * u, v) for u in _divisors(ints[0]) for v in dens for s in (1, -1)}
    out = []
    for x in sorted(candidates):
        mult, cs = 0, [Fraction(c) for c in ints]
        while True:
            quot, rem = _synthetic_division(cs, x)
            if rem:
                break
            mult, cs = mult + 1, quot
        if mult:
            out.append((x, mult))
    return out


# a^2 - 2b^2, a^2 + b^2, 3a^2 - 5ab + 7b^2, a^2 + ab - b^2: no rational roots
IRREDUCIBLE_QUADRATICS = ([-2, 0, 1], [1, 0, 1], [7, -5, 3], [-1, 1, 1])


@st.composite
def planted_forms(draw, height, max_factors, max_repeats, finite=False):
    """(form, {(a, b): multiplicity}): a rational multiple of planted linear
    factors (v a - u b) with |u|, v <= height, one of them repeated up to
    ``max_repeats`` more times, times an irreducible quadratic.  Unless
    ``finite``, the roots may be (0 : 1) and (1 : 0)."""
    low = 1 if finite else 0
    root = st.tuples(st.integers(-height, height), st.integers(low, height)).filter(
        lambda uv: uv[0] or (uv[1] and not finite)
    )
    factors = draw(st.lists(root, min_size=1, max_size=max_factors))
    factors += [draw(st.sampled_from(factors))] * draw(st.integers(0, max_repeats))
    scale = Fraction(draw(st.integers(-60, 60).filter(bool)), draw(st.integers(1, 60)))
    form = BinaryForm(QQ, draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))).scale(scale)
    planted = Counter()
    for u, v in factors:
        form = form.mul(BinaryForm(QQ, [-u, v]))
        planted[(Fraction(u, v), Fraction(1)) if v else (Fraction(1), Fraction(0))] += 1
    return form, dict(planted)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(planted=planted_forms(10**3, 2, 1, finite=True))
def test_rational_roots_match_trial_division(planted):
    form, roots = planted
    want = trial_division_roots(form.coeffs)
    assert binforms._roots_rational(list(form.coeffs)) == want
    assert dict(((x, Fraction(1)), m) for x, m in want) == roots


@settings(max_examples=40, deadline=None, derandomize=True)
@given(planted=planted_forms(10**15, 4, 2))
def test_rational_roots_recover_planted_factors_at_height(planted):
    form, roots = planted
    found, residual = projective_roots(form)
    assert dict(found) == roots and residual == 2
    assert len(found) == len(roots)


def test_rational_roots_skip_unlucky_primes(monkeypatch):
    p = binforms._LIFT_PRIME
    primes, real = [], binforms._roots_gfp

    def spy(poly, field):
        primes.append(field.p)
        return real(poly, field)

    monkeypatch.setattr(binforms, "_roots_gfp", spy)
    quadratic = BinaryForm(QQ, IRREDUCIBLE_QUADRATICS[0])
    cases = [
        # two roots congruent mod p: p is skipped for the next prime
        ([1, 1, 1 + p, -3], lambda used: used[0] == p and used[-1] > p),
        # p | lead(g): never scanned mod p
        ([Fraction(2, p), Fraction(2, p), Fraction(-1, p * p), 5], lambda used: p not in used),
        # a root = 0 mod p, simple there: p is kept
        ([p, p, 2, Fraction(-5, 3)], lambda used: used == [p]),
    ]
    for roots, check in cases:
        primes.clear()
        form = poly_from_roots(QQ, roots).mul(quadratic)
        found, residual = projective_roots(form)
        assert residual == 2
        assert found == [((Fraction(x), 1), m) for x, m in sorted(Counter(roots).items())]
        assert check(primes), primes


def test_rational_roots_at_the_lift_bound():
    # a monic linear form a - u b needs a modulus m > 2|u|: |u| on either
    # side of half of p, p^2 and p^4 stops the lift just before or after
    p = binforms._LIFT_PRIME
    for m in (p, p**2, p**4):
        for u in (m // 2, m // 2 + 1, m - 1, m + 1):
            for root in (u, -u):
                assert projective_roots(BinaryForm(QQ, [-root, 1])) == ([((root, 1), 1)], 0)


def test_rational_roots_with_highly_composite_ends():
    # 963761198400 has 6,720 divisors: ~9e7 trial-division candidates
    n = 963761198400
    start = time.monotonic()
    roots, residual = projective_roots(BinaryForm(QQ, [n, 1, 1, n]))
    assert time.monotonic() - start < 1
    assert roots == [((-1, 1), 1)] and residual == 2


def test_form_gcd():
    field = QQ
    f = poly_from_roots(field, [1, 2, 3])
    g = poly_from_roots(field, [2, 3, 5])
    h = form_gcd(f, g)
    roots, residual = projective_roots(h)
    assert residual == 0
    assert sorted(a for (a, _), _ in roots) == [2, 3]
    # common b and a content
    fb = BinaryForm(field, list(f.coeffs) + [field.zero])
    gb = BinaryForm(field, list(g.coeffs) + [field.zero])
    hb = form_gcd(fb, gb)
    assert projective_roots(hb)[0][-1] == ((field.one, field.zero), 1) or any(
        (a, b) == (field.one, field.zero) for (a, b), _ in projective_roots(hb)[0]
    )


def test_gcd_many_unit():
    field = GF(101)
    f = poly_from_roots(field, [1, 2])
    g = poly_from_roots(field, [3, 4])
    h = gcd_many([f, g])
    assert h.formal_degree == 0 or projective_roots(h)[0] == []


def test_derivative():
    f = BinaryForm(QQ, [5, 0, 3])  # 3a^2 + 5b^2
    df = derivative_a(f)
    assert df.coeffs == (QQ(0), QQ(6))


def test_divide_exact():
    # division over Z: (a - b)(a - 2b)(a - 3b) by (a - 2b), and refusals
    f = primitive(poly_from_roots(QQ, [1, 2, 3]).coeffs)
    assert _divmod(f, [-2, 1], 0) == (primitive(poly_from_roots(QQ, [1, 3]).coeffs), [])
    assert _divides([-2, 1], f) and not _divides([-5, 1], f)
    # 2a - 1 divides 2a^2 + 5a - 3 over Z, but not a^2 - 1 (quotient a/2 + 1/4)
    assert _divmod([-3, 5, 2], [-1, 2], 0) == ([3, 1], [])
    assert _divmod([-1, 0, 1], [-1, 2], 0) is None
    assert not _divides([-3, 5, 2], [-1, 2])
    # the same division mod 7, where 2 is a unit
    assert _divmod([-1, 0, 1], [-1, 2], 7) == ([2, 4], [1])


def test_collision_biform_diagonal_division():
    field = QQ
    d = 5
    # forms x^5 and y^5 in dual order: x^(d-k) y^k
    f = [field.zero] * 6
    f[0] = field.one  # x^5
    g = [field.zero] * 6
    g[5] = field.one  # y^5
    h = collision_biform(f, g, field, d)
    assert at_first_point(h, 2).evaluate(2, 1) == 0  # vanishes on the diagonal
    hq = h.divide_diagonal()
    assert hq.deg_p == 4 and hq.deg_q == 4
    # the quotient is sum a^i b^(4-i) a'^(4-i) b'^i ... check one value:
    # evaluate at P=(1,1), P'=(1,1): should be 5
    val = at_first_point(hq, 1).evaluate(1, 1)
    assert val == 5


def test_resultant_common_root():
    field = QQ
    d = 3
    # f vanishes at P=2 paired with P'=5; build biforms with a known common zero
    # h1 = (a - 2b)(a' - 5b'), h2 = (a - 2b)(a' - 5b') + (a - 2b)^2 ... keep simple:
    one = field.one

    def pair_form(r, s):
        # (a - r b)(a' - s b') as a BiForm of bidegree (1,1)
        return BiForm(field, [[field(r * s), field(-r)], [field(-s), one]], 1, 1)

    h1 = pair_form(2, 5)
    h2 = pair_form(2, 7)
    res = resultant_in_q(h1, h2)
    # common P'-root exists only where both first factors vanish: at a = 2b
    roots, residual = projective_roots(res)
    assert any(a == 2 and b == 1 for (a, b), _ in roots)


def test_resultant_matches_direct_sylvester():
    # cross-check interpolation against a direct symbolic expansion on a
    # small example: resultant in P' of (a a' - b b') and (a' - 3 b')
    field = QQ
    h1 = BiForm(field, [[field(-1), field.zero], [field.zero, field.one]], 1, 1)
    h2 = BiForm(field, [[field(-3), field.one]], 0, 1)
    res = resultant_in_q(h1, h2)
    # substituting a' = 3: a*3 - b = 0 up to sign, so res ~ (3a - b)
    roots, residual = projective_roots(res)
    assert residual == 0
    assert any(3 * a == b for (a, b), _ in roots)


def test_resultant_gfp_matches_rational():
    d = 2
    fq = [QQ(1), QQ(2), QQ(3)]
    gq = [QQ(2), QQ(0), QQ(1)]
    hq = collision_biform(fq, gq, QQ, d).divide_diagonal()
    h2q = collision_biform(fq, [QQ(1), QQ(1), QQ(1)], QQ, d).divide_diagonal()
    rq = resultant_in_q(hq, h2q)

    p = 10007
    field = GF(p)
    fp = [field(1), field(2), field(3)]
    gp = [field(2), field(0), field(1)]
    hp = collision_biform(fp, gp, field, d).divide_diagonal()
    h2p = collision_biform(fp, [field(1), field(1), field(1)], field, d).divide_diagonal()
    rp = resultant_in_q(hp, h2p)
    assert len(rq.coeffs) == len(rp.coeffs)
    for cq, cp in zip(rq.coeffs, rp.coeffs):
        assert field(cq) == cp


# ---------------------------------------------------------------------------
# the Z route against Gaussian elimination and Newton division over QQ


_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def biforms(draw, field=QQ, min_dq=0):
    """Bidegrees <= 3; zeroed rows and columns put roots at (0:1) and (1:0)."""
    entry = _RATIONAL if field == QQ else st.integers(0, field.p - 1)
    dp, dq = draw(st.integers(0, 3)), draw(st.integers(min_dq, 3))
    coeffs = [[draw(entry) for _ in range(dq + 1)] for _ in range(dp + 1)]
    for i in draw(st.lists(st.integers(0, dp), max_size=2)):
        coeffs[i] = [0] * (dq + 1)
    for j in draw(st.lists(st.integers(0, dq), max_size=2)):
        for row in coeffs:
            row[j] = 0
    return BiForm(field, coeffs, dp, dq)


def _gauss_sylvester_det(fc, gc):
    """Determinant of the Sylvester matrix of two low-first Fraction lists at
    their formal degrees, by Gaussian elimination over QQ."""
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    mat = [[0] * i + list(fc[::-1]) + [0] * (n - i - 1) for i in range(n)]
    mat += [[0] * i + list(gc[::-1]) + [0] * (m - i - 1) for i in range(m)]
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if mat[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, size):
            fct = Fraction(mat[r][c]) / mat[c][c]
            mat[r] = [x - fct * y for x, y in zip(mat[r], mat[c])]
    return det


def _field_newton(xs, ys):
    """Newton interpolation over QQ with field division."""
    n = len(xs)
    table = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    poly = [table[-1]]
    for i in range(n - 2, -1, -1):
        x = xs[i]
        poly = [table[i] - x * poly[0], *(a - x * b for a, b in zip(poly, poly[1:])), poly[-1]]
    return poly


def _generic_resultant(h1, h2):
    """resultant_in_q by Gaussian Sylvester determinants and Newton division
    over QQ.  F_p biforms are lifted to QQ by their residues and the result is
    reduced mod p, so the oracle shares neither Bareiss nor the Z Newton step."""
    field = h1.field

    def lift(h):
        rows = [[Fraction(c.value) for c in row] for row in h.coeffs] if field != QQ else h.coeffs
        return BiForm(QQ, rows, h.deg_p, h.deg_q)

    h1, h2 = lift(h1), lift(h2)
    deg = h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p
    xs = [t // 2 if t % 2 else -(t // 2) for t in range(1, deg + 2)]
    vals = [
        _gauss_sylvester_det(at_first_point(h1, x).coeffs, at_first_point(h2, x).coeffs)
        for x in xs
    ]
    return BinaryForm(field, _field_newton(xs, vals))


def _euclid_form_gcd(f, g):
    """form_gcd with the Fraction Euclid on the cores."""
    la, ta, fa = _split_parts(f)
    lb, tb, fb = _split_parts(g)
    core = poly_gcd(fa, fb, QQ)
    return BinaryForm(QQ, [0] * min(la, lb) + core + [0] * min(ta, tb))


@st.composite
def fp_biform_pairs(draw):
    """Two biforms over GF(101) or GF(7); over GF(7) the nodes collide mod p.
    The first has a positive second degree, so row swaps in the Sylvester
    matrix stay likely; the second may be constant in the second point."""
    field = draw(st.sampled_from([GF(101), GF(7)]))
    return draw(biforms(field, 1)), draw(biforms(field))


def _check_resultant(h1, h2):
    res = resultant_in_q(h1, h2)
    assert res == _generic_resultant(h1, h2)
    assert res.formal_degree == h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h1=biforms(), h2=biforms())
def test_resultant_over_z_matches_generic_route(h1, h2):
    _check_resultant(h1, h2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pair=fp_biform_pairs())
def test_resultant_over_fp_matches_generic_route(pair):
    _check_resultant(*pair)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h1=biforms(), h2=biforms())
def test_form_gcd_over_z_matches_euclid(h1, h2):
    forms = [c for h in (h1, h2) for c in biform_columns(h) if not c.is_zero()]
    for f in forms:
        for g in forms:
            assert form_gcd(f, g) == _euclid_form_gcd(f, g) == oracle_form_gcd(f, g)
        # products share a factor, so the gcd is not a unit
        assert form_gcd(f.mul(forms[0]), f.mul(forms[-1])) == _euclid_form_gcd(
            f.mul(forms[0]), f.mul(forms[-1])
        )


def _pair_form(r, s):
    """(a - r b)(a' - s b') as a BiForm of bidegree (1, 1)."""
    return BiForm(QQ, [[r * s, -r], [-s, 1]], 1, 1)


def test_resultant_edge_cases():
    # a common factor (a' - 5b') makes the resultant vanish identically
    shared = _pair_form(2, 5), _pair_form(Fraction(1, 3), 5)
    zero = resultant_in_q(*shared)
    assert zero.is_zero() and zero == _generic_resultant(*shared)
    # deg = 0 through the sampling loop: constant in the first point, or in the second
    h1 = BiForm(QQ, [[Fraction(1, 2), -3, 1]], 0, 2)
    h2 = BiForm(QQ, [[Fraction(2, 3), 1]], 0, 1)
    res = resultant_in_q(h1, h2)
    assert res.formal_degree == 0 and res == _generic_resultant(h1, h2)
    assert res.coeffs == (Fraction(1, 2) - 3 * Fraction(-2, 3) + Fraction(4, 9),)
    consts = BiForm(QQ, [[Fraction(3, 2)], [0]], 1, 0), BiForm(QQ, [[5]], 0, 0)
    assert resultant_in_q(*consts).coeffs == (1,)


# ---------------------------------------------------------------------------
# the int64 image kernel against the exact route


@pytest.mark.parametrize(
    "field, qs", [(QQ, [2**31 - 1, 10007]), (GF(10007), [10007])], ids=["QQ", "GF(10007)"]
)
def test_resultant_images_match_the_exact_resultant(field, qs):
    # secant combinations at d = 4..7: the batched images of their integer
    # rows are the exact resultant in the field, times the lift scale
    # l1^dq2 l2^dq1, reduced mod q
    rng = random.Random(24)
    for d in range(4, 8):
        rows = [[field(rng.randint(-9, 9)) / field(rng.randint(1, 5)) for _ in range(d + 1)]
                for _ in range(2)]
        draws = secant_combinations(ProjectionCenter.from_rows(field, d, rows))
        hs = [(next(draws), next(draws)) for _ in range(2)]
        lifted = [(integer_rows(h1), integer_rows(h2)) for h1, h2 in hs]
        for q in qs:
            images = binforms.resultant_images([(r1, r2) for (_, r1), (_, r2) in lifted], q)
            for (h1, h2), ((l1, _), (l2, _)), image in zip(hs, lifted, images):
                res = resultant_in_q(h1, h2)
                scale = l1**h2.deg_q * l2**h1.deg_q
                want = [c.value if field != QQ else int(c * scale) % q for c in res.coeffs]
                assert image.tolist() == want, (d, q)


@pytest.mark.parametrize("q", [2**31 - 1, 10007, 7])
def test_batched_determinants_match_bareiss(q):
    # one batch mixing singular matrices (a repeated row, a zero column) and
    # ones that need row swaps (a zero leading entry), entries up to q - 1
    rng = random.Random(q)
    mats = []
    for k in range(60):
        n = rng.randint(1, 6)
        mat = [[rng.choice([0, rng.randrange(q), q - 1 - rng.randrange(3)]) for _ in range(n)]
               for _ in range(n)]
        if k % 4 == 1 and n > 1:
            mat[-1] = list(mat[0])
        elif k % 4 == 2:
            for row in mat:
                row[n // 2] = 0
        elif k % 4 == 3:
            mat[0][0] = 0
        mats.append(mat)
    for n in range(1, 7):
        batch = [m for m in mats if len(m) == n]
        got = binforms._dets_mod(np.array(batch, dtype=np.int64), q).tolist()
        assert got == [binforms._bareiss_det_int(m) % q for m in batch], n
    assert any(binforms._bareiss_det_int(m) % q == 0 for m in mats)


def test_interpolation_matrix_at_the_largest_prime():
    # degree 128 is the resultant degree at d = 9: the cached matrix recovers a
    # random polynomial from its values at 0..128 mod 2^31 - 1
    q, n = 2**31 - 1, 129
    rng = random.Random(9)
    poly = [rng.randrange(q) for _ in range(n)]
    values = [sum(c * pow(x, k, q) for k, c in enumerate(poly)) % q for x in range(n)]
    w = binforms._interpolation(n, q).tolist()
    assert [sum(a * y for a, y in zip(row, values)) % q for row in w] == poly


def test_image_kernel_refuses_past_its_bound():
    pair = ([[1, 2], [3, 4]], [[5, 6], [7, 8]])  # deg 2
    assert binforms.resultant_images([pair], 5).shape == (1, 3)
    for q in (3, 2**31 + 11):  # q <= deg + 1, q >= 2^31
        with pytest.raises(GapcurveError):
            binforms.resultant_images([pair], q)
    # deg + 1 = 2^16 terms would overflow a sum of products below 2^47
    wide = ([[1, 1]], [[1]] * (1 << 16))
    with pytest.raises(GapcurveError):
        binforms.resultant_images([wide], 2**31 - 1)


def test_newton_over_z_refuses_an_inexact_division():
    assert _newton([0, 1, -1], [3, 6, 2]) == [3, 2, 1]  # 3 + 2x + x^2
    with pytest.raises(GapcurveError):
        _newton([0, 1, 2], [0, 1, 3])  # x (x + 1) / 2


def test_form_gcd_edge_cases():
    f = poly_from_roots(QQ, [1, Fraction(-1, 2)], lead=Fraction(3, 4))
    fb = BinaryForm(QQ, [0] + list(f.coeffs) + [0])  # times a b
    assert form_gcd(f, poly_from_roots(QQ, [3, Fraction(1, 2)])).coeffs == (1,)
    assert form_gcd(fb, fb) == fb.scale(Fraction(4, 3))
    assert form_gcd(fb, fb) == _euclid_form_gcd(fb, fb)
    zero = BinaryForm(QQ, [0, 0, 0])
    assert form_gcd(zero, fb) == fb and form_gcd(fb, zero) == fb


# ---------------------------------------------------------------------------
# the modular gcd against the PRS and Euclid oracles


def _random_form(field, rng, degree, height):
    lo = -height if field == QQ else 0
    hi = height if field == QQ else field.p - 1
    cs = [field(rng.randint(lo, hi)) for _ in range(degree + 1)]
    if field == QQ:
        cs = [c / rng.randint(1, 9) for c in cs]
    return BinaryForm(field, cs)


@pytest.mark.parametrize("field", [QQ, GF(10007), GF(3)], ids=["QQ", "GF(10007)", "GF(3)"])
def test_form_gcd_matches_prs_and_euclid_oracles(field):
    # a planted common factor, at times with powers of a and b, times random cofactors
    rng = random.Random(20261020)
    for height in (9, 10**20):
        for _ in range(25):
            common = _random_form(field, rng, rng.randint(0, 4), height)
            f, g = (common.mul(_random_form(field, rng, rng.randint(0, 6), height)) for _ in "fg")
            if f.is_zero() or g.is_zero():
                continue
            low, top = rng.randint(0, 2), rng.randint(0, 2)
            f = BinaryForm(field, [0] * low + list(f.coeffs) + [0] * top)
            got = form_gcd(f, g)
            assert got == oracle_form_gcd(f, g)
            if field == QQ:
                assert got == _euclid_form_gcd(f, g)


def test_form_gcd_skips_an_unlucky_prime(monkeypatch):
    # the cofactors a - b and a - (1 + q) b are coprime over Q, but equal mod q;
    # the image mod q has degree 2, one more than the gcd a + c b, and c > 2^40
    # needs the CRT of two primes
    q = 2_147_483_629  # a 31-bit prime below 2^31 - 1
    common = poly_from_roots(QQ, [-(2**40 + 3)])
    f, g = common.mul(poly_from_roots(QQ, [1])), common.mul(poly_from_roots(QQ, [1 + q]))
    real_primes, real_gcd = binforms._gcd_primes, binforms._gcd_mod
    for first in ([q], [(1 << 31) - 1, q]):  # q first restarts the CRT, q second is dropped
        used = []

        def spy(a, b, p):
            used.append((p, len(real_gcd(a, b, p)) - 1))
            return real_gcd(a, b, p)

        rest = [p for p in islice(real_primes(), 6) if p not in first]
        monkeypatch.setattr(binforms, "_gcd_primes", lambda: iter(first + rest))
        monkeypatch.setattr(binforms, "_gcd_mod", spy)
        assert form_gcd(f, g) == common
        assert (q, 2) in used and [d for _, d in used].count(1) == 2, used


def test_form_gcd_of_large_resultants_matches_sympy():
    # forms of degree ~12 with 60-bit coefficients and a planted cubic common factor
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    for _ in range(4):
        common = _random_form(QQ, rng, 3, 2**60)
        f, g = (common.mul(_random_form(QQ, rng, 9, 2**60)) for _ in "fg")
        to_poly = lambda h: sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in h.coeffs[::-1]], x
        )
        want = sympy.gcd(to_poly(f), to_poly(g)).monic()
        got = form_gcd(f, g)
        assert [Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()[::-1]] == list(got.coeffs)
        assert got == oracle_form_gcd(f, g)


# ---------------------------------------------------------------------------
# F_p roots by gcd(f, x^p - x) and splitting, against the O(p) scan


@pytest.mark.parametrize("p", [3, 5, 7, 101, 10007])
def test_roots_gfp_match_the_scan_oracle(p):
    field = GF(p)
    rng = random.Random(p)
    for _ in range(40):
        roots = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
        cofactor = _random_form(field, rng, rng.randint(0, 4), 0)
        poly = list(poly_from_roots(field, roots).mul(cofactor).coeffs)
        while poly and not poly[-1]:
            poly.pop()
        if len(poly) < 2:
            continue
        assert binforms._roots_gfp(poly, field) == scan_roots_gfp(poly, field)


def test_roots_gfp_at_the_largest_prime():
    # no array of p entries: the roots of (a - u b)^2 (a - v b) (a^2 - s b^2) mod 2^31 - 1
    p = (1 << 31) - 1
    field = GF(p)
    s = next(x for x in range(2, 50) if pow(x, (p - 1) // 2, p) == p - 1)
    u, v = 2**31 - 2, 123456789
    form = poly_from_roots(field, [u, u, v]).mul(BinaryForm(field, [-s, 0, 1]))
    start = time.monotonic()
    found, residual = projective_roots(form)
    assert time.monotonic() - start < 1
    assert found == [((v, 1), 1), ((u, 1), 2)] and residual == 2


# ---------------------------------------------------------------------------
# optional sympy oracle


def test_resultant_and_gcd_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261017)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    def to_sympy(c):
        return sympy.Rational(c.numerator, c.denominator)

    def low_first(poly):
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    def sylvester(fc, gc):
        m, n = len(fc) - 1, len(gc) - 1
        size = m + n
        rows = [[0] * i + fc[::-1] + [0] * (size - i - m - 1) for i in range(n)]
        rows += [[0] * i + gc[::-1] + [0] * (size - i - n - 1) for i in range(m)]
        return sympy.Matrix(size, size, [c for row in rows for c in row])

    for _ in range(12):
        hs = []
        for _ in range(2):
            dp, dq = rng.randint(0, 3), rng.randint(1, 3)
            coeffs = [[rational() for _ in range(dq + 1)] for _ in range(dp + 1)]
            hs.append(BiForm(QQ, coeffs, dp, dq))
        # column j of a biform, as a polynomial in x = a/b
        cols = [
            [sum(to_sympy(row[j]) * x**i for i, row in enumerate(h.coeffs))
             for j in range(h.deg_q + 1)]
            for h in hs
        ]
        det = sympy.Poly(sympy.expand(sylvester(*cols).det(method="berkowitz")), x)
        res = resultant_in_q(*hs)
        want = low_first(det)
        assert list(res.coeffs) == want + [0] * (res.formal_degree + 1 - len(want))

        # form_gcd of two first-point columns sharing a planted factor
        common = poly_from_roots(QQ, [rational()], lead=rational() or 1)
        f, g = (common.mul(c) for c in (biform_columns(hs[0])[0], biform_columns(hs[1])[-1]))
        if f.is_zero() or g.is_zero():
            continue
        top = min(_split_parts(f)[1], _split_parts(g)[1])
        monic = sympy.gcd(*(sympy.Poly([to_sympy(c) for c in h.coeffs[::-1]], x) for h in (f, g)))
        assert list(form_gcd(f, g).coeffs) == low_first(monic.monic()) + [0] * top


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    for _ in range(20):
        cofactor = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 5))]
        cofactor.append(rng.randint(1, 99))
        planted = [Fraction(rng.randint(-10**8, 10**8), rng.randint(1, 10**4))
                   for _ in range(rng.randint(0, 3))]
        form = poly_from_roots(QQ, planted + planted[:1]).mul(BinaryForm(QQ, cofactor))
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in form.coeffs[::-1]], x)
        want = {Fraction(int(r.p), int(r.q)): m for r, m in poly.ground_roots().items()}
        found, residual = projective_roots(form)
        got = {a: m for (a, b), m in found}  # the top coefficient is nonzero: b = 1
        assert got == want and residual == poly.degree() - sum(want.values())

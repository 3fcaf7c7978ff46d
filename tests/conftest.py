import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gapcurve import binforms, linalg, project, series
from gapcurve.errors import ValidationError
from gapcurve.fields import GF, QQ


@pytest.fixture(params=["rational", "Fp:10007", "Fp:101"])
def field(request):
    if request.param == "rational":
        return QQ
    return GF(int(request.param.split(":")[1]))


@pytest.fixture
def rng():
    return random.Random(20260808)


def independent_rank(rows, field, ncols):
    """Rank oracle: a second elimination pass over a permuted coordinate order.

    Deliberately naive and independent of gapcurve.linalg: forward elimination
    only, columns visited in a fixed shuffled order.
    """
    perm = list(range(ncols))
    random.Random(99).shuffle(perm)
    mat = [[row[c] for c in perm] for row in rows]
    rank = 0
    rows_left = list(range(len(mat)))
    for col in range(ncols):
        pivot = None
        for r in rows_left:
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows_left.remove(pivot)
        prow = mat[pivot]
        inv = field.one / prow[col]
        for r in rows_left:
            f = mat[r][col]
            if f:
                factor = f * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def field_rref(rows, field):
    """RREF oracle: a plain Gauss–Jordan over field elements, one inverse per pivot.

    Independent of gapcurve.linalg's fraction-free kernel; returns (nonzero
    rows, pivot columns).
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.one / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        prow = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
    return mat[: len(pivots)], pivots


def stacked_pivots(blocks, counts, field) -> list:
    """Pivot columns of the stack of the first counts[i] rows of each block.

    The per-cell flag route: the blocks come from ``linalg.image_block`` and
    the stack is eliminated as it is, with nothing shared between cells.
    """
    stack = np.concatenate([b[:c] for b, c in zip(blocks, counts)])
    return linalg._eliminate(stack, field.characteristic, False)


def per_cell_flag_dims(center, curve, points, cells) -> dict:
    """dim(L ∩ F^α) for each cell by its own elimination: the number of pivots
    past the k columns of J·Mᵀ in the stack of the first α_i rows of each block."""
    m_rows = center.m_basis()
    order = max((max(alpha) for alpha in cells), default=0)
    blocks = [linalg.image_block(curve.osc_rows(p, order), m_rows, center.field) for p in points]
    k = len(m_rows)
    return {
        alpha: sum(c >= k for c in stacked_pivots(blocks, alpha, center.field)) for alpha in cells
    }


def proportional(row, want) -> bool:
    """Is the integer row one nonzero rational multiple of the row of rationals?"""
    j = next(j for j, x in enumerate(want) if x)
    c = Fraction(row[j]) / want[j]
    return c != 0 and [Fraction(x) for x in row] == [c * x for x in want]


def stacked_closure(space):
    """(rows, pivots) of the closure by stacking: each round multiplies the
    frontier by the input rows and echelonizes the old rows and the products
    together, with a full ``echelon`` of the stack every round."""
    amb, p = space.ambient, space.field.characteristic
    frontier = generators = rows = space._rows
    pivots = space.pivots
    while len(frontier):
        old = set(pivots)
        products = series._products(frontier, generators, amb.branches, p)
        rows, pivots = linalg.echelon(np.vstack([rows, products]), p)
        frontier = rows[[pc not in old for pc in pivots]]
    return rows, pivots


def fuzz_space(field, rng, r, n):
    """A space drawn as ``fuzz-key-lemma`` draws them: the unit and, per branch,
    one to three of t^e (1 <= e <= 5), each plus a random t^(e+1) term half
    the time."""
    amb = series.Ambient(field, r, n)
    vectors = [series.TruncatedSeries.unit(amb)]
    for i in range(r):
        for e in sorted({rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))}):
            terms = [(i, e, field.one)]
            if rng.random() < 0.5 and e + 1 < n:
                terms.append((i, e + 1, field.random_element(rng)))
            vectors.append(series.TruncatedSeries.from_monomials(amb, terms))
    return series.SeriesSubspace.span(amb, vectors)


def per_cell_jet_rank(space, alpha) -> int:
    """Jet rank at one cell: the rank of the window columns of alpha on their own."""
    n = space.ambient.truncation
    keep = [i * n + k for i, a in enumerate(alpha) for k in range(a)]
    if not keep or not space.pivots:
        return 0
    return linalg.rank(space._rows[:, keep], space.field)


# ---------------------------------------------------------------------------
# binary-form oracles: field Euclid, the primitive PRS over Z, the O(p) root
# scan and the pairwise secant route with content stripping


def poly_trim(cs):
    """A low-first list without its zero top coefficients."""
    i = len(cs) - 1
    while i >= 0 and not cs[i]:
        i -= 1
    return cs[: i + 1]


def poly_divmod(num, den, field):
    """Polynomial division on low-first lists of field elements."""
    num = list(num)
    den = poly_trim(den)
    dn = len(den) - 1
    lead_inv = field.one / den[-1]
    quot = [field.zero] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * lead_inv
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] = num[i - dn + j] - c * den[j]
    return quot, poly_trim(num)


def poly_gcd(f, g, field):
    """Monic gcd of two low-first lists by Euclid in the field."""
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g:
        f, g = g, poly_divmod(f, g, field)[1]
    if not f:
        return []
    inv = field.one / f[-1]
    return [c * inv for c in f]


def primitive(cs):
    """The primitive integer multiple of a nonzero list of rationals."""
    den = math.lcm(*(Fraction(c).denominator for c in cs))
    ints = [int(Fraction(c) * den) for c in cs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def pseudo_remainder(f, g):
    """lead(g)^k * f mod g on low-first integer lists with len(f) >= len(g):
    only the steps that cancel a nonzero term scale by lead(g)."""
    r = list(f)
    n, lead = len(g) - 1, g[-1]
    for i in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            r = [lead * x for x in r]
            for j in range(n):
                r[i - n + j] -= c * g[j]
    return poly_trim(r)


def primitive_prs_gcd(f, g):
    """Monic gcd over Q of two nonzero trimmed rational lists, by a primitive
    pseudo-remainder sequence over Z (Collins; Brown, JACM 18, 1971)."""
    f, g = primitive(f), primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = pseudo_remainder(f, g)
        if not r:
            break
        f, g = g, primitive(r)
    return [Fraction(c, g[-1]) for c in g]


def oracle_form_gcd(f, g):
    """form_gcd on the cores by the field Euclid over F_p and the PRS over Q."""
    field = f.field
    la, ta, fa = binforms._split_parts(f)
    lb, tb, fb = binforms._split_parts(g)
    core = primitive_prs_gcd(fa, fb) if field == QQ else poly_gcd(fa, fb, field)
    zero = field.zero
    return binforms.BinaryForm(field, [zero] * min(la, lb) + core + [zero] * min(ta, tb))


def scan_roots_gfp(poly, field):
    """Roots in F_p with multiplicities: every x in F_p evaluated at once,
    multiplicities by repeated division."""
    p = field.p
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(poly):
        vals = (vals * xs + c.value) % p
    out = []
    for x in np.nonzero(vals == 0)[0]:
        x, mult, rest = field(int(x)), 0, list(poly)
        while True:
            rest, rem = poly_divmod(rest, [-x, field.one], field)
            if rem:
                break
            mult += 1
        out.append((x, mult))
    return out


class BiForm:
    """Bihomogeneous form in (a, b) x (a', b') over a field, the oracle for the
    biforms of ``project._syzygy_biforms`` and their combinations: coeffs[i][j]
    multiplies a^i b^(deg_p-i) a'^j b'^(deg_q-j)."""

    __slots__ = ("field", "coeffs", "deg_p", "deg_q")

    def __init__(self, field, coeffs, deg_p, deg_q):
        self.field = field
        self.coeffs = [[field(c) for c in row] for row in coeffs]
        self.deg_p = deg_p
        self.deg_q = deg_q
        assert len(self.coeffs) == deg_p + 1 and all(len(r) == deg_q + 1 for r in self.coeffs)

    def divide_diagonal(self):
        """Exact division by (a b' - a' b), term by term in field arithmetic."""
        field = self.field
        dp, dq = self.deg_p, self.deg_q
        rem = [row[:] for row in self.coeffs]
        quot = [[field.zero] * dq for _ in range(dp)]
        # kill a^i b^(dp-i) a'^j b'^(dq-j) with the divisor's lead a b'
        for i in range(dp, 0, -1):
            for j in range(dq):
                c = rem[i][j]
                if not c:
                    continue
                quot[i - 1][j] = quot[i - 1][j] + c
                rem[i][j] = field.zero
                rem[i - 1][j + 1] = rem[i - 1][j + 1] + c
        assert not any(any(row) for row in rem), "not divisible by the diagonal form"
        return BiForm(field, quot, dp - 1, dq - 1)


def integer_rows(h):
    """(l, integer rows) lifting a biform into Z: over Q, l is the lcm of the
    denominators and the rows are l times the coefficients; over F_p, l = 1
    and the rows are the residues."""
    if h.field.characteristic:
        return 1, [[c.value for c in row] for row in h.coeffs]
    den = functools.reduce(math.lcm, (c.denominator for row in h.coeffs for c in row), 1)
    return den, [[c.numerator * (den // c.denominator) for c in row] for row in h.coeffs]


def resultant_in_q(h1, h2):
    """The resultant eliminating the second point in the biforms' field: the
    integer resultant of their lifts, divided by l1^deg_q2 * l2^deg_q1."""
    (l1, rows1), (l2, rows2) = integer_rows(h1), integer_rows(h2)
    coeffs = binforms.resultant_z(rows1, rows2)
    scale = l1**h2.deg_q * l2**h1.deg_q
    return binforms.BinaryForm(h1.field, [Fraction(c, scale) for c in coeffs])


def collision_biform(f_coeffs, g_coeffs, field, degree):
    """f(P) g(P') - g(P) f(P') for two degree-d forms, entry by entry.

    Coefficient lists are in the dual monomial order used by the curve module
    (x^d, x^{d-1} y, ..., y^d), so index k carries a^(d-k) b^k.
    """
    d = degree
    out = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for k1 in range(d + 1):
        for k2 in range(d + 1):
            out[d - k1][d - k2] = field(f_coeffs[k1]) * field(g_coeffs[k2]) - field(
                g_coeffs[k1]
            ) * field(f_coeffs[k2])
    return BiForm(field, out, d, d)


def collision_forms(center):
    """The collision biforms of each pair i < j of basis forms of M, divided by
    the diagonal form, in the order the secant combinations draw their c_ij."""
    field, d = center.field, center.degree
    m_rows = center.m_basis()
    return [
        collision_biform(m_rows[i], m_rows[j], field, d).divide_diagonal()
        for i in range(len(m_rows))
        for j in range(i + 1, len(m_rows))
    ]


def biform_columns(h):
    """The coefficient of each P'-monomial, as a binary form in the first point."""
    return [
        binforms.BinaryForm(h.field, [h.coeffs[i][j] for i in range(h.deg_p + 1)])
        for j in range(h.deg_q + 1)
    ]


def _strip_first_point_content(h):
    """(h divided by the gcd of its column forms, that gcd or None if a unit)."""
    field = h.field
    cols = biform_columns(h)
    content = functools.reduce(oracle_form_gcd, [c for c in cols if not c.is_zero()])
    if binforms.form_is_unit(content):
        return h, None
    new_dp = h.deg_p - content.formal_degree
    new_cols = []
    for c in cols:
        if c.is_zero():
            new_cols.append([field.zero] * (new_dp + 1))
            continue
        quot, rem = poly_divmod(list(c.coeffs), list(content.coeffs), field)
        assert not rem
        new_cols.append(quot + [field.zero] * (new_dp + 1 - len(quot)))
    rows = [[new_cols[j][i] for j in range(h.deg_q + 1)] for i in range(new_dp + 1)]
    return BiForm(field, rows, new_dp, h.deg_q), content


def _swap(h):
    rows = [[h.coeffs[i][j] for i in range(h.deg_p + 1)] for j in range(h.deg_q + 1)]
    return BiForm(h.field, rows, h.deg_q, h.deg_p)


def pairwise_secant_roots(center) -> set:
    """The pairwise secant route: every collision biform, divided by the
    diagonal, has its content stripped in both points and is normalized and
    deduplicated; the candidates are the roots of the gcd of the resultants
    of all pairs, stopping only at a unit, and the roots of every content."""
    hs, contents = {}, []
    for h in collision_forms(center):
        h, c1 = _strip_first_point_content(h)
        h, c2 = _strip_first_point_content(_swap(h))
        h = _swap(h)
        contents += [c for c in (c1, c2) if c is not None]
        lead = next(c for row in h.coeffs for c in row if c)
        key = tuple(tuple(c / lead for c in row) for row in h.coeffs)
        hs.setdefault((h.deg_p, h.deg_q, key), h)
    hs = list(hs.values())
    acc = None
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            res = resultant_in_q(hs[i], hs[j])
            if not res.is_zero():
                acc = res if acc is None else binforms.form_gcd(acc, res)
        if acc is not None and binforms.form_is_unit(acc):
            break
    forms = contents + ([acc] if acc is not None else [])
    return {pt for form in forms for pt, _ in binforms.projective_roots(form)[0]}


def syzygy_biforms(center):
    """G_i = p_i(P)·phi(P') / (a b' - a' b) for the mu-basis of
    ``project._mu_basis``, built in field arithmetic: the product term by term,
    then the division by the diagonal of ``BiForm``."""
    field, d = center.field, center.degree
    phi, basis = project._mu_basis(center)
    out = []
    for syz in basis:
        prod = [
            [sum((field(int(x)) * field(int(row[t])) for x, row in zip(s_row, phi)), field.zero)
             for t in range(d + 1)]
            for s_row in syz
        ]
        out.append(BiForm(field, prod, len(syz) - 1, d).divide_diagonal())
    return out


def secant_combinations(center):
    """H = sum r_i(P) G_i over ``syzygy_biforms`` in field arithmetic, one
    after another, with the draws of ``project._secant_candidate_form``; each
    is returned transposed, the second point P' first, so that the resultant
    eliminates P."""
    field, d = center.field, center.degree
    gs = syzygy_biforms(center)
    top = max(g.deg_p for g in gs) + 1
    rng = random.Random(project._SECANT_SEED)
    while True:
        h = [[field.zero] * d for _ in range(top)]
        for g in gs:
            for u in range(top - g.deg_p):
                r = field(rng.randint(1, project._SECANT_COEFFICIENT))
                for s, row in enumerate(g.coeffs):
                    h[u + s] = [x + r * y for x, y in zip(h[u + s], row)]
        yield BiForm(field, [list(col) for col in zip(*h)], d - 1, top - 1)


def exact_secant_candidate(center):
    """The secant candidate by the exact route alone: the gcd of the first two
    resultants of pairs of ``secant_combinations`` that do not vanish."""
    draws = secant_combinations(center)
    found = []
    for _ in range(project._SECANT_DRAWS):
        res = resultant_in_q(next(draws), next(draws))
        if not res.is_zero():
            found.append(res)
            if len(found) == 2:
                return binforms.form_gcd(*found)
    return None


def derivative_a(f):
    """Partial derivative of a binary form with respect to a."""
    field = f.field
    if f.formal_degree == 0:
        return binforms.BinaryForm(field, [field.zero])
    return binforms.BinaryForm(field, [field(i + 1) * c for i, c in enumerate(f.coeffs[1:])])


# ---------------------------------------------------------------------------
# the F_p scan over every point of the line, the oracle of find_ramification

# Fibers are found by sorting one fingerprint per image: two Horner hashes
# mod 2^31 - 1 with fixed bases, packed into one int64.  Every step keeps
# h * base + x below 2^62 + 2^31, as h, base and the residue x are below 2^31.
_FINGERPRINT_MOD = (1 << 31) - 1
_FINGERPRINT_BASES = (1_000_003, 2_147_480_009)


def batch_inverse(vals: np.ndarray, p: int) -> np.ndarray:
    """Modular inverses of a vector of nonzero residues: vals^(p-2) mod p.

    Vectorised square-and-multiply.  Requires p < 2^31, so that every product
    of two residues stays below 2^62 and int64 arithmetic is exact.
    """
    if p >= 1 << 31:
        raise ValidationError(f"batch_inverse needs p < 2^31, got {p}")
    base = np.asarray(vals, dtype=np.int64) % p
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _point_from_index(curve, idx: int):
    field = curve.field
    return curve.point(field.one, field.zero) if idx == field.p else curve.point(field(idx), field.one)


def ramification_scan(center, curve):
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
    norm = phi * batch_inverse(lead, p) % p

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
        project.RamificationCluster(
            [_point_from_index(curve, i) for i in g], [bool(tangent[i]) for i in g]
        )
        for g in sorted(groups)
    ]

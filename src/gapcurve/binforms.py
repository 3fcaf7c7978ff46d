"""Binary forms over an exact field: gcd, resultants, root extraction.

A binary form of formal degree D is stored as the coefficient tuple
(c_0, ..., c_D) of sum c_i a^i b^(D-i).  Leading zeros are meaningful (they
encode roots at (1:0) of lower-degree content), which is what makes the
Sylvester resultants below specialize correctly.

Root finding over a prime field scans the p+1 points of the projective line;
over the rationals it uses integer divisor candidates, with a cap on the
divisor search so pathological coefficient growth surfaces as an explicit
"indeterminate" error instead of an unbounded factorization attempt.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import IndeterminateOverFieldError, ValidationError
from .fields import PrimeField, QQ

_DIVISOR_CAP = 200000


class BinaryForm:
    """Homogeneous polynomial in (a, b) with exact coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field(c) for c in coeffs)
        if not self.coeffs:
            raise ValidationError("empty coefficient list")

    @property
    def formal_degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def evaluate(self, a, b):
        a, b = self.field(a), self.field(b)
        acc = self.field.zero
        apow = self.field.one
        d = self.formal_degree
        bpows = [self.field.one]
        for _ in range(d):
            bpows.append(bpows[-1] * b)
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * apow * bpows[d - i]
            apow = apow * a
        return acc

    def univariate(self):
        """Coefficients of F(x, 1) as a list, low degree first."""
        return list(self.coeffs)

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        f, g = self.coeffs, other.coeffs
        out = [self.field.zero] * (len(f) + len(g) - 1)
        for i, ci in enumerate(f):
            if ci:
                for j, cj in enumerate(g):
                    if cj:
                        out[i + j] = out[i + j] + ci * cj
        return BinaryForm(self.field, out)

    def scale(self, c) -> "BinaryForm":
        c = self.field(c)
        return BinaryForm(self.field, [c * x for x in self.coeffs])

    def __repr__(self):
        return f"BinaryForm(deg={self.formal_degree}, {list(self.coeffs)})"


def _poly_trim(cs, field):
    i = len(cs) - 1
    while i >= 0 and not cs[i]:
        i -= 1
    return cs[: i + 1]


def _poly_divmod(num, den, field):
    """Polynomial division on low-first coefficient lists."""
    num = list(num)
    den = _poly_trim(den, field)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead_inv = field.one / den[-1]
    quot = [field.zero] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * lead_inv
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] = num[i - dn + j] - c * den[j]
    return quot, _poly_trim(num, field)


def _poly_gcd(f, g, field):
    """Monic gcd of two low-first coefficient lists."""
    f = _poly_trim(list(f), field)
    g = _poly_trim(list(g), field)
    while g:
        _, r = _poly_divmod(f, g, field)
        f, g = g, r
    if not f:
        return []
    inv = field.one / f[-1]
    return [c * inv for c in f]


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """gcd of two binary forms (monic in a; power of b tracked via leading zeros)."""
    field = f.field
    if f.is_zero():
        return g
    if g.is_zero():
        return f

    la, ta, fa = _split_parts(f)
    lb, tb, fb = _split_parts(g)
    core = _poly_gcd(fa, fb, field)
    a_part = min(la, lb)
    b_part = min(ta, tb)
    out = [field.zero] * a_part + core + [field.zero] * b_part
    return BinaryForm(field, out)


def form_has_roots(form: BinaryForm) -> bool:
    """Does the form vanish anywhere on the projective line (over the closure)?"""
    if form.is_zero():
        return True
    low, top, core = _split_parts(form)
    return low > 0 or top > 0 or len(core) > 1


def form_is_unit(form: BinaryForm) -> bool:
    return not form.is_zero() and not form_has_roots(form)


def gcd_many(forms) -> BinaryForm:
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise ValidationError("gcd of all-zero forms")
    acc = forms[0]
    for f in forms[1:]:
        acc = form_gcd(acc, f)
        if form_is_unit(acc):
            break
    return acc


def derivative_a(f: BinaryForm) -> BinaryForm:
    """Partial derivative with respect to a."""
    field = f.field
    if f.formal_degree == 0:
        return BinaryForm(field, [field.zero])
    out = [field(i + 1) * c for i, c in enumerate(f.coeffs[1:])]
    return BinaryForm(field, out)


def derivative_b(f: BinaryForm) -> BinaryForm:
    """Partial derivative with respect to b."""
    field = f.field
    d = f.formal_degree
    if d == 0:
        return BinaryForm(field, [field.zero])
    out = [field(d - i) * c for i, c in enumerate(f.coeffs[:-1])]
    return BinaryForm(field, out)


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact division of binary forms; raises if the division has a remainder."""
    field = f.field
    fl, ftop, fcore = _split_parts(f)
    gl, gtop, gcore = _split_parts(g)
    if gl > fl or gtop > ftop:
        raise ValidationError("form division is not exact (content mismatch)")
    quot, rem = _poly_divmod(fcore, gcore, field)
    if rem:
        raise ValidationError("form division is not exact")
    out = [field.zero] * (fl - gl) + quot + [field.zero] * (ftop - gtop)
    return BinaryForm(field, out)


def _split_parts(form: BinaryForm):
    cs = list(form.coeffs)
    if form.is_zero():
        raise ValidationError("cannot split the zero form")
    low = 0
    while not cs[low]:
        low += 1
    high = len(cs) - 1
    while not cs[high]:
        high -= 1
    return low, form.formal_degree - high, cs[low : high + 1]


# ---------------------------------------------------------------------------
# resultants


def _bareiss_det_int(mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(mat)
    mat = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        pkk = mat[k][k]
        for i in range(k + 1, n):
            mik = mat[i][k]
            row_i = mat[i]
            row_k = mat[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * mat[n - 1][n - 1]


def _sylvester_rows(fc, gc, zero):
    m = len(fc) - 1
    n = len(gc) - 1
    size = m + n
    rows = []
    frow = list(reversed(fc))  # high first
    grow = list(reversed(gc))
    for i in range(n):
        rows.append([zero] * i + frow + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + grow + [zero] * (size - i - n - 1))
    return rows


def _sylvester_det(fc, gc, field):
    """Determinant of the Sylvester matrix of two low-first coefficient lists
    taken at their FORMAL degrees (trailing zeros included)."""
    m = len(fc) - 1
    n = len(gc) - 1
    if m == 0 and n == 0:
        return field.one
    if not isinstance(field, PrimeField):
        # integer Bareiss after clearing denominators
        lf = 1
        for c in fc:
            lf = lf * c.denominator // int_gcd(lf, c.denominator)
        lg = 1
        for c in gc:
            lg = lg * c.denominator // int_gcd(lg, c.denominator)
        rows = _sylvester_rows([int(c * lf) for c in fc], [int(c * lg) for c in gc], 0)
        det = _bareiss_det_int(rows)
        return Fraction(det, lf**n * lg**m)
    size = m + n
    mat = _sylvester_rows(list(fc), list(gc), field.zero)
    det = field.one
    for c in range(size):
        piv = None
        for r in range(c, size):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            return field.zero
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c]
        inv = field.one / mat[c][c]
        for r in range(c + 1, size):
            if mat[r][c]:
                fct = mat[r][c] * inv
                mat[r] = [x - fct * y for x, y in zip(mat[r], mat[c])]
    return det


class BiForm:
    """Bihomogeneous form in (a, b) x (a', b'): a matrix of coefficients.

    coeffs[i][j] multiplies a^i b^(da-i) a'^j b'^(db-j).
    """

    __slots__ = ("field", "coeffs", "deg_p", "deg_q")

    def __init__(self, field, coeffs, deg_p, deg_q):
        self.field = field
        self.coeffs = [[field(c) for c in row] for row in coeffs]
        self.deg_p = deg_p
        self.deg_q = deg_q
        if len(self.coeffs) != deg_p + 1 or any(len(r) != deg_q + 1 for r in self.coeffs):
            raise ValidationError("biform coefficient shape mismatch")

    def is_zero(self):
        return not any(any(row) for row in self.coeffs)

    def evaluate_p(self, a, b) -> BinaryForm:
        """Specialize the first point, leaving a binary form in (a', b')."""
        field = self.field
        a, b = field(a), field(b)
        apow = field.one
        bpows = [field.one]
        for _ in range(self.deg_p):
            bpows.append(bpows[-1] * b)
        out = [field.zero] * (self.deg_q + 1)
        for i, row in enumerate(self.coeffs):
            w = apow * bpows[self.deg_p - i]
            apow = apow * a
            if not w:
                continue
            for j, c in enumerate(row):
                if c:
                    out[j] = out[j] + w * c
        return BinaryForm(field, out)

    def swap(self) -> "BiForm":
        out = [[self.coeffs[i][j] for i in range(self.deg_p + 1)] for j in range(self.deg_q + 1)]
        return BiForm(self.field, out, self.deg_q, self.deg_p)

    def p_columns(self):
        """Coefficient of each P'-monomial, as a binary form in the first point."""
        return [
            BinaryForm(self.field, [self.coeffs[i][j] for i in range(self.deg_p + 1)])
            for j in range(self.deg_q + 1)
        ]

    def strip_p_content(self):
        """Divide out the gcd of the P-coefficient forms.

        Returns (stripped biform, content) with content = None when trivial.
        The zeros of the content are first-point lines on which this biform
        vanishes identically.
        """
        cols = self.p_columns()
        nonzero = [c for c in cols if not c.is_zero()]
        if not nonzero:
            raise ValidationError("cannot strip the zero biform")
        content = gcd_many(nonzero)
        if form_is_unit(content):
            return self, None
        new_dp = self.deg_p - content.formal_degree
        zero_col = [self.field.zero] * (new_dp + 1)
        new_cols = [
            zero_col if c.is_zero() else list(divide_exact(c, content).coeffs) for c in cols
        ]
        coeffs = [[new_cols[j][i] for j in range(self.deg_q + 1)] for i in range(new_dp + 1)]
        return BiForm(self.field, coeffs, new_dp, self.deg_q), content

    def strip_contents(self):
        """Strip content in both points; returns (stripped, [content forms])."""
        contents = []
        cur, c1 = self.strip_p_content()
        if c1 is not None:
            contents.append(c1)
        swapped, c2 = cur.swap().strip_p_content()
        if c2 is not None:
            contents.append(c2)
        return swapped.swap(), contents

    def normalized(self) -> "BiForm":
        """Scale so the first nonzero coefficient is one."""
        for row in self.coeffs:
            for c in row:
                if c:
                    inv = self.field.one / c
                    return BiForm(
                        self.field,
                        [[inv * x for x in r] for r in self.coeffs],
                        self.deg_p,
                        self.deg_q,
                    )
        raise ValidationError("cannot normalize the zero biform")

    def key(self):
        return (self.deg_p, self.deg_q, tuple(tuple(r) for r in self.coeffs))

    def divide_diagonal(self) -> "BiForm":
        """Exact division by (a b' - a' b); requires vanishing on the diagonal."""
        field = self.field
        dp, dq = self.deg_p, self.deg_q
        # long division: process monomials in lexicographic order of (i, j)
        rem = [row[:] for row in self.coeffs]
        quot = [[field.zero] * dq for _ in range(dp)]
        # divisor has monomials a b' (coeff 1) and a' b (coeff -1)
        for i in range(dp, 0, -1):
            for j in range(dq):
                c = rem[i][j]
                if not c:
                    continue
                # kill a^i b^(dp-i) a'^j b'^(dq-j) with lead a*b' of divisor
                quot[i - 1][j] = quot[i - 1][j] + c
                rem[i][j] = field.zero
                rem[i - 1][j + 1] = rem[i - 1][j + 1] + c
        if any(any(row) for row in rem):
            raise ValidationError("biform is not divisible by the diagonal form")
        return BiForm(field, quot, dp - 1, dq - 1)


def collision_biform(f_coeffs, g_coeffs, field, degree) -> BiForm:
    """f(P) g(P') - g(P) f(P') for two degree-d forms on the projective line.

    Coefficient lists are in the dual monomial order used by the curve module
    (x^d, x^{d-1} y, ..., y^d), so index k carries a^(d-k) b^k.
    """
    d = degree
    out = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for k1 in range(d + 1):
        i = d - k1  # a-power at P
        f1, g1 = field(f_coeffs[k1]), field(g_coeffs[k1])
        for k2 in range(d + 1):
            j = d - k2
            c = f1 * field(g_coeffs[k2]) - g1 * field(f_coeffs[k2])
            if c:
                out[i][j] = out[i][j] + c
    return BiForm(field, out, d, d)


def resultant_in_q(h1: BiForm, h2: BiForm) -> BinaryForm:
    """Resultant eliminating the second point, by evaluation-interpolation.

    Returns a binary form in the first point of formal degree
    h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p.
    """
    field = h1.field
    deg = h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p
    if deg == 0:
        return BinaryForm(field, [_sylvester_det(
            [c for c in h1.evaluate_p(1, 1).coeffs],
            [c for c in h2.evaluate_p(1, 1).coeffs],
            field,
        )])
    if isinstance(field, PrimeField) and field.p <= deg + 1:
        raise IndeterminateOverFieldError(
            f"field F_{field.p} too small to interpolate a degree-{deg} resultant"
        )
    # sample at b=1 and small symmetric a values (keeps integer growth down)
    xs = []
    vals = []
    t = 0
    while len(xs) < deg + 1:
        t += 1
        x = field(t // 2 if t % 2 else -(t // 2))
        f1 = h1.evaluate_p(x, field.one).univariate()
        f2 = h2.evaluate_p(x, field.one).univariate()
        xs.append(x)
        vals.append(_sylvester_det(f1, f2, field))
    # Lagrange interpolation of the dehomogenized resultant r(x), degree <= deg
    coeffs = _lagrange(xs, vals, field)
    coeffs = coeffs + [field.zero] * (deg + 1 - len(coeffs))
    # homogenize at formal degree deg: index i is the a^i b^(deg-i) coefficient
    return BinaryForm(field, coeffs)


def _lagrange(xs, ys, field):
    """Interpolating polynomial through (xs, ys), low-first coefficients."""
    n = len(xs)
    coeffs = [field.zero] * n
    # Newton's divided differences
    table = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    # expand Newton form
    poly = [field.zero]
    basis = [field.one]
    for i in range(n):
        for j, c in enumerate(basis):
            if len(poly) <= j:
                poly.append(field.zero)
            poly[j] = poly[j] + table[i] * c
        # basis *= (x - xs[i])
        new = [field.zero] * (len(basis) + 1)
        for j, c in enumerate(basis):
            new[j] = new[j] - c * xs[i]
            new[j + 1] = new[j + 1] + c
        basis = new
    return _poly_trim(poly, field)


# ---------------------------------------------------------------------------
# root extraction


def projective_roots(form: BinaryForm):
    """All roots of the form over the base field, with multiplicities.

    Returns (roots, residual_degree): roots is a list of ((a, b), mult) with
    b = 1 or (a, b) = (1, 0); residual_degree > 0 means roots over a proper
    extension remain (or, over the rationals, were not found).
    """
    field = form.field
    if form.is_zero():
        raise ValidationError("the zero form vanishes everywhere")
    low, top, core = _split_parts(form)
    roots = []
    if low:
        roots.append(((field.zero, field.one), low))  # a = 0: the point (0:1)
    if top:
        roots.append(((field.one, field.zero), top))  # b = 0: the point (1:0)
    poly = core  # nonzero constant and leading coefficients
    if len(poly) == 1:
        return roots, 0
    if isinstance(field, PrimeField):
        finite = _roots_gfp(poly, field)
    else:
        finite = _roots_rational(poly)
    for x, mult in finite:
        roots.append(((x, field.one), mult))
    found = sum(m for _, m in finite)
    return roots, len(poly) - 1 - found


def _roots_gfp(poly, field: PrimeField):
    import numpy as np

    p = field.p
    cs = np.array([c.value for c in poly], dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in cs[::-1]:
        vals = (vals * xs + int(c)) % p
    out = []
    for x in np.nonzero(vals == 0)[0]:
        x = field(int(x))
        mult = 0
        cur = poly
        while True:
            quot, rem = _poly_divmod(cur, [-x, field.one], field)
            if rem:
                break
            mult += 1
            cur = quot
        out.append((x, mult))
    return out


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        raise ValidationError("divisors of zero requested")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if len(small) > _DIVISOR_CAP:
            raise IndeterminateOverFieldError(
                "coefficient too large for rational root search"
            )
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _roots_rational(poly):
    """Rational roots of a Fraction-coefficient polynomial, nonzero ends."""
    field = QQ
    den_lcm = 1
    for c in poly:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in poly]
    g = 0
    for c in ints:
        g = int_gcd(g, c)
    ints = [c // g for c in ints]
    a0, an = ints[0], ints[-1]
    candidates = set()
    for p in _divisors(a0):
        for q in _divisors(an):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    out = []
    for x in sorted(candidates):
        # cheap evaluation first
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        if acc:
            continue
        mult = 0
        cur = [Fraction(c) for c in ints]
        while True:
            quot, rem = _poly_divmod(cur, [-x, field.one], field)
            if rem:
                break
            mult += 1
            cur = quot
        out.append((x, mult))
    return out

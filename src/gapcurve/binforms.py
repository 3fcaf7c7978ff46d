"""Binary forms over an exact field: gcd, resultants, root extraction.

A binary form of formal degree D is stored as the coefficient tuple
(c_0, ..., c_D) of sum c_i a^i b^(D-i).  Leading zeros are meaningful (they
encode roots at (1:0) of lower-degree content), which is what makes the
Sylvester resultants below specialize correctly.

Root finding over a prime field scans the p+1 points of the projective line.
Over the rationals it takes the same scan modulo a small prime and lifts each
root p-adically until the symmetric residue determines it (Loos, SIAM J.
Comput. 12, 1983), so no coefficient size limits it.

Resultants run over Z for both fields.  ``resultant_in_q`` lifts each biform
into Z: over Q by the lcm of its denominators, over F_p as its residues.  It
takes every sample as an integer Bareiss determinant and interpolates with
Newton divided differences that divide exactly: at integer nodes the divided
difference of x^j is the complete homogeneous symmetric polynomial h_{j-k} of
the nodes, so every divided difference of an integer polynomial is an
integer.  The Sylvester determinant is a polynomial with integer coefficients
in the entries, so the integer resultant of the residues, reduced mod p at the
end, is the resultant over F_p, with no lower bound on p.  ``form_gcd`` runs a
primitive pseudo-remainder sequence over Z on Q and Euclid in the field on
F_p.  Both return exactly the forms that field arithmetic gives, not just a
scalar multiple of them, which matters to callers that compare successive
gcds with ``==``.  Only Python ints are used: no floats and no fixed-width
integers, so no overflow bound applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd as int_gcd, lcm

from .errors import GapcurveError, ValidationError
from .fields import PrimeField, QQ, is_prime

_LIFT_PRIME = 101  # the first prime tried; a small one keeps the F_p scan cheap


class BinaryForm:
    """Homogeneous polynomial in (a, b) with exact coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple([field(c) for c in coeffs])  # a generator's tuple is resized
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
    if isinstance(field, PrimeField):
        core = _poly_gcd(fa, fb, field)
    else:
        core = _primitive_prs_gcd(fa, fb)
    a_part = min(la, lb)
    b_part = min(ta, tb)
    out = [field.zero] * a_part + core + [field.zero] * b_part
    return BinaryForm(field, out)


def _primitive(cs):
    """The primitive integer multiple of a nonzero list of rationals."""
    den = reduce(lcm, (c.denominator for c in cs), 1)  # no starred tuples, as linalg.matrix
    ints = [c.numerator * (den // c.denominator) for c in cs]
    content = reduce(int_gcd, ints, 0)
    return [c // content for c in ints]


def _pseudo_remainder(f, g):
    """lead(g)^k * f mod g for some k >= 0, on low-first integer lists with
    len(f) >= len(g): only the steps that cancel a nonzero term scale by lead(g)."""
    r = list(f)
    n, lead = len(g) - 1, g[-1]
    for i in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            r = [lead * x for x in r]
            for j in range(n):
                r[i - n + j] -= c * g[j]
    return _poly_trim(r, None)


def _primitive_prs_gcd(f, g):
    """Monic gcd over Q of two nonzero trimmed rational lists, by a primitive
    pseudo-remainder sequence over Z (Collins; Brown, JACM 18, 1971)."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _pseudo_remainder(f, g)
        if not r:
            break
        f, g = g, _primitive(r)
    return [Fraction(c, g[-1]) for c in g]


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
    """Fraction-free determinant of an integer matrix (1 for the empty one)."""
    n = len(mat)
    mat = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n):
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
    return sign * prev


def _sylvester_det_int(fc, gc) -> int:
    """Resultant of two low-first integer lists taken at their FORMAL degrees
    (trailing zeros included): the determinant of their Sylvester matrix."""
    m, n = len(fc) - 1, len(gc) - 1
    frow, grow = fc[::-1], gc[::-1]  # high first
    rows = [[0] * i + frow + [0] * (n - i - 1) for i in range(n)]
    rows += [[0] * i + grow + [0] * (m - i - 1) for i in range(m)]
    return _bareiss_det_int(rows)


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
    deg = h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p, fixed by its values at
    (x : 1) for the deg + 1 small nodes x = 0, 1, -1, 2, ...  The samples are
    taken over Z (see the module docstring), and the result is divided by
    l1^h2.deg_q * l2^h1.deg_q, l_i the lift scale of h_i, in the field.
    """
    deg = h1.deg_q * h2.deg_p + h2.deg_q * h1.deg_p
    (l1, rows1), (l2, rows2) = _integer_rows(h1), _integer_rows(h2)
    xs = [t // 2 if t % 2 else -(t // 2) for t in range(1, deg + 2)]
    coeffs = _newton(xs, [_sylvester_det_int(_at(rows1, x), _at(rows2, x)) for x in xs])
    scale = l1**h2.deg_q * l2**h1.deg_q
    # index i is the a^i b^(deg-i) coefficient
    return BinaryForm(h1.field, [Fraction(c, scale) for c in coeffs])


def _integer_rows(h: BiForm):
    """(l, integer rows) lifting a biform into Z: over Q, l is the lcm of the
    denominators and the rows are l times the coefficients; over F_p, l = 1
    and the rows are the residues."""
    if isinstance(h.field, PrimeField):
        return 1, [[c.value for c in row] for row in h.coeffs]
    den = reduce(lcm, (c.denominator for row in h.coeffs for c in row), 1)
    return den, [[c.numerator * (den // c.denominator) for c in row] for row in h.coeffs]


def _at(rows, x: int):
    """The second-point coefficients of a biform's coefficient rows at (x : 1)."""
    out = rows[-1]
    for row in reversed(rows[:-1]):
        out = [o * x + c for o, c in zip(out, row)]
    return out


def _newton(xs, ys):
    """Low-first integer coefficients of the polynomial of degree < len(xs)
    through (xs, ys), by Newton divided differences over Z.

    The nodes are distinct ints and the ys are the values of an integer
    polynomial, so every divided difference f[x_i, ..., x_k] is an integer:
    for x^j it is the complete homogeneous symmetric polynomial h_{j-k} of
    those integer nodes.  Each division is therefore exact, and a nonzero
    remainder raises.  The result is the unique interpolant, equal
    coefficient by coefficient to the one computed over Q.
    """
    n = len(xs)
    table = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num, den = table[i] - table[i - 1], xs[i] - xs[i - level]
            table[i], rem = divmod(num, den)
            if rem:
                raise GapcurveError(f"inexact Newton division {num} / {den} over Z")
    # Horner on the Newton form: poly <- poly * (x - x_i) + table[i]
    poly = [table[-1]]
    for i in range(n - 2, -1, -1):
        x = xs[i]
        poly = [table[i] - x * poly[0], *(a - x * b for a, b in zip(poly, poly[1:])), poly[-1]]
    return poly


# ---------------------------------------------------------------------------
# root extraction


def projective_roots(form: BinaryForm):
    """All roots of the form over the base field, with multiplicities.

    Returns (roots, residual_degree): roots is a list of ((a, b), mult) with
    b = 1 or (a, b) = (1, 0); residual_degree is the degree left over, that
    of the factors with no root in the base field.
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


def _multiplicity(poly, x, field) -> int:
    """How many times (a - x b) divides the low-first polynomial ``poly``."""
    mult = 0
    while True:
        poly, rem = _poly_divmod(poly, [-x, field.one], field)
        if rem:
            return mult
        mult += 1


def _roots_gfp(poly, field: PrimeField):
    import numpy as np

    p = field.p
    cs = np.array([c.value for c in poly], dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in cs[::-1]:
        vals = (vals * xs + int(c)) % p
    roots = (field(int(x)) for x in np.nonzero(vals == 0)[0])
    return [(x, _multiplicity(poly, x, field)) for x in roots]


def _roots_rational(poly):
    """Rational roots, with multiplicities and in increasing order, of a
    Fraction-coefficient polynomial with nonzero ends.

    p is the first prime >= ``_LIFT_PRIME`` not dividing lead(g), g the
    primitive square-free part, at which every root r of g mod p is simple;
    a skipped prime divides lead(g)·disc(g).  Each r is Newton-lifted to a
    modulus m > 2|lead(g)·g(0)|.  A root u/v has v | lead(g) and u | g(0), so
    lead(g)·u/v is the symmetric residue of lead(g)·r mod m: none is missed.
    """
    repeated = _primitive_prs_gcd(poly, [i * c for i, c in enumerate(poly)][1:])
    g = _primitive(_poly_divmod(poly, repeated, QQ)[0])
    lead, bound = g[-1], 2 * abs(g[-1] * g[0])
    for p in filter(is_prime, count(_LIFT_PRIME, 2)):
        if lead % p:
            field = PrimeField(p)
            mod_roots = _roots_gfp([field(c) for c in g], field)
            if all(mult == 1 for _, mult in mod_roots):
                break
    out = []
    for r, _ in mod_roots:
        r, m = r.value, p
        while m <= bound:
            m *= m
            value = slope = 0  # g(r) and g'(r) mod m by Horner
            for c in reversed(g):
                value, slope = (value * r + c) % m, (slope * r + value) % m
            r = (r - value * pow(slope, -1, m)) % m
        num = lead * r % m
        x = Fraction(num - m if 2 * num > m else num, lead)
        mult = _multiplicity(poly, x, QQ)
        if mult:
            out.append((x, mult))
    return sorted(out)

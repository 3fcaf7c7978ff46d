"""Binary forms over an exact field: gcd, resultants, root extraction.

A binary form of formal degree D is stored as the coefficient tuple
(c_0, ..., c_D) of sum c_i a^i b^(D-i).  Leading zeros are meaningful (they
encode roots at (1:0) of lower-degree content), which is what makes the
Sylvester resultants below specialize correctly.

Every gcd runs one Euclid kernel on int lists mod p.  Over F_p that is the
gcd.  Over Q ``form_gcd`` takes it mod 31-bit primes and combines the images
by CRT (Brown, JACM 18, 1971), accepting a candidate only after exact trial
division; a constant image proves the gcd is 1.  Both fields return the
monic gcd that field arithmetic gives.

Roots over F_p are those of gcd(f, x^p - x), split by gcds with
(x + delta)^((p-1)/2) - 1, so the work is polynomial in log p.  Over the
rationals the same root finder runs modulo a small prime, and each root is
lifted p-adically until the symmetric residue determines it (Loos, SIAM J.
Comput. 12, 1983), so no coefficient size limits it.

Resultants run over Z for both fields.  ``resultant_in_q`` lifts each biform
into Z: over Q by the lcm of its denominators, over F_p as its residues.  It
takes every sample as an integer Bareiss determinant and interpolates with
Newton divided differences that divide exactly: at integer nodes the divided
difference of x^j is the complete homogeneous symmetric polynomial h_{j-k} of
the nodes, so every divided difference of an integer polynomial is an
integer.  The Sylvester determinant is a polynomial with integer coefficients
in the entries, so the integer resultant of the residues, reduced mod p at the
end, is the resultant over F_p, with no lower bound on p.  Only Python ints
are used: no floats and no fixed-width integers, so no overflow bound
applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import count
from math import gcd as int_gcd, lcm

from .errors import GapcurveError, ValidationError
from .fields import PrimeField, is_prime

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


def _trim(cs):
    """A low-first int list without its zero top coefficients."""
    i = len(cs)
    while i and not cs[i - 1]:
        i -= 1
    return cs[:i]


def _divmod(f, g, p):
    """(quotient, remainder) of low-first int lists, g trimmed: mod p for
    p > 0; over Z for p = 0, or None once a quotient coefficient is not an
    integer."""
    r = list(f)
    n, lead = len(g) - 1, g[-1]
    inv = pow(lead, -1, p) if p else None
    quot = [0] * max(0, len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        c, rem = (r.pop() * inv % p, 0) if p else divmod(r.pop(), lead)
        if rem:
            return None
        quot[i - n] = c
        if c:
            for j in range(n):
                r[i - n + j] -= c * g[j]
    return quot, _trim([c % p for c in r] if p else r)


def _gcd_mod(f, g, p):
    """Monic gcd mod p of two low-first int lists, not both zero mod p (Euclid)."""
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, _divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


@cache
def _gcd_prime(i: int) -> int:
    """The i-th 31-bit prime in decreasing order, from 2^31 - 1 (i = 0)."""
    start = _gcd_prime(i - 1) - 2 if i else (1 << 31) - 1
    return next(filter(is_prime, count(start, -2)))


def _gcd_primes():
    """The 31-bit primes in decreasing order; each primality test runs once."""
    return map(_gcd_prime, count())


def _gcd_z(f, g):
    """Primitive gcd over Z of two nonzero trimmed int lists (Brown, JACM 18, 1971).

    Let h be the primitive gcd.  Modulo a prime p dividing neither leading
    coefficient, the monic gcd has degree >= deg h, with equality for all but
    finitely many p: a larger image is dropped, a smaller one restarts the
    combination, and a constant one proves h = 1.  lead(h) divides
    gamma = gcd(lead f, lead g), so the images scaled to lead gamma are the
    residues of the integer form (gamma / lead h)·h; their CRT combination's
    symmetric residue has h as its primitive part once the modulus is large
    enough.  A candidate is returned only after exact division into f and g.
    """
    gamma = int_gcd(f[-1], g[-1])
    best, acc, m = None, None, 1
    for p in _gcd_primes():
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue
        image = _gcd_mod(f, g, p)
        if len(image) == 1:
            return [1]
        image = [c * gamma % p for c in image]
        if best is None or len(image) < best:
            best, acc, m = len(image), image, p
        elif len(image) == best:
            step = pow(m, -1, p)
            acc = [a + m * ((b - a) * step % p) for a, b in zip(acc, image)]
            m *= p
        else:
            continue
        h = _primitive([c - m if 2 * c > m else c for c in acc])
        if _divides(h, f) and _divides(h, g):
            return h


def _divides(h, f) -> bool:
    """Does the primitive int list h divide the int list f over Q?  By Gauss's
    lemma that division has an integer quotient, so it runs over Z."""
    qr = _divmod(f, h, 0)
    return qr is not None and not qr[1]


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """gcd of two binary forms (monic in a; power of b tracked via leading zeros).

    The cores run through one Euclid kernel on int lists mod p: over F_p at p
    itself, over Q at 31-bit primes combined by ``_gcd_z``.
    """
    field = f.field
    if f.is_zero():
        return g
    if g.is_zero():
        return f

    la, ta, fa = _split_parts(f)
    lb, tb, fb = _split_parts(g)
    p = field.characteristic
    if p:
        core = _gcd_mod([c.value for c in fa], [c.value for c in fb], p)
    else:
        core = _gcd_z(_primitive(fa), _primitive(fb))
    inv = field.one / field(core[-1])
    out = [field.zero] * min(la, lb) + [field(c) * inv for c in core]
    return BinaryForm(field, out + [field.zero] * min(ta, tb))


def _primitive(cs):
    """The primitive integer multiple of a nonzero list of rationals or ints."""
    den = reduce(lcm, (c.denominator for c in cs), 1)  # no starred tuples, as linalg.matrix
    ints = [c.numerator * (den // c.denominator) for c in cs]
    content = reduce(int_gcd, ints, 0)
    return [c // content for c in ints]


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


def _multiplicity(poly, x) -> int:
    """How many times (a - x b) divides the low-first polynomial ``poly``,
    by repeated synthetic division."""
    mult = 0
    while len(poly) > 1:
        out = [poly[-1]]
        for c in reversed(poly[:-1]):
            out.append(out[-1] * x + c)
        if out.pop():
            break
        poly, mult = out[::-1], mult + 1
    return mult


def _roots_gfp(poly, field: PrimeField):
    """Roots in F_p, with multiplicities and in increasing order, of a
    polynomial with a nonzero leading coefficient.

    r = gcd(f, x^p - x) is the product of (x - u) over the distinct roots u,
    with x^p mod f by repeated squaring.  A factor of r with two or more
    roots splits by gcd(r, (x + delta)^((p - 1)/2) - 1) for delta = 0, 1,
    2, ...: it keeps the roots u with u + delta a nonzero square, and some
    delta < p separates any two roots.  The work is polynomial in log p.
    """
    p = field.p
    f = _trim([c.value for c in poly])
    xp = _pow_mod([0, 1], p, f, p) + [0, 0]
    xp[1] -= 1  # x^p - x mod f
    stack = [(_gcd_mod(f, xp, p), 0)]
    roots = []
    while stack:
        r, delta = stack.pop()
        if len(r) == 2:
            roots.append(-r[0] % p)
            continue
        while len(r) > 2:
            half = _pow_mod([delta, 1], (p - 1) // 2, r, p) + [0]
            half[0] -= 1
            s = _gcd_mod(r, half, p)
            delta += 1
            if 1 < len(s) < len(r):
                stack += [(s, delta), (_divmod(r, s, p)[0], delta)]
                break
    return [(field(u), _multiplicity(poly, field(u))) for u in sorted(roots)]


def _pow_mod(base, e, m, p):
    """base^e modulo the trimmed int list m and p, by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base), m, p)[1]
        base, e = _divmod(_mul(base, base), m, p)[1], e >> 1
    return out


def _mul(f, g):
    """Product of two low-first int lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _roots_rational(poly):
    """Rational roots, with multiplicities and in increasing order, of a
    Fraction-coefficient polynomial with nonzero ends.

    p is the first prime >= ``_LIFT_PRIME`` not dividing lead(g), g the
    primitive square-free part, at which every root r of g mod p is simple;
    a skipped prime divides lead(g)·disc(g).  Each r is Newton-lifted to a
    modulus m > 2|lead(g)·g(0)|.  A root u/v has v | lead(g) and u | g(0), so
    lead(g)·u/v is the symmetric residue of lead(g)·r mod m: none is missed.
    """
    f = _primitive(poly)
    g = _divmod(f, _gcd_z(f, [i * c for i, c in enumerate(f)][1:]), 0)[0]
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
        mult = _multiplicity(poly, x)
        if mult:
            out.append((x, mult))
    return sorted(out)

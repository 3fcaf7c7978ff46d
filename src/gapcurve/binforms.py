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

Exact resultants run over Z for both fields.  ``resultant_z`` takes the
integer rows of two biforms (over F_p, the residues), every sample as an
integer Bareiss determinant, and interpolates with Newton divided differences
that divide exactly: at integer nodes the divided difference of x^j is the
complete homogeneous symmetric polynomial h_{j-k} of the nodes.  The Sylvester
determinant has integer coefficients in the entries, so the integer resultant
of the residues, reduced mod p, is the one over F_p, for every p.

``resultant_images`` takes the same resultants mod a prime q in one int64
kernel; over F_p, once p > deg + 1, they are the resultants themselves.  Its
bound, which it enforces: q < 2^31, so a product of two residues stays below
2^62 and is reduced before any add; its one matrix product runs in
``linalg.matmul``, which needs deg + 1 < 2^16.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate, count
from math import gcd as int_gcd, lcm

import numpy as np

from . import linalg
from .errors import GapcurveError, ValidationError
from .fields import PrimeField, is_prime

_LIFT_PRIME = 101  # the first prime tried; a small one keeps the root finding mod p cheap


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


def resultant_z(rows1, rows2):
    """Resultant over Z eliminating the second point of two integer biforms,
    given as rows: rows[i][j] multiplies a^i b^(dp-i) a'^j b'^(dq-j).  The
    low-first int list of formal degree dq1·dp2 + dq2·dp1, fixed by its values
    at (x : 1) for the nodes x = 0, 1, -1, 2, ...
    """
    deg = _resultant_degree(rows1, rows2)
    xs = [t // 2 if t % 2 else -(t // 2) for t in range(1, deg + 2)]
    return _newton(xs, [_sylvester_det_int(_at(rows1, x), _at(rows2, x)) for x in xs])


def _resultant_degree(rows1, rows2) -> int:
    return (len(rows1[0]) - 1) * (len(rows2) - 1) + (len(rows2[0]) - 1) * (len(rows1) - 1)


def resultant_images(pairs, q: int) -> np.ndarray:
    """``resultant_z`` mod a prime q for pairs of integer biforms of one shape
    pair, as a (len(pairs), deg + 1) int64 array, with the bound of the module
    docstring checked.  The Sylvester matrices of every pair at the nodes
    x = 0, ..., deg (distinct mod q > deg + 1) are one batch of determinants."""
    deg = _resultant_degree(*pairs[0])
    if not deg + 1 < q < 1 << 31 or deg + 1 >= 1 << 16:
        raise GapcurveError(f"no int64 resultant images of degree {deg} mod {q}")
    xs = np.arange(deg + 1, dtype=np.int64)
    cols = []
    for hs in zip(*pairs):
        # the second-point coefficients, high first, at (x : 1) for every node
        a = np.array([[[c % q for c in row[::-1]] for row in h] for h in hs], dtype=np.int64)
        acc = np.repeat(a[:, -1:], deg + 1, axis=1)
        for i in range(a.shape[1] - 2, -1, -1):
            acc = (acc * xs[:, None] % q + a[:, i, None]) % q
        cols.append(acc.reshape(-1, a.shape[2]))
    f, g = cols
    m, n = f.shape[1] - 1, g.shape[1] - 1
    syl = np.zeros((len(f), m + n, m + n), dtype=np.int64)
    for i in range(n):
        syl[:, i, i : i + m + 1] = f
    for i in range(m):
        syl[:, n + i, i : i + n + 1] = g
    dets = _dets_mod(syl, q).reshape(len(pairs), deg + 1).T
    return linalg.matmul(_interpolation(deg + 1, q), dets, q).T


def _dets_mod(a, q: int) -> np.ndarray:
    """Determinants mod q of a batch of matrices with entries in [0, q), by
    fraction-free elimination in place: row i becomes piv·row_i - a[i, c]·row_c,
    which multiplies the determinant by piv^(n - c - 1) at column c.  The
    product of those powers, that of the prefix products of the pivots, is
    divided out with one inverse per matrix at the end."""
    size, n = a.shape[0], a.shape[1]
    at = np.arange(size)
    prefix, scale = np.ones(size, np.int64), np.ones(size, np.int64)
    live, odd = np.ones(size, bool), np.zeros(size, bool)
    for c in range(n):
        nonzero = a[:, c:, c] != 0
        live &= nonzero.any(axis=1)
        r = c + nonzero.argmax(axis=1)
        odd ^= r != c
        a[at, c], a[at, r] = a[at, r], a[at, c]
        piv = np.where(live, a[:, c, c], 1)
        prefix = prefix * piv % q
        if c < n - 1:
            scale = scale * prefix % q
        below = a[:, c + 1 :, c:]
        below[:] = (piv[:, None, None] * below % q - below[:, :, :1] * a[:, c, None, c:] % q) % q
    det = prefix * np.array([pow(int(s), -1, q) for s in scale], dtype=np.int64) % q
    return np.where(live, np.where(odd, (q - det) % q, det), 0)


@lru_cache(maxsize=16)
def _interpolation(n: int, q: int) -> np.ndarray:
    """The n x n matrix mod q taking values at the nodes 0, ..., n - 1 to the
    low-first coefficients of their interpolant, in O(n^2): column i holds
    prod_{j != i} (x - j) / (i - j), the quotient of prod_j (x - j) by x - i."""
    master = np.zeros(n + 1, np.int64)
    master[0] = 1
    for j in range(n):
        master = (np.roll(master, 1) - j * master % q) % q
    quot = np.zeros((n, n), np.int64)
    quot[:, n - 1] = 1
    for k in range(n - 1, 0, -1):
        quot[:, k - 1] = (master[k] + np.arange(n) * quot[:, k] % q) % q
    fact = list(accumulate(range(1, n), lambda f, i: f * i % q, initial=1))
    weights = [pow((-1) ** (n - 1 - i) * fact[i] * fact[n - 1 - i], -1, q) for i in range(n)]
    out = (quot * np.array(weights, dtype=np.int64)[:, None] % q).T.copy()
    out.setflags(write=False)
    return out


def resultants(pairs, p: int):
    """``resultant_z`` of each pair of integer biforms, as low-first int
    lists.  Over F_p (p > 0) only their residues matter, and past the nodes
    (p > deg + 1), within the kernel's bound, they are the images mod p of
    ``resultant_images``."""
    if p and _resultant_degree(*pairs[0]) + 1 < min(p, 1 << 16):
        return resultant_images(pairs, p).tolist()
    return [resultant_z(*pair) for pair in pairs]


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

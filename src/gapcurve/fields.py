"""Exact base fields: the rationals and odd prime fields.

Every quantity in this package is an element of one of these fields; there is
no floating point anywhere.  Rational elements are plain
:class:`fractions.Fraction`; prime-field elements are :class:`GFElement`
wrappers around ints.  Both support ``+ - * /``, test false exactly when
zero, and are hashable, which is all the linear algebra needs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fraction_literal(obj) -> Fraction:
    """Parse a JSON int or "a/b" string; malformed text is a ValidationError."""
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad numeric literal {obj!r}") from None


class GFElement:
    """An element of F_p.  Arithmetic partners must share the same field."""

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.field.p != self.field.p:
                raise ValidationError("mixing elements of different prime fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return GFElement(self.field, self.value * pow(v, self.field.p - 2, self.field.p))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.field, v) / self

    def __neg__(self):
        return GFElement(self.field, -self.value)

    def __pow__(self, e: int):
        if e < 0:
            return (self.field.one / self) ** (-e)
        return GFElement(self.field, pow(self.value, e, self.field.p))

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("zero has no inverse")
        return GFElement(self.field, pow(self.value, self.field.p - 2, self.field.p))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """F_p for an odd prime p < 2^31 (the bulk kernels assume int64 headroom)."""

    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is not None:
            return inst
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValidationError(f"field modulus must be an odd prime, got {p!r}")
        if p >= 1 << 31:
            raise ValidationError("prime moduli above 2^31 are not supported")
        inst = super().__new__(cls)
        inst.p = p
        cls._cache[p] = inst
        return inst

    characteristic = property(lambda self: self.p)

    @property
    def zero(self):
        return GFElement(self, 0)

    @property
    def one(self):
        return GFElement(self, 1)

    def __call__(self, value) -> GFElement:
        if isinstance(value, GFElement):
            if value.field.p != self.p:
                raise ValidationError("element from a different prime field")
            return value
        if isinstance(value, int):
            return GFElement(self, value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ValidationError(f"denominator divisible by {self.p}")
            return GFElement(self, value.numerator) / GFElement(self, value.denominator)
        raise ValidationError(f"cannot coerce {value!r} into F_{self.p}")

    def random_element(self, rng) -> GFElement:
        return GFElement(self, rng.randrange(self.p))

    def random_nonzero(self, rng) -> GFElement:
        return GFElement(self, rng.randrange(1, self.p))

    def to_json(self, x: GFElement) -> int:
        return x.value

    def from_json(self, obj) -> GFElement:
        if isinstance(obj, str):
            return self(_fraction_literal(obj))
        if isinstance(obj, int):
            return self(obj)
        raise ValidationError(f"bad prime-field literal {obj!r}")

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class RationalField:
    """The rationals; elements are fractions.Fraction."""

    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ValidationError(f"cannot coerce {value!r} into the rationals")

    def random_element(self, rng) -> Fraction:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

    def random_nonzero(self, rng) -> Fraction:
        while True:
            x = self.random_element(rng)
            if x:
                return x

    def to_json(self, x: Fraction) -> str | int:
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"

    def from_json(self, obj) -> Fraction:
        if isinstance(obj, (int, str)):
            return _fraction_literal(obj)
        raise ValidationError(f"bad rational literal {obj!r}")

    name = "rational"

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str):
    """Parse the CLI field syntax: ``rational`` or ``Fp:<p>``."""
    if name == "rational":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ValidationError(f"bad field spec {name!r}") from None
        return GF(p)
    raise ValidationError(f"bad field spec {name!r} (want 'rational' or 'Fp:<p>')")

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapcurve import fields
from gapcurve.errors import ValidationError
from gapcurve.fields import GF, QQ, PrimeField, field_from_name, is_prime


def test_prime_validation():
    with pytest.raises(ValidationError):
        GF(4)
    with pytest.raises(ValidationError):
        GF(2)  # odd primes only
    with pytest.raises(ValidationError):
        GF(1)
    assert GF(10007).p == 10007


def test_prime_field_tests_its_modulus_once(monkeypatch):
    # GF(p) returns the cached field, so a second GF(p) runs no primality test
    calls = []
    monkeypatch.setattr(PrimeField, "_cache", {})
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert GF(2**31 - 1) is GF(2**31 - 1)
    assert calls == [2**31 - 1]


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 101, 10007]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 9, 10001, 10005])


@given(a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_gf_ring_laws(a, b):
    k = GF(101)
    x, y = k(a), k(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + k.one) == x * y + x
    assert x - x == k.zero
    if y:
        assert (x / y) * y == x


def test_gf_division_and_pow():
    k = GF(11)
    assert k(3) / k(4) == k(3 * 3)  # 4^{-1} = 3 mod 11
    assert k(2) ** 10 == k.one
    with pytest.raises(ZeroDivisionError):
        k(1) / k(0)


def test_gf_field_mixing_rejected():
    with pytest.raises(ValidationError):
        GF(11)(3) + GF(13)(3)


def test_rational_coercions():
    assert QQ(2) == Fraction(2)
    assert QQ("3/4") == Fraction(3, 4)
    assert QQ.to_json(Fraction(3, 4)) == "3/4"
    assert QQ.to_json(Fraction(5)) == 5
    assert QQ.from_json("3/4") == Fraction(3, 4)
    for bad in ("x", "1/0"):
        with pytest.raises(ValidationError):
            QQ(bad)


def test_gf_fraction_coercion():
    k = GF(7)
    assert k(Fraction(1, 2)) == k(4)  # 2^{-1} = 4 mod 7
    with pytest.raises(ValidationError):
        k(Fraction(1, 7))


def test_field_from_name():
    assert field_from_name("rational") is QQ or field_from_name("rational") == QQ
    assert field_from_name("Fp:101").p == 101
    with pytest.raises(ValidationError):
        field_from_name("Fp:abc")
    with pytest.raises(ValidationError):
        field_from_name("real")

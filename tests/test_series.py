import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcurve import linalg
from gapcurve.errors import AmbientMismatchError, ValidationError
from gapcurve.fields import GF, QQ
from gapcurve.series import (
    INF,
    Ambient,
    TruncatedSeries,
    SeriesSubspace,
    _gfp_inverse,
    _products,
    quotient_dim,
    span_reduce,
)

from conftest import independent_rank, proportional


def t_power(ambient, k, branch=0):
    return TruncatedSeries.monomial(ambient, branch, k)


def test_truncation_boundary():
    amb5 = Ambient(QQ, 1, 5)
    assert not (t_power(amb5, 2) * t_power(amb5, 3))  # t^5 = 0 at N=5
    amb6 = Ambient(QQ, 1, 6)
    assert t_power(amb6, 2) * t_power(amb6, 3) == t_power(amb6, 5)


def test_orthogonal_branches():
    amb = Ambient(QQ, 2, 4)
    a = TruncatedSeries.monomial(amb, 0, 1)
    b = TruncatedSeries.monomial(amb, 1, 1)
    assert not (a * b)


def test_valuation_examples():
    amb = Ambient(QQ, 1, 6)
    s = t_power(amb, 2) + t_power(amb, 3)
    assert s.valuation() == (2,)
    amb2 = Ambient(QQ, 2, 4)
    both = TruncatedSeries.monomial(amb2, 0, 1) + TruncatedSeries.monomial(amb2, 1, 1)
    assert both.valuation() == (1, 1)
    assert TruncatedSeries.zero(amb2).valuation() == (INF, INF)


def test_infinity_ordering():
    assert INF > 10**9
    assert not (INF > INF)
    assert INF >= INF
    assert 3 < INF
    assert INF + 5 is INF


def test_ambient_mismatch():
    a = TruncatedSeries.unit(Ambient(QQ, 1, 4))
    b = TruncatedSeries.unit(Ambient(QQ, 1, 5))
    with pytest.raises(AmbientMismatchError):
        a * b


def test_mul_laws(field, rng):
    amb = Ambient(field, 2, 6)

    def random_series():
        return TruncatedSeries(
            amb, [[field.random_element(rng) for _ in range(6)] for _ in range(2)]
        )

    for _ in range(10):
        a, b, c = random_series(), random_series(), random_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_valuation_additivity(field, rng):
    amb = Ambient(field, 2, 8)
    for _ in range(20):
        va = [rng.randrange(4) for _ in range(2)]
        vb = [rng.randrange(4) for _ in range(2)]
        a = TruncatedSeries.from_monomials(
            amb, [(i, va[i] + k, field.random_nonzero(rng) if k == 0 else field.random_element(rng)) for i in range(2) for k in range(2)]
        )
        b = TruncatedSeries.from_monomials(
            amb, [(i, vb[i] + k, field.random_nonzero(rng) if k == 0 else field.random_element(rng)) for i in range(2) for k in range(2)]
        )
        prod = (a * b).valuation()
        for i in range(2):
            if va[i] + vb[i] < 8:
                assert prod[i] == va[i] + vb[i]


def test_series_inverse():
    amb = Ambient(QQ, 1, 6)
    u = TruncatedSeries.unit(amb) + t_power(amb, 2)
    assert u * u.inverse() == TruncatedSeries.unit(amb)
    with pytest.raises(ValidationError):
        t_power(amb, 1).inverse()


def test_span_reduce_trivial():
    amb = Ambient(QQ, 1, 6)
    space = span_reduce(amb, [t_power(amb, 2), t_power(amb, 2) + t_power(amb, 3)])
    assert space.dim == 2
    assert space.basis() == [t_power(amb, 2), t_power(amb, 3)]
    assert span_reduce(amb, [TruncatedSeries.zero(amb)]).dim == 0
    assert span_reduce(amb, []).dim == 0


def test_span_reduce_rank_oracle(field, rng):
    amb = Ambient(field, 2, 6)
    vectors = []
    for _ in range(50):
        vectors.append(
            TruncatedSeries(
                amb, [[field.random_element(rng) for _ in range(6)] for _ in range(2)]
            )
        )
    space = span_reduce(amb, vectors)
    flat = [v.flat() for v in vectors]
    assert space.dim == independent_rank(flat, field, amb.width)
    # re-reducing the echelon basis is a no-op
    again = span_reduce(amb, space.basis())
    assert again.rows == space.rows


def test_quotient_dim_cusp_jet():
    # R = span{1, t^2, t^3, t^4} at N=5: one gap below alpha=2
    amb = Ambient(QQ, 1, 5)
    space = span_reduce(
        amb, [TruncatedSeries.unit(amb), t_power(amb, 2), t_power(amb, 3), t_power(amb, 4)]
    )
    assert quotient_dim(space, (2,)) == 1
    assert quotient_dim(space, (1,)) == 0
    assert quotient_dim(space, (5,)) == 1


def test_quotient_dim_full_jet_space():
    amb = Ambient(GF(101), 1, 4)
    space = span_reduce(amb, [t_power(amb, k) for k in range(4)])
    for a in range(5):
        assert quotient_dim(space, (a,)) == 0


def test_quotient_dim_node():
    amb = Ambient(QQ, 2, 3)
    unit = TruncatedSeries.unit(amb)
    space = span_reduce(
        amb,
        [unit, TruncatedSeries.monomial(amb, 0, 1), TruncatedSeries.monomial(amb, 1, 1)],
    )
    assert quotient_dim(space, (1, 1)) == 1


def test_quotient_dim_spanning_set_invariance(field, rng):
    amb = Ambient(field, 2, 5)
    vecs = [
        TruncatedSeries(amb, [[field.random_element(rng) for _ in range(5)] for _ in range(2)])
        for _ in range(4)
    ]
    space = span_reduce(amb, vecs)
    # a different spanning set of the same subspace
    mixed = [vecs[0] + vecs[1], vecs[1], vecs[2] + vecs[3].scale(field(2)), vecs[3], vecs[0]]
    space2 = span_reduce(amb, mixed)
    assert space.rows == space2.rows
    for alpha in [(0, 0), (1, 2), (3, 3), (5, 5), (2, 0)]:
        assert quotient_dim(space, alpha) == quotient_dim(space2, alpha)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_dim_monotone_step(data):
    field = GF(101)
    import random as _random

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    amb = Ambient(field, 2, 5)
    vecs = [
        TruncatedSeries(amb, [[field.random_element(rng) for _ in range(5)] for _ in range(2)])
        for _ in range(rng.randrange(1, 5))
    ]
    space = span_reduce(amb, vecs)
    alpha = (rng.randrange(5), rng.randrange(5))
    i = rng.randrange(2)
    bumped = tuple(a + (1 if j == i else 0) for j, a in enumerate(alpha))
    step = quotient_dim(space, bumped) - quotient_dim(space, alpha)
    assert step in (0, 1)


def test_quotient_dim_exceeds_truncation():
    amb = Ambient(QQ, 1, 4)
    space = span_reduce(amb, [TruncatedSeries.unit(amb)])
    with pytest.raises(ValidationError):
        quotient_dim(space, (5,))


def test_contains_unit():
    amb = Ambient(QQ, 2, 3)
    unit = TruncatedSeries.unit(amb)
    e0 = TruncatedSeries.monomial(amb, 0, 0)
    e1 = TruncatedSeries.monomial(amb, 1, 0)
    assert span_reduce(amb, [unit]).contains_unit()
    assert span_reduce(amb, [e0, e1]).contains_unit()  # e0 + e1 is a unit
    assert not span_reduce(amb, [e0]).contains_unit()
    assert not span_reduce(amb, [TruncatedSeries.monomial(amb, 0, 1)]).contains_unit()


def test_contains_unit_small_field():
    amb = Ambient(GF(3), 4, 2)
    vecs = [TruncatedSeries.monomial(amb, i, 0) for i in range(4)]
    assert span_reduce(amb, vecs).contains_unit()
    # p < r: U = {x in F_3^11 : x_11 = 2x_1 + x_3 + x_6 + x_8 + x_10} holds a unit
    field = GF(3)
    amb = Ambient(field, 11, 2)
    last = [2, 0, 1, 0, 0, 1, 0, 1, 0, 1]
    vecs = [
        TruncatedSeries.from_monomials(amb, [(i, 0, 1), (10, 0, c)]) for i, c in enumerate(last)
    ]
    space = span_reduce(amb, vecs)
    assert space.dim == 10 and space.contains_unit()
    witness = [1] * 9 + [2, 1]
    assert space.contains(TruncatedSeries.from_monomials(amb, [(i, 0, c) for i, c in enumerate(witness)]))


def test_contains_unit_brute_force_small_fields():
    rng = random.Random(31)
    seen = set()
    for p in (3, 5, 7):
        field = GF(p)
        for _ in range(40):
            r = rng.randrange(1, 12)
            k = rng.randrange(1, 8)
            while p**k > 3000:
                k -= 1
            amb = Ambient(field, r, 1)
            consts = [[rng.choice([0, 0] + list(range(1, p))) for _ in range(r)] for _ in range(k)]
            vecs = [TruncatedSeries.from_monomials(amb, [(i, 0, c) for i, c in enumerate(v)]) for v in consts]
            # every combination of the spanning vectors, not of an echelon basis
            brute = any(
                all(sum(c * v[i] for c, v in zip(coeffs, consts)) % p for i in range(r))
                for coeffs in product(range(p), repeat=k)
            )
            assert span_reduce(amb, vecs).contains_unit() == brute, (p, consts)
            seen.add((brute, p < r))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_contains(field, rng):
    amb = Ambient(field, 2, 4)
    vecs = [
        TruncatedSeries.unit(amb),
        t_power(amb, 2) + TruncatedSeries.monomial(amb, 1, 1).scale(field(3)),
        t_power(amb, 3, branch=1),
    ]
    space = span_reduce(amb, vecs)
    member = TruncatedSeries.zero(amb)
    for v in vecs:
        member = member + v.scale(field.random_nonzero(rng))
    assert space.contains(member)
    assert space.contains(TruncatedSeries.zero(amb))
    assert not space.contains(t_power(amb, 2))
    assert not space.contains(member + t_power(amb, 1))
    with pytest.raises(AmbientMismatchError):
        space.contains(TruncatedSeries.unit(Ambient(field, 2, 5)))


@pytest.mark.parametrize("p", [0, 3, 101, 2**31 - 1])
def test_gfp_products_and_inverse_match_boxed(p):
    """The array convolution and the F_p Newton inverse against TruncatedSeries.
    Over F_p the residues sit just below p (near the 2^62 product bound at
    p = 2^31 - 1); over Q (p = 0) the rows are integer rows, and each product
    row is a multiple of the boxed product."""
    field = GF(p) if p else QQ
    rng = random.Random(p)
    r, n = 3, 9
    amb = Ambient(field, r, n)

    def near_top(low=0):
        if not p:
            return Fraction(rng.randrange(-60, 60), rng.randrange(1, 9))
        return field(rng.randrange(max(low, p - 60), p))

    def series(low=0):
        return TruncatedSeries(amb, [[near_top(low if k == 0 else 0) for k in range(n)] for _ in range(r)])

    a = [series() for _ in range(3)]
    b = [series() for _ in range(2)]
    got = _products(
        linalg.matrix([x.flat() for x in a], field, amb.width),
        linalg.matrix([y.flat() for y in b], field, amb.width),
        r,
        p,
    )
    want = [(x * y).flat() for x in a for y in b]
    if not p:
        assert got.dtype == object and all(proportional(g, w) for g, w in zip(got.tolist(), want))
        return
    assert linalg.elements(got, field) == want
    unit = series(low=1)
    inv = _gfp_inverse(linalg.matrix([unit.flat()], field, amb.width), r, p)
    assert linalg.elements(inv, field) == [unit.inverse().flat()]


@pytest.mark.parametrize("p", [0, 3, 101, 2**31 - 1])
def test_jet_rank_matches_independent_rank(p):
    """Window ranks of the kernel array (integer rows over Q, p = 0) against
    an independent elimination over the boxed rows."""
    field = GF(p) if p else QQ
    rng = random.Random(20261019 + p)
    for _ in range(12):
        r, n = rng.randrange(1, 4), rng.randrange(2, 8)
        amb = Ambient(field, r, n)
        vecs = [
            TruncatedSeries(
                amb,
                [[field.random_element(rng) if rng.random() < 0.4 else field.zero for _ in range(n)]
                 for _ in range(r)],
            )
            for _ in range(rng.randrange(1, r * n + 1))
        ]
        space = span_reduce(amb, vecs)
        rows = space.rows
        for _ in range(8):
            alpha = tuple(rng.randrange(n + 1) for _ in range(r))
            keep = [i * n + k for i, a in enumerate(alpha) for k in range(a)]
            window = [[row[c] for c in keep] for row in rows]
            assert space.jet_rank(alpha) == independent_rank(window, field, len(keep)), alpha


def test_public_constructor_takes_fraction_rows():
    """SeriesSubspace(ambient, rows, pivots) with RREF rows as Fraction lists
    keeps them as integer rows and boxes them back unchanged."""
    amb = Ambient(QQ, 2, 3)
    rows = [
        [Fraction(1), Fraction(0), Fraction(2, 3), Fraction(0), Fraction(-1, 4), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(5, 7), Fraction(0), Fraction(0), Fraction(3)],
    ]
    space = SeriesSubspace(amb, rows, [0, 1])
    assert space._rows.dtype == object and all(type(x) is int for x in space._rows.flat)
    assert space.rows == rows
    assert space.basis() == [TruncatedSeries.from_flat(amb, row) for row in rows]
    ranks = {(1, 0): 1, (2, 0): 2, (0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 1, (3, 3): 2}
    assert {alpha: space.jet_rank(alpha) for alpha in ranks} == ranks
    assert space.contains(TruncatedSeries.from_flat(amb, [3 * x for x in rows[0]]))

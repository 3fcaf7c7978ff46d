import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcurve import linalg
from gapcurve.errors import GapcurveError, ValidationError
from gapcurve.fields import GF, QQ, is_prime

from conftest import (
    batch_inverse,
    field_rref,
    independent_rank,
    proportional,
    stacked_pivots,
)


def random_matrix(field, rng, nrows, ncols):
    return [[field.random_element(rng) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_idempotent(field, rng):
    rows = random_matrix(field, rng, 6, 9)
    red, piv = linalg.rref(rows, field)
    again, piv2 = linalg.rref(red, field)
    assert again == red
    assert piv2 == piv


def test_rank_against_permuted_oracle(field, rng):
    for _ in range(25):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 9)
        rows = random_matrix(field, rng, nrows, ncols)
        # plant some dependencies
        if nrows >= 3 and rng.random() < 0.5:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        assert linalg.rank(rows, field) == independent_rank(rows, field, ncols)


def test_nullspace_annihilates(field, rng):
    rows = random_matrix(field, rng, 4, 7)
    for v in linalg.nullspace(rows, field, 7):
        for row in rows:
            acc = field.zero
            for a, b in zip(row, v):
                acc = acc + a * b
            assert acc == field.zero
    assert linalg.rank(rows, field) + len(linalg.nullspace(rows, field, 7)) == 7


def test_solve_right(field, rng):
    rows = random_matrix(field, rng, 3, 5)
    x = [field.random_element(rng) for _ in range(5)]
    rhs = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, x):
            acc = acc + a * b
        rhs.append(acc)
    sol = linalg.solve_right(rows, rhs, field)
    assert sol is not None
    for row, b in zip(rows, rhs):
        acc = field.zero
        for a, s in zip(row, sol):
            acc = acc + a * s
        assert acc == b


def test_solve_right_inconsistent():
    field = QQ
    rows = [[field(1), field(0)], [field(1), field(0)]]
    assert linalg.solve_right(rows, [field(1), field(2)], field) is None


def test_gfp_kernel_matches_generic():
    p = 101
    field = GF(p)
    rng = random.Random(7)
    for _ in range(20):
        rows = [[field(rng.randrange(p)) for _ in range(6)] for _ in range(5)]
        fast = linalg.rank(rows, field)
        slow = len(field_rref(rows, field)[1])
        assert fast == slow


@pytest.mark.parametrize("p", [3, 101, 2**31 - 1])
def test_gfp_pivots_match_generic(p):
    field = GF(p)
    rng = random.Random(p)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 12)
        basis = random_matrix(field, rng, rng.randint(0, min(nrows, ncols)), ncols)
        dead = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
        rows = []
        for _ in range(nrows):
            row = linalg.combine([field.random_element(rng) for _ in basis], basis, field, ncols)
            rows.append([field.zero if c in dead else x for c, x in enumerate(row)])
        fast = linalg.pivots(linalg.matrix(rows, field, ncols), field)
        assert fast == field_rref(rows, field)[1]


def _entries(field):
    """Q: numerators up to 10^20 over denominators <= 7; F_p: residues within
    60 of p, where the fraction-free update multiplies two residues near p."""
    if field == QQ:
        nonzero = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 7))
        return st.one_of(st.just(Fraction(0)), nonzero)
    return st.one_of(st.just(0), st.integers(max(0, field.p - 60), field.p - 1)).map(field)


@st.composite
def _matrices(draw, field, ncols):
    """At least one row, with zero, duplicate and summed rows inserted anywhere."""
    row = st.lists(_entries(field), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    kinds = st.sampled_from(["zero", "copy", "sum"])
    extra = st.tuples(kinds, st.integers(0, 9), st.integers(0, 9))
    for kind, i, j in draw(st.lists(extra, max_size=3)):
        i, j = i % len(rows), j % len(rows)
        new = {
            "zero": [field.zero] * ncols,
            "copy": list(rows[i]),
            "sum": [a + b for a, b in zip(rows[i], rows[j])],
        }[kind]
        rows.insert(j, new)
    return rows


@pytest.mark.parametrize(
    "field", [QQ, GF(3), GF(101), GF(2**31 - 1)], ids=["QQ", "p3", "p101", "p2^31-1"]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_elimination_matches_field_oracle(field, data):
    """rref, rank, the stacked-block oracle and row insertion agree exactly
    with a Gauss–Jordan over field elements, zero-width rows included."""
    ncols = data.draw(st.integers(0, 6))
    rows = data.draw(_matrices(field, ncols))
    want_rows, want_pivots = field_rref(rows, field)
    assert linalg.rref(rows, field) == (want_rows, want_pivots)
    assert linalg.rank(rows, field) == len(want_pivots)
    assert linalg.rank(linalg.matrix(rows, field, ncols), field) == len(want_pivots)
    m_rows = data.draw(_matrices(field, ncols))
    block = linalg.image_block(rows, m_rows, field)
    extended = [
        [sum((a * b for a, b in zip(row, m)), field.zero) for m in m_rows] + row for row in rows
    ]
    counts = data.draw(st.tuples(st.integers(0, len(rows)), st.integers(0, len(rows))))
    stacked = extended[: counts[0]] + extended[: counts[1]]
    want = field_rref(stacked, field)[1]
    assert stacked_pivots([block, block], counts, field) == want
    state = {}
    for i, row in enumerate(block):  # every prefix of the rows, one insertion each
        linalg.insert_row(state, row, field.characteristic)
        assert sorted(state) == field_rref(extended[: i + 1], field)[1]


@pytest.mark.parametrize("field", [GF(2**31 - 1), QQ], ids=["p2^31-1", "QQ"])
def test_image_block_and_stacked_pivots(field):
    """[J·Mᵀ | J] is exact with residues next to 2^31, and the pivots of a
    stack split into rank(F·Mᵀ) before column k and rank F in total, whether
    the stack is eliminated at once or inserted row by row."""
    rng = random.Random(5)
    width, k = 9, 5

    def near_top():
        return field(-1 - rng.randrange(3))  # p - 1, p - 2, p - 3 over F_p

    j_rows = [[near_top() for _ in range(width)] for _ in range(4)]
    j_rows.append(linalg.combine([field(2), field(3)], j_rows[:2], field, width))
    m_rows = [[near_top() for _ in range(width)] for _ in range(k)]
    block = linalg.image_block(j_rows, m_rows, field)
    # integer J and M over Q: the block's rows need no scaling into Z
    as_field = [[field(int(x)) for x in row] for row in block]
    for row, got in zip(j_rows, as_field):
        image = [sum((a * b for a, b in zip(row, m)), field.zero) for m in m_rows]
        assert got == image + row
    for counts in ([5], [3], [0], [2]):
        pivots = stacked_pivots([block], counts, field)
        state = {}
        for row in block[: counts[0]]:
            linalg.insert_row(state, row, field.characteristic)
        assert sorted(state) == pivots
        f_rows = j_rows[: counts[0]]
        image_rows = [r[:k] for r in as_field[: counts[0]]]
        assert len(pivots) == linalg.rank(f_rows, field)
        assert sum(c < k for c in pivots) == linalg.rank(image_rows, field)


@pytest.mark.parametrize("p", [3, 10007, 2**31 - 1])
def test_batch_inverse(p):
    # the inverses of the scan oracle in conftest
    rng = random.Random(p)
    vals = [1, p - 1] + [rng.randrange(1, p) for _ in range(200)]
    got = batch_inverse(np.array(vals, dtype=np.int64), p)
    assert [int(x) for x in got] == [pow(v, -1, p) for v in vals]
    with pytest.raises(ValidationError):  # products of residues would pass 2^62
        batch_inverse(np.array([2], dtype=np.int64), 2**31 + 11)


def _primes_around_bound(n):
    """The largest prime p with n·(p − 1)² < 2^63, where ``matmul`` multiplies
    in plain int64, and the smallest prime past it, where it splits."""
    edge = math.isqrt(((1 << 63) - 1) // n) + 1  # the largest p below the bound
    below = next(q for q in range(edge, 2, -1) if is_prime(q))
    above = next(q for q in range(edge + 1, 2 * edge) if is_prime(q))
    assert n * (below - 1) ** 2 < 1 << 63 <= n * (above - 1) ** 2
    return [below, above]


@pytest.mark.parametrize("n", [1, 14, 192])
def test_matmul_matches_python_ints(n):
    """a @ b mod p against sums of Python ints, on both sides of the int64
    bound and at p = 2^31 - 1, with uniform residues and residues within 60
    of p; stacks of matrices broadcast as in ``@``."""
    rng = random.Random(n)
    for p in [3, 101, 10007, 2**31 - 1, *_primes_around_bound(n)]:
        for low in (0, max(0, p - 60)):
            a = [[[rng.randrange(low, p) for _ in range(n)] for _ in range(4)] for _ in range(2)]
            b = [[[rng.randrange(low, p) for _ in range(3)] for _ in range(n)] for _ in range(2)]
            got = linalg.matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
            want = [
                [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*bk)] for row in ak]
                for ak, bk in zip(a, b)
            ]
            assert got.dtype == np.int64 and got.tolist() == want, p
    # over Q: Python ints in object arrays, no modulus
    a = [[rng.randrange(-(10**30), 10**30) for _ in range(n)] for _ in range(3)]
    b = [[rng.randrange(-(10**30), 10**30) for _ in range(2)] for _ in range(n)]
    got = linalg.matmul(np.array(a, dtype=object), np.array(b, dtype=object), 0)
    assert got.tolist() == [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_matmul_refuses_an_inner_dimension_past_its_bound():
    """At p = 2^31 - 1 the split is exact up to an inner dimension of 2^16 - 1,
    with every residue at p - 1, and refuses 2^16 before multiplying."""
    p, top = 2**31 - 1, (1 << 16) - 1
    a = np.full((1, top), p - 1, dtype=np.int64)
    assert linalg.matmul(a, a.T, p).tolist() == [[top * (p - 1) ** 2 % p]]
    a = np.full((1, top + 1), p - 1, dtype=np.int64)
    with pytest.raises(GapcurveError, match="inner dimension 65536"):
        linalg.matmul(a, a.T, p)


@pytest.mark.parametrize(
    "field", [QQ, GF(3), GF(101), GF(2**31 - 1)], ids=["QQ", "p3", "p101", "p2^31-1"]
)
def test_reduce_matches_stacked_echelon(field):
    """Rows reduced against echelon rows: zero at every pivot, each row minus
    the combination of RREF rows given by its pivot entries (over Q, a
    primitive multiple of it), and with the echelon rows the same echelon
    form as the stack of the echelon rows and the unreduced rows."""
    p = field.characteristic
    rng = random.Random(31 + p)
    for _ in range(25):
        ncols = rng.randrange(1, 10)
        dead = set(rng.sample(range(ncols), rng.randrange(ncols)))
        basis = [
            [field.zero if c in dead else field.random_element(rng) for c in range(ncols)]
            for _ in range(rng.randrange(0, ncols + 1))
        ]
        rows, pivots = linalg.echelon(linalg.matrix(basis, field, ncols), p)
        red = field_rref(basis, field)[0] if basis else []
        targets = random_matrix(field, rng, rng.randrange(1, 5), ncols)
        targets.append([field.zero] * ncols)
        if basis:
            coeffs = [field.random_element(rng) for _ in basis]
            targets.append(linalg.combine(coeffs, basis, field, ncols))
        a = linalg.matrix(targets, field, ncols)
        if not p:  # primitive rows, as products of series are
            a = linalg._primitive(a)
        got = linalg.reduce(a, rows, pivots, p)
        assert got.shape == a.shape and not got[:, pivots].any()
        for row, g in zip(targets, got.tolist()):
            want = list(row)
            for c, u in zip(pivots, red):
                want = [x - row[c] * y for x, y in zip(want, u)]
            if p:
                assert g == [x.value for x in want]
            elif any(want):
                assert proportional(g, want) and math.gcd(*g) == 1
            else:
                assert not any(g)

        def stacked(b):
            return linalg.elements(linalg.echelon(np.vstack([rows, b]), p)[0], field)

        assert stacked(got) == stacked(a)

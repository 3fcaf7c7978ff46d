import random

from gapcurve import linalg
from gapcurve.fields import GF, QQ

from conftest import independent_rank


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
        slow = len(linalg._rref_generic(rows, field)[1])
        assert fast == slow

import math
import random
from itertools import product

import numpy as np
import pytest

from gapcurve import linalg
from gapcurve.errors import MissingUnitError, NotStabilizedError, ValidationError
from gapcurve.fields import GF, QQ, GFElement
from gapcurve.gaps import (
    ALGEBRA_CLOSED,
    VECTOR_SPACE,
    GapFunction,
    close_algebra,
    close_and_stabilize,
    compositions,
    delta_lower_bound,
    key_lemma_holds,
)
from gapcurve.series import INF, Ambient, SeriesSubspace, TruncatedSeries

from conftest import fuzz_space, per_cell_jet_rank, stacked_closure


def monomial_space(field, r, n, exponent_sets, with_unit=True):
    """Subspace spanned by the unit and t_i^k for k in exponent_sets[i].

    Exponents at or above the truncation are dropped, the same way a local
    expansion at precision n would lose them.
    """
    amb = Ambient(field, r, n)
    vecs = [TruncatedSeries.unit(amb)] if with_unit else []
    for i, ks in enumerate(exponent_sets):
        for k in ks:
            if k < n:
                vecs.append(TruncatedSeries.monomial(amb, i, k))
    return SeriesSubspace.span(amb, vecs)


def closed_gap(field, r, n, exponent_sets):
    return GapFunction(close_algebra(monomial_space(field, r, n, exponent_sets)), ALGEBRA_CLOSED)


def cusp_gap(field=QQ, n=10):
    return closed_gap(field, 1, n, [[2, 3]])


def node_gap(field=QQ, n=8):
    amb = Ambient(field, 2, n)
    vecs = [
        TruncatedSeries.unit(amb),
        TruncatedSeries.monomial(amb, 0, 1),
        TruncatedSeries.monomial(amb, 1, 1) + TruncatedSeries.monomial(amb, 0, 1),
    ]
    # span{1, t1, t1+t2} closes to the full ring; the node is the subring
    # generated by {1, (t1, 0), (0, t2)}... build it directly instead:
    vecs = [
        TruncatedSeries.unit(amb),
        TruncatedSeries.monomial(amb, 0, 1),
        TruncatedSeries.monomial(amb, 1, 1),
    ]
    return GapFunction(close_algebra(SeriesSubspace.span(amb, vecs)), ALGEBRA_CLOSED)


def test_close_algebra_cusp():
    space = monomial_space(QQ, 1, 8, [[2, 3]])
    closed = close_algebra(space)
    # contains t^k for all 2 <= k < 8: codimension 1 in the full jet space
    assert closed.dim == 8 - 1
    gap = GapFunction(closed, ALGEBRA_CLOSED)
    assert gap((4,)) == 1  # single gap at 1


def test_close_algebra_idempotent():
    space = monomial_space(GF(101), 1, 8, [[2, 3]])
    closed = close_algebra(space)
    again = close_algebra(closed)
    assert again.rows == closed.rows


def test_close_algebra_missing_unit():
    amb = Ambient(QQ, 1, 6)
    space = SeriesSubspace.span(amb, [TruncatedSeries.monomial(amb, 0, 1)])
    with pytest.raises(MissingUnitError):
        close_algebra(space)


def test_close_algebra_mixed_generator():
    # span{1, t^2, t^4 + t^5, t^6, t^7} at N=12: closure picks up t^4 (square of
    # t^2) hence t^5, leaving exactly the gaps {1, 3}.
    amb = Ambient(QQ, 1, 12)
    vecs = [
        TruncatedSeries.unit(amb),
        TruncatedSeries.monomial(amb, 0, 2),
        TruncatedSeries.monomial(amb, 0, 4) + TruncatedSeries.monomial(amb, 0, 5),
        TruncatedSeries.monomial(amb, 0, 6),
        TruncatedSeries.monomial(amb, 0, 7),
    ]
    closed = close_algebra(SeriesSubspace.span(amb, vecs))
    assert closed.dim == 12 - 2
    gap = GapFunction(closed, ALGEBRA_CLOSED)
    assert gap.degree() == 2


def naive_closure(space):
    """All-products fixpoint: multiply every row by every row until the span stops growing."""
    amb = space.ambient
    rows = space.rows
    while True:
        elems = [TruncatedSeries.from_flat(amb, row) for row in rows]
        products = [(a * b).flat() for a in elems for b in elems]
        grown, pivots = linalg.rref(rows + products, amb.field)
        if len(grown) == len(rows):
            return grown, pivots
        rows = grown


@pytest.mark.parametrize("field", [QQ, GF(101), GF(3)], ids=["rational", "Fp:101", "Fp:3"])
def test_close_algebra_matches_all_products_oracle(field):
    rng = random.Random(20190527)
    for _ in range(15):
        r = rng.randrange(1, 4)
        n = rng.randrange(3, 13)
        amb = Ambient(field, r, n)
        vecs = [TruncatedSeries.unit(amb)]
        for _ in range(rng.randrange(1, 4)):
            terms = [
                (rng.randrange(r), rng.randrange(n), field.random_element(rng))
                for _ in range(rng.randrange(1, 4))
            ]
            vecs.append(TruncatedSeries.from_monomials(amb, terms))
        space = SeriesSubspace.span(amb, vecs)
        closed = close_algebra(space)
        if field == QQ:  # integer rows in the shared kernel, boxed only by .rows
            assert closed._rows.dtype == object
            assert all(type(x) is int for x in closed._rows.flat)
        assert (closed.rows, closed.pivots) == naive_closure(space)


@pytest.mark.parametrize(
    "field, r",
    [(GF(2**31 - 1), 2), (GF(3), 3), (GF(3), 4)],
    ids=["p=2^31-1", "Fp:3-r3", "Fp:3-r4"],
)
def test_int64_closure_matches_boxed_oracle(field, r):
    """The int64 closure against the boxed all-products fixpoint.

    At p = 2^31 - 1 every coefficient sits just below p, so the products of
    two residues come close to the 2^62 bound.  Over GF(3) the constant terms
    are random, so with r = 4 > p the unit test needs its search, and some
    spaces hold no unit at all.
    """
    p = field.p
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(12):
        n = rng.randrange(3, 9)
        amb = Ambient(field, r, n)
        vecs = [
            TruncatedSeries.from_monomials(amb, [(i, 0, rng.randrange(1, p)) for i in range(r)])
        ] if p > r else []
        for _ in range(rng.randrange(2, 5)):
            terms = [(i, 0, rng.randrange(p)) for i in range(r)] if p <= r else []
            terms += [
                (rng.randrange(r), rng.randrange(1, n), rng.randrange(max(1, p - 60), p))
                for _ in range(rng.randrange(1, 4))
            ]
            vecs.append(TruncatedSeries.from_monomials(amb, terms))
        space = SeriesSubspace.span(amb, vecs)
        assert isinstance(space._rows, np.ndarray) and space._rows.dtype == np.int64
        outcomes.add(space.contains_unit())
        if not space.contains_unit():
            with pytest.raises(MissingUnitError):
                close_algebra(space)
            continue
        closed = close_algebra(space)
        assert all(isinstance(x, GFElement) for row in closed.rows for x in row)
        assert (closed.rows, closed.pivots) == naive_closure(space)
    if p <= r:
        assert outcomes == {True, False}


@pytest.mark.parametrize("n", [14, 64])
@pytest.mark.parametrize(
    "field", [GF(3), GF(101), GF(2**31 - 1), QQ], ids=["Fp:3", "Fp:101", "p=2^31-1", "rational"]
)
def test_close_algebra_matches_stacked_closure(field, n):
    """The closure, which echelonizes only each round's residue, against the
    stacking loop, which echelonizes the old rows and the products together,
    on spaces drawn as ``fuzz-key-lemma`` draws them, up to the truncation
    cap.  Over F_p the int64 arrays agree; over Q the boxed RREF, and every
    row is primitive."""
    rng = random.Random(n + field.characteristic)
    for r in (1, 2, 3):
        for _ in range(2):
            space = fuzz_space(field, rng, r, n)
            closed = close_algebra(space)
            rows, pivots = stacked_closure(space)
            assert closed.pivots == pivots
            if field.characteristic:
                assert closed._rows.dtype == np.int64 and np.array_equal(closed._rows, rows)
            else:
                assert closed.rows == linalg.elements(rows, field)
                assert all(math.gcd(*row) == 1 for row in closed._rows.tolist())


def test_gap_eval_golden_values():
    # cusp: 0, 1, 1, ... so lambda(4) = 1
    assert cusp_gap()((4,)) == 1
    # (2,5)-cusp: 0, 1, 1, 2, ...
    g25 = closed_gap(QQ, 1, 12, [[2, 5]])
    assert [g25((k,)) for k in range(1, 6)] == [0, 1, 1, 2, 2]
    assert g25((4,)) == 2


def test_gap_eval_tacnode():
    amb = Ambient(QQ, 2, 8)
    x = TruncatedSeries.monomial(amb, 0, 1) + TruncatedSeries.monomial(amb, 1, 1)
    y = TruncatedSeries.monomial(amb, 1, 2)
    closed = close_algebra(SeriesSubspace.span(amb, [TruncatedSeries.unit(amb), x, y]))
    gap = GapFunction(closed, ALGEBRA_CLOSED)
    assert gap((2, 2)) == 2
    assert gap((1, 1)) == 1
    assert gap.degree() == 2


def test_gap_monotone_memo():
    gap = cusp_gap()
    assert gap((0,)) == 0
    assert gap((1,)) == 0
    for k in range(9):
        assert gap((k + 1,)) - gap((k,)) in (0, 1)


def test_truncation_exceeded_error():
    gap = cusp_gap(n=6)
    with pytest.raises(NotStabilizedError):
        gap((7,))


def test_marked_in_semigroup():
    view = cusp_gap().semigroup()
    assert not view.marked_in((1,), 0)  # 1 not in {0, 2, 3, ...}
    assert view.marked_in((2,), 0)
    nview = node_gap().semigroup()
    assert nview.marked_in((1, 1), 0)  # the (1, inf) element
    assert nview.marked_in((1, 1), 1)
    with pytest.raises(ValidationError):
        nview.marked_in((1, 1), 2)


def test_is_standard():
    assert node_gap().is_standard()
    amb = Ambient(QQ, 1, 6)
    no_unit = SeriesSubspace.span(amb, [TruncatedSeries.monomial(amb, 0, 1)])
    assert not GapFunction(no_unit, VECTOR_SPACE).is_standard()  # lambda(1) = 1
    amb2 = Ambient(QQ, 2, 6)
    full = SeriesSubspace.span(
        amb2,
        [
            TruncatedSeries.monomial(amb2, i, k)
            for i in range(2)
            for k in range(6)
        ],
    )
    assert not GapFunction(full, VECTOR_SPACE).is_standard()  # lambda(1,1) = 0 != 1


def test_degree_golden():
    assert cusp_gap().degree() == 1
    g27 = closed_gap(QQ, 1, 16, [[2, 7]])
    assert g27.degree() == 3
    triple = closed_gap(GF(101), 3, 8, [[1], [1], [1]])
    assert triple.degree() == 2


def test_degree_requires_closed():
    amb = Ambient(QQ, 1, 8)
    space = SeriesSubspace.span(amb, [TruncatedSeries.unit(amb)])
    with pytest.raises(ValidationError):
        GapFunction(space, VECTOR_SPACE).degree()


def test_degree_not_stabilized():
    # (2,7)-cusp has delta = 3, needs N >= 8
    g = closed_gap(QQ, 1, 6, [[2, 7]])
    with pytest.raises(NotStabilizedError):
        g.degree()


def test_degree_vs_generator_jet_codim():
    # degree(close(R')) <= codim of R' jets at the corner (R' inside closure)
    rng = random.Random(5)
    field = GF(101)
    for _ in range(10):
        n = 12
        exps = sorted(rng.sample(range(2, 7), rng.randrange(1, 3)))
        space = monomial_space(field, 1, n, [exps])
        closed = close_algebra(space)
        gap = GapFunction(closed, ALGEBRA_CLOSED)
        try:
            d = gap.degree()
        except NotStabilizedError:
            continue
        assert d <= (n - 1) - space.jet_rank((n - 1,))


def test_upward_propagation_r2():
    rng = random.Random(11)
    field = GF(101)
    for _ in range(15):
        n = 10
        e0 = sorted(set(rng.sample(range(1, 5), rng.randrange(1, 3))))
        e1 = sorted(set(rng.sample(range(1, 5), rng.randrange(1, 3))))
        gap = closed_gap(field, 2, n, [e0, e1])
        for i in range(1, 5):
            for j in range(1, 4):
                if gap((i, j)) < gap((i + 1, j)):
                    for k in range(j + 1, 5):
                        assert gap((i, k)) < gap((i + 1, k))


def test_zero_on_small_alpha_for_closed_with_unit():
    gap = node_gap()
    r = gap.arity
    assert gap((0,) * r) == 0
    for i in range(r):
        assert gap(tuple(1 if j == i else 0 for j in range(r))) == 0


def test_key_lemma_trivial_and_fuzz():
    gap = cusp_gap()
    assert key_lemma_holds(gap, 1)
    # 100 random monomial subalgebras with r <= 3: never a counterexample
    rng = random.Random(20260808)
    field = GF(101)
    checked = 0
    while checked < 100:
        r = rng.randrange(1, 4)
        n = 16
        exps = [sorted(set(rng.sample(range(1, 6), rng.randrange(1, 4)))) for _ in range(r)]
        gap = closed_gap(field, r, n, exps)
        try:
            d = gap.degree()
        except NotStabilizedError:
            continue
        for gamma in (d, d + 1, max(0, d - 1)):
            if gap.truncation >= 2 * gamma + 2:
                assert key_lemma_holds(gap, gamma), (exps, gamma)
        checked += 1


def test_key_lemma_example_shape():
    # r = 2 with gamma = 3: hypothesis window reaches |alpha| <= 8
    gap = closed_gap(QQ, 2, 10, [[2, 3], [2, 3]])
    assert key_lemma_holds(gap, 3)


def test_key_lemma_truncation_guard():
    gap = closed_gap(QQ, 1, 6, [[2, 3]])
    with pytest.raises(NotStabilizedError):
        key_lemma_holds(gap, 3)  # needs N >= 8


def test_compositions():
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(5, 3))) == 21


def test_close_and_stabilize_escalates():
    field = QQ

    def builder(n):
        amb = Ambient(field, 1, n)
        vecs = [TruncatedSeries.unit(amb), TruncatedSeries.monomial(amb, 0, 2)]
        if 7 < n:
            vecs.append(TruncatedSeries.monomial(amb, 0, 7))
        return amb, vecs

    span, closed, gap, delta = close_and_stabilize(builder, start_truncation=4)
    assert delta == 3
    assert gap.truncation >= 8
    assert span.ambient == closed.ambient and span.dim == 3


def test_helper_lemma_on_standard_gaps():
    # for standard gap functions: alpha with some coordinates equal to one,
    # |alpha| > 2*gamma + 2 - (#ones), dominated values <= gamma  =>  value <= gamma
    rng = random.Random(3)
    field = GF(101)
    for _ in range(10):
        gap = closed_gap(field, 2, 12, [sorted(set(rng.sample(range(1, 4), 2))), [1]])
        if not gap.is_standard():
            continue
        d = gap.degree()
        gamma = max(d, 1)
        for alpha in [(2 * gamma + 2, 1), (2 * gamma + 3, 1)]:
            ones = sum(1 for a in alpha if a == 1)
            if sum(alpha) <= 2 * gamma + 2 - ones:
                continue
            dominated_ok = all(
                gap((i, j)) <= gamma
                for i in range(1, alpha[0] + 1)
                for j in range(1, alpha[1] + 1)
                if (i, j) != alpha
            )
            if dominated_ok:
                assert gap(alpha) <= gamma


@pytest.mark.parametrize(
    "field", [QQ, GF(3), GF(101), GF(2**31 - 1)], ids=["QQ", "p3", "p101", "p2^31-1"]
)
def test_line_filled_memo_matches_per_cell_jet_rank(field):
    """A miss fills the whole window line below the cell from one elimination.

    Every memo entry, filled or asked for, equals |alpha| minus the per-cell
    jet rank, and so does jet_rank itself, for r = 1..4 and cells asked for
    in a random order."""
    rng = random.Random(20261020)
    filled = False
    for r in (1, 2, 3, 4):
        for _ in range(3):
            n = rng.randrange(2, 6)
            amb = Ambient(field, r, n)
            sparse = rng.random() < 0.5
            vecs = [
                [field.random_element(rng) if not sparse or rng.random() < 0.3 else field.zero
                 for _ in range(amb.width)]
                for _ in range(rng.randrange(1, amb.width + 1))
            ]
            space = SeriesSubspace.span(amb, vecs)
            gap = GapFunction(space, VECTOR_SPACE)
            cells = list(product(range(n + 1), repeat=r))
            rng.shuffle(cells)
            for alpha in cells[:40]:
                want = sum(alpha) - per_cell_jet_rank(space, alpha)
                assert gap(alpha) == want, alpha
                assert space.jet_rank(alpha) == per_cell_jet_rank(space, alpha), alpha
            for alpha, value in gap._memo.items():
                assert value == sum(alpha) - per_cell_jet_rank(space, alpha), alpha
            filled |= len(gap._memo) > len(cells[:40])
    assert filled  # the lines filled cells nobody asked for


def test_no_window_line_is_eliminated_twice(monkeypatch):
    """Every caller asks a window line from its top, so each (space, line head)
    pair reaches the elimination once: over the fingerprints of the model
    algebras, over analyze of clusters with two and four branches, and over a
    key-lemma fuzz job."""
    import gapcurve as gc
    from gapcurve import classify, cli

    heads = []
    real = SeriesSubspace._line_ranks

    def counted(space, alpha):
        heads.append((space, tuple(alpha[:-1])))  # the space itself keeps its id unique
        return real(space, alpha)

    monkeypatch.setattr(SeriesSubspace, "_line_ranks", counted)
    monkeypatch.setattr(classify, "_fingerprint_index", None)
    classify._fingerprints()
    for field, label, count in ((QQ, "3.2.f", 2), (GF(101), "3.4", 4)):
        curve = gc.RationalNormalCurve(field, 8)
        points = [curve.point(a, 1) for a in (2, 5, 7)][: count - 1] + [curve.point(1, 0)]
        center = gc.sample_center(gc.stratum_spec(label, points, curve, 3), 1, curve)
        [cluster] = gc.analyze(center, curve, clusters=[points]).clusters
        assert (cluster.type_label, len(cluster.points)) == (label, count)
    job = cli.JobSpec({"command": "fuzz-key-lemma", "field": "Fp:101", "params": {"count": 4}})
    assert cli.run(job)[1]["result"]["all_hold"]
    assert len(heads) > 100
    assert len(set(heads)) == len(heads)


# ---------------------------------------------------------------------------
# the lower bound on delta from column supports


def random_unit_space(field, rng, r, n):
    """A unit with random nonzero constant terms (and sometimes higher terms),
    the fuzz draws t^e + c t^(e+1) per branch, and up to two vectors across
    random branches whose terms may be constant."""
    amb = Ambient(field, r, n)

    def nonzero():
        x = field.random_element(rng)
        return x if x else field.one

    unit = [(i, 0, nonzero()) for i in range(r)]
    unit += [(i, rng.randrange(1, 4), field.random_element(rng)) for i in range(r) if rng.random() < 0.3]
    vectors = [TruncatedSeries.from_monomials(amb, unit)]
    for i in range(r):
        for e in sorted({rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))}):
            terms = [(i, e, field.one)]
            if rng.random() < 0.5:
                terms.append((i, e + 1, field.random_element(rng)))
            vectors.append(TruncatedSeries.from_monomials(amb, terms))
    for _ in range(rng.randrange(3)):
        branches = rng.sample(range(r), rng.randrange(1, r + 1))
        terms = [(i, rng.randrange(5), field.random_element(rng)) for i in branches]
        vectors.append(TruncatedSeries.from_monomials(amb, terms))
    return SeriesSubspace.span(amb, vectors)


@pytest.mark.parametrize(
    "field", [GF(3), GF(101), GF(2**31 - 1), QQ], ids=["Fp:3", "Fp:101", "p=2^31-1", "rational"]
)
def test_delta_lower_bound_below_every_certified_degree(field):
    """Soundness against the closure: whenever degree() certifies delta, the
    bound read before any closure is at most delta; and it is delta itself on
    most spaces, so it is no vacuous 0."""
    rng = random.Random(28 + field.characteristic)
    certified = tight = 0
    for n in (8, 14, 20):
        for r in (1, 2, 3):
            for _ in range(30):
                space = random_unit_space(field, rng, r, n)
                bound = delta_lower_bound(space)
                gap = GapFunction(close_algebra(space), ALGEBRA_CLOSED)
                try:
                    delta = gap.degree()
                except NotStabilizedError:
                    continue
                assert bound <= delta, (n, space.rows)
                certified += 1
                tight += bound == delta
    assert certified >= 150
    assert tight >= 0.8 * certified


def _series_space(field, r, n, vectors):
    """The span of vectors given as lists of (branch, exponent, coeff) terms."""
    amb = Ambient(field, r, n)
    return SeriesSubspace.span(amb, [TruncatedSeries.from_monomials(amb, v) for v in vectors])


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["Fp:3", "rational"])
def test_delta_lower_bound_named_spaces(field):
    one = [(0, 0, 1)]
    cases = [
        (1, [one, [(0, 2, 1)], [(0, 3, 1)]], 1),  # the cusp
        (2, [[(0, 0, 1), (1, 0, 1)], [(0, 1, 1)], [(1, 1, 1)]], 1),  # the node
        (1, [one, [(0, 2, 1), (0, 3, 1)]], INF),  # K[t^2 + t^3]
        (2, [[(0, 0, 1), (1, 0, 1)], [(0, 1, 1)], [(1, 2, 1)], [(1, 4, 1)]], INF),  # gcd 2
        # t^3 of t^2 + t^3 counts: (t^2 + t^3)^2 - t^4 has order 5, delta is 2
        (1, [one, [(0, 2, 1), (0, 3, 1)], [(0, 4, 1)]], 1),
        # constant terms (1, 1, 1) and (1, 1, 0): two blocks of branches
        (3, [[(0, 0, 1), (1, 0, 1), (2, 0, 1)], [(0, 0, 1), (1, 0, 1)]]
            + [[(i, 1, 1)] for i in range(3)], 1),
    ]
    for r, vectors, want in cases:
        assert delta_lower_bound(_series_space(field, r, 14, vectors)) == want, vectors
    # the last two against their closures: the bound need not be delta
    for r, vectors, delta in ((1, cases[4][1], 2), (3, cases[5][1], 1)):
        gap = GapFunction(close_algebra(_series_space(field, r, 14, vectors)), ALGEBRA_CLOSED)
        assert gap.degree() == delta

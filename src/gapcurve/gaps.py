"""Gap functions of subspaces and subalgebras of the truncated ring.

The gap function of a subspace R of S sends an exponent vector alpha to the
codimension of R's jet image inside the jet space of size |alpha|.  For
algebra-closed R the function stabilizes and its supremum is the singularity
degree delta; membership of marked elements in the valuation semigroup can be
read off from equalities between adjacent gap values.

A GapFunction memoizes its evaluations; a miss at alpha fills the whole window
line (alpha_1, ..., alpha_{r-1}, a) for a <= alpha_r from one elimination.  The
memo is a plain dict, so one instance is single-threaded by contract; use
clone() to hand copies to other threads.  Everything else in this module is
immutable.

delta_lower_bound reads a lower bound on delta from a space's column supports
alone, before any closure: the constant terms generate only functions that
are constant on blocks of branches, and products add exponents only inside
the monoid of the exponents each branch uses.
"""

from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np

from . import linalg
from .errors import (
    MissingUnitError,
    NotStabilizedError,
    StabilizationCapError,
    ValidationError,
)
from .series import INF, SeriesSubspace, _products

VECTOR_SPACE = "vector-space"
ALGEBRA_CLOSED = "algebra-closed"

TRUNCATION_CAP = 64


class GapFunction:
    """Memoized gap function over a SeriesSubspace backend."""

    def __init__(self, backend: SeriesSubspace, kind: str):
        if kind not in (VECTOR_SPACE, ALGEBRA_CLOSED):
            raise ValidationError(f"unknown gap-function kind {kind!r}")
        self.backend = backend
        self.kind = kind
        self._memo: dict[tuple, int] = {}

    @property
    def arity(self) -> int:
        return self.backend.ambient.branches

    @property
    def truncation(self) -> int:
        return self.backend.ambient.truncation

    def clone(self) -> "GapFunction":
        g = GapFunction(self.backend, self.kind)
        g._memo = dict(self._memo)
        return g

    def __call__(self, alpha) -> int:
        alpha = tuple(alpha)
        v = self._memo.get(alpha)
        if v is None:
            for a in alpha:
                if a > self.truncation:
                    raise NotStabilizedError(
                        f"exponent vector {alpha} exceeds truncation N={self.truncation}"
                    )
            # one elimination gives the whole window line below alpha
            head, base = alpha[:-1], sum(alpha[:-1])
            for a, rank in enumerate(self.backend._line_ranks(alpha)):
                self._memo[head + (a,)] = base + a - rank
            v = self._memo[alpha]
        return v

    # -- structural predicates ------------------------------------------------

    def is_standard(self) -> bool:
        """lambda(e_i) = 0 for every i, and lambda(1,...,1) = r - 1."""
        if self.truncation < 2:
            raise NotStabilizedError("standardness needs truncation >= 2")
        r = self.arity
        ones = self((1,) * r)  # first: at r = 2 its window line holds e_1
        for i in range(r):
            e = tuple(1 if j == i else 0 for j in range(r))
            if self(e) != 0:
                return False
        return ones == r - 1

    def degree(self) -> int:
        """delta = sup of the gap function, certified at the truncation corner.

        Requires an algebra-closed backend.  Raises NotStabilizedError when
        the corner value has not stabilized or the truncation cannot certify
        it (N < 2*delta + 2); the caller should retry with a larger N.
        """
        if self.kind != ALGEBRA_CLOSED:
            raise ValidationError("degree is defined for algebra-closed backends")
        n = self.truncation
        r = self.arity
        # the last bump tops the corner's window line: asked first, one elimination
        bumps = [tuple(n if j == i else n - 1 for j in range(r)) for i in reversed(range(r))]
        self(bumps[0])
        d = self((n - 1,) * r)
        for bumped in bumps:
            if self(bumped) != d:
                raise NotStabilizedError(
                    f"gap value still moving at the truncation corner (N={n})"
                )
        if n < 2 * d + 2:
            raise NotStabilizedError(
                f"truncation N={n} cannot certify delta={d} (need N >= {2 * d + 2})"
            )
        return d

    def semigroup(self) -> "SemigroupView":
        return SemigroupView(self)


class SemigroupView:
    """Marked-membership queries against the valuation semigroup of R."""

    def __init__(self, gap: GapFunction):
        if gap.kind != ALGEBRA_CLOSED:
            raise ValidationError("semigroup view needs an algebra-closed gap function")
        self.gap = gap

    def marked_in(self, alpha, i: int) -> bool:
        """alpha[i] belongs to Sigma iff lambda(alpha) = lambda(alpha + e_i)."""
        alpha = tuple(alpha)
        r = self.gap.arity
        if not 0 <= i < r:
            raise ValidationError(f"branch index {i} out of range for r={r}")
        bumped = tuple(a + (1 if j == i else 0) for j, a in enumerate(alpha))
        return self.gap(alpha) == self.gap(bumped)

    def contains(self, alpha) -> bool:
        return all(self.marked_in(alpha, i) for i in range(self.gap.arity))


def marked_in_semigroup(view: SemigroupView, alpha, i: int) -> bool:
    return view.marked_in(alpha, i)


def is_standard(gap: GapFunction) -> bool:
    return gap.is_standard()


def degree(gap: GapFunction) -> int:
    return gap.degree()


def gap_eval(gap: GapFunction, alpha) -> int:
    return gap(alpha)


# ---------------------------------------------------------------------------


def close_algebra(space: SeriesSubspace) -> SeriesSubspace:
    """Smallest multiplicatively closed subspace containing the input.

    The input must contain a unit of S; this is a modeling requirement, not a
    convenience default, so no unit is ever adjoined silently.  The result is
    exact as a jet image of the generated subalgebra at the ambient precision.

    Rounds multiply only the frontier by the input generators R0.  The frontier
    is the rows with new pivots, a complement N of the old span T, and T.R0 lies
    in T + N.R0, so the loop ends once N.R0 lies in T.  Each round reduces the
    products against the echelon rows of T (``linalg.reduce``), drops the zero
    rows and echelonizes only the residue; its rows are the next frontier.  The
    rows of T are reduced by those, and the two sets merge by pivot, which
    gives the echelon form of the whole stack.
    """
    if not space.contains_unit():
        raise MissingUnitError(
            "subspace contains no unit of S (all-branch nonzero constant term)"
        )
    ambient = space.ambient
    p = ambient.field.characteristic
    frontier = generators = rows = space._rows
    pivots = list(space.pivots)
    while len(pivots) < ambient.width:  # a full space is closed
        products = _products(frontier, generators, ambient.branches, p)
        residue = linalg.reduce(products, rows, pivots, p)
        residue = residue[residue.any(axis=1)]
        if not len(residue):
            break
        frontier, new = linalg.echelon(residue, p)
        order = np.argsort(pivots + new)
        rows = np.vstack([linalg.reduce(rows, frontier, new, p), frontier])[order]
        pivots = sorted(pivots + new)
    return SeriesSubspace(ambient, rows, pivots)


def delta_lower_bound(space: SeriesSubspace):
    """A lower bound on delta of the algebra A that a unit-containing space R
    generates, from its column supports alone; INF when delta is infinite.

    delta = dim S / A splits as the codimension of A's constant terms in K^r
    plus that of A's part without them.  The constant terms of A are the
    algebra the columns of R's constant terms generate, functions constant
    where those columns agree: r minus the number of distinct columns.  On
    branch i every element of A has its exponents in the monoid <E_i> of the
    exponents >= 1 that R uses there, so each positive integer outside it is
    missing: infinitely many when gcd(E_i) != 1, or when R's branch-i part
    without constant terms is spanned by one g of order >= 2, as A's branch-i
    projection then lies in K[[g]].
    """
    n = space.ambient.truncation
    rows = space._rows
    bound = space.ambient.branches - len({tuple(c) for c in rows[:, ::n].T.tolist()})
    for i in range(space.ambient.branches):
        block = rows[:, i * n + 1 : (i + 1) * n]
        used = (np.flatnonzero(block.any(axis=0)) + 1).tolist()
        if gcd(*used) != 1:  # gcd() = 0 for a branch without positive exponents
            return INF
        if used[0] >= 2 and linalg.rank(block, space.field) == 1:
            return INF
        bound += _monoid_gaps(used)
    return bound


def _monoid_gaps(generators: list) -> int:
    """How many positive integers lie outside the monoid that the ascending
    generators, of gcd 1, generate; past a run of generators[0] members every
    integer is a member."""
    member = [True]
    run = gaps = 0
    while run < generators[0]:
        k = len(member)
        member.append(any(member[k - g] for g in generators if g <= k))
        run = run + 1 if member[k] else 0
        gaps += not member[k]
    return gaps


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex(bound: int, parts: int, minimum: int = 0):
    """All tuples with entries >= minimum and coordinate sum <= bound."""
    ranges = [range(minimum, bound + 1)] * parts
    for alpha in product(*ranges):
        if sum(alpha) <= bound:
            yield alpha


def key_lemma_holds(gap: GapFunction, gamma: int) -> bool:
    """Check the degree-bound implication on an algebra-closed gap function.

    hypothesis: lambda(alpha) <= gamma for every |alpha| <= 2*gamma + 2;
    conclusion: delta(lambda) <= gamma.  Returns True when the hypothesis
    fails or when both hold; a False return is a bug-or-counterexample alarm.
    """
    if gap.kind != ALGEBRA_CLOSED:
        raise ValidationError("key-lemma check needs an algebra-closed gap function")
    bound = 2 * gamma + 2
    if gap.truncation < bound:
        raise NotStabilizedError(
            f"truncation N={gap.truncation} too small to decide (need >= {bound})"
        )
    # monotonicity: checking the maximal slice |alpha| = bound covers the simplex
    hypothesis = all(gap(alpha) <= gamma for alpha in compositions(bound, gap.arity))
    if not hypothesis:
        return True
    return gap.degree() <= gamma


def close_and_stabilize(builder, start_truncation: int, cap: int = TRUNCATION_CAP):
    """Close an algebra and certify its degree, escalating the truncation.

    ``builder(N)`` must return (ambient, vectors) regenerated at precision N;
    the vectors may be one array of flat rows from ``linalg.matrix`` (int64
    residues over F_p, integer rows over Q, each any nonzero multiple of its
    vector).
    Doubles N on stabilization failures, up to ``cap``.  Returns (span, closed
    subspace, gap function, delta); span is the vectors' span at the final N, so
    a caller never builds or spans them again.
    """
    n = max(2, start_truncation)
    corner_trace = []
    while True:
        ambient, vectors = builder(n)
        space = SeriesSubspace.span(ambient, vectors)
        closed = close_algebra(space)
        gap = GapFunction(closed, ALGEBRA_CLOSED)
        try:
            return space, closed, gap, gap.degree()
        except NotStabilizedError:
            corner_trace.append(gap((n - 1,) * ambient.branches))
            if 2 * n > cap:
                if len(corner_trace) >= 2 and corner_trace[-1] > corner_trace[-2]:
                    raise StabilizationCapError(
                        "infinite or undecided codimension at cap "
                        f"(corner gap values {corner_trace})"
                    ) from None
                raise StabilizationCapError(
                    f"not stabilized at truncation cap {cap}"
                ) from None
            n *= 2

"""Gap functions of subspaces and subalgebras of the truncated ring.

The gap function of a subspace R of S sends an exponent vector alpha to the
codimension of R's jet image inside the jet space of size |alpha|.  For
algebra-closed R the function stabilizes and its supremum is the singularity
degree delta; membership of marked elements in the valuation semigroup can be
read off from equalities between adjacent gap values.

A GapFunction memoizes its evaluations.  The memo is a plain dict, so one
instance is single-threaded by contract; use clone() to hand copies to other
threads.  Everything else in this module is immutable.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    MissingUnitError,
    NotStabilizedError,
    StabilizationCapError,
    ValidationError,
)
from . import linalg
from .series import SeriesSubspace, TruncatedSeries, quotient_dim

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
            v = quotient_dim(self.backend, alpha)
            self._memo[alpha] = v
        return v

    # -- structural predicates ------------------------------------------------

    def is_standard(self) -> bool:
        """lambda(e_i) = 0 for every i, and lambda(1,...,1) = r - 1."""
        if self.truncation < 2:
            raise NotStabilizedError("standardness needs truncation >= 2")
        r = self.arity
        for i in range(r):
            e = tuple(1 if j == i else 0 for j in range(r))
            if self(e) != 0:
                return False
        return self((1,) * r) == r - 1

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
        corner = (n - 1,) * r
        d = self(corner)
        for i in range(r):
            bumped = tuple(n if j == i else n - 1 for j in range(r))
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

    Rounds multiply only the frontier by the input generators R0 and run one
    rref.  The frontier is the rows with new pivots, a complement N of the old
    span T, and T.R0 lies in T + N.R0, so the loop ends once T.R0 lies in T.
    """
    if not space.contains_unit():
        raise MissingUnitError(
            "subspace contains no unit of S (all-branch nonzero constant term)"
        )
    ambient = space.ambient
    generators = space.basis()
    rows, pivots = space.rows, space.pivots
    frontier = generators
    while frontier:
        products = [(f * g).flat() for f in frontier for g in generators]
        old = set(pivots)
        rows, pivots = linalg.rref(rows + products, ambient.field)
        frontier = [
            TruncatedSeries.from_flat(ambient, row)
            for row, pc in zip(rows, pivots)
            if pc not in old
        ]
    return SeriesSubspace(ambient, rows, pivots)


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

    ``builder(N)`` must return (ambient, vectors) regenerated at precision N.
    Doubles N on stabilization failures, up to ``cap``.  Returns
    (closed subspace, gap function, delta).
    """
    n = max(2, start_truncation)
    corner_trace = []
    while True:
        ambient, vectors = builder(n)
        space = SeriesSubspace.span(ambient, vectors)
        closed = close_algebra(space)
        gap = GapFunction(closed, ALGEBRA_CLOSED)
        try:
            return closed, gap, gap.degree()
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

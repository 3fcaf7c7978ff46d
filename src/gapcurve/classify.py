"""The complete classification of singularity degree <= 3.

Three bodies of table data live here:

* the 21 concrete singularity types with their (delta, branch count) pairs;
* local models: generators, relations, and marked semigroup elements for
  each type (relations are documentation data, validated by substitution);
* the vector-space conditions that read a type off the gap function of a
  finite-dimensional unit-containing subspace, including the two pairs that
  a vector-space gap function alone cannot separate.

Ring-side classification matches a canonicalized fingerprint (the gap values
on |alpha| <= 2*delta, minimized over branch permutations) against the
fingerprints of the model algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import ClassificationError, NotStabilizedError, ValidationError
from .fields import QQ
from .gaps import ALGEBRA_CLOSED, VECTOR_SPACE, GapFunction, close_algebra, simplex
from .series import INF, Ambient, SeriesSubspace, TruncatedSeries


@dataclass(frozen=True)
class SingularityType:
    label: str
    delta: int
    branches: int

    @property
    def is_smooth(self) -> bool:
        return self.label == "Smooth"

    @property
    def is_ambiguous(self) -> bool:
        return self.label.startswith("Ambiguous(")

    def members(self) -> tuple["SingularityType", ...]:
        """The two concrete candidates of an ambiguous result."""
        if not self.is_ambiguous:
            return (self,)
        inner = self.label[len("Ambiguous(") : -1]
        return tuple(concrete_type(lbl) for lbl in inner.split("|"))

    def __str__(self):
        return self.label


_TYPE_TABLE = {
    # label: (delta, branches, description)
    "1.1": (1, 1, "cusp"),
    "1.2": (1, 2, "node"),
    "2.1.a": (2, 1, "(3,4,5)-cusp"),
    "2.1.b": (2, 1, "rhamphoid cusp"),
    "2.2.a": (2, 2, "tacnode"),
    "2.2.b": (2, 2, "cusp with smooth branch"),
    "2.3": (2, 3, "ordinary triple point"),
    "3.1.a": (3, 1, "(4,5,6,7)-cusp"),
    "3.1.b": (3, 1, "(3,5,7)-cusp"),
    "3.1.c": (3, 1, "(3,4)-cusp"),
    "3.1.d": (3, 1, "(2,7)-cusp"),
    "3.2.a": (3, 2, "(3,4,5)-cusp with smooth branch"),
    "3.2.b": (3, 2, "rhamphoid cusp with smooth branch"),
    "3.2.c": (3, 2, "two independent cusps"),
    "3.2.d": (3, 2, "cusp with collinear smooth branch"),
    "3.2.e": (3, 2, "cusp with coplanar smooth branch"),
    "3.2.f": (3, 2, "node with third order contact"),
    "3.3.a": (3, 3, "cusp with 2 smooth branches"),
    "3.3.b": (3, 3, "tacnode with extra smooth branch"),
    "3.3.c": (3, 3, "planar triple point"),
    "3.4": (3, 4, "ordinary quadruple point"),
}

_CONCRETE = {
    label: SingularityType(label, delta, branches)
    for label, (delta, branches, _) in _TYPE_TABLE.items()
}


def concrete_type(label: str) -> SingularityType:
    t = _CONCRETE.get(label)
    if t is None:
        raise ValidationError(f"unknown singularity type {label!r}")
    return t


def smooth_type(branches: int = 1) -> SingularityType:
    return SingularityType("Smooth", 0, branches)


def ambiguous_type(a: str, b: str) -> SingularityType:
    ta, tb = concrete_type(a), concrete_type(b)
    if ta.branches != tb.branches:
        raise ValidationError("ambiguous pair must share a branch count")
    return SingularityType(f"Ambiguous({a}|{b})", min(ta.delta, tb.delta), ta.branches)


def type_description(stype: SingularityType) -> str:
    if stype.is_smooth:
        return "smooth point"
    if stype.is_ambiguous:
        return " or ".join(type_description(m) for m in stype.members())
    return _TYPE_TABLE[stype.label][2]


def enumerate_types() -> list[SingularityType]:
    """The 21 concrete types, in label order."""
    return [_CONCRETE[label] for label in _TYPE_TABLE]


# ---------------------------------------------------------------------------
# local models


@dataclass(frozen=True)
class LocalModel:
    stype: SingularityType
    generators: tuple  # (name, ((branch, exponent, coeff), ...)) per generator
    relations: tuple  # (text, ((coeff, {name: power}), ...)) per relation
    semigroup_elements: tuple  # valuation patterns, entries int or INF


def _g(name, *terms):
    return (name, tuple(terms))


def _rel(text, *monomials):
    return (text, tuple((c, dict(m)) for c, m in monomials))


_MODEL_DATA = {
    "1.1": (
        (_g("x", (0, 2, 1)), _g("y", (0, 3, 1))),
        (_rel("x^3 - y^2", (1, {"x": 3}), (-1, {"y": 2})),),
        ((2,), (3,)),
    ),
    "1.2": (
        (_g("x", (0, 1, 1)), _g("y", (1, 1, 1))),
        (_rel("x*y", (1, {"x": 1, "y": 1})),),
        ((INF, 1), (1, INF)),
    ),
    "2.1.a": (
        (_g("x1", (0, 3, 1)), _g("x2", (0, 4, 1)), _g("x3", (0, 5, 1))),
        (
            _rel("x1*x3 - x2^2", (1, {"x1": 1, "x3": 1}), (-1, {"x2": 2})),
            _rel("x1^3 - x2*x3", (1, {"x1": 3}), (-1, {"x2": 1, "x3": 1})),
            _rel("x1^2*x2 - x3^2", (1, {"x1": 2, "x2": 1}), (-1, {"x3": 2})),
        ),
        ((3,), (4,), (5,)),
    ),
    "2.1.b": (
        (_g("x", (0, 2, 1)), _g("y", (0, 5, 1))),
        (_rel("x^5 - y^2", (1, {"x": 5}), (-1, {"y": 2})),),
        ((2,), (4,), (5,)),
    ),
    "2.2.a": (
        (_g("x", (0, 1, 1), (1, 1, 1)), _g("y", (1, 2, 1))),
        (_rel("y*(x^2 - y)", (1, {"x": 2, "y": 1}), (-1, {"y": 2})),),
        ((INF, 2), (INF, 3), (2, INF), (3, INF), (1, 1)),
    ),
    "2.2.b": (
        (_g("x", (1, 1, 1)), _g("y", (0, 2, 1)), _g("z", (0, 3, 1))),
        (
            _rel("x*y", (1, {"x": 1, "y": 1})),
            _rel("x*z", (1, {"x": 1, "z": 1})),
            _rel("y^3 - z^2", (1, {"y": 3}), (-1, {"z": 2})),
        ),
        ((2, INF), (3, INF), (INF, 1)),
    ),
    "2.3": (
        (_g("x", (0, 1, 1)), _g("y", (1, 1, 1)), _g("z", (2, 1, 1))),
        (
            _rel("x*y", (1, {"x": 1, "y": 1})),
            _rel("x*z", (1, {"x": 1, "z": 1})),
            _rel("y*z", (1, {"y": 1, "z": 1})),
        ),
        ((1, INF, INF), (INF, 1, INF), (INF, INF, 1)),
    ),
    "3.1.a": (
        (_g("x1", (0, 4, 1)), _g("x2", (0, 5, 1)), _g("x3", (0, 6, 1)), _g("x4", (0, 7, 1))),
        (
            _rel("x1*x3 - x2^2", (1, {"x1": 1, "x3": 1}), (-1, {"x2": 2})),
            _rel("x1*x4 - x2*x3", (1, {"x1": 1, "x4": 1}), (-1, {"x2": 1, "x3": 1})),
            _rel("x2*x4 - x3^2", (1, {"x2": 1, "x4": 1}), (-1, {"x3": 2})),
            _rel("x1^2*x3 - x4^2", (1, {"x1": 2, "x3": 1}), (-1, {"x4": 2})),
            _rel("x1^2*x2 - x3*x4", (1, {"x1": 2, "x2": 1}), (-1, {"x3": 1, "x4": 1})),
            _rel("x1^3 - x2*x4", (1, {"x1": 3}), (-1, {"x2": 1, "x4": 1})),
        ),
        ((4,), (5,), (6,), (7,)),
    ),
    "3.1.b": (
        (_g("x1", (0, 3, 1)), _g("x2", (0, 5, 1)), _g("x3", (0, 7, 1))),
        (
            _rel("x1*x3 - x2^2", (1, {"x1": 1, "x3": 1}), (-1, {"x2": 2})),
            _rel("x1^3*x2 - x3^2", (1, {"x1": 3, "x2": 1}), (-1, {"x3": 2})),
            _rel("x2*x3 - x1^4", (1, {"x2": 1, "x3": 1}), (-1, {"x1": 4})),
        ),
        ((3,), (5,), (7,)),
    ),
    "3.1.c": (
        (_g("x", (0, 3, 1)), _g("y", (0, 4, 1))),
        (_rel("x^4 - y^3", (1, {"x": 4}), (-1, {"y": 3})),),
        ((3,), (4,)),
    ),
    "3.1.d": (
        (_g("x", (0, 2, 1)), _g("y", (0, 7, 1))),
        (_rel("x^7 - y^2", (1, {"x": 7}), (-1, {"y": 2})),),
        ((2,), (7,)),
    ),
    "3.2.a": (
        (
            _g("x1", (0, 3, 1)),
            _g("x2", (0, 4, 1)),
            _g("x3", (0, 5, 1)),
            _g("y", (1, 1, 1)),
        ),
        (
            _rel("x1*y", (1, {"x1": 1, "y": 1})),
            _rel("x2*y", (1, {"x2": 1, "y": 1})),
            _rel("x3*y", (1, {"x3": 1, "y": 1})),
            _rel("x1*x3 - x2^2", (1, {"x1": 1, "x3": 1}), (-1, {"x2": 2})),
            _rel("x1^3 - x2*x3", (1, {"x1": 3}), (-1, {"x2": 1, "x3": 1})),
            _rel("x1^2*x2 - x3^2", (1, {"x1": 2, "x2": 1}), (-1, {"x3": 2})),
        ),
        ((3, INF), (4, INF), (5, INF), (INF, 1)),
    ),
    "3.2.b": (
        (_g("x1", (0, 2, 1)), _g("x2", (0, 5, 1)), _g("y", (1, 1, 1))),
        (
            _rel("x1*y", (1, {"x1": 1, "y": 1})),
            _rel("x2*y", (1, {"x2": 1, "y": 1})),
            _rel("x1^5 - x2^2", (1, {"x1": 5}), (-1, {"x2": 2})),
        ),
        ((2, INF), (5, INF), (INF, 1)),
    ),
    "3.2.c": (
        (
            _g("x1", (0, 2, 1)),
            _g("x2", (0, 3, 1)),
            _g("y1", (1, 2, 1)),
            _g("y2", (1, 3, 1)),
        ),
        (
            _rel("x1*y1", (1, {"x1": 1, "y1": 1})),
            _rel("x1*y2", (1, {"x1": 1, "y2": 1})),
            _rel("x2*y1", (1, {"x2": 1, "y1": 1})),
            _rel("x2*y2", (1, {"x2": 1, "y2": 1})),
            _rel("x1^3 - x2^2", (1, {"x1": 3}), (-1, {"x2": 2})),
            _rel("y1^3 - y2^2", (1, {"y1": 3}), (-1, {"y2": 2})),
        ),
        ((2, INF), (3, INF), (INF, 2), (INF, 3)),
    ),
    "3.2.d": (
        (_g("x", (0, 2, 1), (1, 1, 1)), _g("y", (0, 3, 1)), _g("z", (1, 2, 1))),
        (
            _rel("y*z", (1, {"y": 1, "z": 1})),
            _rel("z*(x^2 - z)", (1, {"x": 2, "z": 1}), (-1, {"z": 2})),
            _rel("x^3 - y^2 - x*z", (1, {"x": 3}), (-1, {"y": 2}), (-1, {"x": 1, "z": 1})),
        ),
        ((3, INF), (4, INF), (5, INF), (INF, 2), (INF, 3), (2, 1)),
    ),
    "3.2.e": (
        (_g("x", (0, 3, 1), (1, 1, 1)), _g("y", (0, 2, 1))),
        (_rel("y*(x^2 - y^3)", (1, {"x": 2, "y": 1}), (-1, {"y": 4})),),
        ((2, INF), (5, INF), (INF, 2), (INF, 3), (3, 1)),
    ),
    "3.2.f": (
        (_g("x", (0, 1, 1), (1, 1, 1)), _g("y", (0, 3, 1))),
        (_rel("y*(x^3 - y)", (1, {"x": 3, "y": 1}), (-1, {"y": 2})),),
        ((3, INF), (4, INF), (5, INF), (INF, 3), (INF, 4), (INF, 5), (1, 1)),
    ),
    "3.3.a": (
        (
            _g("x1", (0, 1, 1)),
            _g("x2", (1, 1, 1)),
            _g("y", (2, 2, 1)),
            _g("z", (2, 3, 1)),
        ),
        (
            _rel("x1*x2", (1, {"x1": 1, "x2": 1})),
            _rel("x1*y", (1, {"x1": 1, "y": 1})),
            _rel("x1*z", (1, {"x1": 1, "z": 1})),
            _rel("x2*y", (1, {"x2": 1, "y": 1})),
            _rel("x2*z", (1, {"x2": 1, "z": 1})),
            _rel("y^3 - z^2", (1, {"y": 3}), (-1, {"z": 2})),
        ),
        ((1, INF, INF), (INF, 1, INF), (INF, INF, 2), (INF, INF, 3)),
    ),
    "3.3.b": (
        (_g("x", (0, 1, 1)), _g("y", (1, 2, 1)), _g("z", (1, 1, 1), (2, 1, 1))),
        (
            _rel("x*y", (1, {"x": 1, "y": 1})),
            _rel("x*z", (1, {"x": 1, "z": 1})),
            _rel("y*(z^2 - y)", (1, {"y": 1, "z": 2}), (-1, {"y": 2})),
        ),
        ((1, INF, INF), (INF, 2, INF), (INF, 3, INF), (INF, INF, 2), (INF, INF, 3), (1, 1, 1)),
    ),
    "3.3.c": (
        (_g("x", (0, 1, 1), (1, 1, 1)), _g("y", (0, 1, 1), (2, 1, 1))),
        (_rel("x*y*(x - y)", (1, {"x": 2, "y": 1}), (-1, {"x": 1, "y": 2})),),
        ((2, INF, INF), (3, INF, INF), (1, 1, 2), (1, 2, 1), (2, 1, 1)),
    ),
    "3.4": (
        (
            _g("x", (0, 1, 1)),
            _g("y", (1, 1, 1)),
            _g("z", (2, 1, 1)),
            _g("w", (3, 1, 1)),
        ),
        (
            _rel("x*y", (1, {"x": 1, "y": 1})),
            _rel("x*z", (1, {"x": 1, "z": 1})),
            _rel("x*w", (1, {"x": 1, "w": 1})),
            _rel("y*z", (1, {"y": 1, "z": 1})),
            _rel("y*w", (1, {"y": 1, "w": 1})),
            _rel("z*w", (1, {"z": 1, "w": 1})),
        ),
        ((1, INF, INF, INF), (INF, 1, INF, INF), (INF, INF, 1, INF), (INF, INF, INF, 1)),
    ),
}

MODEL_TRUNCATION = 16


def local_model(stype: SingularityType) -> LocalModel:
    """Generators, relations, and marked semigroup elements of a concrete type."""
    if stype.is_smooth or stype.is_ambiguous:
        raise ValidationError(f"no local model for {stype.label}")
    gens, rels, sigma = _MODEL_DATA[stype.label]
    return LocalModel(stype, gens, rels, sigma)


def model_generator_series(model: LocalModel, field, truncation: int):
    """The generators as truncated series; terms beyond the truncation drop out."""
    amb = Ambient(field, model.stype.branches, truncation)
    out = {}
    for name, terms in model.generators:
        kept = [(b, e, c) for (b, e, c) in terms if e < truncation]
        out[name] = TruncatedSeries.from_monomials(amb, kept)
    return amb, out


def model_algebra(stype: SingularityType, field=QQ, truncation: int = MODEL_TRUNCATION):
    """Unit-adjoined closure of the model generators for a concrete type."""
    model = local_model(stype)
    amb, gens = model_generator_series(model, field, truncation)
    vectors = [TruncatedSeries.unit(amb)] + list(gens.values())
    return close_algebra(SeriesSubspace.span(amb, vectors))


def validate_relations(model: LocalModel, field=QQ, truncation: int = MODEL_TRUNCATION):
    """Substitution check: every relation vanishes on the generators."""
    amb, gens = model_generator_series(model, field, truncation)
    for text, monomials in model.relations:
        acc = TruncatedSeries.zero(amb)
        for coeff, powers in monomials:
            term = TruncatedSeries.unit(amb).scale(field(coeff))
            for name, power in powers.items():
                term = term * gens[name] ** power
            acc = acc + term
        if acc:
            raise ValidationError(f"relation {text!r} does not vanish for {model.stype.label}")


# ---------------------------------------------------------------------------
# fingerprints and ring classification


def canonical_fingerprint(gap: GapFunction, delta: int):
    """Gap values on the determining window, minimized over branch permutations."""
    r = gap.arity
    cells = list(simplex(2 * delta, r, minimum=1))  # |alpha| <= 2*delta determines lambda
    # the cells are closed under permutation; each window line is asked from its top
    values = {alpha: gap(alpha) for alpha in reversed(cells)}
    best = min(
        tuple(values[tuple(alpha[perm[i]] for i in range(r))] for alpha in cells)
        for perm in permutations(range(r))
    )
    return (delta, r, best)


_fingerprint_index: dict | None = None


def _fingerprints():
    global _fingerprint_index
    if _fingerprint_index is None:
        index = {}
        for stype in enumerate_types():
            closed = model_algebra(stype, QQ, truncation=10)
            gap = GapFunction(closed, ALGEBRA_CLOSED)
            delta = gap.degree()
            if delta != stype.delta:
                raise AssertionError(f"model {stype.label} has delta {delta}")
            fp = canonical_fingerprint(gap, delta)
            if fp in index:
                raise AssertionError(f"fingerprint collision {index[fp]} / {stype.label}")
            index[fp] = stype.label
        _fingerprint_index = index
    return _fingerprint_index


class UnclassifiedDeltaError(ClassificationError):
    def __init__(self, delta: int):
        super().__init__(f"delta = {delta} is outside the classified range (delta <= 3)")
        self.delta = delta


def classify_ring(gap: GapFunction) -> SingularityType:
    """Match an algebra-closed, standard, stabilized gap function to its type."""
    if gap.kind != ALGEBRA_CLOSED:
        raise ValidationError("classify_ring needs an algebra-closed gap function")
    delta = gap.degree()
    if delta == 0:
        return smooth_type(gap.arity)
    # asked before is_standard: the fingerprint's window lines top its cells
    fp = canonical_fingerprint(gap, delta) if delta <= 3 else None
    if not gap.is_standard():
        raise ClassificationError("gap function is not standard")
    if delta > 3:
        raise UnclassifiedDeltaError(delta)
    label = _fingerprints().get(fp)
    if label is None:
        raise ClassificationError(
            f"no classified type matches (delta={delta}, r={gap.arity})"
        )
    return concrete_type(label)


# ---------------------------------------------------------------------------
# vector-space conditions (Table of lambda' rows)


@dataclass(frozen=True)
class VsRow:
    labels: tuple  # one label, or the two labels of an ambiguous pair
    arity: int
    cells: tuple  # ((alpha, value), ...)

    @property
    def delta(self) -> int:
        return max(concrete_type(lbl).delta for lbl in self.labels)

    def result_type(self) -> SingularityType:
        if len(self.labels) == 1:
            return concrete_type(self.labels[0])
        return ambiguous_type(*self.labels)


def _row(labels, cells):
    if isinstance(labels, str):
        labels = (labels,)
    arity = len(next(iter(cells)))
    return VsRow(tuple(labels), arity, tuple(sorted(cells.items())))


VS_ROWS = (
    _row("1.1", {(2,): 1, (4,): 1}),
    _row("1.2", {(1, 1): 1, (2, 2): 1}),
    _row("2.1.a", {(3,): 2, (5,): 2}),
    _row(("2.1.b", "3.1.d"), {(2,): 1, (3,): 1, (4,): 2}),
    _row(("2.2.a", "3.2.f"), {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}),
    _row("2.2.b", {(2, 1): 2, (4, 2): 2}),
    _row("2.3", {(1, 1, 1): 2, (2, 2, 2): 2}),
    _row("3.1.a", {(4,): 3}),
    _row("3.1.b", {(3,): 2, (4,): 2, (5,): 3}),
    _row("3.1.c", {(3,): 2, (5,): 2, (6,): 3}),
    _row("3.2.a", {(3, 1): 3}),
    _row("3.2.b", {(2, 1): 2, (3, 2): 2, (4, 1): 3}),
    _row("3.2.c", {(2, 2): 3}),
    _row("3.2.d", {(2, 1): 2, (2, 2): 2, (3, 1): 2, (3, 2): 3}),
    _row("3.2.e", {(2, 1): 2, (3, 2): 2, (4, 1): 2, (4, 2): 3}),
    _row("3.3.a", {(1, 1, 2): 3}),
    _row("3.3.b", {(1, 1, 1): 2, (1, 1, 2): 2, (1, 2, 1): 2, (2, 1, 1): 2, (1, 2, 2): 3}),
    _row("3.3.c", {(1, 1, 1): 2, (1, 2, 2): 2, (2, 1, 2): 2, (2, 2, 1): 2, (2, 2, 2): 3}),
    _row("3.4", {(1, 1, 1, 1): 3}),
)

# largest gap-function argument any row of the given arity needs
_VS_TRUNCATION_NEED = {1: 7, 2: 5, 3: 3, 4: 2}


def vs_row_for(stype: SingularityType) -> VsRow:
    for row in VS_ROWS:
        if stype.label in row.labels:
            return row
    raise ValidationError(f"no vector-space row for {stype.label}")


def classify_vector_space(gap: GapFunction) -> SingularityType:
    """Read the singularity type off the gap function of a generating subspace.

    The subspace must contain a unit and the gap function must be standard;
    the two pairs that the conditions cannot separate come back as Ambiguous
    and are resolved by closing the algebra (resolve_ambiguity).

    The row conditions characterize the type only under the standing
    hypothesis that the generated algebra has degree <= 3 (in the projection
    pipeline that is guaranteed by the genus bound).  Feeding a space whose
    closure has larger degree returns whichever row happens to match; when
    the degree matters, compute it from the closure.
    """
    if gap.kind != VECTOR_SPACE:
        raise ValidationError("classify_vector_space expects a vector-space gap function")
    r = gap.arity
    if r > 4:
        raise ClassificationError(f"no classified types with {r} branches")
    if not gap.backend.contains_unit():
        raise ClassificationError("generating subspace contains no unit")
    need = _VS_TRUNCATION_NEED[r]
    if gap.truncation < need:
        raise NotStabilizedError(
            f"truncation N={gap.truncation} too small to decide (need >= {need})"
        )
    if r == 1 and gap((2,)) == 0:
        # a valuation-1 element generates everything
        return smooth_type(1)
    if not gap.is_standard():
        raise ClassificationError(
            "gap function is not standard; the input does not look like the "
            "generating space of a single multibranch point"
        )

    matches = []
    for row in VS_ROWS:
        if row.arity != r:
            continue
        for perm in permutations(range(r)):
            if all(gap(tuple(alpha[perm[i]] for i in range(r))) == v for alpha, v in row.cells):
                matches.append(row)
                break
    if not matches:
        raise ClassificationError(
            "no row of the vector-space table matches (delta > 3 or malformed input)"
        )
    if len(matches) > 1:
        # the only genuine containment among rows: a more special (higher
        # delta) row subsumes a generic one, and then the special row is the
        # truth about the generated algebra
        top = max(row.delta for row in matches)
        matches = [row for row in matches if row.delta == top]
        if len(matches) > 1:
            raise ClassificationError(
                f"conditions match several rows: {[m.labels for m in matches]}"
            )
    return matches[0].result_type()


def resolve_ambiguity(space: SeriesSubspace) -> SingularityType:
    """Close the generating subspace and classify the resulting ring.

    Only needed when classify_vector_space returned an ambiguous pair; always
    returns a concrete member of that pair.
    """
    closed = close_algebra(space)
    return classify_ring(GapFunction(closed, ALGEBRA_CLOSED))

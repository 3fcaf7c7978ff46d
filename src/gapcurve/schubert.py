"""Schubert strata realizing prescribed singularity types.

For each singularity type the closed incidence conditions on the center L
come from the vector-space table: dim(L cap F^alpha) >= v for the listed
cells (plus the standardness cell for several branches).  With respect to a
flag assembled from nested multifiltration subspaces those conditions cut a
Schubert variety; its partition is recorded here, and the codimension of the
corresponding stratum of projections (points allowed to vary, one parameter
per branch) is the partition size minus the branch count.

Sampling draws random coordinates in the standard open cell: one vector in
each prescribed flag member, padded by random vectors of V, resampled until
the closed conditions hold exactly and the center misses the curve.  The two
deep pair members (the (2,7)-cusp and the node with third-order contact) are
not generic in their lambda'-stratum, so their samplers prescribe series jets
directly and lift them to a linear system; everything else goes through the
cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from . import linalg
from .classify import SingularityType, concrete_type, vs_row_for
from .curve import Multifiltration, _point_key
from .errors import GapcurveError, HypothesisViolationError, ValidationError
from .fields import PrimeField
from .project import ProjectionCenter, check_center
from .series import Ambient, TruncatedSeries

SAMPLE_RETRIES = 64


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        ps = self.parts
        if any(p <= 0 for p in ps) or any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValidationError(f"not a partition: {ps}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def fits(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and all(p <= cols for p in self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


# chains of nested exponent vectors, one per table row; |alpha| increases by
# one along each chain and every conditioned cell appears in its row's chain
_ROW_CHAINS = {
    ("1.1",): [(1,), (2,)],
    ("1.2",): [(1, 0), (1, 1)],
    ("2.1.a",): [(1,), (2,), (3,)],
    ("2.1.b", "3.1.d"): [(1,), (2,), (3,), (4,)],
    ("2.2.a", "3.2.f"): [(1, 0), (1, 1), (2, 1), (2, 2)],
    ("2.2.b",): [(1, 0), (1, 1), (2, 1)],
    ("2.3",): [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
    ("3.1.a",): [(1,), (2,), (3,), (4,)],
    ("3.1.b",): [(1,), (2,), (3,), (4,), (5,)],
    ("3.1.c",): [(1,), (2,), (3,), (4,), (5,), (6,)],
    ("3.2.a",): [(1, 0), (1, 1), (2, 1), (3, 1)],
    ("3.2.b",): [(1, 0), (1, 1), (2, 1), (3, 1), (4, 1)],
    ("3.2.c",): [(1, 0), (1, 1), (2, 1), (2, 2)],
    ("3.2.d",): [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)],
    ("3.2.e",): [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)],
    ("3.3.a",): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 2)],
    ("3.3.b",): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 1), (1, 2, 2)],
    ("3.3.c",): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)],
    ("3.4",): [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)],
}

# stratum codimension from the tables, as (coefficient of n, constant)
_CODIM_FORMULA = {
    "1.1": (1, -1),
    "1.2": (1, -2),
    "2.1.a": (2, -1),
    "2.1.b": (2, -2),
    "2.2.a": (2, -3),
    "2.2.b": (2, -2),
    "2.3": (2, -3),
    "3.1.a": (3, -1),
    "3.1.b": (3, -2),
    "3.1.c": (3, -3),
    "3.1.d": (2, -2),
    "3.2.a": (3, -2),
    "3.2.b": (3, -3),
    "3.2.c": (3, -2),
    "3.2.d": (3, -3),
    "3.2.e": (3, -4),
    "3.2.f": (2, -3),
    "3.3.a": (3, -3),
    "3.3.b": (3, -4),
    "3.3.c": (3, -5),
    "3.4": (3, -4),
}

# the quadruple point is listed as case 3.3.d in the stratum tables
_STRATUM_ALIASES = {"3.3.d": "3.4"}

_DEEP_TYPES = {"3.1.d", "3.2.f"}


def table_codim(stype: SingularityType, n: int) -> int:
    coef, const = _CODIM_FORMULA[stype.label]
    return coef * n + const


def closed_conditions(stype: SingularityType):
    """(alpha, required dim) pairs cutting the closed stratum for the type.

    Cells whose >= content follows from a smaller cell (the open upper-bound
    cells of the table) are dropped; what remains is the flag recipe, which
    only ever uses subspaces of dimension at most 2*delta.
    """
    row = vs_row_for(stype)
    r = row.arity
    conds = []
    if r >= 2:
        conds.append(((1,) * r, r - 1))
    conds.extend(row.cells)
    best = {}
    for alpha, v in conds:
        best[alpha] = max(best.get(alpha, 0), v)
    pruned = []
    for alpha, v in best.items():
        implied = any(
            other != alpha
            and all(x <= y for x, y in zip(other, alpha))
            and w >= v
            for other, w in best.items()
        )
        if not implied:
            pruned.append((alpha, v))
    return sorted(pruned, key=lambda av: (sum(av[0]), av[0]))


def _chain_for(stype: SingularityType):
    row = vs_row_for(stype)
    chain = _ROW_CHAINS[row.labels]
    cells = {alpha for alpha, _ in closed_conditions(stype)}
    missing = cells - set(chain)
    if missing:
        raise AssertionError(f"chain for {row.labels} misses cells {missing}")
    return chain


def _validate_recipes():
    """Import-time check: every closed condition sits in its row's chain,
    chains are nested with unit steps, and every type has a codim formula."""
    from .classify import enumerate_types

    for stype in enumerate_types():
        chain = _chain_for(stype)
        for prev, nxt in zip(chain, chain[1:]):
            if sum(nxt) != sum(prev) + 1 or any(a > b for a, b in zip(prev, nxt)):
                raise AssertionError(f"chain for {stype.label} is not a unit-step nest")
        if stype.label not in _CODIM_FORMULA:
            raise AssertionError(f"no codimension formula for {stype.label}")


_validate_recipes()


def _vector_dims(conditions):
    """m(i): the flag dimension the i-th sampled vector must lie in."""
    k_max = max(k for _, k in conditions)
    dims = []
    for i in range(1, k_max + 1):
        m = min(sum(alpha) - (k - i) for alpha, k in conditions if k >= i)
        dims.append(m)
    return dims


def stratum_partition(stype: SingularityType, n: int) -> Partition:
    """Partition of the fixed-flag Schubert variety cutting the type's stratum."""
    conditions = closed_conditions(stype)
    k_max = max(k for _, k in conditions)
    parts = []
    for i in range(1, k_max + 1):
        a_i = max(n + 1 + k - sum(alpha) for alpha, k in conditions if k >= i)
        parts.append(min(max(a_i, 0), n + 1))
    return Partition(tuple(parts))


@dataclass
class SchubertSpec:
    stype: SingularityType
    points: list
    ell: int
    n: int
    conditions: list  # (alpha, required intersection dimension)
    chain: list  # nested exponent vectors defining the flag
    flag: list  # (alpha, rows of F^alpha)
    partition: Partition
    codim: int  # stratum codimension with points varying: |partition| - branches


def stratum_spec(stype_or_label, points, curve, ell: int) -> SchubertSpec:
    """Flag recipe, partition, and codimension for one singularity type."""
    if isinstance(stype_or_label, str):
        label = _STRATUM_ALIASES.get(stype_or_label, stype_or_label)
        stype = concrete_type(label)
    else:
        stype = stype_or_label
    if stype.is_ambiguous or stype.is_smooth:
        raise ValidationError(f"stratum construction needs a concrete type, not {stype.label}")
    points = list(points)
    if len(points) != stype.branches:
        raise ValidationError(
            f"type {stype.label} has {stype.branches} branches, got {len(points)} points"
        )
    d = curve.dim_w - 1
    n = d - ell
    if n <= 2:
        raise HypothesisViolationError(f"need n > 2, got n = {n}")
    if ell > 3:
        raise HypothesisViolationError(f"need ell <= 3, got ell = {ell}")
    if 2 * ell >= d - 2 * curve.genus:
        raise HypothesisViolationError(f"need 2*ell < d - 2*genus (ell={ell}, d={d})")
    if stype.delta > ell:
        raise HypothesisViolationError(
            f"delta = {stype.delta} exceeds ell = {ell}; the stratum is empty"
        )
    conditions = closed_conditions(stype)
    chain = _chain_for(stype)
    filt = Multifiltration(curve, points)
    flag = []
    for alpha in chain:
        rows, _ = linalg.rref(filt.subspace_rows(alpha), curve.field)
        if len(rows) != sum(alpha):
            raise GapcurveError(f"flag member F^{alpha} has defective dimension")
        flag.append((alpha, rows))
    partition = stratum_partition(stype, n)
    if not partition.fits(ell, n + 1):
        raise GapcurveError(f"partition {partition} does not fit G({ell}, {d + 1})")
    return SchubertSpec(
        stype=stype,
        points=points,
        ell=ell,
        n=n,
        conditions=conditions,
        chain=chain,
        flag=flag,
        partition=partition,
        codim=partition.size - stype.branches,
    )


# ---------------------------------------------------------------------------
# sampling


def _random_coeff(field, rng):
    if isinstance(field, PrimeField):
        return field(rng.randrange(field.p))
    return field(rng.randrange(-99, 100))


def _conditions_hold_exactly(center: ProjectionCenter, spec: SchubertSpec) -> bool:
    vdims = _vector_dims(spec.conditions)
    for alpha, rows in spec.flag:
        m = sum(alpha)
        want = sum(1 for v in vdims if v <= m)
        got = linalg.intersection_dim(center.rows, rows, center.field)
        if got != want:
            return False
    return True


def _draw_cell(specs, ell: int, curve, rng):
    """Rows in the open cell: a random vector in each prescribed flag member
    of every spec, padded by random vectors of V; None if they are dependent."""
    field = curve.field
    width = curve.dim_w
    vectors = []
    for s in specs:
        flag_by_m = {sum(alpha): rows for alpha, rows in s.flag}
        for m in _vector_dims(s.conditions):
            rows = flag_by_m[m]
            coeffs = [_random_coeff(field, rng) for _ in rows]
            vectors.append(linalg.combine(coeffs, rows, field, width))
    while len(vectors) < ell:
        vectors.append([_random_coeff(field, rng) for _ in range(width)])
    try:
        return ProjectionCenter.from_rows(field, width - 1, vectors)
    except ValidationError:
        return None


def _accept(specs, ell: int, curve, draw, failure: str) -> ProjectionCenter:
    """Redraw until a center has dimension ell, meets every spec's closed
    conditions exactly, and misses the curve."""
    for _ in range(SAMPLE_RETRIES):
        center = draw()
        if (
            center is not None
            and center.ell == ell
            and all(_conditions_hold_exactly(center, s) for s in specs)
            and check_center(center, curve).basepoint_free
        ):
            return center
    raise GapcurveError(failure)


def sample_center(spec: SchubertSpec, seed, curve) -> ProjectionCenter:
    """A random center in the open stratum cell; same seed, same sample.

    The closed incidence conditions hold exactly (resampled otherwise) and
    the center misses the curve.  Whether the open lambda' conditions hold
    (no boundary landing, no extra ramification) is re-checked by analyzing
    the sample; callers reject and resample on mismatch.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    field = curve.field
    deep = spec.stype.label in _DEEP_TYPES
    if isinstance(field, PrimeField) and field.p < 101 and not deep:
        raise ValidationError("cell sampling wants a field with at least 101 elements")
    if deep:
        draw = partial(_sample_deep, spec, curve, rng)
    else:
        draw = partial(_draw_cell, [spec], spec.ell, curve, rng)
    failure = f"could not sample the {spec.stype.label} stratum in {SAMPLE_RETRIES} tries"
    return _accept([spec], spec.ell, curve, draw, failure)


def sample_configuration(specs, ell: int, seed, curve) -> ProjectionCenter:
    """A center realizing several clusters at once (independent conditions)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if any(s.stype.label in _DEEP_TYPES for s in specs):
        raise ValidationError("deep pair members are only sampled as single clusters")
    total_delta = sum(s.stype.delta for s in specs)
    if total_delta > ell:
        raise HypothesisViolationError(
            f"total singularity degree {total_delta} exceeds ell = {ell}"
        )
    seen = set()
    for s in specs:
        for p in s.points:
            key = _point_key(p)
            if key in seen:
                raise ValidationError("configuration clusters must use distinct points")
            seen.add(key)
    draw = partial(_draw_cell, specs, ell, curve, rng)
    return _accept(specs, ell, curve, draw, "could not sample the joint configuration")


def configuration_codim(types, d: int, n: int):
    """(total codimension, family dimension) for a configuration of types.

    Feasible exactly when the singularity degrees sum to at most ell = d - n;
    the family dimension is dim G(ell, V) minus the total codimension.
    """
    ell = d - n
    stypes = []
    for t in types:
        if isinstance(t, str):
            t = concrete_type(_STRATUM_ALIASES.get(t, t))
        if t.is_ambiguous or t.is_smooth:
            raise ValidationError(f"configuration needs concrete types, got {t.label}")
        stypes.append(t)
    total_delta = sum(t.delta for t in stypes)
    if total_delta > ell:
        raise HypothesisViolationError(
            f"infeasible configuration: total delta {total_delta} > ell {ell}"
        )
    codim = sum(table_codim(t, n) for t in stypes)
    family_dim = ell * (n + 1) - codim
    return codim, family_dim


# ---------------------------------------------------------------------------
# deep samplers: jet prescription lifted to a linear system


def _jet_matrix(curve, point, order: int):
    """Rows: expansions of the monomial basis at the point, to the given order."""
    d = curve.dim_w - 1
    rows = []
    for k in range(d + 1):
        coeffs = [0] * (d + 1)
        coeffs[k] = 1
        exp = curve.local_expansion(coeffs, point, order)
        rows.append(list(exp.coeffs[0]))
    return rows


def _lift_jets(jet_rows, targets, field):
    """Forms whose expansions realize the target jets; plus the jet kernel."""
    ncols = len(jet_rows)
    order = len(jet_rows[0])
    # equations: sum_k f_k * jet_rows[k][j] = target[j]
    eqs = [[jet_rows[k][j] for k in range(ncols)] for j in range(order)]
    lifts = []
    for target in targets:
        sol = linalg.solve_right(eqs, target, field)
        if sol is None:
            raise GapcurveError("jet prescription is not liftable")
        lifts.append(sol)
    kernel = linalg.nullspace(eqs, field, ncols)
    return lifts, kernel


def _random_unit_jet(field, rng, order):
    out = [_random_coeff(field, rng) for _ in range(order)]
    while not out[0]:
        out[0] = _random_coeff(field, rng)
    return out


def _sample_deep(spec: SchubertSpec, curve, rng) -> ProjectionCenter:
    if spec.stype.label == "3.1.d":
        return _sample_2_7_cusp(spec, curve, rng)
    return _sample_node_third_order(spec, curve, rng)


def _sample_2_7_cusp(spec: SchubertSpec, curve, rng) -> ProjectionCenter:
    """(2,7)-cusp: prescribe R' jets {1, v, v^2} mod t^6 so the closure has
    no valuation-5 element, then fill with everything vanishing to order 6."""
    field = curve.field
    d = curve.dim_w - 1
    if spec.ell != 3 or d < 7:
        raise ValidationError("the (2,7)-cusp sampler needs ell = 3 and degree >= 7")
    (point,) = spec.points
    order = 6
    jets = _jet_matrix(curve, point, order)
    amb = Ambient(field, 1, order)
    u = TruncatedSeries(amb, [_random_unit_jet(field, rng, order)])
    v = TruncatedSeries(
        amb, [[field.zero, field.zero, field.one] + [_random_coeff(field, rng) for _ in range(3)]]
    )
    targets = [(u * v**k).coeffs[0] for k in range(3)]
    lifts, kernel = _lift_jets(jets, targets, field)
    return ProjectionCenter.from_linear_system(field, d, lifts + kernel)


def _sample_node_third_order(spec: SchubertSpec, curve, rng) -> ProjectionCenter:
    """Node with third-order contact: branch jets {1, a, a^2, t_1^3-lead} with
    the square matched exactly, so no branch acquires independent order-2
    contact (which would resolve to the tacnode instead)."""
    field = curve.field
    d = curve.dim_w - 1
    if spec.ell != 3 or d < 7:
        raise ValidationError("the contact-node sampler needs ell = 3 and degree >= 7")
    p1, p2 = spec.points
    w1, w2 = 4, 3
    jets = [r1 + r2 for r1, r2 in zip(_jet_matrix(curve, p1, w1), _jet_matrix(curve, p2, w2))]
    amb1, amb2 = Ambient(field, 1, w1), Ambient(field, 1, w2)
    u1 = TruncatedSeries(amb1, [_random_unit_jet(field, rng, w1)])
    u2 = TruncatedSeries(amb2, [_random_unit_jet(field, rng, w2)])
    a1 = [field.zero] + [_random_coeff(field, rng) for _ in range(w1 - 1)]
    while not a1[1]:
        a1[1] = _random_coeff(field, rng)
    a2 = [field.zero] + [_random_coeff(field, rng) for _ in range(w2 - 1)]
    while not a2[1]:
        a2[1] = _random_coeff(field, rng)
    y1 = [field.zero, field.zero, field.zero, _random_coeff(field, rng)]
    while not y1[3]:
        y1[3] = _random_coeff(field, rng)
    a1, a2 = TruncatedSeries(amb1, [a1]), TruncatedSeries(amb2, [a2])

    def pair(x1, x2):
        return (u1 * x1).coeffs[0] + (u2 * x2).coeffs[0]

    targets = [
        pair(TruncatedSeries.unit(amb1), TruncatedSeries.unit(amb2)),
        pair(a1, a2),
        pair(a1 * a1, a2 * a2),
        pair(TruncatedSeries(amb1, [y1]), TruncatedSeries.zero(amb2)),
    ]
    lifts, kernel = _lift_jets(jets, targets, field)
    return ProjectionCenter.from_linear_system(field, d, lifts + kernel)

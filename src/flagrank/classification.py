"""Adapted frames, the symmetric bracket form, and the point trichotomy.

The 2x2 form measures, against a chosen transversal Z, the brackets of the
square-root plane with the depth-two directions; its signature class (up to
an overall nonzero factor) splits rank-3 growth-(3,5,6) distributions into
elliptic, hyperbolic, and (non-)degenerate parabolic points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .algebra import PointQ
from .calculus import VectorField, coordinate_field, lie_bracket
from .distribution import derived_flag, growth_at, square_root_subdistribution
from .errors import ConsistencyError, NotGrowth356, PoleAtPoint, \
    SampleBudgetExhausted, SymmetryViolated
from .linalg import Echelon, PointRank, rank_generic


class PointClass(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC_NONDEG = "parabolic-nondegenerate"
    PARABOLIC_DEG = "parabolic-degenerate"

    @property
    def is_parabolic(self):
        return self in (PointClass.PARABOLIC_NONDEG, PointClass.PARABOLIC_DEG)


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame (X1, X2, Y, Y1, Y2, Z) adapted to a growth-(3,5,6) distribution.

    (X1, X2) spans the square-root plane, (X1, X2, Y) the distribution,
    Y1 = [Y, X1], Y2 = [Y, X2], and Z completes to a full frame.
    """

    x1: VectorField
    x2: VectorField
    y: VectorField
    y1: VectorField
    y2: VectorField
    z: VectorField

    def full(self):
        return [self.x1, self.x2, self.y, self.y1, self.y2, self.z]

    @cached_property
    def point_rank(self):
        """The ``linalg.PointRank`` of the full frame, built on first use."""
        return PointRank([f.coefficients for f in self.full()])

    def rank_at(self, point):
        # six fields: their number bounds the rank at every point
        return self.point_rank.rank_at(point, 6)


@dataclass(frozen=True)
class BracketForm:
    """Symmetric 2x2 form of Z-components of [X_i, Y_j], defined up to scale."""

    a11: object
    a12: object
    a21: object
    a22: object
    frame: AdaptedFrame

    def matrix(self):
        return [[self.a11, self.a12], [self.a21, self.a22]]

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def evaluate(self, point):
        return (self.a11.evaluate(point), self.a12.evaluate(point),
                self.a22.evaluate(point))


def _complete_with_field(base_fields, candidates, want_rank):
    """First candidate enlarging the span; prefers all-constant-pivot frames.

    The strong preference keeps the completed frame valid on as large a set
    as possible (in particular at the origin of every bundled model).
    """
    width = candidates[0].chart.dimension
    strong = None
    fallback = None
    for cand in candidates:
        ech = Echelon(width, [f.coefficients for f in base_fields])
        if not ech.add(cand.coefficients) or ech.rank != want_rank:
            continue
        if fallback is None:
            fallback = cand
        if ech.all_pivots_constant():
            strong = cand
            break
    return strong if strong is not None else fallback


def adapted_frame(dist):
    """Deterministic adapted frame; requires growth vector (3,5,6)."""
    return Classification(dist).frame


def bracket_form(dist, frame):
    """Z-components of [X_i, Y_j]; symmetry is asserted, never assumed."""
    five = Echelon(dist.chart.dimension,
                   [f.coefficients for f in frame.full()[:5]])
    z_res = five.residual(frame.z.coefficients)
    values = {}
    for name_i, xi in (("1", frame.x1), ("2", frame.x2)):
        for name_j, yj in (("1", frame.y1), ("2", frame.y2)):
            values[name_i + name_j] = _residual_coordinate(
                five, z_res, lie_bracket(xi, yj),
                "bracket left the adapted full frame")
    if values["12"] != values["21"]:
        raise SymmetryViolated(
            f"a12 = {values['12'].render()} differs from a21 = {values['21'].render()}")
    return BracketForm(values["11"], values["12"], values["21"], values["22"], frame)


def _residual_coordinate(echelon, last_residual, field, message):
    """Coordinate c of ``field`` on the last field of a basis: the echelon's
    rows and a field with residual ``last_residual``.  A field in the span has
    residual c * ``last_residual``; otherwise ConsistencyError(message).
    """
    res = echelon.residual(field.coefficients)
    k = next((i for i, e in enumerate(last_residual) if not e.is_zero()), None)
    if k is None:
        raise ConsistencyError(message)
    c = res[k] / last_residual[k]
    if any(r != c * e for r, e in zip(res, last_residual)):
        raise ConsistencyError(message)
    return c


def _classify_values(a11, a12, a22):
    if a11 == 0 and a12 == 0 and a22 == 0:
        return PointClass.PARABOLIC_DEG
    det = a11 * a22 - a12 * a12
    if det == 0:
        return PointClass.PARABOLIC_NONDEG
    return PointClass.ELLIPTIC if det > 0 else PointClass.HYPERBOLIC


_MAGNITUDE = 4
_MAX_DENOMINATOR = 3
# points drawn in a search for one usable point (form sign, symbol sample),
# and per wanted point in a scan
_SEARCH_BUDGET = 200
_RETRY_FACTOR = 25


def sample_points(chart, seed):
    """Endless deterministic stream of small rational sample points;
    ``Classification.points`` is the one reader that bounds it.

    Each coordinate is n/d with n in [-_MAGNITUDE, _MAGNITUDE] and d in
    [1, _MAX_DENOMINATOR], n drawn first.  They are drawn as ``randint``
    draws them (``randint(a, b)`` is ``randrange(b - a + 1) + a``) and the
    point is built from the integer pairs, so no ``Fraction`` is formed.
    """
    randrange = random.Random(seed).randrange
    width = 2 * _MAGNITUDE + 1
    while True:
        yield PointQ(chart, [(randrange(width) - _MAGNITUDE,
                              randrange(_MAX_DENOMINATOR) + 1)
                             for _ in range(chart.dimension)])


def classify_form_generic(form, points):
    """The form's generic class; a non-constant determinant takes the sign
    of its first nonzero value at a point of ``points`` (the caller's sample
    stream) where the adapted frame has full rank."""
    rank = rank_generic(form.matrix())
    if rank == 0:
        return PointClass.PARABOLIC_DEG
    if rank == 1:
        return PointClass.PARABOLIC_NONDEG
    det = form.det()
    if det.is_constant():
        value = det.constant_value()
        return PointClass.ELLIPTIC if value > 0 else PointClass.HYPERBOLIC
    chart = det.chart
    for p in points:
        try:
            if form.frame.rank_at(p) != chart.dimension:
                continue
            value = det.evaluate(p)
        except PoleAtPoint:
            continue
        if value:
            return PointClass.ELLIPTIC if value > 0 else PointClass.HYPERBOLIC
    raise SampleBudgetExhausted("could not find a definite sample for the form sign")


@dataclass(frozen=True)
class SampleRow:
    index: int
    point: PointQ
    point_class: PointClass


@dataclass(frozen=True)
class SkippedRow:
    point: PointQ
    reason: str


@dataclass(frozen=True)
class RegularityReport:
    generic_class: PointClass
    samples: tuple
    skipped: tuple
    regular: bool
    seed: int

    @property
    def verdict(self):
        return "regular" if self.regular else "singular-detected"

    def to_json_dict(self):
        return {
            "generic_class": self.generic_class.value,
            "verdict": self.verdict,
            "seed": self.seed,
            "samples": [
                {"index": s.index, "point": s.point.render(),
                 "class": s.point_class.value}
                for s in self.samples
            ],
            "skipped": [
                {"point": s.point.render(), "reason": s.reason}
                for s in self.skipped
            ],
        }


def regularity_scan(dist, n_samples=20, seed=0):
    """Classify at seeded sample points and test constancy of the class.

    Points where the growth vector drops, the adapted frame degenerates, or a
    pole appears are skipped (within a budget of ``_RETRY_FACTOR`` points per
    wanted sample); a successfully classified point whose class differs from
    the generic one makes the verdict singular.
    """
    return Classification(dist, n_samples, seed).scan


class Classification:
    """The classification stages of one distribution, each built at most once.

    The sample count and the seed are fixed when the object is built.  The
    derived flag, adapted frame, bracket form, generic class and regularity
    scan are built on first use and kept for the object's life: one request
    or one public call.  Every stage that samples reads one stream of points,
    ``points``, so each point is built once per object.
    """

    def __init__(self, dist, samples=20, seed=0):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.dist = dist
        self.samples = samples
        self.seed = seed
        self._drawn = []
        self._stream = sample_points(dist.chart, seed)

    def points(self, budget):
        """The first ``budget`` points of the seed's ``sample_points``, from
        one list extended on demand: each point (with the monomial values it
        keeps) is built once per object."""
        drawn = self._drawn
        for i in range(budget):
            if i == len(drawn):
                drawn.append(next(self._stream))
            yield drawn[i]

    @cached_property
    def derived(self):
        """``(steps, growth)`` of the derived flag, whatever the growth."""
        return derived_flag(self.dist)

    @property
    def steps(self):
        """The derived-flag steps; raises NotGrowth356 unless growth is (3,5,6)."""
        steps, growth = self.derived
        if growth.ranks != (3, 5, 6):
            raise NotGrowth356(f"growth vector is {growth.render()}")
        return steps

    @cached_property
    def frame(self):
        dist = self.dist
        self.steps  # raises NotGrowth356 before any frame work
        chart = dist.chart
        plane = square_root_subdistribution(dist)
        x1, x2 = plane.frame
        y = _complete_with_field([x1, x2], list(dist.frame), 3)
        if y is None:
            raise ConsistencyError("no frame field completes the square-root plane")
        y1 = lie_bracket(y, x1)
        y2 = lie_bracket(y, x2)
        five = [x1, x2, y, y1, y2]
        ech = Echelon(chart.dimension, [f.coefficients for f in five])
        if ech.rank != 5:
            raise ConsistencyError("adapted five-frame does not have rank 5")
        pivot_cols = set(ech.pivot_columns())
        missing = [i for i in range(chart.dimension) if i not in pivot_cols]
        z = coordinate_field(chart, chart.variables[missing[0]])
        return AdaptedFrame(x1, x2, y, y1, y2, z)

    @cached_property
    def form(self):
        return bracket_form(self.dist, self.frame)

    @cached_property
    def generic_class(self):
        return classify_form_generic(self.form, self.points(_SEARCH_BUDGET))

    def class_at(self, point):
        form = self.form
        if growth_at(self.dist, point, self.steps) != (3, 5, 6):
            raise NotGrowth356(f"growth vector at {point.render()} is not (3,5,6)")
        if form.frame.rank_at(point) != self.dist.chart.dimension:
            raise PoleAtPoint(
                f"adapted frame degenerates at {point.render()}; choose another point")
        return _classify_values(*form.evaluate(point))

    @cached_property
    def scan(self):
        dist = self.dist
        steps = self.steps
        form = self.form
        generic = self.generic_class
        n_samples = self.samples
        samples = []
        skipped = []
        points = self.points(n_samples * _RETRY_FACTOR)
        while len(samples) < n_samples:
            p = next(points, None)
            if p is None:
                raise SampleBudgetExhausted(
                    f"no {n_samples} usable sample points within budget")
            try:
                if growth_at(dist, p, steps) != (3, 5, 6):
                    skipped.append(SkippedRow(p, "growth-drop"))
                    continue
                if form.frame.rank_at(p) != dist.chart.dimension:
                    skipped.append(SkippedRow(p, "frame-degenerate"))
                    continue
                a11, a12, a22 = form.evaluate(p)
            except PoleAtPoint:
                skipped.append(SkippedRow(p, "pole"))
                continue
            samples.append(SampleRow(len(samples), p, _classify_values(a11, a12, a22)))
        regular = all(s.point_class == generic for s in samples)
        return RegularityReport(generic, tuple(samples), tuple(skipped), regular,
                                self.seed)

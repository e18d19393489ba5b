"""Distributions, derived flags, growth vectors, and the square-root plane.

A distribution is carried by a frame of vector fields; all span computations
are generic (over the function field).  Pointwise ranks read the full
generator lists, so points where a reduced basis happens to degenerate are
still measured correctly, and a pole of any generator raises PoleAtPoint.
Each flag step keeps a ``linalg.PointRank`` of its generators, built on
first use by a constant-pivot elimination; a point then costs a check of
the generators' denominators and, rarely, a certified rank of the rows that
elimination leaves.
Generator lists hold each bracket once, up to sign (``bracket_span``,
``derived_flag``): a bracket that is zero or ± an earlier generator changes
no span, no reduced basis and no rank at a point.  Span equalities between
the parabolic flag's strata are decided by its bracket table
(``parabolic.BracketTable``), not here.
"""

from __future__ import annotations

from .algebra import sum_of_products
from .calculus import VectorField, lie_bracket, pairing
from .errors import ChartMismatch, ConsistencyError, DependentForms, NotRank35
from .linalg import Echelon, PointRank, kernel_basis, rank_generic


class Distribution:
    """A frame of vector fields with cached generic rank.

    ``generators`` is a spanning set that may be larger than the frame; it is
    kept so pointwise ranks see every bracket that built the span, not only
    the generic basis selected from them.  An empty frame (rank 0) is allowed.
    """

    __slots__ = ("chart", "frame", "generators", "_rank", "_point_rank")

    def __init__(self, chart, frame, generators=None):
        frame = tuple(frame)
        for f in frame:
            if f.chart != chart:
                raise ChartMismatch("frame field on a different chart")
        self.chart = chart
        self.frame = frame
        self.generators = tuple(generators) if generators is not None else frame
        self._rank = None
        self._point_rank = None

    @property
    def generic_rank(self):
        if self._rank is None:
            self._rank = rank_generic([f.coefficients for f in self.frame])
        return self._rank

    @property
    def point_rank(self):
        """The ``linalg.PointRank`` of the generators, built on first use."""
        if self._point_rank is None:
            self._point_rank = PointRank([g.coefficients for g in self.generators])
        return self._point_rank

    def echelon(self):
        return Echelon(self.chart.dimension,
                       [f.coefficients for f in self.frame])

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.chart == other.chart and self.frame == other.frame

    def __hash__(self):
        return hash((self.chart, self.frame))

    def __repr__(self):
        return f"Distribution(rank {self.generic_rank} on {self.chart.name})"


class GrowthVector:
    """Strictly increasing generic ranks of the iterated bracket flag."""

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        self.ranks = tuple(ranks)

    def render(self):
        return "(" + ",".join(str(r) for r in self.ranks) + ")"

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.ranks == other
        if not isinstance(other, GrowthVector):
            return NotImplemented
        return self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        return f"GrowthVector{self.ranks}"


def span_reduce(fields):
    """Reduced basis of the span, as normalized echelon rows.

    Each returned field has coefficient one at its pivot column, so a reduced
    frame never vanishes at a point where its denominators are defined; raw
    bracket generators, by contrast, can pick up removable zero loci.
    """
    if not fields:
        return []
    chart = fields[0].chart
    ech = Echelon(chart.dimension)
    for f in fields:
        ech.add(f.coefficients)
    return [VectorField(chart, row) for row in ech.rows]


def annihilator_frame(forms):
    """Distribution annihilated by the given generically independent one-forms."""
    if not forms:
        raise DependentForms("need at least one form")
    chart = forms[0].chart
    for w in forms:
        if w.chart != chart:
            raise ChartMismatch("forms on different charts")
    rows = [w.coefficients for w in forms]
    if rank_generic(rows) != len(forms):
        raise DependentForms("one-forms are generically dependent")
    frame = [VectorField(chart, vec) for vec in kernel_basis(rows)]
    dist = Distribution(chart, frame)
    for w in forms:
        for x in frame:
            if not pairing(w, x).is_zero():
                raise ConsistencyError("annihilator frame fails to annihilate")
    return dist


def combine(fields, coords):
    """The field sum(c_i * F_i) of nonempty ``fields`` and ``RatFunc``
    coefficients ``coords``."""
    chart = fields[0].chart
    return VectorField(chart, [
        sum_of_products(chart, [(c, f.coefficients[k], 1) for c, f in zip(coords, fields)])
        for k in range(chart.dimension)])


def derived_flag(dist):
    """Flag D, D + [D,D], ... until stabilization, with its growth vector.

    Semi-naive: step k+1 adds the brackets of the input frame with the
    generators step k added; brackets with older ones are already in the list
    up to sign, or zero.  Returned distributions carry reduced frames but keep
    the full generator lists for pointwise evaluation.  Each step's list is a
    prefix of the next one's, and one elimination inserts each generator
    once.
    """
    chart = dist.chart
    gens = added = list(dist.frame)
    seen = set(gens)
    ech = Echelon(chart.dimension)
    steps, ranks = [], []
    while True:
        for g in added:
            ech.add(g.coefficients)
        if ranks and ech.rank == ranks[-1]:
            break
        step = Distribution(chart, [VectorField(chart, r) for r in ech.rows], gens)
        # reduced echelon rows are independent, so the generic rank needs no
        # elimination; growth_at bounds its point ranks by it
        step._rank = ech.rank
        steps.append(step)
        ranks.append(ech.rank)
        if ech.rank == chart.dimension:
            break
        added = _new_brackets(dist.frame, added, seen)
        gens = gens + added
    return steps, GrowthVector(ranks)


def growth_at(dist, point, steps=None):
    """Pointwise ranks of the (generically computed) flag steps.

    Each step's rank comes from the ``PointRank`` of its generators, built
    once per step, against its generic rank; a pole of any generator raises
    PoleAtPoint.
    """
    if steps is None:
        steps, _ = derived_flag(dist)
    return tuple(step.point_rank.rank_at(point, step.generic_rank) for step in steps)


def bracket_span(fields_a, fields_b):
    """Generators of A + B + [sections of A, sections of B].

    Each unordered pair of fields (by identity) is bracketed once, and a
    bracket that is zero or ± an earlier generator is dropped.
    """
    gens = list(fields_a)
    seen = set(gens)
    for g in fields_b:
        if g not in seen:
            seen.add(g)
            gens.append(g)
    return gens + _new_brackets(fields_a, fields_b, seen)


def _new_brackets(fields_a, fields_b, seen):
    """Nonzero brackets of each unordered pair not ± in ``seen``, added to it."""
    done = set()
    out = []
    for a in fields_a:
        for b in fields_b:
            if a is b or (id(b), id(a)) in done:
                continue
            done.add((id(a), id(b)))
            br = lie_bracket(a, b)
            if br.is_zero() or br in seen or -br in seen:
                continue
            seen.add(br)
            out.append(br)
    return out


def square_root_subdistribution(dist):
    """The unique rank-2 subplane whose self-bracket stays in the distribution.

    Requires generic rank 3 with rank-5 first derived span.  The kernel of
    the bracket map on wedge squares is one-dimensional there; its (always
    decomposable) kernel bivector is split back into a plane by solving the
    wedge-annihilation condition.
    """
    chart = dist.chart
    if dist.generic_rank != 3 or len(dist.frame) != 3:
        raise NotRank35("need a rank-3 frame")
    f1, f2, f3 = dist.frame
    brackets = [lie_bracket(f1, f2), lie_bracket(f1, f3), lie_bracket(f2, f3)]
    ech = dist.echelon()
    images = [ech.residual(b.coefficients) for b in brackets]
    # the frame is independent, so D + [D,D] has rank 3 + rank(images)
    if rank_generic(images) != 2:
        raise NotRank35("first derived span does not have rank 5")
    kernel = kernel_basis([list(column) for column in zip(*images)])
    if len(kernel) != 1:
        raise ConsistencyError("wedge kernel is not one-dimensional")
    b12, b13, b23 = kernel[0]
    # v ^ beta = 0 in a rank-3 fiber picks out exactly the plane of beta.
    plane = kernel_basis([[b23, -b13, b12]])
    if len(plane) != 2:
        raise ConsistencyError("bivector did not decompose into a plane")
    fields = [combine(dist.frame, coords) for coords in plane]
    result = Distribution(chart, fields)
    if result.generic_rank != 2:
        raise ConsistencyError("square-root plane has wrong rank")
    if not ech.contains(lie_bracket(fields[0], fields[1]).coefficients):
        raise ConsistencyError("square-root bracket escapes the distribution")
    return result

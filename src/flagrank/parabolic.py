"""The parabolic flag, its bracket relations, symbol algebras, and branching.

For a parabolic growth-(3,5,6) distribution the package builds the canonical
flag of ranks 1..5, checks the defining bracket relations as exact generic
span equalities, extracts the graded nilpotent symbol algebra together with
its normalized invariant d in {0, 1}, tests integrability of the reduced
rank-2 pair through its upstairs preimage, and reports which of the three
classified branches (or the open one) the input belongs to.

Every stage is built in one place, ``Analysis``: one object per distribution
that builds each stage on first use and reuses it.  It lives for one request
or one public call, never longer; the public functions are thin reads of a
fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .calculus import coordinate_field, lie_bracket
from .classification import Classification, PointClass, \
    _complete_with_field, sample_points
from .distribution import Distribution, bracket_span, combine, derived_flag, \
    frobenius_integrable, growth_at, span_reduce, spans_equal
from .errors import ConsistencyError, NotGrowth356, NotParabolic, \
    NotParabolicNonDeg, PoleAtPoint, RankUnexpected, SampleBudgetExhausted, \
    SingularDistribution
from .linalg import Echelon, certified_pair_rank, fraction_solve, kernel_basis, \
    solve_in_span


class FlagBranch(Enum):
    DEGENERATE = "degenerate"
    NONDEGENERATE = "nondegenerate"


@dataclass(frozen=True)
class ParabolicFlag:
    """Nested subdistributions of ranks 1..5; index by rank."""

    strata: tuple
    branch: FlagBranch

    def __getitem__(self, rank):
        if not 1 <= rank <= 5:
            raise IndexError("flag ranks run from 1 to 5")
        return self.strata[rank - 1]

    def to_json_dict(self):
        return {
            "branch": self.branch.value,
            "strata": [
                {"rank": d.generic_rank,
                 "frame": [f.render() for f in d.frame]}
                for d in self.strata
            ],
        }


def _bracket_kernel(domain_fields, direction, mod_echelon):
    """Combos v of the domain with [direction, v] = 0 modulo the echelon span.

    Derivative terms of non-constant combination coefficients stay inside the
    domain span, so the condition is pointwise-linear in the coefficients and
    solvable exactly over the function field.
    """
    residuals = [mod_echelon.residual(lie_bracket(direction, f).coefficients)
                 for f in domain_fields]
    rows = [list(column) for column in zip(*residuals)]
    return [combine(domain_fields, c) for c in kernel_basis(rows)]


def parabolic_flag(dist, point_class=None):
    """The invariant flag of ranks 1..5 attached to a parabolic distribution."""
    analysis = Analysis(dist)
    if point_class is None:
        return analysis.flag
    return analysis.build_flag(point_class)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    holds: bool


def _span_relation(fields_a, fields_b, expected_fields):
    gens = bracket_span(fields_a, fields_b)
    return spans_equal(gens, expected_fields)


def verify_flag_relations(flag):
    """Exact generic span checks of the flag's defining bracket relations.

    Failures are reported, not raised: they mean the input left the class the
    flag was computed for.
    """
    d1, d2, d3, d4, d5 = flag.strata
    chart = d1.chart
    tangent = [coordinate_field(chart, v) for v in chart.variables]
    checks = [
        ("[D1,D2]=D2", _span_relation(d1.frame, d2.frame, d2.frame)),
        ("[D1,D3]=D4", _span_relation(d1.frame, d3.frame, d4.frame)),
        ("[D1,D4]=D4", _span_relation(d1.frame, d4.frame, d4.frame)),
    ]
    if flag.branch is FlagBranch.NONDEGENERATE:
        checks += [
            ("[D1,D5]=D5", _span_relation(d1.frame, d5.frame, d5.frame)),
            ("[D2,D3]=D5", _span_relation(d2.frame, d3.frame, d5.frame)),
            ("[D2,D4]=D5", _span_relation(d2.frame, d4.frame, d5.frame)),
            ("[D2,D5]=TM", _span_relation(d2.frame, d5.frame, tangent)),
        ]
    else:
        checks += [
            ("[D4,D4]=D5", _span_relation(d4.frame, d4.frame, d5.frame)),
            ("[D2,D4]=D5", _span_relation(d2.frame, d4.frame, d5.frame)),
            ("[D2,D5]=D5", _span_relation(d2.frame, d5.frame, d5.frame)),
            ("[D5,D5]=TM", _span_relation(d5.frame, d5.frame, tangent)),
        ]
    return [RelationCheck(name, holds) for name, holds in checks]


class SymbolClass(Enum):
    G0 = "g0"
    G1 = "g1"


_LABELS = (1, 2, 3, 4, 5, 7)
_WEIGHTS = {1: -1, 2: -2, 3: -3, 4: -4, 5: -5, 7: -7}
# index pairs (a, b), a < b, of the symbol frame's 15 brackets
_PAIRS = tuple((a, b) for a in range(len(_LABELS))
               for b in range(a + 1, len(_LABELS)))


@dataclass(frozen=True)
class SymbolAlgebra:
    """Graded nilpotent symbol at a point, in the basis e1..e5, e7.

    The basis is built so [e1,e3]=e4, [e2,e3]=e5, [e2,e5]=e7 hold with
    coefficient one; the remaining invariant d is the e7-component of
    [e3,e4], normalized to 1 by rescaling the depth-3 direction whenever it
    is nonzero.  ``grading_violations`` lists any bracket component landing
    below its graded slot (always empty for inputs in the class).
    """

    point: object
    constants: dict
    d_raw: Fraction
    d_normalized: int
    grading_violations: tuple
    basis_rendered: tuple

    def constant(self, i, j, k):
        if i == j:
            return Fraction(0)
        if i > j:
            return -self.constant(j, i, k)
        return self.constants.get((i, j), {}).get(k, Fraction(0))

    def antisymmetry_ok(self):
        return all(self.constant(i, j, k) == -self.constant(j, i, k)
                   for i in _LABELS for j in _LABELS for k in _LABELS)

    def jacobi_ok(self):
        for i in _LABELS:
            for j in _LABELS:
                for k in _LABELS:
                    for target in _LABELS:
                        total = Fraction(0)
                        for m in _LABELS:
                            total += self.constant(i, j, m) * self.constant(m, k, target)
                            total += self.constant(j, k, m) * self.constant(m, i, target)
                            total += self.constant(k, i, m) * self.constant(m, j, target)
                        if total != 0:
                            return False
        return True

    def grading_ok(self):
        for (i, j), comps in self.constants.items():
            for k, value in comps.items():
                if value != 0 and _WEIGHTS[i] + _WEIGHTS[j] != _WEIGHTS[k]:
                    return False
        return not self.grading_violations

    def to_json_dict(self):
        table = {}
        for (i, j), comps in sorted(self.constants.items()):
            rendered = {f"e{k}": str(v) for k, v in sorted(comps.items()) if v != 0}
            if rendered:
                table[f"[e{i},e{j}]"] = rendered
        return {
            "point": self.point.render(),
            "d_raw": str(self.d_raw),
            "d_normalized": self.d_normalized,
            "brackets": table,
            "grading_violations": list(self.grading_violations),
        }


def _partials_at(point, coeff, partials):
    """{j: ∂_j(n/d)(point)} of a coefficient n/d with d(point) != 0.

    ``partials`` lists (j, ∂_j n, ∂_j d).  Each polynomial evaluates to an
    integer over a power of the point's common denominator B, and
    ∂_j(n/d) = (∂_j n * d - n * ∂_j d) / d^2 builds one Fraction.
    """
    n, n_deg = point.homogenized(coeff.num)
    d, d_deg = point.homogenized(coeff.den)
    out = {}
    for j, n_j, d_j in partials:
        nj, nj_deg = point.homogenized(n_j)
        dj, dj_deg = point.homogenized(d_j)
        # both products over the common scale B^top_deg
        left, right = nj_deg + d_deg, n_deg + dj_deg
        top_deg = max(left, right)
        top = nj * d * point.scale_power(top_deg - left) \
            - n * dj * point.scale_power(top_deg - right)
        if top:
            out[j] = Fraction(top * point.scale_power(2 * d_deg),
                              d * d * point.scale_power(top_deg))
    return out


def symbol_d_function(dist, flag):
    """The d-invariant as a rational function (zero iff the symbol is g0)."""
    return Analysis(dist, flag).d_function


def symbol_algebra_at(dist, point):
    """Structure constants of the nilpotentization at a point, with d normalized.

    Requires the non-degenerate parabolic class at the point and a symbol
    frame of rank 6 there.  The 15 brackets of the frame are evaluated at the
    point from its exact first jets and solved in one elimination over ℚ; no
    bracket is computed symbolically.  Components of each bracket that sit
    exactly in the graded slot of the pair are the reported constants;
    components landing strictly deeper are recorded as grading violations
    (none occur for inputs in the class).
    """
    return Analysis(dist).symbol_at(point)


def e_subdistribution(dist, flag, transverse=None):
    """Upstairs preimage of the reduced rank-2 plane, inside the rank-4 stratum.

    E collects the depth-4 sections whose bracket with a fixed plane section
    transverse to the flag line stays in depth 4; the result is independent
    of that choice.
    """
    if flag.branch is not FlagBranch.NONDEGENERATE:
        raise NotParabolicNonDeg("reduced-pair analysis needs the non-degenerate branch")
    chart = dist.chart
    line = flag[1].frame[0]
    if transverse is None:
        transverse = _complete_with_field([line], list(flag[2].frame), 2)
        if transverse is None:
            raise ConsistencyError("no plane field transverse to the flag line")
    d4 = flag[4]
    combos = _bracket_kernel(list(d4.frame), transverse, d4.echelon())
    sub = Distribution(chart, span_reduce(combos))
    if sub.generic_rank != 3:
        raise RankUnexpected(
            f"preimage plane has rank {sub.generic_rank}, expected 3")
    ech = sub.echelon()
    for f in flag[2].frame:
        if not ech.contains(f.coefficients):
            raise ConsistencyError("preimage does not contain the rank-2 stratum")
    return sub


def b2_integrable(dist, flag=None):
    """Integrability of the reduced plane, tested on its upstairs preimage."""
    return frobenius_integrable(Analysis(dist, flag).e_sub)


def completely_nondegenerate(dist, n_samples=20, seed=0, flag=None,
                             retry_factor=25):
    """True iff the preimage plane's flag ranks are constant across samples."""
    return Analysis(dist, flag).completely_nondegenerate(n_samples, seed,
                                                         retry_factor)


class Verdict(Enum):
    THEOREM1 = "Theorem1"
    THEOREM2 = "Theorem2"
    THEOREM3 = "Theorem3"
    OPEN_BRANCH = "OpenBranch"


@dataclass(frozen=True)
class BranchReport:
    """Full classification outcome for one distribution."""

    point_class: PointClass
    growth: object
    flag: ParabolicFlag
    relations: tuple
    scan: object
    symbol: SymbolAlgebra
    symbol_class: SymbolClass
    d_function: str
    b2_integrable: bool
    completely_nondegenerate: bool
    verdict: Verdict
    equation_type: bool

    def to_json_dict(self):
        out = {
            "point_class": self.point_class.value,
            "growth": self.growth.render(),
            "verdict": self.verdict.value,
            "flag": self.flag.to_json_dict(),
            "relations": [{"name": r.name, "holds": r.holds}
                          for r in self.relations],
            "scan": self.scan.to_json_dict(),
        }
        if self.symbol_class is not None:
            out["symbol_class"] = self.symbol_class.value
            out["d_function"] = self.d_function
            out["symbol"] = self.symbol.to_json_dict() if self.symbol else None
            out["b2_integrable"] = self.b2_integrable
            out["completely_nondegenerate"] = self.completely_nondegenerate
        if self.equation_type is not None:
            out["equation_type"] = self.equation_type
        return out


def branch_classify(dist, samples=20, seed=0):
    """Classify a distribution into the three settled branches or the open one.

    Requires growth (3,5,6), a regular scan, and a parabolic class.  In the
    non-degenerate branch the symbol class is decided by the d-invariant as
    an exact rational function, cross-checked against the depth-4 bracket
    behaviour; the reported pointwise symbol algebra is extracted at the
    first usable seeded sample point.
    """
    return Analysis(dist).branch(samples, seed)


class Analysis(Classification):
    """Every pipeline stage of one distribution, each built at most once.

    Adds the flag, its relations, the symbol frame with the first partials
    of its coefficients (the symbol at a point is built from their values
    there), the d-function (the one bracket of the frame solved over the
    function field) and the E-subdistribution.  A given ``flag`` replaces
    the flag stage.
    """

    def __init__(self, dist, flag=None):
        super().__init__(dist)
        if flag is not None:
            self.flag = flag

    @cached_property
    def flag(self):
        return self.build_flag(self.generic_class())

    def build_flag(self, point_class):
        """The flag for the given point class; ``flag`` keeps the generic one."""
        d5 = self.steps[1]
        frame = self.frame
        form = self.form
        if not point_class.is_parabolic:
            raise NotParabolic(f"point class is {point_class.value}")
        dist = self.dist
        chart = dist.chart
        d3 = dist
        d2 = Distribution(chart, (frame.x1, frame.x2))
        if point_class is PointClass.PARABOLIC_DEG:
            branch = FlagBranch.DEGENERATE
            ech5 = d5.echelon()
            combos = _bracket_kernel(list(d5.frame), frame.y, ech5)
            d4 = Distribution(chart, span_reduce(combos))
            if d4.generic_rank != 4:
                raise ConsistencyError("degenerate-branch depth-4 stratum has wrong rank")
            ech4 = d4.echelon()
            line = _bracket_kernel([frame.x1, frame.x2], frame.y, ech4)
            line = [f for f in line if not f.is_zero()]
            if len(span_reduce(line)) != 1:
                raise ConsistencyError("degenerate-branch line is not one-dimensional")
            d1 = Distribution(chart, (span_reduce(line)[0],))
        else:
            branch = FlagBranch.NONDEGENERATE
            radical = kernel_basis(form.matrix())
            if len(radical) != 1:
                raise ConsistencyError("form radical is not one-dimensional")
            line_field = combine([frame.x1, frame.x2], radical[0])
            d1 = Distribution(chart, (line_field,))
            gens = list(dist.frame) + [lie_bracket(line_field, f) for f in dist.frame]
            d4 = Distribution(chart, span_reduce(gens))
            if d4.generic_rank != 4:
                raise ConsistencyError("depth-4 stratum has wrong rank")
        strata = (d1, d2, d3, d4, d5)
        for expected, stratum in zip((1, 2, 3, 4, 5), strata):
            if stratum.generic_rank != expected:
                raise ConsistencyError(
                    f"flag stratum of rank {expected} came out rank {stratum.generic_rank}")
        return ParabolicFlag(strata, branch)

    @cached_property
    def relations(self):
        return tuple(verify_flag_relations(self.flag))

    @cached_property
    def symbol_fields(self):
        """Frame (F1..F5, F7) whose point values realize the symbol basis."""
        dist, flag = self.dist, self.flag
        f1 = flag[1].frame[0]
        f2 = _complete_with_field([f1], list(flag[2].frame), 2)
        if f2 is None:
            raise ConsistencyError("no plane field transverse to the flag line")
        f3 = _complete_with_field([f1, f2], list(dist.frame), 3)
        if f3 is None:
            raise ConsistencyError("no frame field transverse to the plane")
        f4 = lie_bracket(f1, f3)
        f5 = lie_bracket(f2, f3)
        f7 = lie_bracket(f2, f5)
        fields = [f1, f2, f3, f4, f5, f7]
        ech = Echelon(dist.chart.dimension, [f.coefficients for f in fields])
        if ech.rank != 6:
            raise ConsistencyError("symbol frame is generically degenerate")
        return fields

    @cached_property
    def symbol_partials(self):
        """First partials of the symbol frame's coefficients, as polynomials.

        Entry [a][i] belongs to coefficient i of F_a, a reduced n/d: None when
        it is constant, else a list of (j, ∂_j n, ∂_j d) over the coordinates
        j that n or d contains.
        """
        variables = self.dist.chart.variables
        partials = []
        for f in self.symbol_fields:
            row = []
            for c in f.coefficients:
                if c.is_constant():
                    row.append(None)
                    continue
                used = c.variables_used()
                row.append([(j, c.num.derivative(v), c.den.derivative(v))
                            for j, v in enumerate(variables) if v in used])
            partials.append(row)
        return partials

    @cached_property
    def d_function(self):
        """The e7-coordinate of [F3, F4]: the d-invariant before normalization.

        This is the symbol stage's one symbolic solve; ``symbol_at`` works
        from first jets at its point.
        """
        fields = self.symbol_fields
        coords = solve_in_span(lie_bracket(fields[2], fields[3]).coefficients,
                               [f.coefficients for f in fields])
        if coords is None:
            raise ConsistencyError("[e3,e4] left the symbol frame span")
        return coords[5]

    def bracket_coordinates_at(self, point):
        """Coordinates of the 15 brackets [F_a, F_b], a < b, in the symbol frame.

        They come from the frame's exact first jets at the point:
        [F_a, F_b]^i = sum_j F_a^j ∂_j F_b^i - F_b^j ∂_j F_a^i, and one
        elimination over ℚ of the frame's values solves all 15 brackets.
        Raises PoleAtPoint where a frame coefficient has a pole or the frame
        has rank below 6; elsewhere every reduced symbolic coordinate is
        regular at the point and has exactly these values.
        """
        fields = self.symbol_fields
        # every coefficient is evaluated before any bracket, so a pole raises here
        pairs = [[c.integer_pair(point) for c in f.coefficients] for f in fields]
        if certified_pair_rank(pairs, 6) != 6:
            raise PoleAtPoint(
                f"symbol frame degenerates at {point.render()}; choose another point")
        values = [[Fraction(n, d) for n, d in row] for row in pairs]
        jets = [[{} if parts is None else _partials_at(point, c, parts)
                 for c, parts in zip(f.coefficients, row)]
                for f, row in zip(fields, self.symbol_partials)]
        brackets = []
        for a, b in _PAIRS:
            bracket = []
            for jet_a, jet_b in zip(jets[a], jets[b]):
                total = 0
                for j, partial in jet_b.items():
                    if values[a][j]:
                        total += values[a][j] * partial
                for j, partial in jet_a.items():
                    if values[b][j]:
                        total -= values[b][j] * partial
                bracket.append(total)
            brackets.append(bracket)
        return fraction_solve(values, brackets)

    def symbol_at(self, point):
        """``(SymbolAlgebra, SymbolClass)`` at a point; see ``symbol_algebra_at``."""
        cls = self.generic_class()
        if cls is not PointClass.PARABOLIC_NONDEG:
            raise NotParabolicNonDeg(f"generic class is {cls.value}")
        point_cls = self.class_at(point)
        if point_cls is not PointClass.PARABOLIC_NONDEG:
            raise NotParabolicNonDeg(f"class at {point.render()} is {point_cls.value}")
        fields = self.symbol_fields
        coordinates = self.bracket_coordinates_at(point)
        constants = {}
        violations = []
        for (a, b), coords in zip(_PAIRS, coordinates):
            i, j = _LABELS[a], _LABELS[b]
            target = _WEIGHTS[i] + _WEIGHTS[j]
            comps = {}
            for k, value in zip(_LABELS, coords):
                if value == 0:
                    continue
                if _WEIGHTS[k] == target:
                    comps[k] = value
                elif _WEIGHTS[k] < target:
                    violations.append(f"[e{i},e{j}] has a component on e{k}")
            constants[(i, j)] = comps
        d_raw = constants.get((3, 4), {}).get(7, Fraction(0))
        if d_raw != 0:
            constants[(3, 4)] = {7: Fraction(1)}
            d_normalized = 1
            sym_class = SymbolClass.G1
        else:
            d_normalized = 0
            sym_class = SymbolClass.G0
        algebra = SymbolAlgebra(
            point=point,
            constants=constants,
            d_raw=d_raw,
            d_normalized=d_normalized,
            grading_violations=tuple(violations),
            basis_rendered=tuple(f.render() for f in fields),
        )
        return algebra, sym_class

    @cached_property
    def e_sub(self):
        return e_subdistribution(self.dist, self.flag)

    def completely_nondegenerate(self, n_samples=20, seed=0, retry_factor=25):
        sub = self.e_sub
        steps, growth = derived_flag(sub)
        stream = sample_points(self.dist.chart, seed)
        good = 0
        budget = n_samples * retry_factor
        while good < n_samples:
            if budget == 0:
                raise SampleBudgetExhausted("no usable sample points for growth scan")
            budget -= 1
            p = next(stream)
            try:
                ranks = growth_at(sub, p, steps)
            except PoleAtPoint:
                continue
            if ranks != growth.ranks:
                return False
            good += 1
        return True

    def _find_symbol_sample(self, seed, budget=200):
        stream = sample_points(self.dist.chart, seed)
        last_error = None
        for _ in range(budget):
            p = next(stream)
            try:
                return self.symbol_at(p)
            except (NotGrowth356, PoleAtPoint, NotParabolicNonDeg) as exc:
                # the scan has checked the generic growth, so NotGrowth356
                # here is a point where the growth drops: skip it as the
                # scan does
                last_error = exc
                continue
        raise SampleBudgetExhausted(
            f"no usable point for symbol extraction: {last_error}")

    def branch(self, samples=20, seed=0):
        """The ``BranchReport``; see ``branch_classify``."""
        growth = self.derived[1]
        scan = self.scan(samples, seed)
        if not scan.regular:
            raise SingularDistribution(
                "point class is not constant across the sampled points")
        cls = scan.generic_class
        if not cls.is_parabolic:
            raise NotParabolic(f"point class is {cls.value}; branch analysis "
                               "applies to parabolic inputs")
        flag = self.flag
        relations = self.relations
        if flag.branch is FlagBranch.DEGENERATE:
            return BranchReport(
                point_class=cls, growth=growth, flag=flag, relations=relations,
                scan=scan, symbol=None, symbol_class=None, d_function=None,
                b2_integrable=None, completely_nondegenerate=None,
                verdict=Verdict.THEOREM1, equation_type=None)
        d_func = self.d_function
        sym_class = SymbolClass.G0 if d_func.is_zero() else SymbolClass.G1
        algebra, _ = self._find_symbol_sample(seed)
        b2 = frobenius_integrable(self.e_sub)
        cnd = self.completely_nondegenerate(samples, seed)
        d4, d5 = flag[4], flag[5]
        deep_gens = bracket_span(d4.frame, d4.frame)
        ech5 = d5.echelon()
        depth4_closed = all(ech5.contains(g.coefficients) for g in deep_gens)
        if depth4_closed != (sym_class is SymbolClass.G0):
            raise ConsistencyError(
                "depth-4 bracket behaviour contradicts the symbol class")
        if not b2:
            verdict = Verdict.THEOREM2
            equation_type = sym_class is SymbolClass.G0
        elif sym_class is SymbolClass.G0:
            verdict = Verdict.THEOREM3
            equation_type = None
        else:
            verdict = Verdict.OPEN_BRANCH
            equation_type = None
        return BranchReport(
            point_class=cls, growth=growth, flag=flag, relations=relations,
            scan=scan, symbol=algebra, symbol_class=sym_class,
            d_function=d_func.render(), b2_integrable=b2,
            completely_nondegenerate=cnd, verdict=verdict,
            equation_type=equation_type)

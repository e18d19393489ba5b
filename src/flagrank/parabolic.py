"""The parabolic flag, its bracket relations, symbol algebras, and branching.

For a parabolic growth-(3,5,6) distribution the package builds the canonical
flag of ranks 1..5, checks the defining bracket relations as exact generic
span equalities, extracts the graded nilpotent symbol algebra together with
its normalized invariant d in {0, 1}, tests integrability of the reduced
rank-2 pair through the derived flag of its upstairs preimage E, and reports
which of the three classified branches (or the open one) the input belongs
to.  The symbol at a point reads the memoised partials of the 8 brackets
that can carry a constant.

Every stage is built in one place, ``Analysis``: one object per distribution,
sample count and seed that builds each stage on first use and reuses it.  It
lives for one request or one public call, never longer; ``parabolic_flag``,
``symbol_d_function``, ``symbol_algebra_at`` and ``branch_classify`` are
thin reads of a fresh one.

Each flag carries one ``BracketTable``, built on first use: a nested frame
f1..f5 with f1..fk spanning the rank-k stratum, the brackets of its fields
(each unordered pair once) and their residuals against each stratum.  The
relation checks and the depth-4 check of ``Analysis.branch`` all read it, so
the seven relations of the non-degenerate branch cost seven brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .algebra import _render_fraction
from .calculus import lie_bracket
from .classification import _RETRY_FACTOR, _SEARCH_BUDGET, Classification, \
    PointClass, _complete_with_field, _residual_coordinate
from .distribution import Distribution, combine, derived_flag, growth_at, span_reduce
from .errors import ConsistencyError, NotGrowth356, NotParabolic, \
    NotParabolicNonDeg, PoleAtPoint, RankUnexpected, SampleBudgetExhausted, \
    SingularDistribution
from .linalg import Echelon, certified_pair_rank, fraction_solve, kernel_basis


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

    @cached_property
    def brackets(self):
        """The flag's ``BracketTable``, built on first use."""
        return BracketTable(self.strata)

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


def parabolic_flag(dist):
    """The invariant flag of ranks 1..5 attached to a parabolic distribution."""
    return Analysis(dist).flag


@dataclass(frozen=True)
class RelationCheck:
    name: str
    holds: bool


# the target index c of a relation [D_a, D_b] = TM, the whole tangent bundle
_TANGENT = 6


class BracketTable:
    """The brackets of one flag's strata, each computed at most once.

    One incremental ``Echelon`` walks the strata in order: f_k is the first
    field of D_k's frame that enlarges the span of f_1..f_(k-1), and the
    strata are nested exactly when each D_k has rank k and the rank after
    stratum k is k (then D_k is the sum of D_1..D_k).  The fields of D_k are
    then f_1..f_k and its echelon is the walk's after stratum k.
    A flag that does not nest (only a hand-built one can fail to) keeps each
    stratum's own frame and echelon; the checks below are the same.

    By the Leibniz rule any frames of A and B generate the same
    A + B + [A, B], so the checks are exact generic span statements.
    """

    def __init__(self, strata):
        self.width = strata[0].chart.dimension
        walk = Echelon(self.width)
        frame, echelons = [], []
        for rank, stratum in enumerate(strata, 1):
            for f in stratum.frame:
                if walk.add(f.coefficients) and len(frame) < rank:
                    frame.append(f)
            if walk.rank != rank or stratum.generic_rank != rank:
                break
            echelons.append(walk.copy())
        self.nested = len(echelons) == len(strata)
        if self.nested:
            self.fields = [frame[:rank] for rank in range(1, len(strata) + 1)]
        else:
            self.fields = [list(stratum.frame) for stratum in strata]
            echelons = [stratum.echelon() for stratum in strata]
        self.echelons = echelons
        self._brackets = {}   # {id, id} of an unordered pair -> bracket
        self._residuals = {}  # (id of a field, stratum) -> residual or None

    def _generators(self, a, b):
        """The fields of D_a and D_b, then the bracket of each unordered pair
        of a field of D_a with a different field of D_b."""
        fields_a, fields_b = self.fields[a - 1], self.fields[b - 1]
        yield from fields_a
        yield from fields_b
        for x in fields_a:
            for y in fields_b:
                if x is not y:
                    key = frozenset((id(x), id(y)))
                    if key not in self._brackets:
                        self._brackets[key] = lie_bracket(x, y)
                    yield self._brackets[key]

    def _residual(self, field, k):
        """The field's residual against D_k's echelon; None when it is zero.

        A field of D_k's own list and any field against the tangent bundle
        need no elimination.
        """
        if k == _TANGENT or any(field is f for f in self.fields[k - 1]):
            return None
        key = (id(field), k)
        if key not in self._residuals:
            res = self.echelons[k - 1].residual(field.coefficients)
            self._residuals[key] = None if all(e.is_zero() for e in res) else res
        return self._residuals[key]

    def contained(self, a, b, c):
        """True iff D_a + D_b + [D_a, D_b] lies in D_c."""
        return all(self._residual(g, c) is None for g in self._generators(a, b))

    def spans(self, a, b, c):
        """True iff D_a + D_b + [D_a, D_b] = D_c (``_TANGENT``: the tangent bundle).

        Given containment, the span has rank rank(D_b) plus the rank of the
        residuals modulo D_b, which is at most rank(D_c) - rank(D_b); the
        elimination stops once it reaches that.
        """
        if not self.contained(a, b, c):
            return False
        rank_c = self.width if c == _TANGENT else self.echelons[c - 1].rank
        target = rank_c - self.echelons[b - 1].rank
        quotient = Echelon(self.width)
        for g in self._generators(a, b):
            if quotient.rank == target:
                break
            res = self._residual(g, b)
            if res is not None:
                quotient.add(res)
        return quotient.rank == target


# (a, b, c) of each relation [D_a, D_b] = D_c, in report order
_RELATIONS = {
    FlagBranch.NONDEGENERATE: ((1, 2, 2), (1, 3, 4), (1, 4, 4), (1, 5, 5),
                               (2, 3, 5), (2, 4, 5), (2, 5, _TANGENT)),
    FlagBranch.DEGENERATE: ((1, 2, 2), (1, 3, 4), (1, 4, 4), (4, 4, 5),
                            (2, 4, 5), (2, 5, 5), (5, 5, _TANGENT)),
}


def verify_flag_relations(flag):
    """Exact generic span checks of the flag's defining bracket relations.

    Every check reads the flag's ``BracketTable``.  Failures are reported,
    not raised: they mean the input left the class the flag was computed
    for.
    """
    table = flag.brackets
    return [RelationCheck(f"[D{a},D{b}]=" + ("TM" if c == _TANGENT else f"D{c}"),
                          table.spans(a, b, c))
            for a, b, c in _RELATIONS[flag.branch]]


class SymbolClass(Enum):
    G0 = "g0"
    G1 = "g1"


_LABELS = (1, 2, 3, 4, 5, 7)
_WEIGHTS = {1: -1, 2: -2, 3: -3, 4: -4, 5: -5, 7: -7}
# index pairs (a, b), a < b, of the symbol frame's brackets whose graded slot
# w_a + w_b is at least the lowest basis weight: 8 of the 15.  The other 7
# (every pair with F7, [F3,F5] and [F4,F5]) have a slot below every basis
# weight, so they carry neither a constant nor a grading violation.
_PAIRS = tuple((a, b) for a in range(len(_LABELS))
               for b in range(a + 1, len(_LABELS))
               if _WEIGHTS[_LABELS[a]] + _WEIGHTS[_LABELS[b]] >= min(_WEIGHTS.values()))


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
            rendered = {f"e{k}": _render_fraction(v) for k, v in sorted(comps.items()) if v}
            if rendered:
                table[f"[e{i},e{j}]"] = rendered
        return {
            "point": self.point.render(),
            "d_raw": _render_fraction(self.d_raw),
            "d_normalized": self.d_normalized,
            "brackets": table,
            "grading_violations": list(self.grading_violations),
        }


def symbol_d_function(dist):
    """The d-invariant as a rational function (zero iff the symbol is g0)."""
    return Analysis(dist).d_function


def symbol_algebra_at(dist, point):
    """Structure constants of the nilpotentization at a point, with d normalized.

    Requires the non-degenerate parabolic class at the point and a symbol
    frame of rank 6 there.  The frame's 8 brackets of ``_PAIRS`` are
    evaluated at the point and solved in one elimination over ℚ; no bracket
    is computed symbolically.  Components of each bracket that sit exactly
    in the graded slot of the pair are the reported constants; components
    landing strictly deeper are recorded as grading violations (none occur
    for inputs in the class).  The other 7 brackets have neither.
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
    if transverse is None:
        transverse = _flag_transverse(flag)
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


def _flag_transverse(flag):
    """The first field of the rank-2 stratum transverse to the flag line."""
    field = _complete_with_field([flag[1].frame[0]], list(flag[2].frame), 2)
    if field is None:
        raise ConsistencyError("no plane field transverse to the flag line")
    return field


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
    return Analysis(dist, samples, seed).branch


class Analysis(Classification):
    """Every pipeline stage of one distribution, each built at most once.

    Like ``Classification``, built for one sample count and seed.  Adds the
    flag, its relations, the symbol frame (the symbol at a point is built
    from the values there of its coefficients and their memoised partials),
    the d-function (the one bracket of the frame solved over the function
    field), the E-subdistribution and its derived flag (E's integrability
    and the completely-non-degenerate test) and the branch report.  The
    flag line's transverse in the rank-2 stratum is chosen once, for the
    symbol frame and E.
    """

    @cached_property
    def flag(self):
        """The flag of the generic point class."""
        point_class = self.generic_class
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
            line = span_reduce([f for f in line if not f.is_zero()])
            if len(line) != 1:
                raise ConsistencyError("degenerate-branch line is not one-dimensional")
            d1 = Distribution(chart, line)
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
    def transverse(self):
        """F2: the rank-2 stratum's first field transverse to the flag line."""
        return _flag_transverse(self.flag)

    @cached_property
    def _symbol_basis(self):
        """The symbol frame (F1..F5, F7), the echelon of F1..F5 and F7's
        residual against it, nonzero iff the frame has generic rank 6."""
        dist = self.dist
        f1 = self.flag[1].frame[0]
        f2 = self.transverse
        f3 = _complete_with_field([f1, f2], list(dist.frame), 3)
        if f3 is None:
            raise ConsistencyError("no frame field transverse to the plane")
        f4 = lie_bracket(f1, f3)
        f5 = lie_bracket(f2, f3)
        f7 = lie_bracket(f2, f5)
        fields = [f1, f2, f3, f4, f5, f7]
        ech = Echelon(dist.chart.dimension, [f.coefficients for f in fields[:5]])
        residual = ech.residual(f7.coefficients)
        if ech.rank != 5 or all(e.is_zero() for e in residual):
            raise ConsistencyError("symbol frame is generically degenerate")
        return fields, ech, residual

    @property
    def symbol_fields(self):
        """Frame (F1..F5, F7) whose point values realize the symbol basis."""
        return self._symbol_basis[0]

    @cached_property
    def d_function(self):
        """The e7-coordinate of [F3, F4]: the d-invariant before normalization.

        This is the symbol stage's one symbolic bracket, read off its residual
        against F1..F5.  With the brackets that built F4, F5 and F7 it
        memoises the first partials of F1..F5, which ``symbol_at`` evaluates
        at its point.
        """
        fields, ech, residual = self._symbol_basis
        return _residual_coordinate(ech, residual, lie_bracket(fields[2], fields[3]),
                                   "[e3,e4] left the symbol frame span")

    def bracket_coordinates_at(self, point):
        """Coordinates in the symbol frame of the brackets [F_a, F_b] of ``_PAIRS``.

        [F_a, F_b]^i = sum_j F_a^j ∂_j F_b^i - F_b^j ∂_j F_a^i at the point,
        from the values of the frame and of its memoised ``RatFunc.partials()``
        (the brackets that built F4, F5, F7 and the d-function made those of
        F1..F5; no pair has F7), then one fraction-free elimination
        (``fraction_solve``) of the frame's integer pairs.  Raises
        PoleAtPoint where a frame coefficient has a pole (a reduced partial's
        denominator divides den^2) or the frame has rank below 6; elsewhere
        every reduced symbolic coordinate is regular at the point and has
        exactly these values.
        """
        fields = self.symbol_fields
        # every coefficient is evaluated before any bracket, so a pole raises here
        pairs = [[c.integer_pair(point) for c in f.coefficients] for f in fields]
        if certified_pair_rank(pairs, 6) != 6:
            raise PoleAtPoint(
                f"symbol frame degenerates at {point.render()}; choose another point")
        # F7 is in no pair
        values = [[Fraction(n, d) for n, d in row] for row in pairs[:-1]]
        jets = [[{j: dj.evaluate(point) for j, dj in c.partials().items()}
                 for c in f.coefficients] for f in fields[:-1]]
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
                bracket.append((total.numerator, total.denominator))
            brackets.append(bracket)
        return fraction_solve(pairs, brackets)

    def symbol_at(self, point):
        """``(SymbolAlgebra, SymbolClass)`` at a point; see ``symbol_algebra_at``."""
        cls = self.generic_class
        if cls is not PointClass.PARABOLIC_NONDEG:
            raise NotParabolicNonDeg(f"generic class is {cls.value}")
        point_cls = self.class_at(point)
        if point_cls is not PointClass.PARABOLIC_NONDEG:
            raise NotParabolicNonDeg(f"class at {point.render()} is {point_cls.value}")
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
        )
        return algebra, sym_class

    @cached_property
    def e_sub(self):
        return e_subdistribution(self.dist, self.flag, self.transverse)

    @cached_property
    def e_flag(self):
        """``(steps, growth)`` of E's derived flag.  E has generic rank 3 and
        ``derived_flag`` stops when the rank does not grow, so E is
        integrable exactly when the growth is (3,)."""
        return derived_flag(self.e_sub)

    @cached_property
    def completely_nondegenerate(self):
        sub = self.e_sub
        steps, growth = self.e_flag
        points = self.points(self.samples * _RETRY_FACTOR)
        good = 0
        while good < self.samples:
            p = next(points, None)
            if p is None:
                raise SampleBudgetExhausted("no usable sample points for growth scan")
            try:
                ranks = growth_at(sub, p, steps)
            except PoleAtPoint:
                continue
            if ranks != growth.ranks:
                return False
            good += 1
        return True

    def _find_symbol_sample(self):
        last_error = None
        for p in self.points(_SEARCH_BUDGET):
            try:
                return self.symbol_at(p)
            except (NotGrowth356, PoleAtPoint, NotParabolicNonDeg) as exc:
                # the scan has checked the generic growth, so NotGrowth356
                # here is a point where the growth drops: skip it as the
                # scan does
                last_error = exc
        raise SampleBudgetExhausted(
            f"no usable point for symbol extraction: {last_error}")

    @cached_property
    def branch(self):
        """The ``BranchReport``; see ``branch_classify``."""
        growth = self.derived[1]
        scan = self.scan
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
        algebra, _ = self._find_symbol_sample()
        b2 = self.e_flag[1].ranks == (3,)
        cnd = self.completely_nondegenerate
        depth4_closed = flag.brackets.contained(4, 4, 5)
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

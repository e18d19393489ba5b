"""Exception hierarchy.

``FlagrankError`` is the common base.  ``PreconditionError`` subclasses mark
inputs that are well-formed but outside an operation's domain (the CLI maps
them to exit code 3); ``ModelError`` subclasses carry a source position and
mark bad model text (exit code 2), and ``UsageError`` marks a malformed
command-line value (also exit code 2); ``ConsistencyError`` subclasses signal
an internal invariant violation and always indicate a bug, never bad input.
"""


class FlagrankError(Exception):
    pass


class DivisionByZero(FlagrankError, ZeroDivisionError):
    """Division by the zero function."""


class UnknownVariable(FlagrankError):
    """Variable name not declared on the chart."""


class ChartMismatch(FlagrankError):
    """Operands live on different charts."""


class PoleAtPoint(FlagrankError):
    """A denominator (or a needed frame) vanishes at the requested point.

    Callers doing point sampling should treat this as "choose another point".
    """


class BadParameterSupport(FlagrankError):
    """A model parameter function uses variables outside its allowed set."""


class UnknownModel(FlagrankError):
    """No builtin model with the requested name."""


class UsageError(FlagrankError):
    """A command-line value such as ``--tasks`` or ``--point`` is malformed."""


class PreconditionError(FlagrankError):
    pass


class NotRank35(PreconditionError):
    """Input distribution does not have rank 3 with rank-5 first derived span."""


class NotGrowth356(PreconditionError):
    """Input distribution does not have growth vector (3,5,6)."""


class NotParabolic(PreconditionError):
    """Operation requires a parabolic point class."""


class NotParabolicNonDeg(PreconditionError):
    """Operation requires the non-degenerate parabolic class."""


class SingularDistribution(PreconditionError):
    """Point class is not locally constant across the sampled points."""


class DependentForms(PreconditionError):
    """Annihilator construction received generically dependent one-forms."""


class SampleBudgetExhausted(PreconditionError):
    """The seeded point sampler ran out of retries."""


class DegreeOverflow(PreconditionError):
    """A polynomial's total degree would reach 2^31, the packed-monomial
    bound, or a gcd needs dense lists past ``algebra._DENSE_DEGREE``."""


class LiftPreconditionFailed(PreconditionError):
    """The rank-1 / rank-3 pair fails the conditions required for lifting."""


class ConsistencyError(FlagrankError):
    pass


class SymmetryViolated(ConsistencyError):
    """The 2x2 bracket form came out asymmetric; indicates a bug."""


class RankUnexpected(ConsistencyError):
    """A derived subdistribution has the wrong rank; flag data is inconsistent."""


class ModelError(FlagrankError):
    """Base for model-text errors; carries origin, line and column."""

    def __init__(self, message, origin="<unknown>", line=0, col=0):
        super().__init__(f"{origin}:{line}:{col}: {message}")
        self.message = message
        self.origin = origin
        self.line = line
        self.col = col


class ModelSyntaxError(ModelError):
    pass


class UnknownIdentifier(ModelError):
    pass


class ArityError(ModelError):
    pass


class TypeMismatch(ModelError):
    pass


class DuplicateName(ModelError):
    pass


class InconsistentChart(ModelError):
    pass


class DegenerateFrame(ModelError):
    """A declared frame has deficient generic rank."""

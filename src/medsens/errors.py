"""Exception hierarchy.

Every error raised by this package derives from :class:`MedsensError`, so
callers can catch one type at an API boundary.  Input problems (bad codes,
malformed files, out-of-range parameters) are kept distinct from structural
problems in probability tables and from infeasibility of a requested solve.
"""


class MedsensError(Exception):
    """Base class for all package errors."""


class BadCode(MedsensError, ValueError):
    """A category code is negative, non-integer, or outside its declared cardinality."""


class BadParameter(MedsensError, ValueError):
    """A numeric argument violates its contract (wrong range, NaN, non-finite)."""


class BadTarget(MedsensError, ValueError):
    """A threshold target is not a positive real."""


class ParseError(MedsensError, ValueError):
    """A data file could not be parsed; the message names the offending line."""


class EmptyCell(MedsensError):
    """A conditional table cell required by estimation has zero observed count."""


class NotNormalized(MedsensError):
    """A conditional distribution does not sum to one within tolerance."""


class OutOfRangeProbability(MedsensError):
    """A table entry is not finite, or lies outside [0, 1] (means and weights: below 0)."""


class ZeroDenominator(MedsensError):
    """A ratio that downstream formulas divide by evaluated to zero."""


class ZeroProbability(MedsensError):
    """A strictly positive probability was required but a zero cell was encountered."""


class UnreachableCell(MedsensError):
    """An (exposure, mediator) cell needed by marginalization has zero probability."""


class Infeasible(MedsensError):
    """The requested solve has no finite solution under the given constraints."""


class DegenerateResample(MedsensError):
    """Bootstrap resampling exhausted its redraw budget on degenerate replicates."""


class InternalCheckError(MedsensError):
    """An internal consistency identity failed; indicates a bug, never user error."""

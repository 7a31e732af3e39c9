"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`WctsvError` so callers
(and the CLI, which maps them to exit code 1) can distinguish "the
mathematics says no" from programming errors.
"""

from __future__ import annotations


class WctsvError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidProfile(WctsvError):
    """Moment profile violates its invariants (e.g. sigma <= 0)."""


class InvalidThreshold(WctsvError):
    """The loss threshold ``t`` must be a finite number."""


class NonNegativeRequiresPositiveMean(WctsvError):
    """The non-negative family is only defined for mu > 0."""


class InvalidBudget(WctsvError):
    """A finite excess-profit budget must be strictly positive."""


class EmptyUncertaintySet(WctsvError):
    """No distribution satisfies the requested moment/budget constraints.

    Deliberately an error rather than a -inf value: portfolio callers must
    distinguish infeasibility from a computed supremum.
    """


class InfeasibleSupport(WctsvError):
    """No two-point distribution with the given moments fits the support."""


class NoKnownWitness(WctsvError):
    """The requested regime has no explicit witness construction."""


class InfeasibleConstraints(WctsvError):
    """The oracle's moment system cannot be satisfied by the family."""


class BudgetExhausted(WctsvError):
    """A search spent its evaluation budget without a feasible candidate.

    The package raises it nowhere since the exact oracle replaced the
    search; it stays for callers, such as ``perfbench/``, that catch it.
    Carries ``best_value`` (None when nothing feasible was ever seen).
    """

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        self.best_value = best_value


class NotPositiveDefinite(WctsvError):
    """Covariance matrix is not symmetric positive definite."""


class DegenerateMeans(WctsvError):
    """Mean vector is (numerically) proportional to the all-ones vector."""


class InfeasibleBudget(WctsvError):
    """The budget is below ``(t - min mu)_+``, so not every simplex portfolio meets it."""


class NonConvergence(WctsvError):
    """Iterative solver failed to meet its tolerance within its budget."""


class ParseError(WctsvError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NonPositivePrice(ParseError):
    """A price cell is zero or negative."""

    def __init__(self, line: int, ticker: str):
        super().__init__(f"non-positive price for {ticker}", line=line)
        self.ticker = ticker


class UnsortedDates(ParseError):
    """Dates are not strictly increasing."""


class TooFewRows(WctsvError):
    """Operation needs more rows than the panel provides."""


class WindowTooLarge(WctsvError):
    """Estimation window extends past the start of the loss history."""

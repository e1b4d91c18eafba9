"""Every refusal in the package raises one of these, naming its ints through `text`; the CLI
exits 2 on a ContikitError or an OSError only."""
from decimal import Decimal
from fractions import Fraction


def text(x: int | Fraction) -> str:
    """str(x) at any size: unlike str() of an int, Decimal has no limit on its digits."""
    if isinstance(x, Fraction):
        return text(x.numerator) + ("" if x.denominator == 1 else "/" + text(x.denominator))
    return str(Decimal(x))


class ContikitError(Exception):
    """Base class for all library errors."""


class UsageError(ContikitError, ValueError):
    """An argument outside what a function or CLI option takes; also a ValueError."""


class InvalidSystem(ContikitError):
    """A coefficient system violates its invariants."""


class IndexOutOfRange(ContikitError):
    """An index fell below the defined initial values."""


class DivisionByZero(ContikitError):
    """A required denominator (e.g. B_{d-1}) vanished."""


class DegenerateDiscriminant(ContikitError):
    """Delta = 0 (or the root-separation hypothesis fails)."""


class PerfectSquare(ContikitError):
    """sqrt(N) requested for a perfect square N >= 0; a negative N is a UsageError."""


class HypothesisViolated(ContikitError):
    """A theorem's hypothesis (period parity, D_d = 1, ...) is not met."""


class PrecisionExhausted(ContikitError):
    """max_terms reached before the requested tolerance."""


class NoAdmissibleRoot(ContikitError):
    """Neither root of the series quadratic satisfies |zeta| < |alpha|."""


class PoleAtRoot(ContikitError):
    """The weighted-sum ratio x coincides with alpha or beta."""


class InvariantViolated(ContikitError):
    """A result failed a structural check that the theory guarantees."""


class PrimalityUndecided(ContikitError):
    """n is too large for the deterministic primality test."""


class InputTooLarge(ContikitError):
    """An input is beyond a documented module limit (memory, or factoring by trial division)."""

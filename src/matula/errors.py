"""Exception types shared across the package."""


class MatulaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MatulaError):
    """An argument is outside the documented domain (e.g. n = 0)."""


class _LimitExceeded(MatulaError):
    def __init__(self, message: str, needed: int, limit: int):
        super().__init__(message)
        self.needed = needed
        self.limit = limit


class CapacityExceeded(_LimitExceeded):
    """A request needs primes beyond the configured sieve ceiling.

    ``needed`` is the prime, prime index or square root that was asked for;
    ``limit`` is the ceiling it exceeds.
    """


class NotPrime(MatulaError):
    """A prime was required but the argument is composite or < 2."""


class ParseError(MatulaError):
    """Malformed textual input.  ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class InternalIntegrityError(MatulaError):
    """An internal exactness check failed; indicates a bug, not bad input."""


class BudgetExceeded(_LimitExceeded):
    """A brute-force computation was asked to exceed its size budget.

    ``needed`` is the size that was asked for, or the size reached when
    the budget ran out; ``limit`` is the budget.
    """


class UnsupportedName(MatulaError):
    """The requested statistic name is not known to this computation."""

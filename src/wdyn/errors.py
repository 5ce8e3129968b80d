"""Exception types shared across the package."""


class CoverageError(ValueError):
    """A prime table is too small for the requested computation.

    ``required_limit`` is the smallest table limit that would suffice,
    or None when no table would (factoring n >= ``primes.MR_BOUND``).
    """

    def __init__(self, message: str, required_limit: int | None = None):
        super().__init__(message)
        self.required_limit = required_limit


class CapExceededError(RuntimeError):
    """An orbit failed to reach 20 within the iteration cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class CacheError(OSError):
    """A sieve cache file could not be read or written."""

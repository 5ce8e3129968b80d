"""Exception types shared across the package."""


class CoverageError(ValueError):
    """A prime table is too small for the requested computation, or no
    table would do (factoring n >= ``primes.MR_BOUND``)."""


class CapExceededError(RuntimeError):
    """An orbit failed to reach 20 within the iteration cap."""


class CacheError(OSError):
    """A sieve cache file could not be read or written."""

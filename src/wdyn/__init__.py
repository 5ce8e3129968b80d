"""Arithmetic dynamics of the w function on products of three primes.

w(p1*p2*p3) = P(p1+p2) * P(p1+p3) * P(p2+p3), where P is the largest
prime factor.  The package provides forward iteration (orbits, ind),
inverse search (parent enumeration over prime boxes), census
experiments that hunt for images with many parents, and the
large-sieve variance sums that underpin the counting heuristics.
"""

from .dynamics import (
    Trajectory,
    Triple,
    TripleClass,
    apply_w,
    classify,
    ind,
    trajectory,
)
from .errors import CacheError, CapExceededError, CoverageError
from .parents import (
    ParentCensus,
    ParentQuery,
    census_b3,
    census_c3,
    find_b3_parents,
    find_c3_parents,
    find_parents,
    window_bounds,
)
from .primes import (
    PrimeTable,
    build_prime_table,
    factor_list,
    largest_prime_factor,
    primes_in_range,
)
from .variance import (
    SequenceSample,
    VarianceReport,
    prime_progression_variance,
    residue_count_variance,
    residue_counts,
)

__all__ = [
    "CacheError",
    "CapExceededError",
    "CoverageError",
    "ParentCensus",
    "ParentQuery",
    "PrimeTable",
    "SequenceSample",
    "Trajectory",
    "Triple",
    "TripleClass",
    "VarianceReport",
    "apply_w",
    "build_prime_table",
    "census_b3",
    "census_c3",
    "classify",
    "factor_list",
    "find_b3_parents",
    "find_c3_parents",
    "find_parents",
    "ind",
    "largest_prime_factor",
    "prime_progression_variance",
    "primes_in_range",
    "residue_count_variance",
    "residue_counts",
    "trajectory",
    "window_bounds",
]

__version__ = "0.1.0"

"""Large-sieve variance sums for residue counts of integer sequences.

Two quantities are evaluated, never derived: the weighted variance of
residue counts of an arbitrary sample over all moduli r <= X, against
the bound (N + X**2) * Z; and its specialization to primes in (x, 2x]
split along progressions p = -p1 (mod r) for window primes r, against
the bound x**2 / log(x).

The classes mod r are sums of the classes mod m = r * (X // r), the
largest multiple of r up to X, so the residue sum reads the sample once
for each m in (X/2, X], X - X // 2 times, and folds the counts mod m
for every r that m belongs to.  When X and every value lie below 2**31
those passes divide an int32 copy of the sample, which is faster than
int64 and exact, since each quotient q has q * m <= v.

The mean Z/r is not an integer, but after clearing denominators every
term is (see :func:`residue_count_variance`): the progression sum is
sum over r of num_r / r**2 with an integer numerator num_r, combined in
Python ints from two fixed-width sums over the class counts mod r that
the thm3 census reads too (for x >= 75 the sum is that census's
variance); the sums run in int32 when the counts bound them below 2**31.
Box and window primes are odd, so the counts index a member m by
m >> 1; there negation mod r is a reversal, and both sums fold to half
length.  The lhs is the exact rational sum for x <= EXACT_X_CUTOFF and
the compensated sum of the correctly rounded num_r / r**2 beyond it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from math import fsum, log

import numpy as np

from .parents import class_counts, window_bounds
from .primes import PrimeTable, primes_in_range

EXACT_X_CUTOFF = 1000  # progression lhs is an exact Fraction up to here, a float beyond


@dataclass(frozen=True, eq=False)
class SequenceSample:
    """Distinct positive integers, each at most ``bound``, as an
    ascending int64 array checked by :meth:`from_values`."""

    values: np.ndarray
    bound: int

    @property
    def size(self) -> int:
        return len(self.values)

    @staticmethod
    def from_values(values, bound: int | None = None) -> "SequenceSample":
        try:  # operator.index takes integers only: 1.5 or a float array is refused, not truncated
            vals = np.fromiter(map(operator.index, values), dtype=np.int64)
        except TypeError:
            raise ValueError("sample values must be integers") from None
        except OverflowError:
            raise ValueError("sample values must lie in [1, 2**63)") from None
        vals.sort()  # in place: sorted, a repeat sits next to its twin
        if np.any(vals[1:] == vals[:-1]):
            raise ValueError("sample values must be distinct")
        if bound is None:
            bound = int(vals[-1]) if len(vals) else 1
        if len(vals) and (vals[0] < 1 or int(vals[-1]) > bound):
            raise ValueError(f"sample values must lie in [1, {bound}]")
        return SequenceSample(values=vals, bound=bound)


@dataclass(frozen=True)
class VarianceReport:
    """A variance sum next to its predicted bound.

    ``scale`` is the modulus cutoff X (residue variance) or the box
    parameter x (progression variance); ``window`` is set only in the
    progression case.
    """

    scale: int
    lhs: Fraction | float
    bound_value: float
    window: tuple[int, int] | None = None

    @property
    def ratio(self) -> float:
        return float(self.lhs) / self.bound_value if self.bound_value else 0.0

    def to_json_dict(self) -> dict:
        lhs = str(self.lhs) if isinstance(self.lhs, Fraction) else self.lhs
        out = {
            "x_or_X": self.scale,
            "lhs": lhs,
            "bound": self.bound_value,
            "ratio": self.ratio,
        }
        if self.window is not None:
            out["window"] = list(self.window)
        return out

    def to_csv_row(self) -> tuple:
        return (self.scale, self.to_json_dict()["lhs"], self.bound_value, self.ratio)


def residue_counts(sample: SequenceSample, r: int) -> np.ndarray:
    """Count of sample values in each residue class mod r.

    Classes are indexed 0..r-1, with class 0 collecting the multiples
    of r (the class elsewhere written as a = r).
    """
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    vals = sample.values
    return np.bincount(vals - vals // r * r, minlength=r)  # vals % r, without the slower int64 %


def residue_count_variance(sample: SequenceSample, x_bound: int) -> VarianceReport:
    """Weighted residue-count variance over all moduli r <= x_bound.

    lhs = sum over r <= X of r * sum over classes a of
    (Z(N; r, a) - Z/r)**2, computed exactly: for each r the inner sum
    times r equals r * sum(c_a**2) - Z**2, an integer (the cross terms
    collapse because the counts sum to Z).  Bounded by (N + X**2) * Z.

    The counts mod r are folded from those mod m = r * (X // r), the
    largest multiple of r up to X, which lies in (X/2, X]: class a mod r
    is the sum of the classes b = a (mod r) mod m, the column sums of the
    counts mod m as rows of length r.  So the sample is read once per m,
    X - X // 2 times, and each fold reads at most X counts.  If X and
    the largest value are both below 2**31, every pass reads one int32
    copy of the values, made once per call; the caller's sample keeps
    its int64 array.
    """
    if x_bound < 2:
        raise ValueError(f"modulus cutoff must be >= 2, got {x_bound}")
    z = sample.size
    moduli: dict[int, list[int]] = {}
    for r in range(1, x_bound + 1):
        moduli.setdefault(x_bound // r * r, []).append(r)
    if x_bound < 2**31 and (z == 0 or sample.values[-1] < 2**31):  # int32 // m is exact and faster
        sample = replace(sample, values=sample.values.astype(np.int32))
    total = 0
    for m, rs in moduli.items():
        counts_m = residue_counts(sample, m)
        for r in rs:
            counts = counts_m if r == m else counts_m.reshape(-1, r).sum(axis=0)
            total += r * int(np.dot(counts, counts)) - z * z
    bound = float((sample.bound + x_bound * x_bound) * z)
    return VarianceReport(scale=x_bound, lhs=Fraction(total), bound_value=bound)


def prime_progression_variance(table: PrimeTable, x: int) -> VarianceReport:
    """Variance of prime counts along the progressions p = -p1 (mod r).

    For each prime r in the middle-prime window and each prime p1 in
    (x, 2x], takes the squared deviation of
    #{p in (x, 2x]: p = -p1 (mod r)} from Z/r, where Z is the exact
    number of primes in (x, 2x].  Bounded by x**2 / log(x).

    lhs is a Fraction for x <= EXACT_X_CUTOFF and a float beyond (the
    exact denominator grows with the product of all r**2).
    """
    if x < 10:
        raise ValueError(f"x must be >= 10, got {x}")
    ps = primes_in_range(table, x, 2 * x)  # first, so a short table asks for 2x
    r_lo, r_hi = window_bounds(x)
    rs = primes_in_range(table, r_lo, r_hi).tolist()
    nums = _progression_numerators(ps, x, 2 * x, rs)
    if x <= EXACT_X_CUTOFF:
        lhs = sum((Fraction(num, r * r) for num, r in zip(nums, rs)), Fraction(0))
    else:
        lhs = fsum(num / (r * r) for num, r in zip(nums, rs))  # int / int rounds correctly
    bound = x * x / log(x)
    return VarianceReport(scale=x, lhs=lhs, bound_value=bound, window=(r_lo, r_hi))


def _progression_numerators(members: np.ndarray, lo: int, hi: int, rs: list[int]) -> list[int]:
    """num_r = r**2 * sum over members p1 of (count in class -p1 mod r - Z/r)**2,
    exactly, for each odd r in rs; ``members`` are Z distinct odd integers in (lo, hi].

    The p1-sum collapses to classes: num_r = sum_b w_b * (r * c_b - Z)**2
    with c_b the count in class b and w_b = c_(-b).  The w_b sum to Z, so
    num_r = r**2 * S2 - 2*r*Z * S1 + Z**3 with S1 = sum_b w_b * c_b and
    S2 = sum_b w_b * c_b**2, combined in Python ints.  The counts d of
    :func:`~wdyn.parents.class_counts` hold class -b at the reversed index,
    so both sums fold at h = r // 2: with a = d[:h], b = d[:h:-1], m = d[h]
    and e = a * b, S1 = 2 * sum(e) + m**2 and S2 = e . (a + b) + m**3.
    Every term is bounded by T = Z * max(c)**2: e <= max(c)**2, and
    a_j + b_j <= Z, so (a + b) * e <= T, sum(e) <= Z * max(c) and
    S2 <= T.  So the sums run in int32 when T < 2**31 and in int64 when
    T < 2**63; past that it raises ValueError.  For window moduli T
    grows like x**2 / log(x)**5 (3.8e8 at x = 10**7), so every r takes
    int32 up to there.
    """
    z = len(members)
    nums = []
    for r, d in class_counts(members, lo, hi, rs):
        top, h = int(d.max()), r // 2
        if z * top * top >= 2**63:
            raise ValueError(f"class counts mod {r} overflow int64: Z * max(c)**2 >= 2**63")
        dt = np.int32 if z * top * top < 2**31 else np.int64
        d = d.astype(dt, copy=False)
        a, b, m = d[:h], d[:h:-1].copy(), int(d[h])  # a contiguous reversal: the products vectorize
        e = a * b
        s1 = 2 * int(e.sum(dtype=dt)) + m * m
        b += a
        b *= e
        s2 = int(b.sum(dtype=dt)) + m**3
        nums.append(r * r * s2 - 2 * r * z * s1 + z**3)
    return nums

"""Brute-force reference implementations of the parent searches.

These scan every candidate and evaluate P directly, with none of the
congruence shortcuts used by the production paths in ``parents``, and
read P from their own direct sieve (:func:`lpf_array`) rather than the
spf-derived array the production paths share.  They exist to
cross-check: the test suite asserts exact agreement at small x.  Keep
them simple and keep them independent: the only shared machinery is
the PrimeTable.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .dynamics import Triple
from .parents import window_bounds
from .primes import PrimeTable, primes_in_range


def lpf_array(table: PrimeTable, n_max: int) -> np.ndarray:
    """largest-prime-factor lookup for [2, n_max], by direct sieve.

    Ascending assignment ``arr[p::p] = p`` leaves the largest prime
    divisor in each slot; independent of the spf-chain route.
    """
    if n_max > table.limit:
        raise ValueError(f"n_max {n_max} exceeds table limit {table.limit}")
    arr = np.zeros(n_max + 1, dtype=np.int64)
    for p in primes_in_range(table, 1, n_max).tolist():
        arr[p::p] = p
    return arr


def find_b3_parents(table: PrimeTable, q: int, r: int, x: int) -> list[int]:
    """All primes p in (x, 2x], p != q, with P(p + q) = r, by full scan."""
    lpf = lpf_array(table, 2 * x + q)
    out = []
    for p in primes_in_range(table, x, 2 * x).tolist():
        if p != q and lpf[p + q] == r:
            out.append(p)
    return out


def find_c3_parents(table: PrimeTable, target: Triple, x: int) -> list[Triple]:
    """All unordered triples of distinct primes in (x, 2x] whose three
    pairwise P-sums match the target's prime multiset, by scanning all
    C(pi, 3) combinations.
    """
    lpf = lpf_array(table, 4 * x)
    want = sorted(target)
    out = []
    for a, b, c in combinations(primes_in_range(table, x, 2 * x).tolist(), 3):
        images = sorted((lpf[a + b], lpf[a + c], lpf[b + c]))
        if images == want:
            out.append(Triple(a, b, c))
    return out


def census_c3(table: PrimeTable, x: int, mode: str) -> dict[int, int]:
    """Tallies {image n: count of unordered C3 triples} by full triple scan.

    mode "thm1": some designated prime v in the triple has both
    P(v + other) values in the window, and the image has three distinct
    primes.  mode "thm2": some v has the two P(v + other) values equal,
    in the window, and the image has exactly two equal primes.
    """
    if mode not in ("thm1", "thm2"):
        raise ValueError(f"mode must be thm1 or thm2, got {mode!r}")
    lpf = lpf_array(table, 4 * x)
    r_lo, r_hi = window_bounds(x)

    def in_window(v: int) -> bool:
        return r_lo < v <= r_hi

    tally: dict[int, int] = {}
    for a, b, c in combinations(primes_in_range(table, x, 2 * x).tolist(), 3):
        r_ab, r_ac, r_bc = int(lpf[a + b]), int(lpf[a + c]), int(lpf[b + c])
        # adjacent pair-images per pivot: a -> (r_ab, r_ac), b -> (r_ab, r_bc), c -> (r_ac, r_bc)
        pivots = ((r_ab, r_ac), (r_ab, r_bc), (r_ac, r_bc))
        if mode == "thm1":
            ok = any(in_window(u) and in_window(v) for u, v in pivots)
            shape = len({r_ab, r_ac, r_bc}) == 3  # three distinct primes
        else:
            ok = any(u == v and in_window(u) for u, v in pivots)
            shape = len({r_ab, r_ac, r_bc}) == 2  # exactly two equal
        if ok and shape:
            n = r_ab * r_ac * r_bc
            tally[n] = tally.get(n, 0) + 1
    return tally


def census_b3(table: PrimeTable, x: int) -> dict[tuple[int, int], int]:
    """Tallies {(q, r): count of primes p != q with P(p + q) = r} over
    all q in (x, 2x] and r in the window, by full pair scan.
    """
    lpf = lpf_array(table, 4 * x)
    r_lo, r_hi = window_bounds(x)
    ps = primes_in_range(table, x, 2 * x).tolist()
    tally: dict[tuple[int, int], int] = {}
    for q in ps:
        for p in ps:
            if p == q:
                continue
            r = int(lpf[p + q])
            if r_lo < r <= r_hi:
                key = (q, r)
                tally[key] = tally.get(key, 0) + 1
    return tally


def progression_variance(table: PrimeTable, x: int):
    """Literal nested-loop evaluation (exact rationals) of the window
    variance sum: for primes r in the window and p1 in (x, 2x], the
    squared deviation of #{p in (x, 2x]: p = -p1 (mod r)} from Z/r.
    """
    from fractions import Fraction

    r_lo, r_hi = window_bounds(x)
    rs = primes_in_range(table, r_lo, r_hi).tolist()
    ps = primes_in_range(table, x, 2 * x).tolist()
    z = len(ps)
    total = Fraction(0)
    for r in rs:
        for p1 in ps:
            want = (-p1) % r
            count = sum(1 for p in ps if p % r == want)
            total += (Fraction(count) - Fraction(z, r)) ** 2
    return total


def residue_variance(values: list[int], x_bound: int):
    """Literal evaluation (exact rationals) of the weighted residue
    variance sum over all moduli r <= x_bound."""
    from fractions import Fraction

    z = len(values)
    total = Fraction(0)
    for r in range(1, x_bound + 1):
        counts = [0] * r
        for v in values:
            counts[v % r] += 1
        total += r * sum((Fraction(c) - Fraction(z, r)) ** 2 for c in counts)
    return total

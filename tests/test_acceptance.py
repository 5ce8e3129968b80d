"""Acceptance suite: one test per exit criterion, each printing a
PASS line (run with -s to see them on success).

Frozen bands and ceilings were recorded on the first full run; every
quantity here is deterministic, so later runs must stay inside them.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import prod

from wdyn import (
    SequenceSample,
    Triple,
    TripleClass,
    apply_w,
    census_b3,
    census_c3,
    classify,
    find_b3_parents,
    find_c3_parents,
    ind,
    prime_progression_variance,
    primes_in_range,
    residue_count_variance,
    residue_counts,
    window_bounds,
)
from wdyn import oracle

from test_census import tally
from test_primes import full_spf, naive_sieve


def _report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_c1_closure_under_w(table_10k):
    """Every A3 triple with primes <= 500 maps into A3. Zero exceptions."""
    ps = primes_in_range(table_10k, 1, 500).tolist()
    checked = 0
    for a, b, c in combinations(ps, 3):
        assert apply_w(table_10k, Triple(a, b, c)).in_a3
        checked += 1
    for p in ps:
        for q in ps:
            if p != q:
                assert apply_w(table_10k, Triple.from_primes(p, p, q)).in_a3
                checked += 1
    assert checked == 147_345
    _report("C1 closure", f"({checked} triples)")


def _count_a3_members(table, bound: int) -> int:
    """A3 members up to bound by direct triple-product enumeration,
    independent of the spf-chain classification it cross-checks."""
    ps = primes_in_range(table, 1, table.limit).tolist()
    count = 0
    for i, p in enumerate(ps):
        if p * p * p > bound:
            break
        for j in range(i, len(ps)):
            q = ps[j]
            if p * q * q > bound:
                break
            for k in range(j, len(ps)):
                r = ps[k]
                if p * q * r > bound:
                    break
                if not (p == q == r):
                    count += 1
    return count


def test_c2_cycle_ind_and_termination(table_200k):
    """The 4-cycle through 20, the frozen ind values, and exhaustive
    termination for every A3 member up to 10^5 within cap 10^3."""
    t = Triple(2, 2, 5)
    cycle = [t.n]
    for _ in range(4):
        t = apply_w(table_200k, t)
        cycle.append(t.n)
    assert cycle == [20, 98, 63, 75, 20]
    assert ind(table_200k, 20) == 0
    assert ind(table_200k, 75) == 1
    assert ind(table_200k, 98) == 3

    spf = full_spf(table_200k)
    reaches = {20}
    members = 0
    for n in range(8, 100_001):
        m, k = n, 0
        while m > 1 and k <= 3:
            m //= int(spf[m])
            k += 1
        if k != 3 or m != 1:
            continue
        tri = classify(table_200k, n)
        if tri.cls is TripleClass.D3:
            continue
        members += 1
        path = []
        cur = tri
        steps = 0
        while cur.n not in reaches:
            assert steps < 1000, f"orbit of {n} exceeded cap 1000"
            path.append(cur.n)
            cur = apply_w(table_200k, cur)
            steps += 1
        reaches.update(path)
    assert members == _count_a3_members(table_200k, 100_000) == 25_542
    _report("C2 cycle/ind/termination", f"({members} orbits)")


def test_c3_oracle_equivalence(table_x300):
    """Accelerated searches and censuses equal brute force exactly at
    x in {100, 200, 300}."""
    for x in (100, 200, 300):
        qs = primes_in_range(table_x300, x, 2 * x).tolist()
        rs = primes_in_range(table_x300, *window_bounds(x)).tolist()
        for q in qs:
            for r in rs:
                assert find_b3_parents(table_x300, q, r, x) == oracle.find_b3_parents(
                    table_x300, q, r, x
                ), (x, q, r)

        targets = []
        for combo in combinations(qs[:10], 3):
            img = apply_w(table_x300, Triple(*combo))
            if img.n not in {t.n for t in targets}:
                targets.append(img)
            if len(targets) == 6:
                break
        for target in targets:
            got = find_c3_parents(table_x300, target, x)
            assert got == oracle.find_c3_parents(table_x300, target, x), (x, target)
            for parent in got:
                assert apply_w(table_x300, parent).n == target.n

        for mode in ("thm1", "thm2"):
            assert tally(census_c3(table_x300, x, mode=mode)) == oracle.census_c3(
                table_x300, x, mode
            ), (x, mode)
        got_b3 = tally(census_b3(table_x300, x))
        want_b3: dict[int, int] = {}
        for (q, r), c in oracle.census_b3(table_x300, x).items():
            key = q * r * r
            want_b3[key] = want_b3.get(key, 0) + c
        assert got_b3 == want_b3, x
    _report("C3 oracle equivalence", "(x in {100,200,300})")


# ratio band for count/(sqrt(x)/log^2 x), recorded on the first full run
B3_RATIO_BAND = (3.0, 3.8)


def test_c4_b3_census_growth(table_200k):
    """Argmax counts positive and non-decreasing over the grid; ratios
    inside the recorded factor-10 band; under a minute per x."""
    assert B3_RATIO_BAND[1] / B3_RATIO_BAND[0] <= 10
    counts, ratios = [], []
    for x in (300, 1000, 3000, 10000, 30000):
        t0 = time.perf_counter()
        census = census_b3(table_200k, x)
        assert time.perf_counter() - t0 < 60, f"census at x={x} too slow"
        counts.append(census.argmax[1])
        ratios.append(census.ratio)
    assert all(c > 0 for c in counts)
    assert counts == sorted(counts)
    assert all(B3_RATIO_BAND[0] <= r <= B3_RATIO_BAND[1] for r in ratios), ratios
    _report("C4 b3 census growth", f"(counts {counts}, ratios {[round(r, 3) for r in ratios]})")


def test_c5_c3_census_growth_and_shape(table_x10k):
    """Argmax counts positive and non-decreasing for both triple census
    modes; argmax targets have the stated factor shapes."""
    for mode in ("thm1", "thm2"):
        counts = []
        for x in (300, 1000, 3000, 10000):
            census = census_c3(table_x10k, x, mode=mode)
            target, count = census.argmax
            counts.append(count)
            facs = census.argmax_factors
            assert facs[0] * facs[1] * facs[2] == target
            r_lo, r_hi = window_bounds(x)
            if mode == "thm1":
                assert len(set(facs)) == 3
                assert sum(r_lo < f <= r_hi for f in facs) >= 2
            else:
                assert len(set(facs)) == 2  # q * r**2 with q != r
                doubled = facs[0] if facs[0] == facs[1] else facs[1]
                single = facs[2] if facs[0] == facs[1] else facs[0]
                assert r_lo < doubled <= r_hi
                assert single != doubled
        assert all(c > 0 for c in counts)
        assert counts == sorted(counts)
        _report(f"C5 c3 census growth ({mode})", f"(counts {counts})")


# ceiling for lhs/(x^2/log x), recorded on the first full run (max was
# 0.009787806... at x = 10^3)
PROGRESSION_RATIO_CEILING = 0.0098


def test_c6_progression_variance(table_200k):
    """Exact oracle match at x in {100, 300}; ratios at {10^3, 10^4,
    10^5} below the recorded ceiling."""
    for x in (100, 300):
        report = prime_progression_variance(table_200k, x)
        assert report.lhs == oracle.progression_variance(table_200k, x), x
        assert isinstance(report.lhs, Fraction)
    ratios = []
    for x in (1000, 10_000, 100_000):
        report = prime_progression_variance(table_200k, x)
        ratios.append(report.ratio)
        assert report.ratio < PROGRESSION_RATIO_CEILING, (x, report.ratio)
    _report("C6 progression variance", f"(ratios {[round(r, 6) for r in ratios]})")


def test_c7_residue_variance(table_x300):
    """Module route and direct rational summation agree exactly on the
    primes in (100, 200] with X = 20; residue counts conserve mass."""
    ps = primes_in_range(table_x300, 100, 200).tolist()
    sample = SequenceSample.from_values(ps, bound=200)
    report = residue_count_variance(sample, 20)
    direct = oracle.residue_variance(ps, 20)
    assert report.lhs == direct == Fraction(8434)
    for r in range(1, 21):
        assert int(residue_counts(sample, r).sum()) == sample.size
    _report("C7 residue variance", f"(lhs {report.lhs}, ratio {report.ratio:.4f})")


def test_c8_determinism_across_workers(table_x10k):
    """Exact oracle agreement of all three censuses at x = 1000, where
    the thm1 cross-pivot rule fires on many triples.  (The name dates
    from when C8 compared reports across worker counts.)"""
    x = 1000
    for mode in ("thm1", "thm2"):
        assert tally(census_c3(table_x10k, x, mode=mode)) == oracle.census_c3(table_x10k, x, mode), mode
    by_image: dict[int, int] = {}
    for (q, r), c in oracle.census_b3(table_x10k, x).items():
        by_image[q * r * r] = by_image.get(q * r * r, 0) + c
    assert tally(census_b3(table_x10k, x)) == by_image
    _report("C8 census oracle", f"(x = {x}, thm1/thm2/thm3)")


def test_c9_prime_engine(table_10k, table_1m):
    """Prime counts against an independent naive sieve; exhaustive
    factorization reconstruction to 10^5."""
    assert len(table_10k) == len(naive_sieve(10_000)) == 1229
    assert len(table_1m) == len(naive_sieve(1_000_000)) == 78_498

    from wdyn import factor_list, largest_prime_factor

    for n in range(2, 100_001):
        factors = factor_list(table_1m, n)
        assert prod(factors) == n
        assert largest_prime_factor(table_1m, n) == factors[-1]
    _report("C9 prime engine", "(pi(1e4)=1229, pi(1e6)=78498, reconstruction to 1e5)")

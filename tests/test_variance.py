"""Residue-count and progression variance sums, against literal
direct-summation oracles in exact rationals."""

from collections import Counter
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdyn import (
    CoverageError,
    SequenceSample,
    census_b3,
    prime_progression_variance,
    primes_in_range,
    residue_count_variance,
    residue_counts,
    window_bounds,
)
from wdyn import oracle, variance
from wdyn.parents import class_counts
from wdyn.variance import EXACT_X_CUTOFF, _progression_numerators

samples = st.builds(
    lambda vals: SequenceSample.from_values(sorted(vals), bound=200),
    st.sets(st.integers(min_value=1, max_value=200), min_size=0, max_size=40),
)


def test_residue_counts_examples():
    s = SequenceSample.from_values(range(1, 11))
    assert residue_counts(s, 2).tolist() == [5, 5]
    single = SequenceSample.from_values([3], bound=5)
    assert residue_counts(single, 5).tolist() == [0, 0, 0, 1, 0]


def test_residue_counts_primes_mod_three(table_x300):
    ps = primes_in_range(table_x300, 100, 200).tolist()
    counts = residue_counts(SequenceSample.from_values(ps), 3)
    assert counts[0] == 0  # no prime above 3 is divisible by 3
    assert counts.sum() == len(ps)


def test_residue_counts_near_2_pow_62():
    # the residues are vals - vals // r * r: check them against Python % where int64 is tight
    vals = [2**62 + k for k in range(0, 40, 3)] + [2**62 - 1, 2**62 - 7919, 3 * 2**60 + 5]
    sample = SequenceSample.from_values(vals)
    for r in (1, 2, 7, 1009, 65537):
        expected = [0] * r
        for v in vals:
            expected[v % r] += 1
        assert residue_counts(sample, r).tolist() == expected, r
    assert residue_count_variance(sample, 12).lhs == oracle.residue_variance(vals, 12)  # folded from mod 7..12


def test_residue_counts_validation():
    s = SequenceSample.from_values([1, 2, 3])
    with pytest.raises(ValueError):
        residue_counts(s, 0)


def test_sample_validation():
    with pytest.raises(ValueError):
        SequenceSample.from_values([1, 1, 2], bound=10)
    with pytest.raises(ValueError):
        SequenceSample.from_values([0, 2], bound=10)
    with pytest.raises(ValueError):
        SequenceSample.from_values([2, 11], bound=10)
    with pytest.raises(ValueError):
        SequenceSample.from_values([11, 2], bound=10)  # the range check sees the largest, not the last
    assert SequenceSample.from_values([]).size == 0
    assert SequenceSample.from_values([5, 3]).bound == 5
    # a non-integer is refused, not truncated (to [1, 2, 10] or [1, 3])
    for vals in ([1.5, 2.7, 10], np.array([1.9, 3.2]), [2.0, 3], ["5"]):
        with pytest.raises(ValueError, match="integers"):
            SequenceSample.from_values(vals, bound=10)
    assert SequenceSample.from_values(np.array([7, 2]), bound=10).values.tolist() == [2, 7]


def test_sample_values_below_2_pow_63():
    sample = SequenceSample.from_values([5, 2**63 - 1])
    assert sample.values.tolist() == [5, 2**63 - 1]
    assert residue_counts(sample, 2).tolist() == [0, 2]
    assert residue_count_variance(sample, 3).lhs == oracle.residue_variance([5, 2**63 - 1], 3)
    for vals in ([5, 2**63], [5, -(2**63) - 1]):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            SequenceSample.from_values(vals)


@settings(max_examples=80, deadline=None)
@given(samples, st.integers(min_value=1, max_value=25))
def test_mass_conservation(sample, r):
    assert int(residue_counts(sample, r).sum()) == sample.size


def test_variance_of_empty_sample():
    report = residue_count_variance(SequenceSample.from_values([]), 10)
    assert report.lhs == 0
    assert report.ratio == 0.0


def test_variance_of_complete_interval_is_zero():
    # {1..12} is equidistributed mod every r <= 3
    report = residue_count_variance(SequenceSample.from_values(range(1, 13)), 3)
    assert report.lhs == Fraction(0)


def test_variance_hand_checked_values():
    # {1..11}: r=2 gives counts (5,6), r=3 gives (3,4,4)
    report = residue_count_variance(SequenceSample.from_values(range(1, 12)), 3)
    assert report.lhs == Fraction(3)
    # {1..25} against X=4: leftover element contributes r-1 per modulus
    report = residue_count_variance(SequenceSample.from_values(range(1, 26)), 4)
    assert report.lhs == Fraction(6)
    assert report.lhs == oracle.residue_variance(list(range(1, 26)), 4)


@settings(max_examples=40, deadline=None)
@given(samples, st.integers(min_value=2, max_value=15))
def test_variance_matches_direct_summation(sample, x_bound):
    report = residue_count_variance(sample, x_bound)
    assert report.lhs == oracle.residue_variance(list(sample.values), x_bound)


# values up to a drawn top <= 10**3, so X may exceed every value
wide_samples = st.integers(min_value=1, max_value=1000).flatmap(
    lambda top: st.builds(
        lambda vals: SequenceSample.from_values(sorted(vals), bound=1000),
        st.sets(st.integers(min_value=1, max_value=top), max_size=40),
    )
)


@pytest.mark.parametrize("x_bound", [2, 3, 4, 12, 60, 97, 360])
@settings(max_examples=6, deadline=None)
@given(sample=wide_samples)
def test_folded_variance_matches_direct_summation(sample, x_bound):
    # primes, highly composite cutoffs and cutoffs past the largest value
    report = residue_count_variance(sample, x_bound)
    assert report.lhs == oracle.residue_variance(sample.values.tolist(), x_bound)


@pytest.mark.parametrize("x_bound", [2, 3, 12, 97, 360, 1000])
def test_variance_reads_the_sample_once_per_modulus_above_half(monkeypatch, x_bound):
    moduli = []

    def counting(sample, r):
        moduli.append(r)
        return residue_counts(sample, r)

    monkeypatch.setattr(variance, "residue_counts", counting)
    residue_count_variance(SequenceSample.from_values(range(1, 2 * x_bound, 3)), x_bound)
    assert sorted(moduli) == list(range(x_bound // 2 + 1, x_bound + 1))


@pytest.mark.parametrize("top, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_variance_passes_run_in_int32_below_2_pow_31(monkeypatch, top, dtype):
    # the residue passes read an int32 copy when every value fits, else the int64 values
    vals = [top - 7 * k for k in range(40)] + [1, 2, 3 * 2**20 + 1]
    sample = SequenceSample.from_values(vals)
    dtypes = []

    def recording(sample, r):
        dtypes.append(sample.values.dtype)
        return residue_counts(sample, r)

    monkeypatch.setattr(variance, "residue_counts", recording)
    report = residue_count_variance(sample, 12)
    assert set(dtypes) == {np.dtype(dtype)}
    assert report.lhs == oracle.residue_variance(vals, 12)
    assert sample.values.dtype == np.int64  # the caller's sample is not narrowed
    assert sample.values.tolist() == sorted(vals)


@settings(max_examples=30, deadline=None)
@given(samples, st.integers(min_value=2, max_value=14))
def test_variance_monotone_in_modulus_cutoff(sample, x_bound):
    a = residue_count_variance(sample, x_bound).lhs
    b = residue_count_variance(sample, x_bound + 1).lhs
    assert b >= a


def test_variance_primes_sample(table_x300):
    ps = primes_in_range(table_x300, 100, 200).tolist()
    report = residue_count_variance(SequenceSample.from_values(ps, bound=200), 20)
    assert report.lhs == Fraction(8434)
    assert report.bound_value == (200 + 400) * 21
    assert report.ratio < 1


def test_variance_cutoff_validation():
    with pytest.raises(ValueError):
        residue_count_variance(SequenceSample.from_values([1]), 1)


def numerators_by_loop(ps: list[int], rs: list[int]) -> list[int]:
    """num_r = sum over classes b of w_b * (r * c_b - Z)**2 in Python ints,
    with c_b counting ps in class b mod r and w_b those in class -b."""
    z = len(ps)
    out = []
    for r in rs:
        counts = [0] * r
        for p in ps:
            counts[p % r] += 1
        out.append(sum(counts[-b % r] * (r * counts[b] - z) ** 2 for b in range(r)))
    return out


def test_progression_variance_matches_oracle_x100(table_x300):
    report = prime_progression_variance(table_x300, 100)
    assert report.lhs == oracle.progression_variance(table_x300, 100)
    assert isinstance(report.lhs, Fraction)
    assert report.window == (46, 92)


def test_progression_variance_empty_window():
    assert _progression_numerators(np.arange(101, 201, 2), 100, 200, []) == []


def test_progression_variance_float_agrees_with_exact(table_200k):
    x = 1200
    assert x > EXACT_X_CUTOFF
    report = prime_progression_variance(table_200k, x)
    assert isinstance(report.lhs, float)
    exact = oracle.progression_variance(table_200k, x)
    assert report.lhs == pytest.approx(float(exact), rel=1e-14)


def test_progression_variance_auto_switches_to_float(table_200k):
    report = prime_progression_variance(table_200k, 10_000)
    assert isinstance(report.lhs, float)
    report = prime_progression_variance(table_200k, EXACT_X_CUTOFF)
    assert isinstance(report.lhs, Fraction)


def test_progression_numerators_int64_match_python_ints(table_200k):
    x = 30_000
    r_lo, r_hi = window_bounds(x)
    rs = primes_in_range(table_200k, r_lo, r_hi).tolist()
    ps = primes_in_range(table_200k, x, 2 * x)
    z = ps.size
    assert z * z * z < 2**63  # Z * max(c)**2 <= Z**3: every r passes the int64 guard
    assert _progression_numerators(ps, x, 2 * x, rs) == numerators_by_loop(ps.tolist(), rs)


def test_progression_numerators_exact_past_int64():
    # the 30000 odd multiples of 1009, all in class 0: num_1009 = Z * (1008 * Z)**2 > 2**63,
    # while the int64 dots only reach Z * max(c)**2 = 30000**3
    ps = np.arange(1009, 1009 * 60_000, 2 * 1009)
    nums = _progression_numerators(ps, 0, 1009 * 60_000, [3, 1009])
    assert nums == numerators_by_loop(ps.tolist(), [3, 1009])
    assert nums[1] >= 2**63


def test_progression_numerators_refuse_int64_overflow():
    # r = 1 over the 2 100 000 odd integers in (0, 4.2e6]: Z * c_0**2 = 2.1e6**3 ~ 9.26e18 >= 2**63
    with pytest.raises(ValueError, match="overflow int64"):
        _progression_numerators(np.arange(1, 4_200_001, 2), 0, 4_200_000, [1])


def test_progression_numerators_chunked_uint8():
    # every odd integer in (3000, 9000]: classes hold 1000 (r = 3) and ~429 (r = 7)
    # members, more than one uint8 column sum can count
    nums = _progression_numerators(np.arange(3001, 9001, 2), 3000, 9000, [3, 7])
    assert nums == numerators_by_loop(list(range(3001, 9001, 2)), [3, 7])


@pytest.mark.parametrize(
    "lo, hi, rs",
    [
        (10, 60, [1, 3, 5, 7]),
        (99, 1201, [11, 13, 101, 997]),  # an odd lo, prime moduli
        (100, 140, [41, 53, 97]),  # r > hi - lo: one row, mostly padding
        (0, 9000, [3, 7]),  # 1500 and 643 rows: more than one uint8 sum of 255 rows
    ],
)
def test_class_counts_odd_layout(lo, hi, rs):
    # d[j] counts the members m = 2j + 1 (mod r), and class -m is at r - 1 - j
    odd = np.arange(lo + 1 | 1, hi + 1, 2)
    rng = np.random.default_rng(hi)
    for size in (0, 1, len(odd) // 3, len(odd)):
        members = np.sort(rng.choice(odd, size=size, replace=False))
        got = dict(class_counts(members, lo, hi, rs))
        assert list(got) == rs
        for r, d in got.items():
            by_residue = Counter(m % r for m in members.tolist())
            assert d.dtype == np.int64
            assert d.tolist() == [by_residue[(2 * j + 1) % r] for j in range(r)]
            for m in members.tolist():
                assert d[r - 1 - (m >> 1) % r] == by_residue[-m % r]


def test_class_counts_refuse_even_members_and_moduli():
    # m and m - 1 would share the slot m >> 1 and be counted in one class
    with pytest.raises(ValueError, match="odd"):
        list(class_counts(np.array([11, 12, 13]), 10, 20, [3]))
    with pytest.raises(ValueError, match="odd"):
        list(class_counts(np.array([11, 13]), 10, 20, [3, 4]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10, max_value=5000))
def test_progression_variance_matches_loop_numerators(table_200k, x):
    rs = primes_in_range(table_200k, *window_bounds(x)).tolist()
    nums = numerators_by_loop(primes_in_range(table_200k, x, 2 * x).tolist(), rs)
    if x <= EXACT_X_CUTOFF:
        expected = sum((Fraction(num, r * r) for num, r in zip(nums, rs)), Fraction(0))
    else:
        expected = fsum(num / (r * r) for num, r in zip(nums, rs))
    assert prime_progression_variance(table_200k, x).lhs == expected


@pytest.mark.parametrize("x", [75, 100, 300, 1000, 3000, 10_000])
def test_progression_variance_is_the_variance_of_the_thm3_census(table_200k, x):
    # with the window below the box (x >= 75) the image q*r**2 has C_r(-q) parents,
    # so the lhs is the squared deviation of every (q, r) count from Z/r, zero counts
    # included, and num_r is r**2 times its terms at r
    r_lo, r_hi = window_bounds(x)
    assert r_hi <= x
    census = census_b3(table_200k, x)
    counts = dict(zip(census.images.tolist(), census.counts.tolist()))
    ps = primes_in_range(table_200k, x, 2 * x)
    rs = primes_in_range(table_200k, r_lo, r_hi).tolist()
    z = len(ps)
    nums = [sum((r * counts.get(q * r * r, 0) - z) ** 2 for q in ps.tolist()) for r in rs]
    assert _progression_numerators(ps, x, 2 * x, rs) == nums
    if x <= EXACT_X_CUTOFF:
        lhs = sum(
            ((Fraction(counts.get(q * r * r, 0)) - Fraction(z, r)) ** 2 for r in rs for q in ps.tolist()),
            Fraction(0),
        )
        assert prime_progression_variance(table_200k, x).lhs == lhs


def test_progression_variance_validation(table_x300):
    with pytest.raises(ValueError):
        prime_progression_variance(table_x300, 5)
    with pytest.raises(CoverageError):
        prime_progression_variance(table_x300, 1000)


def test_variance_report_json_and_csv(table_x300):
    report = prime_progression_variance(table_x300, 100)
    d = report.to_json_dict()
    assert set(d) == {"x_or_X", "lhs", "bound", "ratio", "window"}
    assert isinstance(d["lhs"], str) and "/" in d["lhs"]  # exact rational string
    assert d["x_or_X"] == 100
    row = report.to_csv_row()
    assert row[0] == 100 and isinstance(row[1], str)
    flat = residue_count_variance(SequenceSample.from_values([1, 2, 5]), 4).to_json_dict()
    assert set(flat) == {"x_or_X", "lhs", "bound", "ratio"}

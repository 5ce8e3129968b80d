"""Prime engine tests, checked against independent naive oracles."""

import struct
import zlib
from itertools import count
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdyn import (
    CoverageError,
    build_prime_table,
    factor_list,
    largest_prime_factor,
    primes_in_range,
)
from wdyn import oracle, primes
from wdyn.primes import MR_BASES, MR_BOUND, _load_table, _save_table, largest_prime_factors


# --- oracles, written before the paths they check ---

def naive_sieve(limit: int) -> list[int]:
    """Plain boolean sieve of Eratosthenes; no spf machinery."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def naive_factor(n: int) -> list[int]:
    """Trial division by every integer; independent of any table."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_first_primes():
    assert primes_in_range(build_prime_table(10), 1, 10).tolist() == [2, 3, 5, 7]


def test_boundary_limit_two():
    assert primes_in_range(build_prime_table(2), 1, 2).tolist() == [2]


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_prime_table(1)


def test_prime_count_to_ten_thousand(table_10k):
    oracle = naive_sieve(10_000)
    assert len(oracle) == 1229
    assert primes_in_range(table_10k, 1, table_10k.limit).tolist() == oracle


def full_spf(table) -> np.ndarray:
    """The table's smallest prime factors over [0, limit] as one uint32
    array, in the layout format-2 and format-3 caches stored: spf[n] = n
    for a prime, and the sentinels spf[0] = 0, spf[1] = 1.  Even n read
    2, odd composites their slot."""
    spf = np.arange(table.limit + 1, dtype=np.uint32)
    spf[4::2] = 2
    composite = table.odd_spf != 0
    composite[0] = False  # n = 1
    spf[1::2][composite] = table.odd_spf[composite]
    return spf


def assert_spf_invariants(table):
    assert table.odd_spf.dtype == np.uint16 and len(table.odd_spf) == (table.limit + 1) // 2
    assert table.odd_spf[0] == 1
    full = full_spf(table)
    n = np.arange(2, table.limit + 1)
    spf = full[2:].astype(np.int64)
    assert np.all(n % spf == 0)
    assert np.all(full[spf] == spf)  # every spf value is a prime
    assert np.array_equal(n[spf == n], primes_in_range(table, 1, table.limit))
    # spf(n) is the smallest prime factor exactly when n / spf(n) has none smaller
    q = n // spf
    assert np.all((q < 2) | (full[q] >= spf))
    assert full[0] == 0 and full[1] == 1


def assert_range_matches(table, lo, hi, naive):
    got = primes_in_range(table, lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [p for p in naive if lo < p <= hi], (lo, hi)
    assert np.all(np.diff(got) > 0)
    if hi <= lo:
        assert len(got) == 0


def test_spf_invariants(table_10k):
    assert_spf_invariants(table_10k)


def test_spf_invariants_across_segments(table_1m):
    assert primes._SEGMENT < table_1m.limit  # several segments, the last one partial
    assert_spf_invariants(table_1m)


@pytest.mark.parametrize("segment", [1, 7, 64])
def test_segment_boundaries(monkeypatch, segment):
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    s = segment
    # s slots hold the odd n < 2s, so 2s - 1, 2s and 2s + 1 straddle the first segment edge
    edges = (s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, 3 * s + 1, 6 * s + 1)
    for limit in sorted({lim for lim in (2, 3, 4, *edges, 10_000) if lim >= 2}):
        table, naive = build_prime_table(limit), naive_sieve(limit)
        assert primes_in_range(table, 1, table.limit).tolist() == naive, limit
        assert len(table) == len(naive), limit
        assert_spf_invariants(table)
    # ranges on the last table, limit 10**4, read across many short segments
    rng = np.random.default_rng(segment)
    ranges = [(0, 2), (1, 3), (3, 4), (7, 64), (100, 121), (9_000, 10_000)]
    for _ in range(60):
        lo = int(rng.integers(-2, 10_000))
        ranges.append((lo, int(rng.integers(lo, 10_001))))
    for lo, hi in ranges:
        assert_range_matches(table, lo, hi, naive)


# limits of both parities, and the default segment's first edge: 2**18 slots hold the odd n < 2**19
@pytest.mark.parametrize("limit", [2, 3, 4, 5, 6, 7, 2**19 - 1, 2**19, 2**19 + 1])
def test_spf_invariants_at_small_and_segment_edge_limits(limit):
    table, naive = build_prime_table(limit), naive_sieve(limit)
    assert_spf_invariants(table)
    assert primes_in_range(table, 1, limit).tolist() == naive
    for lo in range(limit - 4, limit + 1):  # the last slots, one of them partial at an even limit
        assert primes_in_range(table, lo, limit).tolist() == [p for p in naive if p > lo]
    assert len(table) == len(naive)


def test_primes_list_matches_is_prime(table_10k):
    # in the expanded array primality is spf[n] == n for n >= 2, and an odd n's slot holds 0
    n = np.arange(table_10k.limit + 1)
    ps = primes_in_range(table_10k, 1, table_10k.limit)
    assert np.array_equal(np.flatnonzero((full_spf(table_10k) == n) & (n >= 2)), ps)
    odd = np.arange(1, table_10k.limit + 1, 2)
    assert np.array_equal(odd[table_10k.is_prime_odd(odd)], ps[1:])
    assert ps.dtype == np.int64
    assert np.all(np.diff(ps) > 0)


def test_primes_in_range_examples(table_10k):
    assert primes_in_range(table_10k, 10, 20).tolist() == [11, 13, 17, 19]
    assert primes_in_range(table_10k, 13, 13).tolist() == []
    span = primes_in_range(table_10k, 1000, 2000)
    oracle = [p for p in naive_sieve(2000) if 1000 < p <= 2000]
    assert span.tolist() == oracle
    assert len(span) == 135


def test_primes_in_range_coverage_error(table_10k):
    with pytest.raises(CoverageError, match="limit >= 20000"):
        primes_in_range(table_10k, 0, 20_000)


def test_primes_in_range_every_small_range():
    table, naive = build_prime_table(300), naive_sieve(300)
    for lo in range(-2, 301):
        for hi in range(lo, 301):
            assert_range_matches(table, lo, hi, naive)
    assert_range_matches(table, 200, 100, naive)
    assert len(table) == len(naive) == 62


def test_primes_in_range_straddles_segments(table_1m):
    # ranges across multiples of 2**18, and across the a**2 >= b switch at the start
    naive = naive_sieve(table_1m.limit)
    rng = np.random.default_rng(20)
    seg = primes._SEGMENT
    ranges = [(1, 10**6), (0, seg), (seg - 1, seg + 1), (seg, 2 * seg), (3 * seg - 5, 10**6), (511, seg + 1)]
    for edge in range(0, 10**6, seg):
        for _ in range(6):
            lo = edge + int(rng.integers(-3000, 3000))
            ranges.append((lo, min(10**6, lo + int(rng.integers(0, 5 * seg)))))
    for _ in range(20):  # short ranges near the start, where a**2 < b
        lo = int(rng.integers(-2, 2000))
        ranges.append((lo, lo + int(rng.integers(0, 10**5))))
    for lo, hi in ranges:
        assert_range_matches(table_1m, lo, hi, naive)
    assert len(table_1m) == len(naive) == 78_498


def test_largest_prime_factor_examples(table_10k):
    assert largest_prime_factor(table_10k, 20) == 5
    assert largest_prime_factor(table_10k, 9) == 3
    assert largest_prime_factor(table_10k, 98) == 7
    assert largest_prime_factor(table_10k, 4) == 2
    assert largest_prime_factor(table_10k, 7) == 7


@pytest.mark.parametrize("bad", [1, 0, -5])
def test_largest_prime_factor_domain_error(table_10k, bad):
    with pytest.raises(ValueError):
        largest_prime_factor(table_10k, bad)


def test_lpf_equals_max_factor_exhaustive(table_10k):
    for n in range(2, 10_001):
        factors = factor_list(table_10k, n)
        assert largest_prime_factor(table_10k, n) == factors[-1]
        assert prod(factors) == n


# past the table, Miller–Rabin and rho take over; a limit-10 table
# sends nearly every piece down that path
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=40_002, max_value=10**9), st.sampled_from([40_001, 10]))
def test_lpf_beyond_limit_matches_naive(table_x10k, n, limit):
    table = table_x10k if limit == 40_001 else build_prime_table(limit)
    assert largest_prime_factor(table, n) == max(naive_factor(n))
    assert factor_list(table, n) == naive_factor(n)


def test_lpf_beyond_certification_reach():
    # 169 = 13**2 has no factor <= 10; rho splits it past the table
    assert largest_prime_factor(build_prime_table(10), 169) == 13


# the least strong pseudoprimes to the first k prime bases, k = 2..12
# (psi_7 = psi_8, psi_9 = psi_10 = psi_11), then squares and products
# of primes past the table
PAST_TABLE_FACTORS = [
    [829, 1657],
    [2251, 11251],
    [151, 751, 28351],
    [6763, 10627, 29947],
    [1303, 16927, 157543],
    [10670053, 32010157],
    [149491, 747451, 34233211],
    [399165290221, 798330580441],
    [11, 11],
    [10007, 10007],
    [1000003, 1000003],
    [11, 13],
    [10007, 1000003],
    [998244353, 1000000007],
    # each side of the 2**32 rule once 3 or 65521 is shed: a prime cofactor
    # 65537 or 4294967291 below 2**32, a composite 65537**2 or 65537 * 65539
    # past it
    [3, 65537],
    [65521, 4294967291],
    [3, 65537, 65537],
    [3, 65537, 65539],
    # past 2**64, piece and cofactor alike: rho splits them, 65521 included
    [65521, 4294967291, 4294967311],
]


@pytest.mark.parametrize("factors", PAST_TABLE_FACTORS, ids=str)
def test_factor_list_exact_past_a_limit_10_table(factors):
    assert all(naive_factor(p) == [p] for p in factors)
    assert factor_list(build_prime_table(10), prod(factors)) == factors


def strong_probable_prime(n: int, bases) -> bool:
    """The strong Fermat test of an odd n > max(bases) to each base, written
    apart from ``primes._miller_rabin``.  A prime passes every base, so a
    failure proves n composite; passing all of MR_BASES proves n prime
    below MR_BOUND (Sorenson & Webster 2015)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_matches_sieve_to_two_million():
    # covers the switches at psi_1 = 2047 and psi_2 = 1373653 entry by entry
    table = build_prime_table(2 * 10**6)
    n = np.arange(2, table.limit + 1)
    assert [primes._miller_rabin(k) for k in range(2, table.limit + 1)] == (full_spf(table)[2:] == n).tolist()


NAIVE_REACH = 10**13  # naive_factor of a prime below this takes under about 0.3 s


def certified_prime(n: int) -> bool:
    if n < NAIVE_REACH:
        return naive_factor(n) == [n]
    return gcd(n, prod(MR_BASES)) == 1 and strong_probable_prime(n, MR_BASES)


@pytest.mark.parametrize("psi, k", primes._MR_PSI[:-1], ids=str)
def test_miller_rabin_at_each_psi_switch(psi, k):
    # psi is composite (it fails some base, being below MR_BOUND) yet passes
    # the first k bases, so psi is where k must grow
    assert strong_probable_prime(psi, MR_BASES[:k]) and not strong_probable_prime(psi, MR_BASES)
    assert primes._miller_rabin(psi) is False
    # the nearest primes on both sides are certified, and all between them is composite
    below = next(n for n in range(psi - 1, 1, -1) if primes._miller_rabin(n))
    above = next(n for n in count(psi + 1) if primes._miller_rabin(n))
    assert certified_prime(below) and certified_prime(above)
    for n in range(below + 1, above):
        assert n % 2 == 0 or not strong_probable_prime(n, MR_BASES), n


def test_miller_rabin_psi_table():
    psis, ks = zip(*primes._MR_PSI)
    assert list(psis) == sorted(set(psis)) and psis[-1] == MR_BOUND
    assert list(ks) == sorted(set(ks)) and ks[-1] == len(MR_BASES)
    assert strong_probable_prime(MR_BOUND, MR_BASES)  # why factoring stops there


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 78_493), st.integers(0, 78_493))
def test_rho_splits_products_of_primes_past_the_table(table_1m, i, j):
    ps = primes_in_range(table_1m, 10, 10**6)  # primes past a limit-10 table
    p, q = int(ps[i]), int(ps[j])
    for n in {p * q, p * p, p**3}:
        d = primes._rho(n)
        assert 1 < d < n and n % d == 0, (n, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10_000), st.integers(0, 40), st.integers(10_001, 10**10))
def test_largest_prime_factor_on_each_path(table_10k, small, shift, big):
    limit = table_10k.limit
    odd = small >> ((small & -small).bit_length() - 1)
    even_past = odd << max(shift, limit.bit_length())  # its odd part is within the table
    for n in (small, even_past, big | 1):
        assert largest_prime_factor(table_10k, n) == max(naive_factor(n)), n


def test_factor_list_splits_base_factors_without_rho(monkeypatch):
    # a piece past a limit-10 table sheds its primes below 2**16 by the
    # multiply-compare; 65537**2, the least prime square with no factor
    # below 2**16, is left and goes to rho.  A piece with no small factor
    # that went back on the pieces instead of to rho would loop: the three
    # inputs make 1, 1 and 4 Miller–Rabin calls, and a budget on those
    # calls makes such a loop fail instead of hang
    table, rho_calls, rho, mr = build_prime_table(10), [], primes._rho, primes._miller_rabin
    mr_calls = count(1)

    def bounded_mr(m):
        if next(mr_calls) > 64:
            pytest.fail("factor_list made over 64 Miller–Rabin calls: it loops")
        return mr(m)

    monkeypatch.setattr(primes, "_miller_rabin", bounded_mr)
    monkeypatch.setattr(primes, "_rho", lambda m: rho_calls.append(m) or rho(m))
    for n in (prod(MR_BASES), 41**3 * 37, 2**5 * 3**7 * 65537**2):
        assert factor_list(table, n) == naive_factor(n), n
    assert rho_calls == [65537**2]


SMALL_PRIMES = naive_sieve(2**16)[1:]  # the odd primes below 2**16


def test_small_primes_inverses_and_limits():
    p, inv, lim = primes._small_primes()
    assert p.tolist() == SMALL_PRIMES
    assert (len(p), SMALL_PRIMES[0], SMALL_PRIMES[-1]) == (6541, 3, 65521)
    assert all(q * i % 2**64 == 1 for q, i in zip(p.tolist(), inv.tolist()))
    assert lim.tolist() == [(2**64 - 1) // q for q in SMALL_PRIMES]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**64 - 1))
def test_small_factors_match_remainders(m):
    assert primes._small_factors(m) == [p for p in SMALL_PRIMES if m % p == 0]


def test_factor_list_on_a_limit_2_table_exhaustive():
    # every odd part past this table is a piece: one lost small prime
    # (3, say, so that 45 gives [5, 9]) shows here
    table = build_prime_table(2)
    assert all(factor_list(table, n) == naive_factor(n) for n in range(2, 20001))


def test_factor_list_refuses_mr_bound():
    table = build_prime_table(10)
    # MR_BOUND = 1287836182261 * 2575672364521 is the strong pseudoprime to all 13 bases
    assert factor_list(table, MR_BOUND - 2) == [17, 1709, 1366183751, 83570142193]
    for n in (MR_BOUND, 4 * MR_BOUND):
        with pytest.raises(CoverageError, match=f"only below MR_BOUND = {MR_BOUND}"):
            factor_list(table, n)


def test_largest_prime_factors_matches_oracle(table_1m):
    lpf = largest_prime_factors(table_1m, 10**6)
    assert np.array_equal(lpf[2:], oracle.lpf_array(table_1m, 10**6)[2:])
    assert lpf[:2].tolist() == [0, 1]  # sentinels
    head = primes._P_HEAD  # shorter arrays are copies of one precomputed array
    for n in [*range(50), *range(head - 3, head + 4), 3 * head + 1, 3 * head + 2]:  # both parities
        assert np.array_equal(largest_prime_factors(table_1m, n), lpf[: n + 1]), n
    with pytest.raises(CoverageError, match="limit >= 1000001"):
        largest_prime_factors(table_1m, 10**6 + 1)
    for n in (-1, -5):  # not a slice of the head from its end
        with pytest.raises(ValueError, match="n >= 0"):
            largest_prime_factors(table_1m, n)


def test_factorize_examples(table_10k):
    assert factor_list(table_10k, 20) == [2, 2, 5]
    assert factor_list(table_10k, 30) == [2, 3, 5]
    assert factor_list(table_10k, 97) == [97]
    assert len(factor_list(table_10k, 97)) == 1  # big omega
    assert len(factor_list(table_10k, 20)) == 3


def test_factorize_out_of_range(table_10k):
    with pytest.raises(ValueError):
        factor_list(table_10k, 1)
    # 169 = 13**2 lies past a limit-10 table and its square; it is still exact
    assert factor_list(build_prime_table(10), 169) == [13, 13]


def test_factor_list_certifies_cofactor_below_next_square():
    table = build_prime_table(10)
    # 113 is prime and past the table: Miller–Rabin certifies it
    assert factor_list(table, 226) == [2, 113]


def test_factor_list_beyond_int64():
    table = build_prime_table(10)
    assert factor_list(table, 2**70) == [2] * 70
    assert factor_list(table, 3 * 2**63) == [2] * 63 + [3]


def test_cache_roundtrip(tmp_path):
    table = build_prime_table(5000, cache_dir=tmp_path)
    path = tmp_path / "sieve-5000.wdynsieve"
    assert path.exists()
    again = build_prime_table(5000, cache_dir=tmp_path)
    assert np.array_equal(table.odd_spf, again.odd_spf)
    assert np.array_equal(primes_in_range(table, 1, 5000), primes_in_range(again, 1, 5000))
    assert not again.odd_spf.flags.owndata  # a view of the file's bytes, not a copy


def test_cache_hit_logs_load_not_build(tmp_path, caplog):
    with caplog.at_level("INFO", logger="wdyn.primes"):
        build_prime_table(5000, cache_dir=tmp_path)
        assert "building prime table to 5000" in caplog.text
        caplog.clear()
        build_prime_table(5000, cache_dir=tmp_path)
    assert f"loaded prime table to 5000 from {tmp_path / 'sieve-5000.wdynsieve'}" in caplog.text
    assert "building" not in caplog.text


def test_cache_corruption_falls_back(tmp_path, caplog):
    build_prime_table(5000, cache_dir=tmp_path)
    path = tmp_path / "sieve-5000.wdynsieve"
    path.write_bytes(path.read_bytes()[:100])  # truncate
    with caplog.at_level("WARNING"):
        table = build_prime_table(5000, cache_dir=tmp_path)
    assert "rebuilding" in caplog.text
    assert len(table) == 669  # pi(5000)
    # the rebuild rewrote a valid cache
    again = build_prime_table(5000, cache_dir=tmp_path)
    assert primes_in_range(again, 1, 5000)[-1] == primes_in_range(table, 1, 5000)[-1] == 4999


def test_cache_corrupt_spf_slot_falls_back(tmp_path, caplog):
    build_prime_table(200_000, cache_dir=tmp_path)
    path = tmp_path / "sieve-200000.wdynsieve"
    raw = bytearray(path.read_bytes())
    slot = 24 + 2 * (99991 >> 1)  # the u16 slot of the prime 99991: 0
    assert int.from_bytes(raw[slot : slot + 2], "little") == 0
    raw[slot : slot + 2] = (7).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with caplog.at_level("WARNING"):
        table = build_prime_table(200_000, cache_dir=tmp_path)
    assert "checksum" in caplog.text and "rebuilding" in caplog.text
    assert largest_prime_factor(table, 2 * 99991) == 99991


def test_cache_bad_magic_falls_back(tmp_path, caplog):
    build_prime_table(300, cache_dir=tmp_path)
    path = tmp_path / "sieve-300.wdynsieve"
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with caplog.at_level("WARNING"):
        table = build_prime_table(300, cache_dir=tmp_path)
    assert len(table) == 62  # pi(300)


def _wrong_first_slots(raw):  # n = 9 read as prime, under a valid header and crc
    payload = raw[24:32] + b"\x00\x00" + raw[34:]
    return raw[:20] + zlib.crc32(payload).to_bytes(4, "little") + payload


@pytest.mark.parametrize(
    "reason, corrupt",
    [
        ("truncated header", lambda raw: raw[:23]),
        ("bad magic", lambda raw: b"NOTASIEV" + raw[8:]),
        ("payload size 327 != expected 326", lambda raw: raw + b"\x00"),
        ("payload size 325 != expected 326", lambda raw: raw[:-1]),
        ("cached limit 303 != requested 301", lambda raw: raw[:12] + (303).to_bytes(8, "little") + raw[20:]),
        ("payload fails sanity check", _wrong_first_slots),
    ],
)
def test_cache_refusal_is_logged_and_rebuilt(tmp_path, caplog, reason, corrupt):
    fresh = build_prime_table(301)
    path = tmp_path / "sieve-301.wdynsieve"
    _save_table(fresh, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with caplog.at_level("WARNING", logger="wdyn.primes"):
        table = build_prime_table(301, cache_dir=tmp_path)
    assert f"({reason}); rebuilding" in caplog.text
    assert np.array_equal(table.odd_spf, fresh.odd_spf)
    assert np.array_equal(_load_table(path, 301).odd_spf, fresh.odd_spf)  # rewritten valid


def test_limit_from_2_32_refused_before_any_allocation(tmp_path, monkeypatch):
    sieved = []
    monkeypatch.setattr(primes, "_spf_sieve", lambda limit: sieved.append(limit) or np.zeros(1, np.uint16))
    monkeypatch.setattr(primes, "_load_table", lambda *args: pytest.fail("cache read"))
    for limit in (2**32, 2**40):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            build_prime_table(limit, cache_dir=tmp_path)
    assert sieved == [] and list(tmp_path.iterdir()) == []
    build_prime_table(2**32 - 1)  # the largest limit passes the check, here to a stub sieve
    assert sieved == [2**32 - 1]


def test_cache_format_fields(tmp_path):
    table = build_prime_table(100, cache_dir=tmp_path)
    raw = (tmp_path / "sieve-100.wdynsieve").read_bytes()
    assert raw[:8] == b"WDYNSIEV"
    assert int.from_bytes(raw[8:12], "little") == 4  # format version
    assert int.from_bytes(raw[12:20], "little") == 100  # limit
    assert int.from_bytes(raw[20:24], "little") == zlib.crc32(raw[24:])  # payload checksum
    # header + u16 payload, one slot per odd n in [1, 100]
    assert len(raw) == 24 + 2 * 50
    assert raw[24:].startswith(b"\x01\x00" + b"\x00\x00" * 3 + b"\x03\x00")  # n = 1, 3, 5, 7, 9
    loaded = _load_table(tmp_path / "sieve-100.wdynsieve", 100)
    assert np.array_equal(loaded.odd_spf, table.odd_spf)


# checksums of the u32 spf array over [0, limit] that format-2 and
# format-3 caches stored; a match of the expanded table shows the sieve's
# values are unchanged
PINNED_CACHE_CRCS = {262_143: 0x91877B38, 262_144: 0x15BCED36, 262_145: 0x474DCEFF, 10**6: 0xA9EF3602}


@pytest.mark.parametrize("limit", PINNED_CACHE_CRCS)
def test_cache_bytes_pinned(tmp_path, limit):
    built = build_prime_table(limit, cache_dir=tmp_path)
    raw = (tmp_path / f"sieve-{limit}.wdynsieve").read_bytes()
    assert int.from_bytes(raw[20:24], "little") == zlib.crc32(raw[24:])
    assert np.array_equal(np.frombuffer(raw[24:], dtype="<u2"), built.odd_spf)
    assert zlib.crc32(full_spf(built).astype("<u4")) == PINNED_CACHE_CRCS[limit]


def test_cache_format_2_is_rebuilt(tmp_path, caplog):
    # a format-2 file as earlier versions wrote it: packed prime bits, then the spf array
    table = build_prime_table(300)
    bits = np.packbits(np.isin(np.arange(301), primes_in_range(table, 1, 300)), bitorder="little")
    payload = bits.tobytes() + full_spf(table).astype("<u4").tobytes()
    path = tmp_path / "sieve-300.wdynsieve"
    path.write_bytes(struct.pack("<8sIQI", b"WDYNSIEV", 2, 300, zlib.crc32(payload)) + payload)
    with caplog.at_level("WARNING"):
        again = build_prime_table(300, cache_dir=tmp_path)
    assert "format version 2 != 4" in caplog.text and "rebuilding" in caplog.text
    assert np.array_equal(primes_in_range(again, 1, 300), primes_in_range(table, 1, 300))
    assert path.stat().st_size == 24 + 2 * 150  # rewritten as format 4


def test_cache_format_3_is_rebuilt(tmp_path, caplog):
    # a format-3 file as earlier versions wrote it: the u32 spf array over [0, limit]
    table = build_prime_table(301)
    payload = full_spf(table).astype("<u4").tobytes()
    path = tmp_path / "sieve-301.wdynsieve"
    path.write_bytes(struct.pack("<8sIQI", b"WDYNSIEV", 3, 301, zlib.crc32(payload)) + payload)
    with caplog.at_level("WARNING"):
        again = build_prime_table(301, cache_dir=tmp_path)
    assert "format version 3 != 4" in caplog.text and "rebuilding" in caplog.text
    assert np.array_equal(again.odd_spf, table.odd_spf)
    assert path.stat().st_size == 24 + 2 * 151  # rewritten as format 4
    assert np.array_equal(build_prime_table(301, cache_dir=tmp_path).odd_spf, table.odd_spf)


def test_warm_table_is_a_writable_u16_array_as_built(tmp_path, caplog):
    built = build_prime_table(120001, cache_dir=tmp_path)
    with caplog.at_level("INFO", logger="wdyn.primes"):
        warm = build_prime_table(120001, cache_dir=tmp_path)
    assert "loaded prime table" in caplog.text
    assert np.array_equal(warm.odd_spf, built.odd_spf)
    for table in (built, warm):
        assert table.odd_spf.dtype == np.uint16 and table.odd_spf.shape == (60001,)
        assert table.odd_spf.flags.writeable


def test_save_load_helpers_roundtrip(tmp_path):
    table = build_prime_table(997)
    path = tmp_path / "t.wdynsieve"
    _save_table(table, path)
    loaded = _load_table(path, 997)
    assert primes_in_range(loaded, 1, 997).tolist() == primes_in_range(table, 1, 997).tolist()

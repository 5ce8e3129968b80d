"""Sieve-backed primality, enumeration, and factorization services.

Everything downstream (orbit iteration, parent searches, variance sums)
queries primes through a :class:`PrimeTable`: a smallest-prime-factor
sieve over ``[2, limit]`` and nothing else.  Primality is read as
``spf[n] == n``, the primes of a range by :func:`primes_in_range`'s
scan of spf, and the binary cache stores the spf array alone.  The
table is immutable after construction.

Supported universe: :func:`factor_list` and :func:`largest_prime_factor`
are exact for every n below ``MR_BOUND`` (about 3.3e24) on any table:
pieces up to the limit walk the spf chain, pieces past it go to
Miller–Rabin on only as many bases as their size needs (the ψ_k table)
and to Brent's rho.  :func:`largest_prime_factor` drops the powers of 2
first and walks the spf chain of the odd part without a list when it is
within the table.  :func:`largest_prime_factors` derives the P array
over ``[0, n]``, ``n <= limit``, for the censuses and the parent
searches.
"""

from __future__ import annotations

import logging
import struct
import uuid
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt, prod
from pathlib import Path

import numpy as np

from .errors import CacheError, CoverageError

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"WDYNSIEV"
CACHE_VERSION = 3
CACHE_HEADER = "<8sIQI"  # magic, format version, limit, crc32 of the u32 spf payload

# Miller–Rabin on these bases is exact below MR_BOUND, itself the least
# strong pseudoprime to all of them (Sorenson & Webster 2015)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981
# (psi_k, k) at each k where psi_k, the least strong pseudoprime to the
# first k bases, grows (psi_7 = psi_8, psi_9 = psi_10 = psi_11): the first
# k bases are exact below psi_k.  Jaeschke 1993 (k <= 8), Jiang & Deng
# 2014 (k <= 11), Sorenson & Webster 2015 (k = 12, 13; psi_13 = MR_BOUND)
_MR_PSI = (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4), (2_152_302_898_747, 5),
    (3_474_749_660_383, 6), (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12), (MR_BOUND, 13),
)
_MR_BASES_PROD = prod(MR_BASES)
_RHO_BATCH = 128  # Brent's rho steps whose |x - y| share one gcd

_SEGMENT = 1 << 18  # spf entries sieved or scanned at a time: 1 MB of uint32, an L2's worth


@dataclass(frozen=True)
class PrimeTable:
    """Primality and smallest-prime-factor oracle for [2, limit].

    Attributes
    ----------
    limit : int
        Inclusive upper bound of sieve coverage.
    spf : np.ndarray
        uint32 array of length ``limit + 1``; ``spf[n]`` is the smallest
        prime factor of n for n in [2, limit]; n >= 2 is prime exactly
        when ``spf[n] == n``.  Entries 0 and 1 are sentinels equal to
        their index, so a primality read must also check n >= 2.
    """

    limit: int
    spf: np.ndarray

    def __len__(self) -> int:  # pi(limit), counted on each segment's mask: no index array is built
        return sum(np.count_nonzero(mask) for _, mask in _prime_masks(self, 1, self.limit))


def _spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor array over [0, limit].

    ``spf`` starts as ``arange(limit + 1)`` (so 0 and 1 are their own
    sentinels) and is sieved in segments of ``_SEGMENT`` entries, small
    enough to stay in cache.  In each segment [lo, hi) the primes p with
    p**2 < hi write p over their multiples from max(p**2, lo) on, in
    descending order and without a mask: the smallest prime dividing a
    slot writes last, so the slot ends up holding it.  A slot no prime
    writes keeps its own value, and is prime exactly then.
    """
    root = isqrt(limit)
    flags = np.ones(root + 1, dtype=bool)  # root < 2**16 as limit < 2**32
    flags[:2] = False
    for p in range(2, isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    small = np.nonzero(flags)[0].tolist()
    spf = np.arange(limit + 1, dtype=np.uint32)
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        block = spf[lo:hi]
        for p in reversed(small[: bisect_left(small, isqrt(hi - 1) + 1)]):  # p**2 < hi
            block[max(p * p, -(-lo // p) * p) - lo :: p] = p
    return spf


def build_prime_table(limit: int, cache_dir: str | Path | None = None) -> PrimeTable:
    """Build (or load from cache) a prime table covering [2, limit].

    Parameters
    ----------
    limit : int
        Inclusive sieve bound, 2 <= limit < 2**32.
    cache_dir : path-like, optional
        Directory for the binary sieve cache.  A valid cached table for
        this exact limit is loaded; otherwise the table is built and
        written back.  Corrupt or stale cache files are rebuilt with a
        warning.
    """
    if limit < 2:
        raise ValueError(f"table limit must be >= 2, got {limit}")
    if limit >= 2**32:
        raise ValueError(f"table limit must be < 2**32 (spf stored as u32), got {limit}")

    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"sieve-{limit}.wdynsieve"
        if path.exists():
            try:
                table = _load_table(path, limit)
            except CacheError as exc:
                logger.warning("sieve cache %s unusable (%s); rebuilding", path, exc)
            else:
                logger.info("loaded prime table to %d from %s", limit, path)
                return table

    logger.info("building prime table to %d ...", limit)
    table = PrimeTable(limit=limit, spf=_spf_sieve(limit))

    if path is not None:
        try:
            _save_table(table, path)
        except OSError as exc:
            raise CacheError(f"cannot write sieve cache {path}: {exc}") from exc
    return table


def _save_table(table: PrimeTable, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spf = np.ascontiguousarray(table.spf, dtype="<u4")  # no copy on a little-endian host
    crc = zlib.crc32(spf)
    header = struct.pack(CACHE_HEADER, CACHE_MAGIC, CACHE_VERSION, table.limit, crc)
    # a name of its own per writer, so concurrent builds never share a temp file
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header)
            fh.write(spf)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_table(path: Path, limit: int) -> PrimeTable:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CacheError(str(exc)) from exc
    head = struct.calcsize(CACHE_HEADER)
    if len(raw) < head:
        raise CacheError("truncated header")
    magic, version, stored_limit, crc = struct.unpack_from(CACHE_HEADER, raw)
    if magic != CACHE_MAGIC:
        raise CacheError("bad magic")
    if version != CACHE_VERSION:
        raise CacheError(f"format version {version} != {CACHE_VERSION}")
    if stored_limit != limit:
        raise CacheError(f"cached limit {stored_limit} != requested {limit}")
    expected = head + 4 * (limit + 1)
    if len(raw) != expected:
        raise CacheError(f"payload size {len(raw)} != expected {expected}")
    if zlib.crc32(memoryview(raw)[head:]) != crc:
        raise CacheError("payload checksum mismatch")
    spf = np.frombuffer(raw, dtype="<u4", offset=head)  # a view, not a copy: never written to
    if spf[:4].tolist() != [0, 1, 2, 3][: limit + 1]:
        raise CacheError("payload fails sanity check")
    return PrimeTable(limit=limit, spf=spf)


def _prime_masks(table: PrimeTable, lo: int, hi: int):
    """Yield (a, mask) over (lo, hi], ``_SEGMENT`` entries at a time:
    ``mask[i]`` is true exactly when a + i is prime.  A composite n has
    spf[n] <= isqrt(n), so a segment [a, b) with a**2 >= b (every box and
    window asked for) holds its primes at the n with spf[n] >= a: a
    scalar compare.
    """
    for a in range(max(lo + 1, 2), hi + 1, _SEGMENT):
        b = min(a + _SEGMENT, hi + 1)
        top = a if a * a >= b else np.arange(a, b, dtype=np.uint32)  # spf[n] >= n: n is prime
        yield a, table.spf[a:b] >= top


def primes_in_range(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """All primes p with lo < p <= hi, as a fresh ascending int64 array.

    The half-open convention (lo, hi] is used everywhere in this
    package (prime boxes (x, 2x], middle-prime windows, ...).  Scans spf
    ``_SEGMENT`` entries at a time (see :func:`_prime_masks`).
    """
    if hi > table.limit:
        raise CoverageError(
            f"range ({lo}, {hi}] exceeds table limit {table.limit}; "
            f"rebuild with limit >= {hi}",
            required_limit=hi,
        )
    parts = [np.flatnonzero(mask) + a for a, mask in _prime_masks(table, lo, hi)]
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _check_reach(n: int) -> None:
    if n < 2:
        raise ValueError(f"factorization requires n >= 2, got {n}")
    if n >= MR_BOUND:
        raise CoverageError(
            f"factoring is exact only below MR_BOUND = {MR_BOUND} (Miller–Rabin on bases 2..41)"
        )


def largest_prime_factor(table: PrimeTable, n: int) -> int:
    """Largest prime factor P(n) of an integer n > 1, with the reach of
    :func:`factor_list` (n below ``MR_BOUND``).

    The powers of 2 go by bit operations.  An odd part within the table
    walks its spf chain to the last entry, a prime; only an odd part past
    the table goes to :func:`factor_list`.
    """
    _check_reach(n)
    m = n >> ((n & -n).bit_length() - 1)
    if m == 1:
        return 2
    if m > table.limit:
        return factor_list(table, m)[-1]
    spf = table.spf
    p = spf.item(m)
    while p != m:
        m //= p
        p = spf.item(m)
    return m


def largest_prime_factors(table: PrimeTable, n: int) -> np.ndarray:
    """int64 array of P(k) for k in [0, n] (entries 0 and 1 are sentinels).

    Derived from the spf array in blocks [2**j, 2**(j+1)):
    P(k) = max(spf(k), P(k // spf(k))), and k // spf(k) <= k // 2 lies
    in a block already done.
    """
    if n > table.limit:
        raise CoverageError(
            f"P array to {n} exceeds table limit {table.limit}; rebuild with limit >= {n}",
            required_limit=n,
        )
    lpf = table.spf[: n + 1].astype(np.int64)
    lo = 2
    while lo <= n:
        hi = min(2 * lo, n + 1)
        block = lpf[lo:hi]
        np.maximum(block, lpf[np.arange(lo, hi) // block], out=block)
        lo = hi
    return lpf


def _miller_rabin(n: int) -> bool:
    """Primality of 2 <= n < MR_BOUND: Miller–Rabin on the first k of
    MR_BASES, k the least with psi_k > n (``_MR_PSI``), after one gcd
    with their product."""
    if gcd(n, _MR_BASES_PROD) != 1:
        return n in MR_BASES
    for psi, k in _MR_PSI:
        if n < psi:
            break
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in MR_BASES[:k]:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the composite n: Pollard's rho with Brent's
    cycle-finding on y**2 + c (Brent 1980).  The differences x - y of
    ``_RHO_BATCH`` steps are multiplied together mod n and share one gcd;
    a batch whose gcd is n is stepped again one gcd at a time, and c moves
    on when even that gives n."""
    if n % 2 == 0:
        return 2
    for c in count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y  # the iterate at the last power of 2
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factor_list(table: PrimeTable, n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending; exact for
    2 <= n < MR_BOUND.  A piece of n up to ``table.limit`` walks the spf
    chain; a piece past it is certified prime by Miller–Rabin, or split
    by Brent's rho and both parts factored in turn.
    """
    _check_reach(n)
    spf, limit = table.spf, table.limit
    out: list[int] = []
    pieces = [n]
    while pieces:
        m = pieces.pop()
        if m <= limit:
            while m > 1:
                p = spf.item(m)
                out.append(p)
                m //= p
        elif _miller_rabin(m):
            out.append(m)
        else:
            d = _rho(m)
            pieces += (d, m // d)
    out.sort()
    return out

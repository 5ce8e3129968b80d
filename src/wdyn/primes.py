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
Miller–Rabin and Pollard's rho.  :func:`largest_prime_factors` derives
the P array over ``[0, n]``, ``n <= limit``, for the censuses and the
parent searches.
"""

from __future__ import annotations

import logging
import struct
import uuid
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt
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

    def __len__(self) -> int:  # pi(limit), counted one segment at a time: no list of all primes is held
        segments = range(0, self.limit, _SEGMENT)
        return sum(len(primes_in_range(self, lo, min(lo + _SEGMENT, self.limit))) for lo in segments)


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


def primes_in_range(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """All primes p with lo < p <= hi, as a fresh ascending int64 array.

    The half-open convention (lo, hi] is used everywhere in this
    package (prime boxes (x, 2x], middle-prime windows, ...).  Scans spf
    ``_SEGMENT`` entries at a time.  A composite n has spf[n] <= isqrt(n),
    so a segment [a, b) with a**2 >= b (every box and window asked for)
    holds its primes at the n with spf[n] >= a: a scalar compare.
    """
    if hi > table.limit:
        raise CoverageError(
            f"range ({lo}, {hi}] exceeds table limit {table.limit}; "
            f"rebuild with limit >= {hi}",
            required_limit=hi,
        )
    parts = [np.empty(0, dtype=np.int64)]
    for a in range(max(lo + 1, 2), hi + 1, _SEGMENT):
        b = min(a + _SEGMENT, hi + 1)
        top = a if a * a >= b else np.arange(a, b, dtype=np.uint32)  # spf[n] >= n: n is prime
        parts.append(np.flatnonzero(table.spf[a:b] >= top) + a)
    return np.concatenate(parts)


def largest_prime_factor(table: PrimeTable, n: int) -> int:
    """Largest prime factor P(n) of an integer n > 1, with the reach of
    :func:`factor_list` (n below ``MR_BOUND``)."""
    return factor_list(table, n)[-1]


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
    """Miller–Rabin on MR_BASES; exact for n < MR_BOUND."""
    if any(n % p == 0 for p in MR_BASES):
        return n in MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    for a in MR_BASES:
        y = pow(a, (n - 1) >> s, n)
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
    """A proper divisor of the composite n: Pollard's rho with Floyd
    cycle-finding on y**2 + c, moving to the next c when the gcd is n."""
    if n % 2 == 0:
        return 2
    for c in count(1):
        slow = fast = 2
        d = 1
        while d == 1:
            slow = (slow * slow + c) % n
            fast = (fast * fast + c) % n
            fast = (fast * fast + c) % n
            d = gcd(slow - fast, n)
        if d != n:
            return d


def factor_list(table: PrimeTable, n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending; exact for
    2 <= n < MR_BOUND.  A piece of n up to ``table.limit`` walks the spf
    chain; a piece past it is certified prime by Miller–Rabin, or split
    by Pollard's rho and both parts factored in turn.
    """
    if n < 2:
        raise ValueError(f"factorization requires n >= 2, got {n}")
    if n >= MR_BOUND:
        raise CoverageError(
            f"factoring is exact only below MR_BOUND = {MR_BOUND} (Miller–Rabin on bases 2..41)"
        )
    out: list[int] = []
    pieces = [n]
    while pieces:
        m = pieces.pop()
        if m <= table.limit:
            while m > 1:
                p = int(table.spf[m])
                out.append(p)
                m //= p
        elif _miller_rabin(m):
            out.append(m)
        else:
            d = _rho(m)
            pieces += (d, m // d)
    out.sort()
    return out

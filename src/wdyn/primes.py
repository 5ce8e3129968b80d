"""Sieve-backed primality, enumeration, and factorization services.

Everything downstream (orbit iteration, parent searches, variance sums)
queries primes through a :class:`PrimeTable`: a smallest-prime-factor
sieve over the odd n in [1, limit], stored as uint16, and nothing else.
Even n have smallest factor 2 and take no slot.  Odd n sits in slot
n >> 1, which holds 0 when n is prime and spf(n) when it is composite
(at most sqrt(limit) < 2**16); slot 0, n = 1, holds 1.  Primality is read
as a zero slot, the primes of a range by :func:`primes_in_range`'s scan
of the slots, and the binary cache stores the slots alone.  The slot
array is writable, built or loaded, and nothing in this package writes
to it after construction.

Supported universe: :func:`factor_list` and :func:`largest_prime_factor`
are exact for every n below ``MR_BOUND`` (about 3.3e24) on any table:
both drop the powers of 2 by bit operations; odd pieces up to the limit
walk the spf chain, pieces past it go to Miller–Rabin on only as many
bases as their size needs (the ψ_k table).  A composite one below 2**64
sheds every odd prime below 2**16 that divides it, all found by one
multiply-compare against their inverses mod 2**64; a cofactor below
2**32 is then prime.  Brent's rho splits a composite piece past 2**64
or with no factor below 2**16.  :func:`largest_prime_factors` derives
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
from functools import cache
from itertools import count
from math import gcd, isqrt, prod
from pathlib import Path

import numpy as np

from .errors import CacheError, CoverageError

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"WDYNSIEV"
CACHE_VERSION = 4
CACHE_HEADER = "<8sIQI"  # magic, format version, limit, crc32 of the u16 odd-slot payload

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
_SMALL = 1 << 16  # a composite piece past the table sheds its primes below this before rho

_SEGMENT = 1 << 18  # odd slots sieved or scanned at a time: 512 KB of uint16, within an L2
# P arrays shorter than this are copies of one array computed once: the parent
# searches ask for many short ones, where a blocked pass costs tens of numpy calls
_P_HEAD = 1 << 12


@dataclass(frozen=True)
class PrimeTable:
    """Primality and smallest-prime-factor oracle for [2, limit].

    Attributes
    ----------
    limit : int
        Inclusive upper bound of sieve coverage.
    odd_spf : np.ndarray
        uint16 array of length ``(limit + 1) // 2``, one slot per odd n
        in [1, limit]: slot ``n >> 1`` holds 0 when n is prime and the
        smallest prime factor of n when n is composite.  Slot 0 (n = 1)
        holds 1.  Even n is not stored: its smallest prime factor is 2.
    """

    limit: int
    odd_spf: np.ndarray

    def __len__(self) -> int:  # pi(limit), counted on each segment's mask: no index array is built
        return 1 + sum(np.count_nonzero(mask) for _, mask in _prime_masks(self, 1, self.limit))

    def is_prime_odd(self, n):
        """Primality of an odd n in [1, limit], or of each entry of an
        array of them.  n must be odd: an even n would read the slot of n + 1."""
        return self.odd_spf[n >> 1] == 0


def _spf_sieve(limit: int) -> np.ndarray:
    """The odd-slot smallest-prime-factor array of :class:`PrimeTable`.

    The slots start at 0, except slot 0 (n = 1) at 1, and are sieved in
    segments of ``_SEGMENT`` slots, small enough to stay in cache.  The
    odd multiples of an odd prime p from p**2 on sit p slots apart, from
    slot p**2 >> 1.  In each segment of slots [lo, hi), holding the odd
    n < 2*hi, the odd primes p with p**2 < 2*hi write p over their slots
    from lo on, in descending order and without a mask: the smallest prime
    dividing a slot's n writes last, so the slot ends up holding it.  A
    slot no prime writes keeps its 0, and its n is prime exactly then.
    The odd primes p come from this same sieve to sqrt(limit).
    """
    root = isqrt(limit)  # < 2**16 as limit < 2**32: the recursion is at most 5 deep
    small = (2 * np.flatnonzero(_spf_sieve(root) == 0) + 1).tolist() if root >= 3 else []
    spf = np.zeros((limit + 1) // 2, dtype=np.uint16)
    spf[0] = 1
    for lo in range(0, len(spf), _SEGMENT):
        hi = min(lo + _SEGMENT, len(spf))
        block = spf[lo:hi]
        for p in reversed(small[: bisect_left(small, isqrt(2 * hi - 1) + 1)]):  # p**2 < 2*hi
            first = p * p >> 1
            block[max(first, lo + (first - lo) % p) - lo :: p] = p
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
        raise ValueError(f"table limit must be < 2**32 (an odd composite's spf stored as u16), got {limit}")

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
    table = PrimeTable(limit=limit, odd_spf=_spf_sieve(limit))

    if path is not None:
        try:
            _save_table(table, path)
        except OSError as exc:
            raise CacheError(f"cannot write sieve cache {path}: {exc}") from exc
    return table


def _save_table(table: PrimeTable, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spf = np.ascontiguousarray(table.odd_spf, dtype="<u2")  # no copy on a little-endian host
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
    head = struct.calcsize(CACHE_HEADER)
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except OSError as exc:
        raise CacheError(str(exc)) from exc
    if len(raw) < head:
        raise CacheError("truncated header")
    magic, version, stored_limit, crc = struct.unpack_from(CACHE_HEADER, raw)
    if magic != CACHE_MAGIC:
        raise CacheError("bad magic")
    if version != CACHE_VERSION:
        raise CacheError(f"format version {version} != {CACHE_VERSION}")
    if stored_limit != limit:
        raise CacheError(f"cached limit {stored_limit} != requested {limit}")
    expected = head + 2 * ((limit + 1) // 2)
    if len(raw) != expected:
        raise CacheError(f"payload size {len(raw)} != expected {expected}")
    spf = raw[head:].view("<u2")
    if zlib.crc32(spf) != crc:
        raise CacheError("payload checksum mismatch")
    if spf[:5].tolist() != [1, 0, 0, 0, 3][: len(spf)]:  # n = 1, 3, 5, 7, 9
        raise CacheError("payload fails sanity check")
    return PrimeTable(limit=limit, odd_spf=spf)


def _prime_masks(table: PrimeTable, lo: int, hi: int):
    """Yield (a, mask) over the odd n in (lo, hi], ``_SEGMENT`` slots at a
    time: ``mask[i]`` is true exactly when the n of slot a + i, 2(a + i) + 1,
    is prime.  The prime 2 is left to the caller.
    """
    b = (hi + 1) >> 1  # past the slot of the last odd n <= hi
    for a in range(max((lo + 1) >> 1, 0), b, _SEGMENT):
        yield a, table.odd_spf[a : min(a + _SEGMENT, b)] == 0


def primes_in_range(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """All primes p with lo < p <= hi, as a fresh ascending int64 array.

    The half-open convention (lo, hi] is used everywhere in this
    package (prime boxes (x, 2x], middle-prime windows, ...).  Scans the
    odd slots ``_SEGMENT`` at a time (see :func:`_prime_masks`).
    """
    if hi > table.limit:
        raise CoverageError(f"range ({lo}, {hi}] exceeds table limit {table.limit}; rebuild with limit >= {hi}")
    parts = [np.array([2] if lo < 2 <= hi else [], dtype=np.int64)]
    for a, mask in _prime_masks(table, lo, hi):
        n = np.flatnonzero(mask)  # in place from here: slot i of the segment is n = 2(a + i) + 1
        n *= 2
        n += 2 * a + 1
        parts.append(n)
    return np.concatenate(parts)


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
    walks its spf chain to the last entry, a prime (a 0 slot); only an odd
    part past the table goes to :func:`factor_list`.
    """
    _check_reach(n)
    m = n >> ((n & -n).bit_length() - 1)
    if m == 1:
        return 2
    if m > table.limit:
        return factor_list(table, m)[-1]
    spf = table.odd_spf
    p = spf.item(m >> 1)
    while p:
        m //= p
        p = spf.item(m >> 1)
    return m


def _p_array(odd_spf: np.ndarray, n: int) -> np.ndarray:
    """int64 P(k) for k in [0, n], n >= 2, from the odd slots over [0, n].
    The odd k come first, in uint32 over their slots from slot 1 (slot 0,
    k = 1, holds the sentinel 1): P(k) = k for a prime and max(spf(k),
    P(k / spf(k))) for a composite, whose odd cofactor sits in slot
    slot(k) // spf(k) <= slot(k) / 3, so blocks of slots [lo, 3 lo + 1) read
    only slots already done.  Then, after P(0) = 0 and P(2) = 2, each even
    k = 2j takes P(j), in blocks of j [lo, 2 lo)."""
    spf = odd_spf[: (n + 1) // 2]
    slot = np.arange(len(spf), dtype=np.uint32)  # 2 * slot + 1 <= n < 2**32, as the limit is
    odd = np.where(spf == 0, 2 * slot + 1, spf)  # spf(k), and k itself for a prime
    lo = 1
    while lo < len(odd):
        hi = min(3 * lo + 1, len(odd))
        block = odd[lo:hi]
        np.maximum(block, odd[slot[lo:hi] // block], out=block)
        lo = hi
    lpf = np.empty(n + 1, dtype=np.int64)
    lpf[1::2] = odd
    lpf[0], lpf[2] = 0, 2
    lo = 2
    while lo <= n // 2:
        hi = min(2 * lo, n // 2 + 1)
        lpf[2 * lo : 2 * hi : 2] = lpf[lo:hi]
        lo = hi
    return lpf


@cache
def _p_head() -> np.ndarray:
    """P(k) for k < ``_P_HEAD``, sentinels 0 and 1 at k = 0, 1.  Read-only;
    a short P array is a copy of its start."""
    head = _p_array(_spf_sieve(_P_HEAD - 1), _P_HEAD - 1)
    head.flags.writeable = False
    return head


def largest_prime_factors(table: PrimeTable, n: int) -> np.ndarray:
    """int64 array of P(k) for k in [0, n] (entries 0 and 1 are sentinels).

    Below ``_P_HEAD`` a copy of :func:`_p_head`, past it built by :func:`_p_array`.
    """
    if n < 0:
        raise ValueError(f"P array needs n >= 0, got {n}")
    if n > table.limit:
        raise CoverageError(f"P array to {n} exceeds table limit {table.limit}; rebuild with limit >= {n}")
    if n < _P_HEAD:
        return _p_head()[: n + 1].copy()
    return _p_array(table.odd_spf, n)


@cache
def _small_primes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The odd primes p < ``_SMALL`` as uint64, their inverses mod 2**64
    and floor((2**64 - 1) / p), all read-only.  p divides an m < 2**64
    exactly when m * inv(p) mod 2**64 <= floor((2**64 - 1) / p)
    (Granlund & Montgomery 1994, section 9).  The inverse takes five
    Newton steps inv <- inv * (2 - p * inv) from inv = p, correct mod 2**3,
    each doubling the bits that are right."""
    p = (2 * np.flatnonzero(_spf_sieve(_SMALL - 1) == 0) + 1).astype(np.uint64)  # slot 0, n = 1, holds 1
    inv = p.copy()
    for _ in range(5):  # array arithmetic wraps mod 2**64 without a warning
        inv *= np.uint64(2) - p * inv
    lim = np.uint64(2**64 - 1) // p
    for a in (p, inv, lim):
        a.flags.writeable = False
    return p, inv, lim


def _small_factors(m: int) -> list[int]:
    """The odd primes p < ``_SMALL`` that divide 1 <= m < 2**64, ascending:
    one multiply and compare over all of them (the scalar times the array
    wraps silently)."""
    p, inv, lim = _small_primes()
    return p[np.uint64(m) * inv <= lim].tolist()


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
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle-finding on y**2 + c (Brent 1980).  The differences x - y of
    ``_RHO_BATCH`` steps are multiplied together mod n and share one gcd;
    a batch whose gcd is n is stepped again one gcd at a time, and c moves
    on when even that gives n."""
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
    2 <= n < MR_BOUND.  The powers of 2 go by bit operations, so every
    piece is odd.  A piece up to ``table.limit`` walks the spf chain; a
    piece past it is certified prime by Miller–Rabin, or else, below
    2**64, sheds every prime below 2**16 that divides it, with
    multiplicity (:func:`_small_factors`).  What is left has only prime
    factors above 2**16: below 2**32 (< 65537**2) it is prime, and past
    that it is factored in turn.  A composite piece with no factor below
    2**16, or past 2**64, is split by Brent's rho, and both parts are
    factored in turn.
    """
    _check_reach(n)
    spf, limit = table.odd_spf, table.limit
    twos = (n & -n).bit_length() - 1
    out = [2] * twos
    pieces = [n >> twos]
    while pieces:
        m = pieces.pop()
        if m <= limit:
            if m > 1:
                p = spf.item(m >> 1)
                while p:
                    out.append(p)
                    m //= p
                    p = spf.item(m >> 1)
                out.append(m)
        elif _miller_rabin(m):
            out.append(m)
        elif m < 2**64 and (small := _small_factors(m)):
            for p in small:
                while m % p == 0:
                    out.append(p)
                    m //= p
            if m >= _SMALL**2:
                pieces.append(m)
            elif m > 1:
                out.append(m)
        else:
            d = _rho(m)
            pieces += (d, m // d)
    out.sort()
    return out

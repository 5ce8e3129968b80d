"""Inverse search: enumerate parents (preimages under w) and run
parent censuses over prime boxes.

A parent of a target n is any m in A3 with w(m) = n.  Searches draw
the parent primes from a box (x, 2x] and use the congruence
P(s) = r implies r | s: they step through the pair sums s = k*r, keep
those with P(s) = r, that is P(k) <= r, so they read the P array
(derived from the spf sieve of the odd n) only over [0, 4x / min r], and read off
their prime pairs as arrays; C3 searches join the pairs into triples by
the same congruence.  The table is read up to 2x (B3: max(2x, q)).

Census counting conventions: parents are unordered triples of primes,
each counted once; census keys are the images n; argmax ties break
toward the smallest image.  Each mode is a kernel yielding blocks of
packed entries image << 8 | count, and one driver tallies them in one
sort.  A window prime r divides a pair sum s <= 4x exactly when
P(s) = r, so the thm2 and thm3 kernels read the classes of the box
primes mod each window prime; thm1's reads the window hits of the pair
sums in blocks of pivot rows.  A pair sum s of box primes is even, so
P(s) = P(s / 2), and every census reads the table and P only to 2x.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .dynamics import Triple, TripleClass
from .errors import CoverageError
from .primes import PrimeTable, factor_list, largest_prime_factors, primes_in_range

_JOIN_BLOCK = 1 << 16  # candidate base pairs per join step
_ROW_BLOCK = 1 << 16  # cells per block: pair sums of pivot rows (thm1), (r, prime) classes (thm2)
_CSV_BLOCK = 1 << 16  # census report rows per block of ParentCensus.row_blocks


def window_bounds(x: int) -> tuple[int, int]:
    """Integer bounds (r_lo, r_hi] of the middle-prime window
    (sqrt(x)*log(x), 2*sqrt(x)*log(x)], natural log.

    For integer r, membership in the real interval is equivalent to
    r_lo < r <= r_hi (the real endpoints are never integers).
    """
    edge = sqrt(x) * log(x)
    return int(edge), int(2 * edge)


def find_b3_parents(table: PrimeTable, q: int, r: int, x: int) -> list[int]:
    """All primes p in (x, 2x] with p != q and P(p + q) = r.

    Each such p gives the B3 parent p*q**2 of the target q*r**2.
    Steps through the sums s = k*r in (x + q, 2x + q], keeps those with
    P(k) <= r, and filters p = s - q by primality.  It reads the box, q,
    r and P over [0, (2x + q) / r], so the table must reach max(2x, q)
    (for q = 2, max(2x, r)).
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    hi = 2 * x + q
    if r > (hi // 2 if q % 2 else hi):
        return []  # P(p + q) = r needs r <= p + q <= 2x + q, and p + q is even when q is odd (p > x >= 2 is)
    need = max(2 * x, q, r)  # r <= max(2x, q) for odd q
    if table.limit < need:
        raise CoverageError(f"find_b3_parents(q={q}, r={r}, x={x}) needs table limit >= {need}, have {table.limit}")
    if not all(m == 2 or (m > 2 and m % 2 and table.is_prime_odd(m)) for m in (q, r)):
        raise ValueError(f"q and r must be prime, got q={q}, r={r}")
    k = np.arange((x + q) // r + 1, hi // r + 1)
    p = r * k[largest_prime_factors(table, hi // r)[k] <= r] - q
    p = p[p % 2 == 1]  # a prime p > x >= 2 is odd
    return p[table.is_prime_odd(p) & (p != q)].tolist()


def _ragged(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [starts[i], starts[i] + lens[i]) end to end, as (i, index) per element."""
    owner = np.repeat(np.arange(len(lens)), lens)
    idx = np.repeat(starts + lens - np.cumsum(lens), lens)
    idx += np.arange(len(owner))  # in place: a fresh array here took longer than both repeats
    return owner, idx


def _run_pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for each i < j in one run of equal entries of the sorted ``key``."""
    at = np.arange(len(key))
    return _ragged(at + 1, np.searchsorted(key, key, side="right") - at - 1)


def find_c3_parents(table: PrimeTable, target: Triple, x: int) -> list[Triple]:
    """All unordered triples of distinct primes in (x, 2x] whose three
    pairwise P-sums match the target's prime multiset.

    Each target prime r has the even multiples s = k*r in (2x, 4x] with
    P(s) = r, that is P(k) <= r, so the P array is read only over
    [0, 4x / min r] and the table only up to 2x.  The pairs (u, v) of
    the base prime's sums are built in blocks of ``_JOIN_BLOCK``
    candidates; a third prime c with P(u + c) = m2 and P(v + c) = m3
    makes u + c an m2-sum congruent to u - v mod m3.
    Output is sorted and duplicate-free.
    """
    if target.cls not in (TripleClass.C3, TripleClass.B3):
        raise ValueError(f"target must be in A3, got {target!r}")
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    ps = primes_in_range(table, x, 2 * x)  # first, so a short table asks for 2x
    lpf = largest_prime_factors(table, 4 * x // min(target))
    sums, lo, lens = {}, {}, {}  # a target prime above 4x has no sums
    for r in dict.fromkeys(target):
        s = np.arange(2 * x // r * r + r, 4 * x + 1, r)
        sums[r] = s = s[(lpf[s // r] <= r) & (s % 2 == 0)]  # two odd primes have an even sum
        # a in [s - 2x, s / 2) keeps b = s - a in the box and a < b
        lo[r] = np.searchsorted(ps, s - 2 * x)
        lens[r] = np.searchsorted(ps, s // 2) - lo[r]
    base = min(sums, key=lambda r: lens[r].sum())  # the fewest candidate pairs
    rest = list(target)
    rest.remove(base)
    m2, m3 = min(rest, rest[::-1], key=lambda m: len(sums[m[0]]) / m[1])  # the fewest c per pair
    s2 = sums[m2][np.argsort(sums[m2] % m3)]  # the m2-sums by residue mod m3
    res = s2 % m3
    cuts = np.searchsorted(np.cumsum(lens[base]), np.arange(_JOIN_BLOCK, lens[base].sum(), _JOIN_BLOCK))
    found = []
    for blk in np.split(np.arange(len(sums[base])), cuts):  # the base sums of one block
        owner, idx = _ragged(lo[base][blk], lens[base][blk])
        a = ps[idx]
        b = sums[base][blk][owner] - a
        keep = table.is_prime_odd(b)  # b = s - a is odd
        a, b = a[keep], b[keep]
        for u, v in ((a, b), (b, a)) if m2 != m3 else ((a, b),):
            key = (u - v) % m3
            start = np.searchsorted(res, key)
            owner, idx = _ragged(start, np.searchsorted(res, key, side="right") - start)
            c = s2[idx] - u[owner]
            box = (c > x) & (c <= 2 * x)  # first: the table and lpf are read only for c in the box
            owner, c = owner[box], c[box]
            # v + c = s2 - (u - v) is a multiple of m3 by the residue match
            hit = table.is_prime_odd(c) & (lpf[(v[owner] + c) // m3] <= m3) & (c != u[owner]) & (c != v[owner])
            found.append(np.stack([u[owner[hit]], v[owner[hit]], c[hit]], axis=1))
    triples = np.sort(np.concatenate(found), axis=1)
    triples = triples[np.lexsort(triples.T[::-1])]  # rows in order, first column first
    fresh = np.ones(len(triples), dtype=bool)
    fresh[1:] = (triples[1:] != triples[:-1]).any(axis=1)
    return list(map(Triple._make, triples[fresh].tolist()))


@dataclass(eq=False)
class ParentCensus:
    """Tally of w-images over parents drawn from the box (x, 2x].

    ``images`` and ``counts`` are int64 arrays: the distinct images in
    ascending order and the number of unordered parent triples found for
    each.  ``argmax`` is (image, count) with the most parents, ties broken
    toward the smallest image, and (0, 0) when the census is empty;
    ``argmax_factors`` is that image's prime triple.
    """

    x: int
    mode: str  # thm1 | thm2 | thm3
    images: np.ndarray
    counts: np.ndarray
    argmax: tuple[int, int]
    argmax_factors: tuple[int, ...]

    @property
    def window(self) -> tuple[int, int]:
        return window_bounds(self.x)

    @property
    def total_parents(self) -> int:
        return int(self.counts.sum())

    @property
    def bound_form(self) -> str:
        return "sqrt(x)/log^2 x" if self.mode == "thm3" else "x/log^4 x"

    @property
    def bound_value(self) -> float:
        if self.mode == "thm3":
            return sqrt(self.x) / log(self.x) ** 2
        return self.x / log(self.x) ** 4

    @property
    def ratio(self) -> float:
        """Argmax count over the predicted growth shape.

        Theorems 1–3 are lower bounds with unspecified constants, so
        this ratio need not stay flat as x grows; a bound is contradicted
        only if the ratio falls towards 0.  Measured, thm1's rises (24.5
        at x = 10⁴, 34.6 at 3·10⁴) and thm3's falls (3.02 at 10³, 2.14
        at 10⁷).
        """
        return self.argmax[1] / self.bound_value

    def to_json_dict(self) -> dict:
        target, count = self.argmax
        return {
            "x": self.x,
            "mode": self.mode,
            "window": list(self.window),
            "argmax": {
                "target": target,
                "count": count,
                "target_factors": list(self.argmax_factors),
            },
            "ratio": {"bound_form": self.bound_form, "value": self.ratio},
            "total_parents": self.total_parents,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def row_blocks(self) -> Iterator[tuple[list[int], list[int]]]:
        """The report rows as (images, counts) lists of ints, ``_CSV_BLOCK``
        rows at a time, images ascending: the one source of CSV rows."""
        for i in range(0, len(self.images), _CSV_BLOCK):
            yield self.images[i : i + _CSV_BLOCK].tolist(), self.counts[i : i + _CSV_BLOCK].tolist()

    def to_csv_rows(self) -> list[tuple[int, int]]:
        """(target, count) rows sorted by target, for plotting.  Built from
        :meth:`row_blocks`, so no census-length list of ints sits beside them."""
        rows = []
        for images, counts in self.row_blocks():
            rows.extend(zip(images, counts))
        return rows


def class_counts(members: np.ndarray, lo: int, hi: int, rs: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(r, d) for each odd r in rs, d[j] the int64 number of ``members`` (distinct
    odd integers in (lo, hi]) with m = 2j + 1 (mod r), so class -m sits at r - 1 - j.
    Sums the rows of length r of the zero-padded 0/1 indicator of k = m >> 1 over
    [lo // 2, (hi - 1) // 2] (2 is invertible mod r), 255 per uint8 reduction."""
    if not (members & 1).all() or any(r % 2 == 0 for r in rs):
        raise ValueError("class counts take odd members and odd moduli")
    pad, klo, khi = max(rs, default=0), lo // 2, (hi - 1) // 2
    base = klo - pad
    padded = np.zeros(khi - klo + 1 + 2 * pad, dtype=np.uint8)  # padded[i] marks k = base + i
    padded[(members >> 1) - base] = 1
    for r in rs:
        rows = padded[klo // r * r - base : -(-(khi + 1) // r) * r - base].reshape(-1, r)
        counts = rows[:255].sum(axis=0, dtype=np.uint8).astype(np.int64)
        for k in range(255, len(rows), 255):  # a uint8 sum of <= 255 rows cannot wrap
            counts += rows[k : k + 255].sum(axis=0, dtype=np.uint8)
        yield r, counts


def _tally(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct images of the entries image << 8 | count and
    their summed counts.  Sorts ``packed`` in place and reuses it."""
    packed.sort()
    counts = packed & 255
    packed >>= 8
    first = np.ones(len(packed), dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    if first.all():  # no image in two entries: two entry-sized arrays at the peak, not four
        return packed, counts
    first = np.flatnonzero(first)
    return packed[first], np.add.reduceat(counts, first)


def _census(table: PrimeTable, x: int, mode: str, kernel: Callable[..., Iterator[np.ndarray]]) -> ParentCensus:
    """The ``mode`` census of the blocks of entries image << 8 | count that
    ``kernel(table, x, ps, rs)`` yields from the box primes ps and window
    primes rs.  The tally's images ascend, so the first maximum count is the
    argmax, ties toward the smallest image; two of its factors are window
    primes and the third is at most 2x, all within reach of the table."""
    if x < 10:
        raise ValueError(f"censuses require x >= 10, got {x}")
    r_lo, r_hi = window_bounds(x)
    # images r1*r2*q and q*r**2 (q = P of half an even pair sum, so q <= 2x) are at most
    # r_hi**2 * 2x; a tally packs image << 8 | count, a count being at most one class mod r_lo + 1
    if r_hi * r_hi * 2 * x >= 2**55 or -(-x // (r_lo + 1)) > 255:
        raise ValueError(f"census images at x={x} would overflow int64")
    ps = primes_in_range(table, x, 2 * x)  # the box first, so a short table asks for 2x
    rs = primes_in_range(table, r_lo, r_hi)
    # the list of blocks is freed once they are joined, before the sort
    images, counts = _tally(np.concatenate(list(kernel(table, x, ps, rs))))
    argmax, factors = (0, 0), ()
    if len(images):
        i = int(np.argmax(counts))
        argmax = (int(images[i]), int(counts[i]))
        factors = tuple(factor_list(table, argmax[0]))
    return ParentCensus(x=x, mode=mode, images=images, counts=counts, argmax=argmax, argmax_factors=factors)


def _thm1(table: PrimeTable, x: int, ps: np.ndarray, rs: np.ndarray) -> Iterator[np.ndarray]:
    """The thm1 entries (r1*r2*q) << 8 | 1, one per pivot's window hits
    r1 = P(pivot + a) and r2 = P(pivot + b), partners a < b, q = P(a + b),
    in blocks of pivot rows of about ``_ROW_BLOCK`` pair sums."""
    r_lo, r_hi = window_bounds(x)
    lpf = largest_prime_factors(table, 2 * x)
    step = max(1, _ROW_BLOCK // len(ps))
    for i0 in range(0, len(ps), step):
        block = lpf[(ps[i0 : i0 + step, None] + ps) >> 1]
        np.fill_diagonal(block[:, i0:], 0)  # a pivot is not its own partner
        flat = np.flatnonzero((block > r_lo) & (block <= r_hi))
        piv, j = np.divmod(flat, len(ps))
        piv, p, r = ps[i0 + piv], ps[j], block.ravel()[flat]  # row by row: runs of one pivot, partners ascending
        a, b = _run_pairs(piv)  # p[a] < p[b]
        s = p[a]
        s += p[b]  # in place, as in _ragged: one fresh pair-sized array fewer per block
        s >>= 1
        r1, r2, q = r[a], r[b], lpf[s]
        # q not in {r1, r2}, else not C3; q in the window designates all three: count at the smallest
        ok = (r1 != r2) & (q != r1) & (q != r2) & ((q <= r_lo) | (q > r_hi) | (p > piv)[a])
        yield (r1[ok] * r2[ok] * q[ok]) << 8 | 1


def _thm2(table: PrimeTable, x: int, ps: np.ndarray, rs: np.ndarray) -> Iterator[np.ndarray]:
    """The thm2 entries (q*r**2) << 8 | C_r(-b), one per pair {a, a'} of
    box primes in one class b mod a window prime r, q = P(a + a'),
    in blocks of window primes of about ``_ROW_BLOCK`` (r, prime) cells."""
    lpf = largest_prime_factors(table, 2 * x)
    step = max(1, _ROW_BLOCK // len(ps))
    for i0 in range(0, len(rs), step):
        rb = rs[i0 : i0 + step, None]
        start = np.cumsum(rb)[:, None] - rb  # where r's classes start in the counts
        j = (ps >> 1) % rb  # p = 2j + 1 mod r, so class -p sits at r - 1 - j, as in class_counts
        key = (start + j).ravel()
        c = np.bincount(key, minlength=rb.sum())
        opp = (start + rb - 1 - j).ravel()
        flat = np.flatnonzero((c[key] > 1) & (c[opp] > 0))
        order = np.argsort(key[flat])
        flat, key = flat[order], key[flat[order]]
        row, p = np.divmod(flat, len(ps))
        a, b = _run_pairs(key)
        # P(a + a') = P((a + a') / 2), and q != r: r | a + a' needs 2b = 0 mod r, and class 0 has no pair
        q = lpf[(ps[p[a]] + ps[p[b]]) >> 1]
        yield (q * rb[row[a], 0] ** 2) << 8 | c[opp[flat[a]]]


def _thm3(table: PrimeTable, x: int, ps: np.ndarray, rs: np.ndarray) -> Iterator[np.ndarray]:
    """The thm3 entries (q*r**2) << 8 | c, one per box prime q and window
    prime r with c = C_r(-q) - [q = r] > 0 partners, read from
    :func:`class_counts`; (q, r) fixes the image."""
    k = ps >> 1
    for r, d in class_counts(ps, x, 2 * x, rs.tolist()):
        c = d[r - 1 - k % r] - (ps == r)  # p = q = r is in the class of -q but is not a partner
        yield (ps[c > 0] * (r * r)) << 8 | c[c > 0]


def census_c3(table: PrimeTable, x: int, mode: str = "thm1") -> ParentCensus:
    """Census of C3 parents over the box (x, 2x].

    Enumerates unordered triples of distinct primes in (x, 2x] that
    have some designated prime v whose two sums satisfy the window
    condition, then tallies their w-images:

    - mode "thm1": both P(v + other) values lie in the window and the
      image has three distinct primes;
    - mode "thm2": the two P(v + other) values are equal (one window
      prime r), giving images of the form q*r**2.

    Each qualifying triple is counted exactly once regardless of how
    many designated primes qualify.
    """
    if mode not in ("thm1", "thm2"):
        raise ValueError(f"census_c3 mode must be thm1 or thm2, got {mode!r}")
    return _census(table, x, mode, _thm1 if mode == "thm1" else _thm2)


def census_b3(table: PrimeTable, x: int) -> ParentCensus:
    """Census of B3 parents p*q**2 over the box (x, 2x] (mode "thm3").

    Primes q != p in (x, 2x] with P(p + q) = r in the window give the
    parent p*q**2 of the image q*r**2.  A window prime r exceeds s / r
    for every s <= 4x (x >= 10 gives log x > 2), so P(s) = r exactly
    when r | s: q*r**2 has C_r(-q) - [q = r] parents, C_r(b) counting
    the box primes in class b mod r, read at d[r - 1 - (q >> 1) % r] of
    lemma3's :func:`class_counts`.  No pair sum is formed, and the table
    is read only up to 2x.
    """
    return _census(table, x, "thm3", _thm3)


@dataclass(frozen=True)
class ParentQuery:
    """A parent-search request: whose parents, from which box, of
    which class."""

    target: Triple
    x: int
    parent_class: str = "any"  # c3 | b3 | any

    def __post_init__(self):
        if self.x < 2:
            raise ValueError(f"x must be >= 2, got {self.x}")
        if self.target.cls not in (TripleClass.C3, TripleClass.B3):
            raise ValueError(f"target must be in A3, got {self.target!r}")
        if self.parent_class not in ("c3", "b3", "any"):
            raise ValueError(f"parent_class must be c3, b3 or any, got {self.parent_class!r}")


def find_parents(table: PrimeTable, query: ParentQuery) -> list[Triple]:
    """All parents of the query target with primes drawn from (x, 2x],
    restricted to the requested parent class.

    B3 parents exist only for B3 targets (the image of p*q**2 always
    repeats a prime), so C3 targets yield none; the target q*r**2 has
    them only when its lone prime q lies in (x, 2x] too.
    """
    out: list[Triple] = []
    if query.parent_class in ("c3", "any"):
        out.extend(find_c3_parents(table, query.target, query.x))
    if query.parent_class in ("b3", "any") and query.target.cls == TripleClass.B3:
        a, b, c = query.target
        q, r = (c, a) if a == b else (a, b)  # q appears once, r twice
        if query.x < q <= 2 * query.x:
            out.extend(Triple.from_primes(p, q, q) for p in find_b3_parents(table, q, r, query.x))
    return sorted(out)

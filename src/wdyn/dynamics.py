"""The w function on products of three primes.

For n = p1*p2*p3 with the p_i prime, define

    w(n) = P(p1 + p2) * P(p1 + p3) * P(p2 + p3),

where P is the largest prime factor.  Products of three primes split
into C3 (all distinct), B3 (exactly two equal), and D3 (a prime cube);
w is defined on A3 = C3 | B3 and maps A3 into A3, so it can be
iterated.  Every orbit eventually hits 20 = 2*2*5, which sits on the
4-cycle 20 -> 98 -> 63 -> 75 -> 20; ind(n) is the number of steps to
first reach 20.

w is symmetric in the three primes, so triples are kept in canonical
sorted order and all counting is over unordered triples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CapExceededError
from .primes import PrimeTable, factor_list, largest_prime_factor

DEFAULT_CAP = 10_000


class TripleClass(enum.Enum):
    C3 = "c3"  # three distinct primes
    B3 = "b3"  # exactly two equal
    D3 = "d3"  # prime cube


@dataclass(frozen=True, order=True)
class Triple:
    """Canonical (sorted) product of three primes."""

    p1: int
    p2: int
    p3: int

    @staticmethod
    def from_primes(a: int, b: int, c: int) -> "Triple":
        p1, p2, p3 = sorted((a, b, c))
        return Triple(p1, p2, p3)

    @property
    def primes(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)

    @property
    def n(self) -> int:
        return self.p1 * self.p2 * self.p3

    @property
    def cls(self) -> TripleClass:
        if self.p1 == self.p3:
            return TripleClass.D3
        if self.p1 == self.p2 or self.p2 == self.p3:
            return TripleClass.B3
        return TripleClass.C3

    @property
    def in_a3(self) -> bool:
        return self.cls in (TripleClass.C3, TripleClass.B3)


@dataclass(frozen=True)
class Trajectory:
    """Orbit n, w(n), w^2(n), ... and where it stopped: ``index`` is the
    least i with w^i(n) = 20, or None if ``cap`` steps ran out first."""

    steps: tuple[Triple, ...]
    index: int | None
    cap: int

    @property
    def reached(self) -> bool:
        return self.index is not None

    def to_json_dict(self) -> dict:
        if self.reached:
            terminal = {"reached_twenty": self.index}
        else:
            terminal = {"cap_exceeded": self.cap}
        return {
            "start": self.steps[0].n,
            "steps": [t.n for t in self.steps],
            "terminal": terminal,
        }


def classify(table: PrimeTable, n: int) -> Triple | None:
    """Canonical Triple of n when n has exactly three prime factors
    (with multiplicity), else None.

    Accepts any n below ``MR_BOUND`` on any table (see :func:`factor_list`).
    """
    if n < 2:
        raise ValueError(f"classification requires n >= 2, got {n}")
    factors = factor_list(table, n)
    if len(factors) != 3:
        return None
    return Triple(factors[0], factors[1], factors[2])


def apply_w(table: PrimeTable, t: Triple) -> Triple:
    """One application of w.  Defined only on A3; D3 input is rejected
    (extending w to prime cubes would silently corrupt census counts).
    """
    if not isinstance(t, Triple) or not t.in_a3:
        raise ValueError(f"w is defined on A3 (C3 or B3) only, got {t!r}")
    q1 = largest_prime_factor(table, t.p1 + t.p2)
    q2 = largest_prime_factor(table, t.p1 + t.p3)
    q3 = largest_prime_factor(table, t.p2 + t.p3)
    return Triple.from_primes(q1, q2, q3)


def trajectory(
    table: PrimeTable,
    n: int,
    cap: int = DEFAULT_CAP,
    auto_extend: bool = True,
) -> Trajectory:
    """Iterate w from n until 20 is reached or ``cap`` steps are taken.

    ``steps[0]`` is n itself (the zeroth iterate).  Any table serves:
    factoring reaches past its limit (see :func:`factor_list`), so
    ``auto_extend`` has no effect and is kept only for old callers.
    n, or a sum along the orbit, at or above ``MR_BOUND`` raises
    CoverageError.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    t = classify(table, n)
    if t is None or not t.in_a3:
        raise ValueError(f"{n} is not in A3 (needs exactly 3 prime factors, not a cube)")

    # w maps A3 into A3, so only the start needs apply_w's check; each step
    # works on the sorted primes, and 20 is the triple (2, 2, 5)
    steps = [t]
    a, b, c = t.primes
    while (a, b, c) != (2, 2, 5) and len(steps) <= cap:
        a, b, c = sorted(
            (largest_prime_factor(table, a + b), largest_prime_factor(table, a + c), largest_prime_factor(table, b + c))
        )
        steps.append(Triple(a, b, c))
    index = len(steps) - 1 if (a, b, c) == (2, 2, 5) else None
    return Trajectory(steps=tuple(steps), index=index, cap=cap)


def ind(table: PrimeTable, n: int, cap: int = DEFAULT_CAP) -> int:
    """Least i with w^i(n) = 20.  Raises CapExceededError if the orbit
    does not get there within ``cap`` steps (orbits of A3 members always
    terminate, so cap exhaustion signals a bug or a too-small cap).
    """
    traj = trajectory(table, n, cap=cap)
    if traj.index is None:
        raise CapExceededError(f"orbit of {n} did not reach 20 within cap {cap}")
    return traj.index

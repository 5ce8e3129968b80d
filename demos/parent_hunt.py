#!/usr/bin/env python3
"""Hunting parents: who maps onto a given target?

A parent of n is any m in A3 with w(m) = n.  Searching a box (x, 2x]
naively means scanning every triple; the congruence shortcut walks
only the residues p = -p1 (mod r) for each candidate image prime r,
since P(s) = r forces r | s.  This script enumerates the parents of a
few targets both ways and shows they agree.
"""

import time
from itertools import combinations

from wdyn import (
    ParentQuery,
    Triple,
    apply_w,
    build_prime_table,
    classify,
    find_parents,
    primes_in_range,
)
from wdyn import oracle


def fmt(t: Triple) -> str:
    return f"{t.p1}*{t.p2}*{t.p3}={t.n}"


x = 100
table = build_prime_table(2 * x)  # searches read the table only up to the box
box = primes_in_range(table, x, 2 * x).tolist()
print(f"box (x, 2x] = ({x}, {2 * x}]: {len(box)} primes, "
      f"{len(list(combinations(box, 3)))} candidate triples")

print()
print("=== C3 target ===")
target = apply_w(table, Triple(101, 103, 107))
print(f"target: w(101*103*107) = {fmt(target)} ({target.cls.value})")
oracle_table = build_prime_table(4 * x)  # the brute force reads P over every pair sum, up to 4x
routes = {
    "accelerated": lambda: find_parents(table, ParentQuery(target=target, x=x)),
    "brute force": lambda: sorted(oracle.find_c3_parents(oracle_table, target, x)),
}
found = {}
for label, search in routes.items():
    t0 = time.perf_counter()
    found[label] = parents = search()
    dt = (time.perf_counter() - t0) * 1000
    print(f"  {label:>11}: {len(parents)} parents in {dt:7.2f} ms")
assert found["accelerated"] == found["brute force"]
for p in parents:
    assert apply_w(table, p).n == target.n
    print(f"    {fmt(p)}")

print()
print("=== B3 target ===")
target = classify(table, 103 * 17 * 17)
print(f"target: {fmt(target)} ({target.cls.value})")
for cls in ("c3", "b3", "any"):
    parents = find_parents(table, ParentQuery(target=target, x=x, parent_class=cls))
    print(f"  {cls}-parents: {len(parents)}  {[fmt(p) for p in parents]}")

print()
print("=== C3 targets have no B3 parents ===")
c3_target = apply_w(table, Triple(101, 103, 107))
q = ParentQuery(target=c3_target, x=x, parent_class="b3")
print(f"  b3-parents of {c3_target.n}: {find_parents(table, q)}")
print("  (the image of p*q^2 always repeats the prime P(p+q))")

#!/usr/bin/env python3
"""A walking tour of the forward dynamics.

Products of three primes split into C3 (distinct), B3 (two equal), and
D3 (a cube).  On A3 = C3 | B3 the map

    w(p1*p2*p3) = P(p1+p2) * P(p1+p3) * P(p2+p3)

can be iterated, every orbit falls into the 4-cycle through 20, and
ind(n) counts the steps to get there.  This script classifies a few
integers, walks some orbits, and histograms ind over all of A3 up to a
bound.
"""

from collections import Counter

from wdyn import Triple, apply_w, build_prime_table, classify, ind, trajectory

table = build_prime_table(100_000)

print("=== classification ===")
for n in (30, 20, 8, 12, 16, 3 * 7 * 11, 2 * 2 * 97):
    t = classify(table, n)
    if t is None:
        print(f"  {n}: not a product of three primes")
    else:
        print(f"  {n} = {t.p1}*{t.p2}*{t.p3}  ({t.cls.value})")

print()
print("=== the 4-cycle through 20 ===")
t = Triple(2, 2, 5)
orbit = [t]
for _ in range(4):
    orbit.append(apply_w(table, orbit[-1]))
print("  " + " -> ".join(str(s.n) for s in orbit))

print()
print("=== some orbits ===")
for n in (98, 75, 3 * 5 * 7, 11 * 13 * 17, 997 * 991 * 983):
    traj = trajectory(table, n)
    chain = " -> ".join(str(s.n) for s in traj.steps)
    print(f"  ind={traj.index}: {chain}")

print()
print("=== ind distribution over A3 members up to 20000 ===")
hist = Counter()
for n in range(8, 20_001):
    t = classify(table, n)
    if t is not None and t.in_a3:
        hist[ind(table, n)] += 1
for i in sorted(hist):
    bar = "#" * (hist[i] // 20)
    print(f"  ind={i:>2}: {hist[i]:>5} {bar}")
print(f"  total members: {sum(hist.values())}, max ind: {max(hist)}")

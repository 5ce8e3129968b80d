#!/usr/bin/env python3
"""Census experiments: images with many parents, and how the record
counts grow with the box size.

Three censuses tally w-images over parents drawn from (x, 2x]:

  thm1  C3 parents whose designated prime has both sums landing on
        window primes; images r1*r2*q with three distinct factors.
  thm2  C3 parents whose two designated sums share one window prime;
        images q*r^2.
  thm3  B3 parents p*q^2 with P(p+q) = r in the window; images q*r^2.

The argmax column is the image with the most parents.  The ratio
divides its count by the predicted growth shape (x/log^4 x for the
triple censuses, sqrt(x)/log^2 x for pairs).  The theorems are lower
bounds with unspecified constants, so the ratio need not stay flat: it
rises for thm1 and falls slowly for thm3 as x grows, and only a ratio
sinking towards 0 would contradict a bound.
"""

import time

from wdyn import build_prime_table, census_b3, census_c3

grid_pairs = [300, 1000, 3000, 10000]
grid_triples = [300, 1000, 3000]
table = build_prime_table(2 * max(grid_pairs))  # censuses read the table only up to 2x

for mode, grid in (("thm3", grid_pairs), ("thm1", grid_triples), ("thm2", grid_pairs)):
    print(f"=== {mode} ===")
    print(f"{'x':>7} {'window':>14} {'argmax image':>34} {'count':>6} {'ratio':>8} {'time':>8}")
    for x in grid:
        t0 = time.perf_counter()
        if mode == "thm3":
            census = census_b3(table, x)
        else:
            census = census_c3(table, x, mode=mode)
        dt = time.perf_counter() - t0
        target, count = census.argmax
        facs = "*".join(str(f) for f in census.argmax_factors)
        ratio = census.ratio
        window = "({},{}]".format(*census.window)
        print(f"{x:>7} {window:>14} {target:>20} ={facs:>13} {count:>6} {ratio:>8.3f} {dt:>7.2f}s")
    print()

print("total parents found keeps growing too:")
for x in grid_pairs:
    census = census_b3(table, x)
    print(f"  x={x:>6}: {census.total_parents:>6} b3 parents over {len(census.images)} images")

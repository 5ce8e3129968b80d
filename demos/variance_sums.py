#!/usr/bin/env python3
"""Large-sieve variance sums, evaluated rather than proved.

First the generic form: spread a sample over residue classes for every
modulus r <= X and accumulate r * sum_a (count_a - Z/r)^2, which is
bounded by (N + X^2) * Z.  Then the specialization the parent censuses
lean on: primes in (x, 2x] split along progressions p = -p1 (mod r)
for window primes r, with deviations measured from Z/r and the total
bounded by x^2 / log x.  Each modulus r contributes an exact integer
numerator over r^2, computed by one numpy integer kernel; the total is
an exact rational up to x = 1000 and, beyond, a compensated float sum
of the correctly rounded quotients.
"""

from wdyn import (
    SequenceSample,
    build_prime_table,
    prime_progression_variance,
    primes_in_range,
    residue_count_variance,
    residue_counts,
)

table = build_prime_table(200_000)

print("=== residue counts are exact bookkeeping ===")
ps = primes_in_range(table, 100, 200).tolist()
sample = SequenceSample.from_values(ps, bound=200)
for r in (2, 3, 10):
    print(f"  mod {r:>2}: {residue_counts(sample, r).tolist()}")

print()
print("=== residue-count variance vs (N + X^2) Z ===")
for label, values, bound, x_cutoff in (
    ("{1..12}", list(range(1, 13)), 12, 3),
    ("{1..11}", list(range(1, 12)), 11, 3),
    ("primes in (100,200]", ps, 200, 20),
):
    s = SequenceSample.from_values(values, bound=bound)
    rep = residue_count_variance(s, x_cutoff)
    print(f"  {label:>20} X={x_cutoff:>2}: lhs={str(rep.lhs):>5} "
          f"bound={rep.bound_value:>8.0f} ratio={rep.ratio:.4f}")
print("  (equidistributed samples contribute nothing; primes cluster in")
print("   the residue classes coprime to r, which is all of the excess)")

print()
print("=== progression variance vs x^2 / log x ===")
print(f"{'x':>8} {'mode':>6} {'lhs':>14} {'bound':>14} {'ratio':>10}")
for x in (100, 300, 1000, 10_000, 100_000):
    rep = prime_progression_variance(table, x)
    mode = "exact" if not isinstance(rep.lhs, float) else "float"
    print(f"{x:>8} {mode:>6} {float(rep.lhs):>14.2f} {rep.bound_value:>14.0f} {rep.ratio:>10.6f}")
print("  the ratio column stays bounded (and even drifts down): the")
print("  progressions hold very close to their fair share of primes.")

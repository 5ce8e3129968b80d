"""Generate ``refs.json``: the pinned input pools and their reference
outputs.

Usage (from the repository root; about 30 s on 2 cores):

    python3 perfbench/make_refs.py

The references are the outputs of the wdyn sources this is run
against; keep the file generated from a trusted commit (its source
digest is recorded in ``provenance``) and do not regenerate it in a
change that claims a speed-up.  ``test_bench.py`` cross-checks the
references against ``wdyn.oracle`` at the sizes the oracle affords.
"""

import json
import random
import sys
from fractions import Fraction

import bench
from bench import (
    CENSUS,
    LEMMA2_SAMPLES,
    LEMMA3_X,
    ORBIT_DECADES,
    ORBIT_POOL,
    PARENT_POOL,
    PARENT_X,
    TABLE_LIMIT,
    csv_digest,
    decimal_ref,
    draw,
    exact_progression_variance,
    lemma2_values,
    parents_digest,
    sha256_lines,
)

POOL_SEED = 20090119
ORACLE_CENSUS_X = 1000  # census references the oracle can afford to recompute


def census_ref(w, table, mode: str, x: int) -> dict:
    census = w.census_b3(table, x) if mode == "thm3" else w.census_c3(table, x, mode)
    rows = census.to_csv_rows()
    digest, size = csv_digest(x, rows)
    return {"x": x, "json": census.to_json(), "rows": len(rows), "csv_sha256": digest, "csv_bytes": size}


def orbit_pool(w, table, rng: random.Random, decade: int) -> list[dict]:
    """A3 numbers n log-uniform in [10^decade, 10^(decade+1)) whose whole
    orbit stays within the table's reach (no auto-extension)."""
    pool, seen = [], set()
    while len(pool) < ORBIT_POOL:
        n = int(10 ** (decade + rng.random()))
        if n in seen:
            continue
        seen.add(n)
        triple = w.classify(table, n)
        if triple is None or not triple.in_a3:
            continue
        try:
            traj = w.trajectory(table, n, auto_extend=False)
        except w.CoverageError:
            continue
        pool.append({"n": n, "triple": list(triple.primes), "traj": traj.to_json_dict()})
    return pool


def parent_pool(w, table, rng: random.Random, x: int, cls: str) -> list[dict]:
    """Targets that are w-images of random box triples, so each has at
    least one parent."""
    box = w.primes_in_range(table, x, 2 * x).tolist()
    pool, seen = [], set()
    while len(pool) < PARENT_POOL:
        if cls == "c3":
            a, b, c = draw(rng, box, 3)
        else:
            a, b = draw(rng, box, 2)
            c = b
        target = w.apply_w(table, w.Triple.from_primes(a, b, c))
        if target.primes in seen:
            continue
        seen.add(target.primes)
        parents = w.find_parents(table, w.ParentQuery(target, x, cls))
        if not parents:
            raise RuntimeError(f"{cls} target {target} at x={x} has no parents")
        pool.append({"class": cls, "target": list(target.primes), "count": len(parents), "sha256": parents_digest(parents)})
    return pool


def main() -> int:
    w = bench.load_wdyn()
    rng = random.Random(POOL_SEED)
    refs = {
        "provenance": {
            "src_sha256": bench.src_digest(),
            "src_lines": bench.src_line_count(),
            "pool_seed": POOL_SEED,
        }
    }

    table = w.build_prime_table(TABLE_LIMIT["census"])
    refs["census"] = {mode: census_ref(w, table, mode, x) for mode, x in CENSUS}
    refs["census_oracle_x"] = {mode: census_ref(w, table, mode, ORACLE_CENSUS_X) for mode, _ in CENSUS}
    print("census done", file=sys.stderr)

    table = w.build_prime_table(TABLE_LIMIT["queries"])
    refs["orbits"] = {str(d): orbit_pool(w, table, rng, d) for d in ORBIT_DECADES}
    refs["parents_c3"] = {str(x): parent_pool(w, table, rng, x, "c3") for x in PARENT_X}
    refs["parents_b3"] = {str(x): parent_pool(w, table, rng, x, "b3") for x in PARENT_X}
    print("queries done", file=sys.stderr)

    table = w.build_prime_table(TABLE_LIMIT["variance"])
    edges = {x: w.window_bounds(x) for x in LEMMA3_X}
    refs["lemma3"] = {
        str(x): {"window": list(edges[x]), "lhs": decimal_ref(exact_progression_variance(w, table, x))}
        for x in LEMMA3_X
    }
    refs["lemma2"] = []
    for sample_seed in range(1, LEMMA2_SAMPLES + 1):
        values = lemma2_values(sample_seed)
        sample = w.SequenceSample.from_values(values, bench.LEMMA2_N)
        lhs = Fraction(w.residue_count_variance(sample, bench.LEMMA2_X).lhs)
        if lhs.denominator != 1:
            raise RuntimeError(f"lemma2 lhs {lhs} is not an integer")
        refs["lemma2"].append({
            "seed": sample_seed,
            "sha256": sha256_lines(f"{v}\n" for v in values),
            "lhs": str(int(lhs)),
        })
    print("variance done", file=sys.stderr)

    bench.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

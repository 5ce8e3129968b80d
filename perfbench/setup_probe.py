"""Set-up probe, run in a fresh process by bench.probe_setup.

Usage: python3 setup_probe.py SRC_DIR LIMIT EMPTY_CACHE_DIR

Imports wdyn from SRC_DIR, builds the prime table to LIMIT into the
empty cache directory (cold sieve plus cache write), reloads it from
that cache (warm), and prints one JSON line of timings.

``setup_cpu_s`` is the CPU time this process (and any child it waited
for) used from its start, interpreter start-up included, until the
table was built.  ``build_s`` and ``load_s`` are CPU seconds too.
``built_at`` is a raw perf_counter reading; the parent subtracts its own
spawn time to get the set-up wall time.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def cpu_clock() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


start = cpu_clock()
src, limit, cache_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
sys.path.insert(0, src)
from wdyn import build_prime_table  # noqa: E402

imported = cpu_clock()
build_prime_table(limit, cache_dir=cache_dir)
built, built_at = cpu_clock(), perf_counter()
build_prime_table(limit, cache_dir=cache_dir)
loaded = cpu_clock()
print(json.dumps({
    "built_at": built_at,
    "setup_cpu_s": built,
    "import_s": imported - start,
    "build_s": built - imported,
    "load_s": loaded - built,
    "cache_file_bytes": sum(p.stat().st_size for p in cache_dir.iterdir()),
}))

"""The wdyn benchmark: seeded workloads, outside-in tracing, reference
checks and metrics.

Each workload is a fixed list of closed-loop operations: one call into
the public API of ``wdyn`` completes before the next starts.  The list
is built from ``--seed`` and from the pinned input pools in
``refs.json``; the same list is replayed pass after pass until the run's
time is up, so every pass does identical work and every end-to-end
metric is a median over passes.  Operations are timed in CPU seconds
(see ``cpu_clock``); wall times are reported too, but not gated.  Each
output is compared with its reference right after its operation,
outside the timed region.

Tracing wraps the benchmark's own calls into each layer (the modules
``primes``, ``dynamics``, ``parents``, ``variance``); nothing inside
``src/wdyn`` is instrumented.  See README.md for the workloads and the
metric-to-layer map.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"
RUNS_DIR = HERE / ".runs"  # work-count records and span dumps kept between runs

WORKLOADS = ("census", "queries", "variance")

# Each workload's prime table, sized as the CLI sizes it for the same job.
TABLE_LIMIT = {"census": 4 * 30_000 + 1, "queries": 10**7, "variance": 2 * 10**6}

# census: one paper experiment per stage.  x is pinned: the time of a
# census changes by several percent between neighbouring x, which would
# swamp the run-to-run spread if the seed chose it.
CENSUS = (("thm1", 3000), ("thm2", 10_000), ("thm3", 30_000))

# queries: orbit inputs are A3 numbers n log-uniform per decade of
# [10^3, 10^14); parent queries are w-images of random box triples per
# box parameter x.  The 10^7 table covers trial division up to 10^14, so
# n > 10^7 takes the beyond-table route.  Every pass runs the whole
# pinned pool and the seed orders the stream: per-input cost is
# heavy-tailed (one orbit input can cost a tenth of its decade), so
# drawing a subset per seed spread stage times by 12-20% between seeds.
ORBIT_DECADES = tuple(range(3, 14))
ORBIT_POOL = 24  # inputs per decade
PARENT_X = (300, 1000, 3000, 10_000)
PARENT_POOL = 12  # targets per x and parent class

# variance: stage 1 = lemma3 at the two small x, stage 2 = lemma3 at
# 10^6, stage 3 = lemma2 on one of the pinned samples.
LEMMA3_X = (10**4, 10**5, 10**6)
LEMMA2_N, LEMMA2_Z, LEMMA2_X = 10**6, 2 * 10**4, 10**3
LEMMA2_SAMPLES = 8
REL_TOL = Fraction(1, 10**12)

SETUP_REPS = 5
MIN_PASSES = 3  # untraced passes; a traced run alternates, at least 2 of each
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)

# Work counts that must repeat exactly for the same code and seed.
WORK_COUNTS = (
    "parents.census_records",
    "parents.census_images",
    "dynamics.w_steps",
    "parents.parents_found",
    "variance.terms",
    "dynamics.beyond_table_queries",
    "primes.table_bytes",
)

LAYERS = ("primes", "dynamics", "parents", "variance")

# Spans the benchmark records around its calls into a layer; each gives
# the per-layer metric "<span>_s" (its self time per traced pass).
LAYER_SPANS = (
    "dynamics.classify",
    "dynamics.trajectory",
    "parents.find_parents_c3",
    "parents.find_parents_b3",
    "parents.census_thm1",
    "parents.census_thm2",
    "parents.census_thm3",
    "parents.report",
    "variance.progression",
    "variance.residue",
)

# Per-layer metrics: name -> unit.  Emitted on every workload; a layer a
# workload does not exercise reads 0.
LAYER_METRICS = {
    "primes.build_table_s": "s",
    "primes.load_table_s": "s",
    "primes.table_bytes": "bytes",
    "primes.cache_file_bytes": "bytes",
    "dynamics.classify_s": "s",
    "dynamics.trajectory_s": "s",
    "dynamics.classify_calls": "count",
    "dynamics.trajectory_calls": "count",
    "dynamics.w_steps": "count",
    "dynamics.beyond_table_queries": "count",
    "parents.find_parents_c3_s": "s",
    "parents.find_parents_b3_s": "s",
    "parents.find_parents_calls": "count",
    "parents.parents_found": "count",
    "parents.census_thm1_s": "s",
    "parents.census_thm2_s": "s",
    "parents.census_thm3_s": "s",
    "parents.census_records": "count",
    "parents.census_images": "count",
    "parents.report_s": "s",
    "parents.report_bytes": "bytes",
    "variance.progression_s": "s",
    "variance.residue_s": "s",
    "variance.terms": "count",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "wall_s": "s",
    "setup_wall_s": "s",
}
END_TO_END = {
    "setup_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MB",
    "stage1_cpu_s": "s",
    "stage2_cpu_s": "s",
    "stage3_cpu_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, references or inputs)."""


def load_wdyn():
    """Import ``wdyn`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "wdyn" / "__init__.py").is_file():
        raise BenchError(f"no wdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wdyn

    if Path(wdyn.__file__).resolve().parent != (SRC / "wdyn").resolve():
        raise BenchError(f"imported wdyn from {wdyn.__file__}, not from {SRC}")
    return wdyn


def load_refs() -> dict:
    try:
        return json.loads(REFS_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read references {REFS_PATH}: {exc}") from exc


# ---------------------------------------------------------------- inputs


def draw(rng: random.Random, items: list, k: int) -> list:
    """k items without replacement (partial Fisher-Yates).

    Uses only ``rng.random()``, the one method whose sequence Python
    keeps stable across versions, so a seed names the same inputs
    everywhere.
    """
    items = list(items)
    for i in range(k):
        j = i + int(rng.random() * (len(items) - i))
        items[i], items[j] = items[j], items[i]
    return items[:k]


def lemma2_values(sample_seed: int) -> list[int]:
    """The pinned lemma2 sample: Z distinct integers in [1, N]."""
    rng = random.Random(sample_seed)
    seen: set[int] = set()
    values = []
    while len(values) < LEMMA2_Z:
        v = 1 + int(rng.random() * LEMMA2_N)
        if v not in seen:
            seen.add(v)
            values.append(v)
    return values


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def parents_digest(parents) -> str:
    """Digest of a sorted parent list (Triples), order-sensitive."""
    return sha256_lines(f"{t.p1}*{t.p2}*{t.p3}\n" for t in parents)


def csv_digest(x: int, rows) -> tuple[str, int]:
    """Digest and byte size of census rows written as the CLI's CSV does."""
    h = hashlib.sha256()
    size = 0
    for i in range(0, len(rows), 4096):
        chunk = "".join(f"{x},{t},{c}\r\n" for t, c in rows[i : i + 4096]).encode()
        h.update(chunk)
        size += len(chunk)
    return h.hexdigest(), size


def exact_progression_variance(w, table, x: int) -> Fraction:
    """Exact rational value of the lemma3 sum, evaluated independently
    of ``wdyn.variance`` from the primes alone: the sum over window
    primes r of sum_b w_b (r c_b - Z)^2 / r^2, where c_b counts the box
    primes in class b mod r and w_b those in class -b.
    """
    edge = math.sqrt(x) * math.log(x)
    rs = w.primes_in_range(table, int(edge), int(2 * edge)).tolist()
    ps = w.primes_in_range(table, x, 2 * x)
    z = len(ps)
    total = Fraction(0)
    for r in rs:
        c = np.bincount(ps % r, minlength=r).tolist()
        num = sum(c[-b % r] * (r * c[b] - z) ** 2 for b in range(r))
        total += Fraction(num, r * r)
    return total


def decimal_ref(value: Fraction, digits: int = 30) -> dict:
    """value rounded down to ``digits`` significant digits, as
    mantissa * 10**exp10 (the exact value's denominator is too large to
    print as a string)."""
    exp10 = math.floor((value.numerator.bit_length() - value.denominator.bit_length()) * math.log10(2))
    shift = digits - exp10
    scaled = value * Fraction(10) ** shift
    return {"mantissa": scaled.numerator // scaled.denominator, "exp10": -shift}


def from_decimal_ref(ref: dict) -> Fraction:
    return Fraction(ref["mantissa"]) * Fraction(10) ** ref["exp10"]


def rel_close(value, ref: Fraction) -> bool:
    return abs(Fraction(value) - ref) <= REL_TOL * abs(ref)


# ---------------------------------------------------------------- clock


def cpu_clock() -> float:
    """CPU seconds used so far by this process and by the children it
    has waited for.

    The benchmark times with this clock rather than the wall clock.  On
    a shared host the wall clock also counts the time other tenants hold
    the cores; in two sets of ten runs of the same code it spread pass
    times by up to a third.  Children are counted so that work moved
    into worker processes still shows; a parallel speed-up therefore
    does not, and only the ungated ``wall_s`` sees it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op id], in
    ``cpu_clock`` seconds.

    Op spans (parent -1) wrap one operation; layer spans wrap one call
    into a ``wdyn`` layer and point at their op span by index.  When
    disabled, ``op`` and ``call`` only forward.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._parent = -1
        self._op_id = -1

    def op(self, op_id: int, name: str, fn: Callable[["Tracer"], Any]):
        if not self.enabled:
            return fn(self)
        idx = len(self.spans)
        self.spans.append([name, cpu_clock(), 0.0, -1, op_id])
        self._parent, self._op_id = idx, op_id
        try:
            return fn(self)
        finally:
            self.spans[idx][2] = cpu_clock()
            self._parent, self._op_id = -1, -1

    def call(self, name: str, fn: Callable, *args):
        if not self.enabled:
            return fn(*args)
        start = cpu_clock()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, cpu_clock(), self._parent, self._op_id])


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by
    child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[i]
    return out


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    """One closed-loop operation.

    ``call`` does the timed work through the tracer.  ``check`` compares
    its output with the reference and, when it matches, ``count`` derives
    work counts from it; both run outside the timed region.
    """

    name: str
    stage: int  # which stageN_s the op's time adds to
    call: Callable[[Tracer], Any]
    check: Callable[[Any], bool]
    count: Callable[[Any], dict[str, int]]


def census_ops(w, table, refs: dict, rng: random.Random) -> list[Op]:
    ops = []
    for stage, (mode, x) in enumerate(CENSUS, start=1):
        ref = refs["census"][mode]
        if ref["x"] != x:
            raise BenchError(f"census reference for {mode} is at x={ref['x']}, not {x}")

        def call(tr, mode=mode, x=x):
            if mode == "thm3":
                census = tr.call("parents.census_thm3", w.census_b3, table, x)
            else:
                census = tr.call(f"parents.census_{mode}", w.census_c3, table, x, mode)
            return tr.call("parents.report", census.to_json), tr.call("parents.report", census.to_csv_rows)

        def check(out, ref=ref, x=x):
            text, rows = out
            return text == ref["json"] and csv_digest(x, rows) == (ref["csv_sha256"], ref["csv_bytes"])

        def count(out, ref=ref):  # runs only on outputs that passed check
            text, rows = out
            return {
                "parents.census_records": json.loads(text)["total_parents"],
                "parents.census_images": len(rows),
                "parents.report_bytes": len(text.encode()) + ref["csv_bytes"],
            }

        ops.append(Op(mode, stage, call, check, count))
    return draw(rng, ops, len(ops))


def queries_ops(w, table, refs: dict, rng: random.Random) -> list[Op]:
    ops = []

    def beyond(n: int) -> dict[str, int]:
        return {"dynamics.beyond_table_queries": int(n > table.limit)}

    for decade in ORBIT_DECADES:
        for item in refs["orbits"][str(decade)]:
            n = item["n"]
            ops.append(Op(
                "classify", 1,
                lambda tr, n=n: tr.call("dynamics.classify", w.classify, table, n),
                lambda out, want=item["triple"]: out is not None and list(out.primes) == want,
                lambda out, n=n: {"dynamics.classify_calls": 1, **beyond(n)},
            ))
            ops.append(Op(
                "trajectory", 2,
                lambda tr, n=n: tr.call("dynamics.trajectory", w.trajectory, table, n),
                lambda out, want=item["traj"]: out.to_json_dict() == want,
                lambda out, n=n: {
                    "dynamics.trajectory_calls": 1,
                    "dynamics.w_steps": len(out.steps) - 1,
                    **beyond(n),
                },
            ))
    for x in PARENT_X:
        for query in refs["parents_c3"][str(x)] + refs["parents_b3"][str(x)]:
            cls = query["class"]

            def call(tr, target=w.Triple(*query["target"]), x=x, cls=cls):
                return tr.call(f"parents.find_parents_{cls}", lambda: w.find_parents(table, w.ParentQuery(target, x, cls)))

            ops.append(Op(
                f"parents_{cls}", 3, call,
                lambda out, q=query: len(out) == q["count"] and parents_digest(out) == q["sha256"],
                lambda out: {"parents.find_parents_calls": 1, "parents.parents_found": len(out)},
            ))
    return draw(rng, ops, len(ops))


def variance_ops(w, table, refs: dict, rng: random.Random) -> list[Op]:
    ops = []

    def window_terms(report) -> dict[str, int]:
        r_lo, r_hi = report.window
        return {"variance.terms": int(w.primes_in_range(table, r_lo, r_hi).sum())}

    for x in LEMMA3_X:
        ref = refs["lemma3"][str(x)]
        ops.append(Op(
            f"lemma3_x{x}", 1 if x < max(LEMMA3_X) else 2,
            lambda tr, x=x: tr.call("variance.progression", w.prime_progression_variance, table, x),
            lambda out, ref=ref: rel_close(out.lhs, from_decimal_ref(ref["lhs"])) and list(out.window) == ref["window"],
            window_terms,
        ))
    [sample] = draw(rng, refs["lemma2"], 1)
    values = lemma2_values(sample["seed"])
    if sha256_lines(f"{v}\n" for v in values) != sample["sha256"]:
        raise BenchError(f"lemma2 sample {sample['seed']} does not regenerate as pinned")

    def lemma2(tr):
        seq = tr.call("variance.residue", w.SequenceSample.from_values, values, LEMMA2_N)
        return tr.call("variance.residue", w.residue_count_variance, seq, LEMMA2_X)

    ops.append(Op(
        "lemma2", 3, lemma2,
        lambda out: rel_close(out.lhs, Fraction(int(sample["lhs"]))),
        lambda out: {"variance.terms": LEMMA2_X * (LEMMA2_X + 1) // 2},
    ))
    return draw(rng, ops, len(ops))


OP_BUILDERS = {"census": census_ops, "queries": queries_ops, "variance": variance_ops}


def make_ops(workload: str, w, table, refs: dict, seed: int) -> list[Op]:
    return OP_BUILDERS[workload](w, table, refs, random.Random(seed))


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    traced: bool
    spans: list[list]
    op_times: list[float] = field(default_factory=list)  # CPU seconds
    op_walls: list[float] = field(default_factory=list)
    stage_times: dict[int, float] = field(default_factory=dict)  # CPU seconds
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def cpu(self) -> float:
        """CPU time inside the ops; the checks between them are not timed."""
        return sum(self.op_times)

    @property
    def wall(self) -> float:
        return sum(self.op_walls)


def run_pass(ops: list[Op], traced: bool) -> Pass:
    """Run every op once.

    Each output is checked, counted and dropped right after its op,
    outside the op's timing, so no op runs while earlier outputs are
    alive: otherwise peak memory and garbage-collector work would depend
    on the seeded order.
    """
    tracer = Tracer(traced)
    result = Pass(traced, tracer.spans)
    for i, op in enumerate(ops):
        w0, t0 = perf_counter(), cpu_clock()
        try:
            out, error = tracer.op(i, op.name, op.call), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, repr(exc)
        dt = cpu_clock() - t0
        result.op_walls.append(perf_counter() - w0)
        result.op_times.append(dt)
        result.stage_times[op.stage] = result.stage_times.get(op.stage, 0.0) + dt
        if error is None:
            try:
                if op.check(out):
                    for key, value in op.count(out).items():
                        result.counts[key] = result.counts.get(key, 0) + value
                else:
                    error = "output differs from reference"
            except Exception as exc:
                error = repr(exc)
        if error is not None:
            result.failed += 1
            result.errors.append(f"{op.name}: {error}")
        out = None  # drop it before the next op runs
    return result


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_pct(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct
    return TAIL_LADDER[-1]


# ---------------------------------------------------------------- set-up


def probe_setup(limit: int) -> list[dict]:
    """Time SETUP_REPS fresh processes that import wdyn and build the
    table into an empty cache directory, then reload it warm."""
    probes = []
    for _ in range(SETUP_REPS):
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".cache-") as cache_dir:
            spawned = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(limit), cache_dir],
                capture_output=True, text=True, timeout=120, check=False,
            )
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            # perf_counter is the system-wide monotonic clock, so the
            # child's timestamps and this process's are comparable.
            probe["setup_wall_s"] = probe.pop("built_at") - spawned
            probes.append(probe)
    return probes


# ---------------------------------------------------------------- metadata


def src_files() -> list[Path]:
    return sorted((SRC / "wdyn").glob("*.py"))


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines()) for path in src_files())


def src_digest() -> str:
    h = hashlib.sha256()
    for path in src_files():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_metadata(w, workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wdyn": getattr(w, "__version__", None),
        "commit": commit,
        "src_sha256": src_digest(),
        "src_lines": src_line_count(),
    }


def repeat_check(workload: str, seed: int, counts: dict[str, int], digest: str) -> str | None:
    """Compare work counts with an earlier run of the same code and
    seed, recording them when there is none; returns a disagreement."""
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"counts-{workload}-seed{seed}-{digest[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return f"work counts differ from an earlier run of the same code and seed: {earlier} vs {counts}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


# ---------------------------------------------------------------- run


def enough_passes(passes: list[Pass], trace: bool) -> bool:
    plain = sum(not p.traced for p in passes)
    if trace:
        return plain >= 2 and len(passes) == 2 * plain
    return plain >= MIN_PASSES


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints its summary and returns the result
    object that run.py prints last."""
    w = load_wdyn()
    refs = load_refs()
    meta = run_metadata(w, workload, seed)
    limit = TABLE_LIMIT[workload]
    probes = probe_setup(limit)
    table = w.build_prime_table(limit)
    ops = make_ops(workload, w, table, refs, seed)

    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while not (passes and perf_counter() >= deadline and enough_passes(passes, trace)):
        passes.append(run_pass(ops, traced=trace and len(passes) % 2 == 1))
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]

    problems = [e for p in passes for e in p.errors]
    for p in passes[1:]:
        if p.counts != passes[0].counts:
            problems.append(f"work counts differ between passes: {passes[0].counts} vs {p.counts}")
            break
    counts = dict(passes[0].counts)
    counts["primes.table_bytes"] = sum(a.nbytes for a in vars(table).values() if hasattr(a, "nbytes"))
    work = {k: counts.get(k, 0) for k in WORK_COUNTS}
    disagreement = repeat_check(workload, seed, work, meta["src_sha256"])
    if disagreement:
        problems.append(disagreement)

    med = statistics.median
    metrics: dict[str, float] = {}
    if not trace:
        units = END_TO_END
        metrics["setup_s"] = med(p["setup_cpu_s"] for p in probes)
        metrics["job_cpu_s"] = med(p.cpu for p in plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for stage in (1, 2, 3):
            metrics[f"stage{stage}_cpu_s"] = med(p.stage_times.get(stage, 0.0) for p in plain)
    else:
        units = LAYER_METRICS
        per_pass = [self_times(p.spans) for p in traced_passes]
        for span in LAYER_SPANS:
            metrics[f"{span}_s"] = med(t.get(span, 0.0) for t in per_pass)
        metrics["primes.build_table_s"] = med(p["build_s"] for p in probes)
        metrics["primes.load_table_s"] = med(p["load_s"] for p in probes)
        metrics["primes.cache_file_bytes"] = med(p["cache_file_bytes"] for p in probes)
        for key, unit in LAYER_METRICS.items():
            if unit in ("count", "bytes"):
                metrics.setdefault(key, counts.get(key, 0))
        tail = tail_pct(len(ops))
        metrics["ops_per_s"] = med(len(ops) / p.cpu for p in plain)
        metrics["op_p50_ms"] = med(1e3 * percentile(p.op_times, 50) for p in plain)
        metrics["op_tail_ms"] = med(1e3 * percentile(p.op_times, tail) for p in plain)
        metrics["trace.overhead_s"] = med(p.cpu for p in traced_passes) - med(p.cpu for p in plain)
        metrics["trace.coverage"] = med(
            sum(v for k, v in t.items() if k.split(".")[0] in LAYERS) / p.cpu
            for t, p in zip(per_pass, traced_passes)
        )
        metrics["wall_s"] = med(p.wall for p in plain)
        metrics["setup_wall_s"] = med(p["setup_wall_s"] for p in probes)
        dump_spans(workload, seed, traced_passes)

    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        f"# {workload} seed={seed}: {len(plain)} untraced + {len(traced_passes)} traced passes "
        f"of {len(ops)} ops; setup over {len(probes)} fresh processes; "
        f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted}); "
        f"op_tail_ms is p{tail_pct(len(ops))} of {len(ops)} ops per pass"
    )
    print(
        f"# median untraced pass: {med(p.cpu for p in plain):.4f} s CPU, {med(p.wall for p in plain):.4f} s wall; "
        f"median set-up: {med(p['setup_cpu_s'] for p in probes):.4f} s CPU, "
        f"{med(p['setup_wall_s'] for p in probes):.4f} s wall"
    )
    print("# work counts " + json.dumps(work, sort_keys=True))
    for problem in problems[:20]:
        print(f"# FAIL {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def dump_spans(workload: str, seed: int, passes: list[Pass]) -> None:
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "passes": [p.spans for p in passes],
    }))

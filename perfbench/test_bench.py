"""Checks of the benchmark itself: its references against ``wdyn.oracle``
at the sizes the oracle affords, its checker and its tracer.

Run from the repository root (about 10 s on 2 cores):

    python3 -m pytest perfbench -q
"""

import json

import pytest

import bench

w = bench.load_wdyn()
from wdyn import oracle  # noqa: E402

REFS = bench.load_refs()
ORACLE_C3_MAX_X = 1000


@pytest.fixture(scope="module")
def table_40k():
    """Covers parent queries and censuses up to x = 10^4 (4x + 1)."""
    return w.build_prime_table(4 * 10_000 + 1)


@pytest.mark.parametrize("mode", ["thm1", "thm2", "thm3"])
def test_census_references_match_oracle(mode, table_40k):
    ref = REFS["census_oracle_x"][mode]
    x = ref["x"]
    if mode == "thm3":
        tallies: dict[int, int] = {}
        for (q, r), c in oracle.census_b3(table_40k, x).items():
            tallies[q * r * r] = tallies.get(q * r * r, 0) + c
    else:
        tallies = oracle.census_c3(table_40k, x, mode)
    assert bench.csv_digest(x, sorted(tallies.items())) == (ref["csv_sha256"], ref["csv_bytes"])
    assert json.loads(ref["json"])["total_parents"] == sum(tallies.values())


def test_b3_query_references_match_oracle(table_40k):
    checked = 0
    for x in bench.PARENT_X:
        for query in REFS["parents_b3"][str(x)]:
            a, b, c = query["target"]
            q, r = (c, a) if a == b else (a, b)  # q appears once, r twice
            found = oracle.find_b3_parents(table_40k, q, r, x)
            parents = sorted(w.Triple.from_primes(p, q, q) for p in found)
            assert (len(parents), bench.parents_digest(parents)) == (query["count"], query["sha256"])
            checked += 1
    assert checked == len(bench.PARENT_X) * bench.PARENT_POOL


def test_c3_query_references_match_oracle(table_40k):
    xs = [x for x in bench.PARENT_X if x <= ORACLE_C3_MAX_X]
    assert xs
    for x in xs:
        for query in REFS["parents_c3"][str(x)]:
            parents = sorted(oracle.find_c3_parents(table_40k, w.Triple(*query["target"]), x))
            assert (len(parents), bench.parents_digest(parents)) == (query["count"], query["sha256"])


@pytest.mark.parametrize("x", [100, 300, 1000])
def test_exact_progression_variance_matches_oracle(x, table_40k):
    exact = bench.exact_progression_variance(w, table_40k, x)
    assert exact == oracle.progression_variance(table_40k, x)
    assert bench.rel_close(w.prime_progression_variance(table_40k, x).lhs, exact)


def test_decimal_reference_tolerance():
    ref = bench.from_decimal_ref(REFS["lemma3"]["1000000"]["lhs"])
    value = float(ref)
    assert bench.rel_close(value, ref)
    assert bench.rel_close(value * (1 + 1e-13), ref)
    assert not bench.rel_close(value * (1 + 1e-11), ref)


def test_lemma2_samples_regenerate():
    for sample in REFS["lemma2"]:
        values = bench.lemma2_values(sample["seed"])
        assert len(set(values)) == bench.LEMMA2_Z
        assert bench.sha256_lines(f"{v}\n" for v in values) == sample["sha256"]


@pytest.fixture(scope="module")
def queries_ops():
    table = w.build_prime_table(bench.TABLE_LIMIT["queries"])
    return bench.make_ops("queries", w, table, REFS, seed=1)


def test_corrupted_output_counts_as_failure(queries_ops):
    ops = queries_ops[:40]
    clean = bench.run_pass(ops, traced=False)
    assert clean.failed == 0 and not clean.errors

    victim = next(i for i, op in enumerate(ops) if op.name == "classify")
    corrupted = list(ops)
    corrupted[victim] = bench.Op(
        "classify", 1, lambda tr: w.Triple(2, 2, 5), ops[victim].check, ops[victim].count
    )
    dirty = bench.run_pass(corrupted, traced=False)
    assert dirty.failed == 1
    assert dirty.failed / len(corrupted) > 0
    assert dirty.counts != clean.counts  # the failed op's counts are missing


def test_raising_op_counts_as_failure(queries_ops):
    ops = list(queries_ops[:10])

    def boom(tr):
        raise ValueError("injected")

    ops[3] = bench.Op(ops[3].name, ops[3].stage, boom, ops[3].check, ops[3].count)
    result = bench.run_pass(ops, traced=True)
    assert result.failed == 1
    assert "injected" in result.errors[0]


def test_seed_fixes_the_stream(queries_ops):
    table = w.build_prime_table(bench.TABLE_LIMIT["census"])
    names = lambda ops: [op.name for op in ops]  # noqa: E731
    again = bench.make_ops("census", w, table, REFS, seed=7)
    assert names(again) == names(bench.make_ops("census", w, table, REFS, seed=7))
    orders = {tuple(names(bench.make_ops("census", w, table, REFS, seed=s))) for s in range(12)}
    assert len(orders) > 1
    assert sorted(names(queries_ops)).count("classify") == len(bench.ORBIT_DECADES) * bench.ORBIT_POOL


def test_repeat_check_flags_disagreement(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RUNS_DIR", tmp_path)
    counts = {"dynamics.w_steps": 10}
    assert bench.repeat_check("queries", 1, counts, "ab" * 32) is None
    assert bench.repeat_check("queries", 1, counts, "ab" * 32) is None
    assert bench.repeat_check("queries", 1, {"dynamics.w_steps": 11}, "ab" * 32)
    assert bench.repeat_check("queries", 1, {"dynamics.w_steps": 11}, "cd" * 32) is None


def test_self_times_subtract_children():
    spans = [
        ["op.a", 0.0, 10.0, -1, 0],
        ["dynamics.classify", 1.0, 4.0, 0, 0],
        ["dynamics.classify", 5.0, 9.0, 0, 0],
    ]
    times = bench.self_times(spans)
    assert times == {"op.a": 3.0, "dynamics.classify": 7.0}


def test_traced_pass_covers_its_cpu_time(queries_ops):
    result = bench.run_pass(queries_ops[:200], traced=True)
    layers = sum(t for name, t in bench.self_times(result.spans).items() if "." in name)
    assert result.failed == 0
    assert layers / result.cpu >= 0.95
    assert len(result.spans) == 2 * 200  # one op span and one layer span per op


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_METRICS
    assert [wl["name"] for wl in spec["workloads"]] == list(bench.WORKLOADS)

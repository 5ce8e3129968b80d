"""Command-line harness: outputs, exit codes, config precedence,
report files."""

import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from wdyn import cli
from wdyn.cli import main
from wdyn.primes import MR_BOUND

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_traj_prints_orbit_and_ind(capsys):
    code, out, _ = run(capsys, "traj", "98")
    assert code == 0
    assert "98 -> 63 -> 75 -> 20" in out
    assert "ind = 3" in out


def test_traj_at_twenty(capsys):
    code, out, _ = run(capsys, "traj", "20")
    assert code == 0
    assert "ind = 0" in out


def test_traj_rejects_non_a3(capsys):
    code, _, err = run(capsys, "traj", "16")
    assert code == 1
    assert "not in A3" in err


def test_traj_cap_exceeded_exit_code(capsys):
    code, out, _ = run(capsys, "traj", "98", "--cap", "2")
    assert code == 2
    assert "did not reach 20" in out


def test_traj_json(capsys):
    code, out, _ = run(capsys, "traj", "98", "--json")
    assert code == 0
    assert json.loads(out) == {
        "start": 98,
        "steps": [98, 63, 75, 20],
        "terminal": {"reached_twenty": 3},
    }


def test_ind_command(capsys):
    code, out, _ = run(capsys, "ind", "75")
    assert code == 0
    assert "ind(75) = 1" in out
    code, _, err = run(capsys, "ind", "98", "--cap", "2")
    assert code == 2
    assert "cap 2" in err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "30")
    assert code == 0
    assert "30 = 2*3*5 (c3)" in out
    code, out, _ = run(capsys, "classify", "16")
    assert code == 0
    assert "not a product of three primes" in out


@pytest.mark.parametrize("n, primes, index", [
    (10000067000144000099, "1000003*2000003*5000011", 13),
    (30000060100005960000133, "10000019*30000001*100000007", 12),
])
def test_point_commands_past_any_sqrt_table(capsys, monkeypatch, n, primes, index):
    limits = []
    build = cli.build_prime_table

    def recording_build(limit, cache_dir=None):
        limits.append(limit)
        return build(limit, cache_dir=cache_dir)

    monkeypatch.setattr(cli, "build_prime_table", recording_build)
    code, out, _ = run(capsys, "classify", str(n))
    assert code == 0 and f"{n} = {primes} (c3)" in out
    code, out, _ = run(capsys, "traj", str(n))
    assert code == 0 and out.startswith(f"{n} -> ") and f"ind = {index}" in out
    code, out, _ = run(capsys, "ind", str(n))
    assert code == 0 and f"ind({n}) = {index}" in out
    assert limits and max(limits) <= 1000


def test_classify_bad_inputs_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "--", "-5")
    assert code == 1
    assert "classification requires n >= 2, got -5" in err
    code, _, err = run(capsys, "classify", str(4 * MR_BOUND))
    assert code == 2
    assert str(MR_BOUND) in err


def test_sieve_command(capsys, tmp_path):
    code, out, _ = run(capsys, "sieve", "--limit", "1000", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "primes=168" in out
    assert (tmp_path / "sieve-1000.wdynsieve").exists()


def test_sieve_cache_write_failure_exit_code(capsys, caplog, tmp_path):
    # a directory in the cache file's place: the load is refused and the table rebuilt, then
    # moving the written temp file over the directory fails, and the temp file is removed
    (tmp_path / "sieve-1000.wdynsieve").mkdir()
    with caplog.at_level("INFO", logger="wdyn.primes"):
        code, _, err = run(capsys, "sieve", "--limit", "1000", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "unusable" in caplog.text and "building prime table to 1000" in caplog.text
    assert "cannot write sieve cache" in err and ".tmp' -> '" in err
    assert (tmp_path / "sieve-1000.wdynsieve").is_dir()
    assert not list(tmp_path.glob("*.tmp"))


def test_parents_count_equals_listing(capsys):
    code, out, _ = run(capsys, "parents", "1547", "--x", "100", "--list")
    assert code == 0
    lines = out.splitlines()
    count = int(next(l for l in lines if "count=" in l).split("count=")[1])
    listed = [l for l in lines if l.startswith("  ")]
    assert count == len(listed) == 10


def test_parents_b3_class_on_c3_target_is_empty(capsys):
    code, out, _ = run(capsys, "parents", "1547", "--x", "100", "--class", "b3")
    assert code == 0
    assert "count=0" in out


def test_parents_b3_target(capsys):
    code, out, _ = run(capsys, "parents", "29767", "--x", "100", "--class", "b3", "--list")
    assert code == 0
    assert "count=1" in out
    assert "101*103*103" in out


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["1547", "--x", "100", "--list"],
            "target 1547 = 7*13*17 (c3)\n"
            "any-parents in (100, 200]: count=10\n"
            "  101*103*107 = 1113121 (c3)\n"
            "  103*107*131 = 1443751 (c3)\n"
            "  103*149*157 = 2409479 (c3)\n"
            "  107*179*199 = 3811447 (c3)\n"
            "  113*167*173 = 3264683 (c3)\n"
            "  113*193*199 = 4339991 (c3)\n"
            "  137*149*157 = 3204841 (c3)\n"
            "  139*167*197 = 4572961 (c3)\n"
            "  157*181*193 = 5484481 (c3)\n"
            "  181*193*197 = 6881801 (c3)\n",
        ),
        (
            ["29767", "--x", "100", "--class", "b3", "--list"],
            "target 29767 = 17*17*103 (b3)\n"
            "b3-parents in (100, 200]: count=1\n"
            "  101*103*103 = 1071509 (b3)\n",
        ),
    ],
)
def test_parents_listing_is_pinned(capsys, argv, want):
    # the whole listing: its order (by p1, p2, p3), its format and each parent's n and class
    code, out, _ = run(capsys, "parents", *argv)
    assert code == 0
    assert out == want


def test_parents_b3_needs_q_in_the_box(capsys):
    # 507 = 3*13*13: the parents p*3*3 have p in (100, 200] but 3 outside it
    code, out, _ = run(capsys, "parents", "507", "--x", "100", "--class", "b3", "--list")
    assert code == 0
    assert "count=0" in out


def test_parents_b3_target_with_huge_q_builds_a_small_table(capsys, monkeypatch):
    # 19327352823 = 3**2 * (2**31 - 1): a B3 search for q = 2**31 - 1 would need a table to 2x + q
    build = cli._build

    def small_only(limit, args):
        if limit > 1000:
            raise AssertionError(f"table of limit {limit} requested")
        return build(limit, args)

    monkeypatch.setattr(cli, "_build", small_only)
    code, out, _ = run(capsys, "parents", "19327352823", "--x", "100")
    assert code == 0
    assert "count=0" in out


@pytest.mark.parametrize("argv, limit, count", [
    (["29767", "--x", "700"], 1400, "count=8"),
    # 193345247 = 139**2 * 10007: q = 10007 is in the box, so its B3 search needs max(2x, q)
    (["193345247", "--x", "10000", "--class", "b3"], 20000, "count=9"),
])
def test_parents_builds_a_table_to_2x(capsys, monkeypatch, argv, limit, count):
    limits = []
    build = cli._build

    def recording_build(n, args):
        limits.append(n)
        return build(n, args)

    monkeypatch.setattr(cli, "_build", recording_build)
    code, out, _ = run(capsys, "parents", *argv)
    assert code == 0
    assert count in out
    assert limits == [1000, limit]


def test_parents_rejects_non_a3_target(capsys):
    code, _, err = run(capsys, "parents", "16", "--x", "100")
    assert code == 1
    assert "not in A3" in err


def test_parents_refuses_a_non_a3_target_before_the_2x_table(capsys, monkeypatch):
    # the target is classified on the 1000 table, so x = 10**9 never asks for a 2*10**9 sieve
    build = cli._build

    def small_only(limit, args):
        if limit > 1000:
            raise AssertionError(f"table of limit {limit} requested")
        return build(limit, args)

    monkeypatch.setattr(cli, "_build", small_only)
    code, _, err = run(capsys, "parents", "16", "--x", "1000000000")
    assert code == 1
    assert "not in A3" in err


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("census_thm3_x300.json", ["census", "--mode", "thm3", "--x-grid", "300"]),
        ("census_thm1_x300.json", ["census", "--mode", "thm1", "--x-grid", "300"]),
        ("lemma3_x100.json", ["lemma3", "--x-grid", "100"]),
    ],
)
def test_golden_reports(capsys, tmp_path, golden, argv):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_census_rejects_workers_option(capsys):
    # censuses run in one process; the old --workers option is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["census", "--mode", "thm3", "--x-grid", "100", "--workers", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_census_stdout_table_shape(capsys):
    code, out, _ = run(capsys, "census", "--mode", "thm3", "--x-grid", "100,300")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3  # header + one row per x
    assert lines[0].split() == ["x", "target", "count", "bound", "ratio"]
    for row in lines[1:]:
        assert float(row.split()[-1]) > 0  # ratio column


def test_census_csv_report(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--mode", "thm3", "--x-grid", "100", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,target,count"
    assert all(line.startswith("100,") for line in lines[1:])
    assert len(lines) > 1


def test_census_without_csv_output_builds_no_csv_rows(capsys, monkeypatch, tmp_path):
    def no_rows(censuses):
        raise AssertionError("CSV rows built with no CSV report to write")
        yield  # a generator, like the row source it replaces

    monkeypatch.setattr(cli, "_census_csv", no_rows)
    code, out, _ = run(capsys, "census", "--mode", "thm3", "--x-grid", "100")
    assert code == 0
    assert out.strip()
    code, _, _ = run(capsys, "census", "--mode", "thm3", "--x-grid", "100", "--output", str(tmp_path / "r.json"))
    assert code == 0


@pytest.mark.parametrize("output", [None, "r.json"])
def test_census_grid_holds_one_census_at_a_time(capsys, monkeypatch, tmp_path, output):
    # without a CSV report, census k is freed before census k + 1 is computed
    alive = []
    census_b3 = cli.census_b3

    def recording_census(table, x):
        gc.collect()
        assert all(ref() is None for ref in alive), f"an earlier census is alive at x = {x}"
        census = census_b3(table, x)
        alive.append(weakref.ref(census))
        return census

    monkeypatch.setattr(cli, "census_b3", recording_census)
    argv = ["census", "--mode", "thm3", "--x-grid", "100,200,300"]
    code, out, _ = run(capsys, *argv, *(["--output", str(tmp_path / output)] if output else []))
    assert code == 0
    assert len(alive) == 3
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("mode", ["thm1", "thm2", "thm3"])
def test_census_csv_bytes_across_row_blocks(capsys, monkeypatch, tmp_path, mode):
    # the rows of two censuses, formatted one block of row_blocks at a time, are the same bytes
    # at the default block, at 1 and 7 rows per block and with every row in one block
    from wdyn import build_prime_table, census_b3, census_c3

    table = build_prime_table(600)
    want = ["x,target,count\r\n"]
    for x in (100, 300):
        census = census_b3(table, x) if mode == "thm3" else census_c3(table, x, mode=mode)
        want += [f"{x},{n},{c}\r\n" for n, c in zip(census.images.tolist(), census.counts.tolist())]
    for block in (1 << 16, 1, 7, 10**9):
        monkeypatch.setattr("wdyn.parents._CSV_BLOCK", block)
        path = tmp_path / f"{mode}-{block}.csv"
        code, _, _ = run(capsys, "census", "--mode", mode, "--x-grid", "100,300", "--output", str(path))
        assert code == 0
        assert path.read_bytes() == "".join(want).encode(), block


def test_census_triple_mode_x_cap(capsys, monkeypatch):
    def no_table(limit, args):
        raise ValueError(f"past the cap: table of limit {limit}")

    monkeypatch.setattr(cli, "_build", no_table)
    for mode, grid in (("thm1", "300,20000"), ("thm2", "300,300001"), ("thm3", "300,300001")):
        code, _, err = run(capsys, "census", "--mode", mode, "--x-grid", grid)
        assert code == 1
        assert "--allow-large" in err and "past the cap" not in err
    # each mode has its own cap: thm1 at 10**4 is under it and goes on to build its table
    code, _, err = run(capsys, "census", "--mode", "thm1", "--x-grid", "300,10000")
    assert code == 1
    assert "past the cap: table of limit 20000" in err
    # every mode reads the table only up to the box, so asks for 2x, the table lemma3 builds
    for mode, grid, limit in (("thm2", "300,100000", 200000), ("thm3", "300,300000", 600000)):
        code, _, err = run(capsys, "census", "--mode", mode, "--x-grid", grid)
        assert code == 1
        assert f"past the cap: table of limit {limit}" in err


def test_census_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--x-grid", "100"])  # missing required --mode
    assert exc.value.code == 1


@pytest.mark.parametrize("grid", ["", "abc", "5", "300,100", "300,300"])
def test_census_bad_x_grid_is_a_usage_error(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--mode", "thm3", "--x-grid", grid])
    assert exc.value.code == 1
    assert "x grid" in capsys.readouterr().err


def test_lemma2_command(capsys, tmp_path):
    vals = tmp_path / "vals.txt"
    vals.write_text("\n".join(str(v) for v in range(1, 12)) + "\n")
    code, out, _ = run(capsys, "lemma2", "--file", str(vals), "--X", "3")
    assert code == 0
    assert "lhs=3" in out
    assert "Z=11" in out


@pytest.mark.parametrize("bad", [str(2**63), "abc", "1.5"])
def test_lemma2_bad_value_is_an_error_line(capsys, tmp_path, bad):
    vals = tmp_path / "vals.txt"
    vals.write_text(f"5\n{bad}\n")
    code, _, err = run(capsys, "lemma2", "--file", str(vals), "--X", "5")
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    if bad == str(2**63):
        assert "[1, 2**63)" in err
    else:
        assert f"{vals}:2: not an integer: {bad!r}" in err


def test_lemma2_takes_no_cache_dir(capsys, tmp_path):
    # lemma2 builds no prime table, so a cache directory is a usage error
    vals = tmp_path / "vals.txt"
    vals.write_text("1\n2\n3\n")
    with pytest.raises(SystemExit) as exc:
        main(["lemma2", "--cache-dir", str(tmp_path), "--file", str(vals), "--X", "3"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cache-dir" in err
    assert not list(tmp_path.glob("*.wdynsieve"))


def test_lemma2_missing_file(capsys):
    code, _, err = run(capsys, "lemma2", "--file", "/does/not/exist.txt", "--X", "3")
    assert code == 3
    assert "cannot read" in err


def test_lemma3_command(capsys, tmp_path):
    out_path = tmp_path / "var.json"
    code, out, _ = run(capsys, "lemma3", "--x-grid", "100", "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    (entry,) = payload["results"]
    assert entry["x_or_X"] == 100
    assert "/" in entry["lhs"]
    assert entry["window"] == [46, 92]


def test_lemma3_csv_report(capsys, tmp_path):
    out_path = tmp_path / "var.csv"
    code, _, _ = run(capsys, "lemma3", "--x-grid", "100,300", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,lhs,bound,ratio"
    assert len(lines) == 3


def test_cache_dir_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("WDYN_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "sieve", "--limit", "500", "--cache-dir", str(flag_dir))
    assert code == 0
    assert (flag_dir / "sieve-500.wdynsieve").exists()
    assert not (env_dir / "sieve-500.wdynsieve").exists()
    code, _, _ = run(capsys, "sieve", "--limit", "500")
    assert code == 0
    assert (env_dir / "sieve-500.wdynsieve").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wdyn.cli", "ind", "98"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ind(98) = 3" in proc.stdout

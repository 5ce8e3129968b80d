"""Command-line harness: orbit inspection, parent searches, censuses,
and variance tables.

Exit codes: 0 success, 1 domain/usage error, 2 cap, table limit or
factoring bound (MR_BOUND) exceeded, 3 I/O or cache error.
Configuration precedence is CLI flag, then environment (WDYN_CACHE_DIR),
then default.  All reports are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .dynamics import DEFAULT_CAP, classify, ind, trajectory
from .errors import CapExceededError, CoverageError
from .parents import ParentQuery, census_b3, census_c3, find_parents
from .primes import PrimeTable, build_prime_table
from .variance import SequenceSample, prime_progression_variance, residue_count_variance

logger = logging.getLogger(__name__)

# default x caps of the censuses: thm1 memory grows with its parent count (146 MB at 10**4,
# 0.72 GB at 2*10**4); thm2 memory grows with its pairs of box primes in one class, 2.4-2.6 s
# and 450 MB at 3*10**5; thm3 memory grows with its image count, 0.6-0.9 s and a 308 MB (294 MiB)
# process peak at 3*10**5, measured in process on a 2-core Xeon
CENSUS_X_CAP = {"thm1": 10_000, "thm2": 300_000, "thm3": 300_000}
POINT_LIMIT = 1000  # table for point queries; factoring reaches far past it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad x grid {text!r}; expected a,b,c")
    if not grid or grid[0] < 10 or any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError("x grid must be strictly ascending integers, each >= 10")
    return grid


def _build(limit: int, args) -> PrimeTable:
    cache_dir = args.cache_dir or os.environ.get("WDYN_CACHE_DIR") or None
    return build_prime_table(limit, cache_dir=cache_dir)


def _csv_line(row: tuple) -> str:
    # ints, floats and rational strings never need CSV quoting
    return ",".join(map(str, row)) + "\r\n"


def _census_csv(censuses: list) -> Iterator[str]:
    """Census CSV rows, one formatted chunk per block of ``ParentCensus.row_blocks``,
    the producer that ``to_csv_rows`` reads too."""
    for c in censuses:
        for images, counts in c.row_blocks():
            yield "".join(map(f"{c.x},{{}},{{}}\r\n".format, images, counts))


def _write_report(args, json_payload: dict, csv_lines: Iterable[str], csv_header: list[str]) -> None:
    if not args.output:
        return
    path = Path(args.output)
    fmt = args.format or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        path.write_text(json.dumps(json_payload, sort_keys=True, indent=2) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(_csv_line(csv_header))
            fh.writelines(csv_lines)
    logger.info("wrote %s", path)


def cmd_sieve(args) -> int:
    table = _build(args.limit, args)
    print(f"limit={table.limit} primes={len(table)}")
    return 0


def cmd_classify(args) -> int:
    n = args.n
    t = classify(_build(POINT_LIMIT, args), n)
    if t is None:
        print(f"{n}: not a product of three primes")
    else:
        print(f"{n} = {t.p1}*{t.p2}*{t.p3} ({t.cls.value})")
    return 0


def cmd_traj(args) -> int:
    traj = trajectory(_build(POINT_LIMIT, args), args.n, cap=args.cap)
    if args.json:
        print(json.dumps(traj.to_json_dict(), sort_keys=True))
    else:
        print(" -> ".join(str(t.n) for t in traj.steps))
        if traj.reached:
            print(f"ind = {traj.index}")
        else:
            print(f"did not reach 20 within cap {traj.cap}")
    return 0 if traj.reached else 2


def cmd_ind(args) -> int:
    print(f"ind({args.n}) = {ind(_build(POINT_LIMIT, args), args.n, cap=args.cap)}")
    return 0


def cmd_parents(args) -> int:
    n, x = args.target, args.x
    target = classify(_build(POINT_LIMIT, args), n)
    if target is None or not target.in_a3:
        raise ValueError(f"target {n} is not in A3")
    table = _build(max(POINT_LIMIT, 2 * x), args)  # searches read the table only up to the box, and q <= 2x
    query = ParentQuery(target=target, x=x, parent_class=args.parent_class)
    parents = find_parents(table, query)
    print(f"target {n} = {target.p1}*{target.p2}*{target.p3} ({target.cls.value})")
    print(f"{args.parent_class}-parents in ({x}, {2 * x}]: count={len(parents)}")
    if args.list:
        for t in parents:
            print(f"  {t.p1}*{t.p2}*{t.p3} = {t.n} ({t.cls.value})")
    return 0


def cmd_census(args) -> int:
    mode = args.mode
    grid = args.x_grid if args.x_grid is not None else (
        [300, 1000, 3000, 10000] if mode == "thm3" else [300, 1000, 3000]
    )
    too_big = [x for x in grid if x > CENSUS_X_CAP[mode]]
    if too_big and not args.allow_large:
        raise ValueError(
            f"x={too_big[0]} exceeds the default cap {CENSUS_X_CAP[mode]} for "
            f"{mode} censuses; pass --allow-large to run anyway"
        )
    table = _build(2 * max(grid), args)  # the table lemma3 builds: censuses read it and P only up to 2x
    print(f"{'x':>8} {'target':>20} {'count':>7} {'bound':>16} {'ratio':>12}")
    censuses = []
    for x in grid:
        logger.info("census mode=%s x=%d ...", mode, x)
        if mode == "thm3":
            census = census_b3(table, x)
        else:
            census = census_c3(table, x, mode=mode)
        censuses.append(census)
        target, count = census.argmax
        print(
            f"{x:>8} {target:>20} {count:>7} {census.bound_value:>16.6f} "
            f"{census.ratio:>12.6f}"
        )
    payload = {"mode": mode, "results": [c.to_json_dict() for c in censuses]}
    # a generator: the rows are formatted only if a CSV is written
    _write_report(args, payload, _census_csv(censuses), ["x", "target", "count"])
    return 0


def cmd_lemma2(args) -> int:
    try:
        lines = Path(args.file).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read {args.file}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, 1):
        for tok in line.split():
            try:
                values.append(int(tok))
            except ValueError:  # exit 1, naming the place: "abc" or "1.5"
                raise ValueError(f"{args.file}:{lineno}: not an integer: {tok!r}") from None
    sample = SequenceSample.from_values(values, bound=args.N)
    report = residue_count_variance(sample, args.X)
    print(
        f"X={args.X} N={sample.bound} Z={sample.size} lhs={report.lhs} "
        f"bound={report.bound_value} ratio={report.ratio!r}"
    )
    _write_report(args, report.to_json_dict(), [_csv_line(report.to_csv_row())], ["X", "lhs", "bound", "ratio"])
    return 0


def cmd_lemma3(args) -> int:
    grid = args.x_grid if args.x_grid is not None else [1000, 10000, 100000]
    table = _build(2 * max(grid), args)
    print(f"{'x':>8} {'lhs':>24} {'bound':>18} {'ratio':>12}")
    reports = []
    for x in grid:
        logger.info("progression variance x=%d ...", x)
        report = prime_progression_variance(table, x)
        reports.append(report)
        print(f"{x:>8} {str(report.lhs):>24} {report.bound_value:>18.4f} {report.ratio:>12.6f}")
    payload = {"results": [r.to_json_dict() for r in reports]}
    _write_report(args, payload, [_csv_line(r.to_csv_row()) for r in reports], ["x", "lhs", "bound", "ratio"])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wdyn", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, help="sieve cache directory (or WDYN_CACHE_DIR)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write a JSON/CSV report here")
    output.add_argument("--format", choices=("json", "csv"), default=None, help="report format (default: by extension)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="build (and cache) a prime table")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("classify", parents=[common], help="class of n: c3, b3, d3, or not a triple")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("traj", parents=[common], help="orbit of n under w")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true", help="print the trajectory as JSON")
    p.set_defaults(func=cmd_traj)

    p = sub.add_parser("ind", parents=[common], help="steps for the orbit of n to reach 20")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_ind)

    p = sub.add_parser("parents", parents=[common], help="enumerate parents of a target")
    p.add_argument("target", type=int)
    p.add_argument("--x", type=int, required=True, help="parents drawn from primes in (x, 2x]")
    p.add_argument("--class", dest="parent_class", choices=("c3", "b3", "any"), default="any")
    p.add_argument("--list", action="store_true", help="print every parent")
    p.set_defaults(func=cmd_parents)

    p = sub.add_parser("census", parents=[common, output], help="parent census over an x grid")
    p.add_argument("--mode", choices=("thm1", "thm2", "thm3"), required=True)
    p.add_argument("--x-grid", type=_grid, default=None, help="comma-separated ascending x values")
    p.add_argument("--allow-large", action="store_true", help="lift the x cap on censuses")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("lemma2", parents=[output], help="residue-count variance of a sample file")
    p.add_argument("--file", required=True, help="input file, one integer per line")
    p.add_argument("--X", type=int, required=True, help="modulus cutoff")
    p.add_argument("--N", type=int, default=None, help="universe bound (default: max value)")
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("lemma3", parents=[common, output], help="prime progression variance over an x grid")
    p.add_argument("--x-grid", type=_grid, default=None)
    p.set_defaults(func=cmd_lemma3)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

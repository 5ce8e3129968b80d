"""Census experiments: oracle equivalence, frozen argmax values,
window membership, the argmax tie-break."""

import json
import random

import numpy as np
import pytest

from wdyn import (
    build_prime_table,
    census_b3,
    census_c3,
    classify,
    window_bounds,
)
from wdyn import oracle
from wdyn.parents import _census
from wdyn.primes import primes_in_range


def tally(census):
    """The census as {image: count}, built from its two arrays."""
    assert np.all(np.diff(census.images) > 0)  # the packed tally's order: ascending, distinct
    return dict(zip(census.images.tolist(), census.counts.tolist()))


def _oracle_b3_by_image(table, x):
    raw = oracle.census_b3(table, x)
    out = {}
    for (q, r), c in raw.items():
        n = q * r * r
        out[n] = out.get(n, 0) + c
    return out


# below x = 75 the window reaches into the box, so a window prime r can be a box prime,
# the lone member of its class 0 mod r, and a pivot's pair sum with itself can be a hit
@pytest.mark.parametrize("mode, x", [(mode, x) for mode in ("thm1", "thm2") for x in (*range(10, 75), 100, 200)])
def test_census_c3_matches_oracle(table_x300, mode, x):
    got = census_c3(table_x300, x, mode=mode)
    assert tally(got) == oracle.census_c3(table_x300, x, mode)


# below x = 75 the window reaches into the box, so a window prime r can be
# the pivot q, and p = q = r sits in the class -q mod r without being a partner
@pytest.mark.parametrize("x", [*range(10, 75), 100, 200])
def test_census_b3_matches_oracle(table_x300, x):
    got = census_b3(table_x300, x)
    assert tally(got) == _oracle_b3_by_image(table_x300, x)


@pytest.mark.parametrize("x", [10, 74, 100, 300, 1000])
def test_census_on_a_table_of_limit_2x(table_x10k, x):
    # every mode reads the table and P only up to 2x; the oracles read P up to 4x
    table = build_prime_table(2 * x)
    assert table.limit == 2 * x
    assert tally(census_b3(table, x)) == _oracle_b3_by_image(table_x10k, x)
    for mode in ("thm1", "thm2"):
        assert tally(census_c3(table, x, mode=mode)) == oracle.census_c3(table_x10k, x, mode), mode


def test_census_sweep_matches_oracle_at_seeded_xs(table_x10k):
    # broaden the differential net beyond the round numbers, from the
    # smallest census x up to where the thm1 cross-pivot rule fires often
    rng = random.Random(20260810)
    for x in sorted(rng.sample(range(10, 1001), 5)):
        assert tally(census_b3(table_x10k, x)) == _oracle_b3_by_image(table_x10k, x), x
        for mode in ("thm1", "thm2"):
            got = census_c3(table_x10k, x, mode=mode)
            assert tally(got) == oracle.census_c3(table_x10k, x, mode), (x, mode)


# recorded from the first full run; the computation is deterministic
FROZEN_ARGMAX = {
    ("thm3", 300): (3971159, 2),
    ("thm3", 1000): (50375477, 2),
    ("thm3", 3000): (621535883, 3),
    ("thm3", 10000): (9357277327, 4),
    ("thm1", 300): (218881, 3),
    ("thm1", 1000): (1072853, 6),
    ("thm1", 3000): (5445799, 12),
    ("thm1", 10000): (33582421, 34),
    ("thm2", 300): (63845, 1),
    ("thm2", 1000): (248645, 3),
    ("thm2", 3000): (1606087, 5),
    ("thm2", 10000): (16898153, 16),
    ("thm2", 30000): (101671351, 53),
}
# thm2 recorded from the all-pairs kernel that the (pivot, r) runs replaced,
# thm1 from the row-at-a-time kernel that the blocks of pivot rows replaced
FROZEN_TOTAL = {("thm2", 10000): 22807, ("thm2", 30000): 263351, ("thm1", 10000): 4355184}


def _assert_argmax(census, want):
    assert census.argmax == want
    assert len(census.argmax_factors) == 3
    assert np.prod(census.argmax_factors) == want[0]


def test_census_b3_frozen_argmax(table_x10k):
    for x in (300, 1000, 3000, 10000):
        census = census_b3(table_x10k, x)
        _assert_argmax(census, FROZEN_ARGMAX[("thm3", x)])


def test_census_c3_frozen_argmax(table_x10k, table_200k):
    for mode in ("thm1", "thm2"):
        for x in (300, 1000, 3000):
            census = census_c3(table_x10k, x, mode=mode)
            _assert_argmax(census, FROZEN_ARGMAX[(mode, x)])
    for mode, x, table in (("thm1", 10000, table_x10k), ("thm2", 10000, table_x10k), ("thm2", 30000, table_200k)):
        census = census_c3(table, x, mode=mode)
        _assert_argmax(census, FROZEN_ARGMAX[(mode, x)])
        assert census.total_parents == FROZEN_TOTAL[(mode, x)]


@pytest.mark.parametrize("x", [300, 1000])
@pytest.mark.parametrize("mode", ["thm1", "thm2"])
def test_census_across_row_blocks(table_x10k, monkeypatch, mode, x):
    # 47 box primes at x = 300 and 135 at x = 1000.  thm1 takes blocks of pivot rows of
    # pair sums: one row, 2 rows (a last one of 1) or one row, 21 or 7 rows, the last one
    # partial.  thm2 takes blocks of window primes, a row of box-prime classes each: of
    # the 20 window primes at x = 300 and 37 at x = 1000, one, two (a last one of 1 at
    # x = 1000) or all of them
    n = len(primes_in_range(table_x10k, x, 2 * x))
    want = oracle.census_c3(table_x10k, x, mode)
    for block in (1, 97, 1000) if mode == "thm1" else (1, 2 * n, 10**9):
        monkeypatch.setattr("wdyn.parents._ROW_BLOCK", block)
        assert tally(census_c3(table_x10k, x, mode=mode)) == want, block


def test_census_window_membership(table_x300):
    r_lo, r_hi = window_bounds(300)

    def factors(census):
        return {n: classify(table_x300, n).primes for n in census.images.tolist()}

    b3 = census_b3(table_x300, 300)
    assert b3.window == (r_lo, r_hi)
    for n, (f1, f2, f3) in factors(b3).items():
        doubled = f1 if f1 == f2 else f2
        assert r_lo < doubled <= r_hi, n
    thm1 = census_c3(table_x300, 300, mode="thm1")
    for n, facs in factors(thm1).items():
        assert len(set(facs)) == 3, n
        assert sum(r_lo < f <= r_hi for f in facs) >= 2, n
    thm2 = census_c3(table_x300, 300, mode="thm2")
    for n, (f1, f2, f3) in factors(thm2).items():
        assert len({f1, f2, f3}) == 2, n
        doubled = f1 if f1 == f2 else f2
        assert r_lo < doubled <= r_hi, n


def test_census_parents_are_a_subset_of_full_enumeration(table_x300):
    # the census keeps only window-qualifying parents; find_c3_parents
    # has no window, so it can only see more
    from wdyn import find_c3_parents

    census = census_c3(table_x300, 200, mode="thm1")
    for n, count in census.to_csv_rows()[:12]:
        full = find_c3_parents(table_x300, classify(table_x300, n), 200)
        assert count <= len(full), n


def stub_kernel(*blocks):
    """A census kernel that yields the given image << 8 | count blocks."""
    return lambda table, x, ps, rs: (np.array(b, dtype=np.int64) for b in blocks)


def test_census_argmax_tie_breaks_to_smallest_target(table_x300):
    # 50 is tallied from two entries, so it ties with 20 and 90 stays behind
    kernel = stub_kernel([90 << 8 | 1, 50 << 8 | 2], [20 << 8 | 3, 50 << 8 | 1])
    census = _census(table_x300, 300, "thm3", kernel)
    assert tally(census) == {20: 3, 50: 3, 90: 1}
    assert census.argmax == (20, 3)
    assert census.argmax_factors == (2, 2, 5)
    empty = _census(table_x300, 300, "thm3", stub_kernel([]))
    assert empty.argmax == (0, 0)
    assert empty.argmax_factors == ()
    assert empty.total_parents == 0


def test_census_validation(table_x300, table_x10k):
    with pytest.raises(ValueError):
        census_c3(table_x300, 300, mode="thm3")  # thm3 is the pair census
    with pytest.raises(ValueError):
        census_c3(table_x300, 5, mode="thm1")
    with pytest.raises(ValueError):
        census_b3(table_x300, 5)
    from wdyn import CoverageError

    # every mode reads the table and P only up to the box: 2x = 800 is within reach, 1400 is not
    assert tally(census_b3(table_x300, 400)) == _oracle_b3_by_image(table_x10k, 400)
    for mode in ("thm1", "thm2"):
        assert tally(census_c3(table_x300, 400, mode=mode)) == oracle.census_c3(table_x10k, 400, mode)
    for census in (census_c3, census_b3, lambda t, x: census_c3(t, x, mode="thm2")):
        with pytest.raises(CoverageError, match="limit >= 1400"):
            census(table_x300, 700)
        # a tally packs image << 8 | count in int64, and images reach r_hi**2 * 2x: x = 4387881
        # is the first x with r_hi**2 * 2x >= 2**55; just below it the short table is the error
        with pytest.raises(ValueError, match="overflow int64"):
            census(table_x300, 4387881)
        with pytest.raises(CoverageError):
            census(table_x300, 4387880)


def test_census_json_schema(table_x300):
    census = census_b3(table_x300, 300)
    d = census.to_json_dict()
    assert set(d) == {"x", "mode", "window", "argmax", "ratio", "total_parents"}
    assert d["x"] == 300
    assert d["mode"] == "thm3"
    assert d["window"] == [98, 197]
    assert set(d["argmax"]) == {"target", "count", "target_factors"}
    assert d["argmax"]["target"] == 3971159
    assert d["argmax"]["target_factors"] == [113, 113, 311]
    assert d["ratio"]["bound_form"] == "sqrt(x)/log^2 x"
    assert d["ratio"]["value"] == pytest.approx(3.7566, abs=1e-3)
    assert json.loads(census.to_json()) == d


def test_census_csv_rows_sorted(table_x300):
    census = census_b3(table_x300, 100)
    rows = census.to_csv_rows()
    assert rows == sorted(rows)
    assert sum(c for _, c in rows) == census.total_parents


def test_census_ratio_fields(table_x300):
    census = census_b3(table_x300, 300)
    assert census.argmax[1] == 2
    assert census.bound_form == "sqrt(x)/log^2 x"
    assert census.ratio == 2 / census.bound_value > 0
    thm1 = census_c3(table_x300, 300, mode="thm1")
    assert thm1.bound_form == "x/log^4 x"
    assert thm1.ratio == thm1.argmax[1] / thm1.bound_value > 0


@pytest.mark.parametrize("mode", ["thm1", "thm2", "thm3"])
def test_csv_rows_across_row_blocks(table_x300, monkeypatch, mode):
    # 1 and 7 rows per block leave a partial last block; 10**9 puts every row in one
    census = census_b3(table_x300, 300) if mode == "thm3" else census_c3(table_x300, 300, mode=mode)
    want = list(zip(census.images.tolist(), census.counts.tolist()))
    assert len(want) % 7
    for block in (1, 7, 10**9):
        monkeypatch.setattr("wdyn.parents._CSV_BLOCK", block)
        assert census.to_csv_rows() == want, block


def check_census_exact(table, census, seed):
    """Checks a census too large for the brute-force oracle against the parent
    searches and closed forms, which share no kernel with it: the argmax count
    and 5 seeded rows against find_b3_parents (thm3) or find_c3_parents, and the
    thm2/thm3 total against the class counts of the box primes mod each window
    prime, taken here by bincount."""
    from wdyn import find_b3_parents, find_c3_parents

    x = census.x

    def parents(n):
        target = classify(table, n)
        if census.mode != "thm3":
            return len(find_c3_parents(table, target, x))
        a, b, c = target.primes
        q, r = (c, a) if a == b else (a, b)  # q appears once, r twice
        return len(find_b3_parents(table, q, r, x))

    rows = random.Random(seed).sample(range(len(census.images)), 5)
    for n, count in [census.argmax] + [(int(census.images[i]), int(census.counts[i])) for i in rows]:
        assert parents(n) == count, n
    if census.mode == "thm1":
        return
    ps = primes_in_range(table, x, 2 * x)
    total = 0
    for r in primes_in_range(table, *window_bounds(x)).tolist():
        d = np.bincount(ps % r, minlength=r)
        opposite = d[-np.arange(r) % r]  # the box primes in class -b, for each class b
        # thm2: a pair {a, a'} in class b and a designated prime in class -b; thm3: p in b, q in -b
        total += int((d * (d - 1) // 2 if census.mode == "thm2" else d) @ opposite)
    assert census.total_parents == total


# past the brute-force oracle's reach (x <= 10**3 here); the table to 2x is all each census reads
@pytest.mark.parametrize("mode, x", [("thm1", 10_000), ("thm2", 100_000), ("thm3", 100_000)])
def test_census_exact_past_the_oracle(table_x10k, table_200k, mode, x):
    table = table_x10k if x <= 10_000 else table_200k
    census = census_b3(table, x) if mode == "thm3" else census_c3(table, x, mode=mode)
    check_census_exact(table, census, seed=x)

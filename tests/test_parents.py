"""Parent enumeration against the brute-force oracle."""

import itertools
import random

import pytest

from wdyn import (
    CoverageError,
    ParentQuery,
    Triple,
    TripleClass,
    apply_w,
    build_prime_table,
    classify,
    find_b3_parents,
    find_c3_parents,
    find_parents,
    primes_in_range,
    window_bounds,
)
from wdyn import oracle


def test_window_bounds_examples():
    assert window_bounds(100) == (46, 92)
    assert window_bounds(300) == (98, 197)
    assert window_bounds(10_000) == (921, 1842)


def test_primes_in_window(table_x300):
    rs = primes_in_range(table_x300, *window_bounds(100)).tolist()
    assert rs == [47, 53, 59, 61, 67, 71, 73, 79, 83, 89]


def test_find_b3_parents_matches_oracle(table_x300):
    x = 100
    qs = primes_in_range(table_x300, x, 2 * x).tolist()
    rs = primes_in_range(table_x300, *window_bounds(x)).tolist() + [17, 23]  # include off-window r
    nonempty = 0
    for q in qs:
        for r in rs:
            got = find_b3_parents(table_x300, q, r, x)
            assert got == oracle.find_b3_parents(table_x300, q, r, x), (q, r)
            nonempty += bool(got)
            for p in got:
                assert apply_w(table_x300, Triple.from_primes(p, q, q)).n == q * r * r
    assert nonempty > 0


def test_find_b3_parents_specific_values(table_x300):
    assert find_b3_parents(table_x300, 101, 47, 100) == [181]
    assert find_b3_parents(table_x300, 103, 17, 100) == [101]
    assert find_b3_parents(table_x300, 101, 23, 100) == []  # no qualifying p


def test_find_b3_parents_validates_inputs(table_x300):
    with pytest.raises(ValueError):
        find_b3_parents(table_x300, 100, 7, 100)  # q not prime
    for q in (1, 0):  # 1 is its slot's sentinel and 0 is even: neither is prime
        with pytest.raises(ValueError):
            find_b3_parents(table_x300, q, 7, 100)
    with pytest.raises(CoverageError, match="limit >= 1202"):
        find_b3_parents(table_x300, 101, 7, 601)  # the box (601, 1202] passes the 1201 table


@pytest.mark.parametrize("x", [100, 300])
def test_find_b3_parents_on_a_table_of_limit_2x(table_x300, x):
    # every q of the box and every prime r up to 2x + q, read against the oracle's own P;
    # an r past (2x + q) / 2 returns [] before its table entry, which may lie past the table
    narrow = build_prime_table(2 * x)
    lpf = oracle.lpf_array(table_x300, 4 * x)
    ps = primes_in_range(table_x300, x, 2 * x).tolist()
    nonempty = 0
    for q in ps:
        for r in primes_in_range(table_x300, 1, 2 * x + q).tolist():
            got = find_b3_parents(narrow, q, r, x)
            assert got == [p for p in ps if p != q and lpf[p + q] == r], (q, r)
            nonempty += bool(got)
    assert nonempty > 0


def test_find_b3_parents_even_q(table_x300):
    # q = 2 makes p + q odd, so P(p + q) can exceed (2x + q) / 2: 17 + 2 = 19 at x = 9
    assert find_b3_parents(table_x300, 2, 19, 9) == oracle.find_b3_parents(table_x300, 2, 19, 9) == [17]
    with pytest.raises(CoverageError, match="limit >= 19"):
        find_b3_parents(build_prime_table(18), 2, 19, 9)  # the box fits, r does not


def _image_targets(table, x, count):
    """Deterministic battery of reachable targets: images of the first
    few triples in the box."""
    ps = primes_in_range(table, x, 2 * x).tolist()[:12]
    seen = []
    for combo in itertools.combinations(ps, 3):
        img = apply_w(table, Triple(*combo))
        if img.n not in {t.n for t in seen}:
            seen.append(img)
        if len(seen) == count:
            break
    return seen


def test_find_c3_parents_matches_oracle(table_x300):
    for x in (100, 200):
        targets = _image_targets(table_x300, x, 8)
        targets.append(classify(table_x300, 103 * 17 * 17))  # b3 target
        for target in targets:
            got = find_c3_parents(table_x300, target, x)
            want = oracle.find_c3_parents(table_x300, target, x)
            assert got == want, (x, target)
            for parent in got:
                assert parent.cls is TripleClass.C3
                assert apply_w(table_x300, parent).n == target.n


@pytest.mark.parametrize("n", [1786, 969, 2023])  # 2*19*47, 3*17*19, 7*17*17
def test_find_parents_matches_oracle_at_x1000(table_x10k, n):
    # every target prime r is small, so r*r <= s for all pair sums s in (2000, 4000]
    target = classify(table_x10k, n)
    query = ParentQuery(target=target, x=1000, parent_class="any")
    got = find_parents(table_x10k, query)
    want = oracle.find_c3_parents(table_x10k, target, 1000)
    if target.cls is TripleClass.B3:
        q, r = (target.p3, target.p1) if target.p1 == target.p2 else (target.p1, target.p2)
        if 1000 < q <= 2000:  # a B3 parent p*q**2 draws q from the box too; not so for 2023 = 7*17*17
            want += [Triple.from_primes(p, q, q) for p in oracle.find_b3_parents(table_x10k, q, r, 1000)]
    assert got == sorted(want)
    assert len(got) > 0
    for parent in got:
        assert apply_w(table_x10k, parent).n == n


@pytest.mark.parametrize("n", [1786, 969, 2023])  # 2*19*47, 3*17*19, 7*17*17
def test_find_c3_parents_across_join_blocks(table_x10k, monkeypatch, n):
    # blocks of 3 candidate base pairs: many blocks, most of them partial,
    # and the last one ends wherever the candidates run out
    monkeypatch.setattr("wdyn.parents._JOIN_BLOCK", 3)
    target = classify(table_x10k, n)
    got = find_c3_parents(table_x10k, target, 1000)
    assert got == oracle.find_c3_parents(table_x10k, target, 1000)
    assert len(got) > 0


def test_find_c3_parents_sweep_matches_oracle_at_seeded_xs(table_x10k):
    # images of seeded box triples, both p*q*r (mostly C3 images) and
    # p*q**2 (B3 images q*r**2), so both the m2 != m3 and the m2 == m3 joins run
    rng = random.Random(20261018)
    classes = set()
    for x in sorted(rng.sample(range(10, 401), 5)):
        ps = primes_in_range(table_x10k, x, 2 * x).tolist()
        for k in range(6):
            p, q, r = rng.sample(ps, 3)
            parent = Triple.from_primes(p, q, r if k % 2 else q)
            target = apply_w(table_x10k, parent)
            if not target.in_a3:
                continue
            got = find_c3_parents(table_x10k, target, x)
            assert got == oracle.find_c3_parents(table_x10k, target, x), (x, target)
            assert parent in got or parent.cls is TripleClass.B3
            if got:
                classes.add(target.cls)
    assert classes == {TripleClass.C3, TripleClass.B3}  # a non-empty answer for each


def test_find_c3_parents_counts_at_x100(table_x300):
    # image of (101, 103, 107) is 7 * 13 * 17 = 1547
    target = apply_w(table_x300, Triple(101, 103, 107))
    assert target.n == 1547
    parents = find_c3_parents(table_x300, target, 100)
    assert Triple(101, 103, 107) in parents
    assert len(parents) == 10


def test_find_c3_parents_target_containing_two(table_x300):
    # images pick up the prime 2 from power-of-two pair sums; the walk
    # for r = 2 degenerates to scanning every parity class
    target = classify(table_x300, 130)  # 2 * 5 * 13
    parents = find_c3_parents(table_x300, target, 100)
    assert parents == oracle.find_c3_parents(table_x300, target, 100)
    assert len(parents) == 2
    cycle_member = classify(table_x300, 98)  # 2 * 7 * 7, on the 20-cycle
    parents = find_c3_parents(table_x300, cycle_member, 100)
    assert parents == [Triple(103, 107, 149)]
    assert apply_w(table_x300, parents[0]).n == 98


def test_find_c3_parents_unreachable_target(table_x300):
    # a target prime above 4x cannot be any P(sum): sums lie in (2x, 4x]
    assert find_c3_parents(table_x300, Triple(2, 3, 401), 100) == []


def test_find_c3_parents_target_with_a_box_prime(table_x300):
    # 53**2 * 47 at x = 31: the single prime 47 is itself a box prime and
    # the sum 2 * 47 has P = 47, which must not pair 47 with itself
    for n, x in [(132023, 31), (907889, 59)]:  # 53*53*47, 101*101*89
        target = classify(table_x300, n)
        assert find_c3_parents(table_x300, target, x) == []
        assert oracle.find_c3_parents(table_x300, target, x) == []


def test_find_c3_parents_rejects_d3_target(table_x300):
    with pytest.raises(ValueError):
        find_c3_parents(table_x300, Triple(5, 5, 5), 100)


def test_find_c3_parents_coverage(table_x300, table_x10k):
    for x in (601, 700):  # the box (x, 2x] past the 1201 table
        with pytest.raises(CoverageError, match=f"limit >= {2 * x}"):
            find_c3_parents(table_x300, Triple(7, 13, 17), x)
    # 4x = 1600 is past the table, but the search reads it only up to 2x
    target = Triple(7, 13, 17)
    assert find_c3_parents(table_x300, target, 400) == find_c3_parents(table_x10k, target, 400)


# targets whose smallest prime is 2, 3, 5 and 7 (P array over about 2x, 4x/3, 4x/5, 4x/7), B3
# targets, and one whose primes all lie in the box (a P array of 3 entries); each is the image of a
# box triple, so it has C3 parents, except 29767 = 17*17*103, which has one B3 parent at x = 100
TARGETS_ON_2X = {
    100: [130, 5457, 1445, 1547, 98, 29767, 3653927],
    300: [410, 7107, 92185, 16583, 151824011],
    1000: [35642, 420897, 4085, 36043, 7014098431],
}


@pytest.mark.parametrize("x", sorted(TARGETS_ON_2X))
def test_find_parents_on_a_table_of_limit_2x(table_x300, table_x10k, x):
    wide = table_x300 if 4 * x <= table_x300.limit else table_x10k
    narrow = build_prime_table(2 * x)
    for n in TARGETS_ON_2X[x]:
        target = classify(wide, n)
        got = find_c3_parents(narrow, target, x)
        assert got == find_c3_parents(wide, target, x) == oracle.find_c3_parents(wide, target, x), n
        assert got or n == 29767
        query = ParentQuery(target=target, x=x, parent_class="any")
        assert find_parents(narrow, query) == find_parents(wide, query), n


def test_find_parents_dispatch(table_x300):
    target = classify(table_x300, 29767)  # 17 * 17 * 103
    both = find_parents(table_x300, ParentQuery(target=target, x=100, parent_class="any"))
    c3 = find_parents(table_x300, ParentQuery(target=target, x=100, parent_class="c3"))
    b3 = find_parents(table_x300, ParentQuery(target=target, x=100, parent_class="b3"))
    assert sorted(c3 + b3) == both
    assert b3 == [Triple(101, 103, 103)]
    for t in b3:
        assert apply_w(table_x300, t).n == target.n


def test_c3_targets_have_no_b3_parents(table_x300):
    # structural: the image of p*q**2 always repeats P(p+q)
    target = classify(table_x300, 1547)
    assert target.cls is TripleClass.C3
    query = ParentQuery(target=target, x=100, parent_class="b3")
    assert find_parents(table_x300, query) == []
    # the oracle's B3 parents p*q**2 with P(p + q) a target prime map to q*r**2, never to the target
    for q in primes_in_range(table_x300, 100, 200).tolist():
        for r in target.primes:
            for p in oracle.find_b3_parents(table_x300, q, r, 100):
                assert apply_w(table_x300, Triple.from_primes(p, q, q)).n == q * r * r != target.n


def test_parent_query_validation(table_x300):
    good = classify(table_x300, 20)
    with pytest.raises(ValueError):
        ParentQuery(target=good, x=1)
    # the searches check x themselves, for callers that pass no query
    with pytest.raises(ValueError, match="x must be >= 2"):
        find_b3_parents(table_x300, 3, 2, 1)
    with pytest.raises(ValueError, match="x must be >= 2"):
        find_c3_parents(table_x300, good, 1)
    with pytest.raises(ValueError):
        ParentQuery(target=Triple(3, 3, 3), x=100)
    with pytest.raises(ValueError):
        ParentQuery(target=good, x=100, parent_class="d3")

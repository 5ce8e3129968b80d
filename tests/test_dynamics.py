"""Classification, w application, orbits, and ind."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdyn import (
    CapExceededError,
    Triple,
    TripleClass,
    apply_w,
    build_prime_table,
    classify,
    ind,
    primes_in_range,
    trajectory,
)


def test_classify_examples(table_10k):
    assert classify(table_10k, 30) == Triple(2, 3, 5)
    assert classify(table_10k, 30).cls is TripleClass.C3
    assert classify(table_10k, 20) == Triple(2, 2, 5)
    assert classify(table_10k, 20).cls is TripleClass.B3
    assert classify(table_10k, 8).cls is TripleClass.D3
    assert classify(table_10k, 12) == Triple(2, 2, 3)  # 2^2 * 3 has three factors
    assert classify(table_10k, 16) is None  # 2^4 has four
    assert classify(table_10k, 7) is None
    assert classify(table_10k, 63).cls is TripleClass.B3


def test_classify_domain_error(table_10k):
    with pytest.raises(ValueError):
        classify(table_10k, 1)


def test_classify_beyond_limit_uses_trial_division(table_10k):
    # 101 * 103 * 107 = 1113121 exceeds the 10^4 table but not its square
    assert classify(table_10k, 101 * 103 * 107) == Triple(101, 103, 107)


def test_apply_w_examples(table_10k):
    assert apply_w(table_10k, Triple(2, 2, 5)) == Triple(2, 7, 7)
    assert apply_w(table_10k, Triple(2, 7, 7)) == Triple(3, 3, 7)
    assert apply_w(table_10k, Triple(3, 3, 7)) == Triple(3, 5, 5)
    assert apply_w(table_10k, Triple(3, 5, 5)) == Triple(2, 2, 5)


def test_apply_w_rejects_outside_a3(table_10k):
    with pytest.raises(ValueError):
        apply_w(table_10k, Triple(2, 2, 2))  # D3
    with pytest.raises(ValueError):
        apply_w(table_10k, None)  # what classify returns off A3


def test_cycle_through_twenty(table_10k):
    t = Triple(2, 2, 5)
    seen = [t.n]
    for _ in range(4):
        t = apply_w(table_10k, t)
        seen.append(t.n)
    assert seen == [20, 98, 63, 75, 20]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_w_symmetric_in_inputs(table_10k, data):
    ps = primes_in_range(table_10k, 1, 500).tolist()
    a = data.draw(st.sampled_from(ps))
    b = data.draw(st.sampled_from(ps))
    c = data.draw(st.sampled_from(ps))
    t = Triple.from_primes(a, b, c)
    if not t.in_a3:
        return
    images = {apply_w(table_10k, Triple.from_primes(*perm)) for perm in itertools.permutations((a, b, c))}
    assert len(images) == 1


def test_trajectory_at_twenty(table_10k):
    traj = trajectory(table_10k, 20, cap=10)
    assert [t.n for t in traj.steps] == [20]
    assert traj.index == 0


def test_trajectory_examples(table_10k):
    traj = trajectory(table_10k, 75, cap=10)
    assert [t.n for t in traj.steps] == [75, 20]
    assert traj.index == 1
    traj = trajectory(table_10k, 98, cap=10)
    assert [t.n for t in traj.steps] == [98, 63, 75, 20]
    assert traj.index == 3


def test_trajectory_steps_are_linked(table_10k):
    traj = trajectory(table_10k, 3 * 5 * 7, cap=50)
    for a, b in zip(traj.steps, traj.steps[1:]):
        assert apply_w(table_10k, a) == b
    assert traj.reached


def test_trajectory_cap_exceeded_is_a_status(table_10k):
    traj = trajectory(table_10k, 98, cap=2)
    assert traj.index is None and traj.cap == 2
    assert [t.n for t in traj.steps] == [98, 63, 75]


def test_trajectory_rejects_non_a3(table_10k):
    with pytest.raises(ValueError):
        trajectory(table_10k, 16)
    with pytest.raises(ValueError):
        trajectory(table_10k, 8)
    with pytest.raises(ValueError):
        trajectory(table_10k, 98, cap=0)


def test_trajectory_json_shapes(table_10k):
    assert trajectory(table_10k, 98, cap=10).to_json_dict() == {
        "start": 98,
        "steps": [98, 63, 75, 20],
        "terminal": {"reached_twenty": 3},
    }
    assert trajectory(table_10k, 98, cap=2).to_json_dict() == {
        "start": 98,
        "steps": [98, 63, 75],
        "terminal": {"cap_exceeded": 2},
    }


def test_ind_examples(table_10k):
    assert ind(table_10k, 20) == 0
    assert ind(table_10k, 75) == 1
    assert ind(table_10k, 98) == 3


def test_ind_cap_exhaustion_names_cap(table_10k):
    with pytest.raises(CapExceededError, match="within cap 2$"):
        ind(table_10k, 98, cap=2)


def test_orbit_factored_past_limit_3_table():
    tiny = build_prime_table(3)
    # 1058 = 2 * 23^2 is far beyond the tiny table; factoring reaches past it
    traj = trajectory(tiny, 1058, cap=100)
    assert traj.reached
    assert traj.steps[0] == Triple(2, 23, 23)


def test_auto_extend_can_be_disabled():
    tiny = build_prime_table(3)
    # the keyword is kept for old callers and no longer changes anything
    fixed = trajectory(tiny, 1058, cap=100, auto_extend=False)
    assert fixed == trajectory(tiny, 1058, cap=100)
    assert fixed.reached and fixed.steps[0] == Triple(2, 23, 23)


def test_closure_on_small_primes(table_10k):
    ps = primes_in_range(table_10k, 1, 100).tolist()
    for a, b, c in itertools.combinations(ps, 3):
        assert apply_w(table_10k, Triple(a, b, c)).in_a3
    for p in ps:
        for q in ps:
            if p != q:
                assert apply_w(table_10k, Triple.from_primes(p, p, q)).in_a3


def test_triple_canonical_order_and_repr():
    t = Triple.from_primes(7, 2, 7)
    assert t == Triple(2, 7, 7)
    assert t.n == 98
    assert t.cls is TripleClass.B3
    assert repr(t) == "Triple(p1=2, p2=7, p3=7)"  # how error messages name a triple

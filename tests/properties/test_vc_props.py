"""Vector clock partial-order laws (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.vc import VectorClock

vecs = st.lists(st.integers(0, 20), min_size=1, max_size=8)


def pair(draw_len=4):
    return st.tuples(
        st.lists(st.integers(0, 20), min_size=draw_len, max_size=draw_len),
        st.lists(st.integers(0, 20), min_size=draw_len, max_size=draw_len),
    )


@given(vecs)
def test_reflexive(entries):
    v = VectorClock(entries)
    assert v <= v
    assert not (v < v)


@given(pair())
def test_antisymmetric(ab):
    a, b = (VectorClock(x) for x in ab)
    if a <= b and b <= a:
        assert a == b


@given(st.tuples(*[st.lists(st.integers(0, 9), min_size=3, max_size=3)] * 3))
def test_transitive(abc):
    a, b, c = (VectorClock(x) for x in abc)
    if a <= b and b <= c:
        assert a <= c


@given(pair())
def test_join_is_least_upper_bound(ab):
    a, b = (VectorClock(x) for x in ab)
    j = a.joined(b)
    assert a <= j and b <= j
    # Any other upper bound dominates the join.
    ub = VectorClock([max(x, y) + 1 for x, y in zip(a, b, strict=True)])
    assert j <= ub


@given(pair())
def test_join_commutative_idempotent(ab):
    a, b = (VectorClock(x) for x in ab)
    assert a.joined(b) == b.joined(a)
    assert a.joined(a) == a


@given(pair())
def test_exactly_one_relation(ab):
    a, b = (VectorClock(x) for x in ab)
    relations = [a == b, a < b, b < a, a.concurrent_with(b)]
    assert sum(relations) == 1


@given(vecs, st.data())
def test_tick_strictly_increases(entries, data):
    v = VectorClock(entries)
    old = v.copy()
    pid = data.draw(st.integers(0, len(entries) - 1))
    v.tick(pid)
    assert old < v


@given(st.tuples(*[st.lists(st.integers(0, 9), min_size=3, max_size=3)] * 3))
def test_join_associative(abc):
    a, b, c = (VectorClock(x) for x in abc)
    assert a.joined(b).joined(c) == a.joined(b.joined(c))


@given(pair())
def test_concurrency_is_symmetric_and_irreflexive(ab):
    a, b = (VectorClock(x) for x in ab)
    assert a.concurrent_with(b) == b.concurrent_with(a)
    assert not a.concurrent_with(a)


@given(pair())
def test_join_dominates_iff_comparable(ab):
    """The merge adds no information when one side already dominates:
    a <= b  iff  join(a, b) == b."""
    a, b = (VectorClock(x) for x in ab)
    assert (a <= b) == (a.joined(b) == b)

"""Unit tests for the event calendar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import EventQueue

#: a ``now`` past every event a test pushes: ``pop_due(FOREVER)`` pops the
#: earliest pending event, whatever its time
FOREVER = 2**62


def collect(queue):
    out = []
    while True:
        ev = queue.pop_due(FOREVER)
        if ev is None:
            return out
        out.append(ev)


def pending(queue):
    """Number of live (uncancelled) events still queued."""
    return len(queue.snapshot())


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        for t in (30, 10, 20):
            q.push(t, lambda now, p: fired.append(now))
        assert [ev.time for ev in collect(q)] == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        a = q.push(5, lambda now, p: None, payload="a")
        b = q.push(5, lambda now, p: None, payload="b")
        events = collect(q)
        assert [ev.payload for ev in events] == ["a", "b"]
        assert a.seq < b.seq

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
    def test_always_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda now, p: None)
        popped = [ev.time for ev in collect(q)]
        assert popped == sorted(times)


class TestCancel:
    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        keep = q.push(10, lambda now, p: None, payload="keep")
        drop = q.push(5, lambda now, p: None, payload="drop")
        drop.cancel()
        assert q.pop_due(FOREVER) is keep

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        ev = q.push(1, lambda now, p: None)
        q.push(2, lambda now, p: None)
        assert pending(q) == 2
        ev.cancel()
        assert pending(q) == 1

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1, lambda now, p: None)
        q.push(7, lambda now, p: None)
        ev.cancel()
        assert q.peek_time() == 7


class TestPopDue:
    def test_pop_due_respects_now(self):
        q = EventQueue()
        q.push(10, lambda now, p: None)
        assert q.pop_due(9) is None
        assert q.pop_due(10) is not None
        assert q.pop_due(10) is None

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop_due(FOREVER) is None
        assert q.peek_time() is None
        assert q.pop_due(100) is None
        assert pending(q) == 0


class TestValidation:
    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1, lambda now, p: None)


class TestTombstones:
    """Lazy cancellation must not leak: tombstones are counted once and
    the heap compacts."""

    def test_len_is_live_counter_not_scan(self):
        q = EventQueue()
        handles = [q.push(t, lambda now, p: None) for t in range(100)]
        for h in handles[::2]:
            h.cancel()
        assert pending(q) == 50
        # cancelling twice is idempotent and does not double-count
        handles[0].cancel()
        assert pending(q) == 50
        assert q._dead == 50

    def test_heap_compacts_under_heavy_cancellation(self):
        q = EventQueue()
        handles = [q.push(t, lambda now, p: None) for t in range(1000)]
        for h in handles[:900]:
            h.cancel()
        # >50% of entries were tombstones; compaction must have dropped them
        assert pending(q) == 100
        assert len(q._heap) < 500
        # and the surviving events still pop in time order
        assert [ev.time for ev in collect(q)] == list(range(900, 1000))

    def test_compaction_preserves_tie_order(self):
        q = EventQueue()
        doomed = [q.push(1, lambda now, p: None) for _ in range(200)]
        keep = [q.push(5, lambda now, p: None, payload=i) for i in range(3)]
        for h in doomed:
            h.cancel()
        assert [ev.payload for ev in collect(q)] == [0, 1, 2]
        assert keep[0].seq < keep[1].seq < keep[2].seq

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        ev = q.push(3, lambda now, p: None)
        assert q.pop_due(FOREVER) is ev
        ev.cancel()  # already delivered: must not corrupt the tombstone count
        assert pending(q) == 0
        assert q._dead == 0
        assert q.pop_due(FOREVER) is None


class TestPeekPopDueSemantics:
    """Regression pins for the scheduler-facing calendar API."""

    def test_peek_time_does_not_consume(self):
        q = EventQueue()
        q.push(4, lambda now, p: None)
        assert q.peek_time() == 4
        assert q.peek_time() == 4
        assert pending(q) == 1

    def test_pop_due_skips_cancelled_due_events(self):
        q = EventQueue()
        a = q.push(1, lambda now, p: None)
        b = q.push(2, lambda now, p: None, payload="b")
        a.cancel()
        got = q.pop_due(5)
        assert got is b
        assert q.pop_due(5) is None

    def test_pop_due_drains_in_order_at_same_now(self):
        q = EventQueue()
        q.push(3, lambda now, p: None, payload="x")
        q.push(1, lambda now, p: None, payload="y")
        q.push(2, lambda now, p: None, payload="z")
        drained = []
        ev = q.pop_due(3)
        while ev is not None:
            drained.append(ev.payload)
            ev = q.pop_due(3)
        assert drained == ["y", "z", "x"]

    def test_pop_due_leaves_future_events(self):
        q = EventQueue()
        q.push(10, lambda now, p: None)
        q.push(20, lambda now, p: None)
        assert q.pop_due(10).time == 10
        assert q.pop_due(10) is None
        assert q.peek_time() == 20
        assert pending(q) == 1

    def test_payload_rides_the_event(self):
        q = EventQueue()
        q.push(1, lambda now, p: None, payload={"k": 1})
        assert q.pop_due(FOREVER).payload == {"k": 1}

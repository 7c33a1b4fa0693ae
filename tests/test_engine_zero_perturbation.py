"""Zero-perturbation pin: the calendar engine changes nothing observable.

Two layers of evidence:

* Every quick-profile experiment table must hash byte-identically to
  the goldens in ``tests/data/quick_suite_tables.sha256.json``, which
  were captured from the pristine ``heapq`` engine at the parent
  commit.  A deviation in any digit of any of the 21 tables fails here.
  (The ``keepalive`` table, added with the policy lab, is pinned the
  same way so later policy work cannot silently shift its curves.)
* ``Environment`` edge-case semantics (``peek`` on an empty queue,
  ``run(until=...)`` with a past deadline, event limits, draining,
  mid-gap deadlines) keep the exceptions and messages they had on the
  heap engine, and the calendar queue's head/pop edges match the
  ``heapq`` oracle in ``tests/heap_oracle.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import load_all, registry
from repro.sim import Environment, SimulationError
from repro.sim.calendar import CalendarQueue
from tests.heap_oracle import HeapQueue

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "quick_suite_tables.sha256.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

load_all()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN["tables"]))
def test_quick_table_matches_heap_golden(experiment_id):
    """Rendered table text is byte-identical to the heap-engine capture."""
    spec = registry.get(experiment_id)
    result = spec.run(profile="quick")
    digest = hashlib.sha256(result.to_text().encode()).hexdigest()
    assert digest == GOLDEN["tables"][experiment_id], (
        f"{experiment_id}: quick-profile table deviates from the "
        f"heap-engine golden ({GOLDEN['engine']}); the event engine "
        f"perturbed experiment output"
    )


def test_goldens_cover_all_preexisting_experiments():
    """Every golden id is still registered (none silently dropped)."""
    registered = set(registry.ids())
    missing = set(GOLDEN["tables"]) - registered
    assert not missing, f"golden experiments no longer registered: {missing}"


#: The engine's calendar queue and the heap oracle, for queue-level
#: edge checks both must pass.
QUEUES = pytest.mark.parametrize(
    "queue_cls", [CalendarQueue, HeapQueue], ids=["calendar", "heap"]
)


class TestEdgeSemanticsAcrossBackends:
    """Edge semantics once pinned identical on the calendar and heap
    engines.  The engine now owns one calendar queue: the engine-level
    behaviour is pinned on it, and the queue-level edge underneath is
    checked on both the calendar queue and the heap oracle."""

    @QUEUES
    def test_peek_empty_queue_is_inf(self, queue_cls):
        assert queue_cls().head() is None
        assert Environment().peek() == float("inf")

    @QUEUES
    def test_step_empty_queue_raises(self, queue_cls):
        with pytest.raises(IndexError):
            queue_cls().pop()
        env = Environment()
        with pytest.raises(SimulationError, match="event queue is empty"):
            env.step()

    def test_run_until_past_deadline_raises_value_error(self):
        env = Environment(initial_time=100.0)
        with pytest.raises(ValueError) as excinfo:
            env.run(until=99.5)
        assert str(excinfo.value) == "until=99.5 is in the past (now=100.0)"

    @QUEUES
    def test_run_until_now_is_a_noop(self, queue_cls):
        queue = queue_cls()
        queue.push((105.0, 1, 1, None), 100.0)
        assert queue.head()[0] > 100.0  # nothing due at the deadline
        env = Environment(initial_time=100.0)
        env.timeout(5.0)
        env.run(until=100.0)
        assert env.now == 100.0
        assert env.events_processed == 0

    def test_event_limit_message_identical(self):
        env = Environment()

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        with pytest.raises(SimulationError) as excinfo:
            env.run(limit=10)
        assert str(excinfo.value) == "event limit of 10 reached at t=9.0"

    def test_run_until_event_with_empty_queue_raises(self):
        env = Environment()
        target = env.event()
        with pytest.raises(
            SimulationError, match="event queue empty before target event"
        ):
            env.run(until=target)

    def test_run_until_mid_gap_deadline_advances_clock(self):
        env = Environment()
        fired = []
        t = env.timeout(10.0)
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=4.5)
        assert env.now == 4.5
        assert fired == []
        env.run(until=20.0)
        assert fired == [10.0]
        assert env.now == 20.0

    def test_peek_then_pop_order_preserved(self):
        """peek() must not disturb pop order (calendar head() rotates)."""
        env = Environment()
        fired = []
        for delay in (3.0, 1.0, 2.0, 1.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        assert env.peek() == 1.0
        env.step()
        assert env.peek() == 1.0
        env.run()
        assert fired == [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_drain_run_returns_none_and_counts_events(self):
        env = Environment()
        for delay in (1.0, 2.0, 3.0):
            env.timeout(delay)
        assert env.run() is None
        assert env.events_processed == 3
        assert env.peek() == float("inf")

    def test_queue_edges_match_heap_oracle(self):
        """Empty head/pop and head-before-pop on the calendar queue behave
        like the heap oracle, including same-time ties and delay-0
        entries pushed after the clock moved."""
        queues = [CalendarQueue(), HeapQueue()]
        for q in queues:
            assert q.head() is None
            with pytest.raises(IndexError):
                q.pop()
        entries = [(3.0, 1, 1, "c"), (1.0, 1, 2, "a"), (2.0, 1, 3, "b"),
                   (1.0, 1, 4, "a2")]
        for q in queues:
            for entry in entries:
                q.push(entry, 0.0)
        calendar, heap = queues
        assert calendar.head() is heap.head()
        assert calendar.pop() is heap.pop()
        assert calendar.head() is heap.head()
        late = (1.0, 1, 5, "now")
        for q in queues:
            q.push(late, 1.0)
        popped = []
        while heap:
            assert calendar.head() is heap.head()
            popped.append(heap.pop())
            assert calendar.pop() is popped[-1]
        assert [entry[3] for entry in popped] == ["a2", "now", "b", "c"]
        assert calendar.head() is None

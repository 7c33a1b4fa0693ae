"""Randomized model tests: calendar queue vs the ``heapq`` oracle.

The calendar queue must reproduce the heap's pop order *exactly* —
same ``(time, priority, eid)`` total order, same object identity —
under adversarial schedules: same-tick bursts, URGENT/NORMAL mixes,
exponential near-future traffic, far-future outliers that land in the
overflow heap, and population swings that force resizes and rebases.
The oracles (``heapq`` itself, :class:`tests.heap_oracle.HeapQueue` and
the :class:`tests.heap_oracle.HeapEngine` reference engine) live under
``tests/``; the engine runs on the calendar queue alone.  Every test is
seeded; failures reproduce deterministically.  The engine's edge
semantics (empty peek/step, past deadlines, event limits, draining)
are pinned here too, with the queue-level edges checked on both the
calendar queue and the heap oracle.
"""

import gc
import heapq
import random

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.calendar import GROW_FACTOR, MIN_BUCKETS, CalendarQueue
from tests.heap_oracle import HeapEngine, HeapQueue

SEEDS = [1, 7, 42, 1337, 0xF1EE7]


def _push_random(rng, ref, q, now, eid):
    """Push one entry drawn from the adversarial time mix into both."""
    roll = rng.random()
    if roll < 0.25:
        # Delay-0 burst, priorities 0/1 mixed: priority-0 entries at the
        # current instant take the near heap, priority-1 the FIFO.
        t, p = now, (0 if rng.random() < 0.5 else 1)
    elif roll < 0.55:
        t, p = now, 1
    elif roll < 0.90:
        t, p = now + rng.expovariate(1.0), 1
    else:
        # Far-future outlier: lands in the overflow heap.
        t, p = now + rng.uniform(50.0, 50_000.0), 1
    entry = (t, p, eid, None)
    heapq.heappush(ref, entry)
    q.push(entry, now)
    return entry


class TestModelVsHeapOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_ops_pop_identical_order(self, seed):
        rng = random.Random(seed)
        ref = []
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        now = 0.0
        eid = 0
        pops = 0
        for _ in range(30_000):
            roll = rng.random()
            if roll < 0.52 or not ref:
                eid += 1
                _push_random(rng, ref, q, now, eid)
            elif roll < 0.60:
                assert q.head() is ref[0]
                assert len(q) == len(ref)
            else:
                a = heapq.heappop(ref)
                b = q.pop()
                assert a is b
                now = a[0]
                pops += 1
        while ref:
            assert heapq.heappop(ref) is q.pop()
        assert len(q) == 0
        assert q.head() is None
        assert pops > 1_000  # the mix actually exercised pops

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_population_swings_force_resize(self, seed):
        """Grow to tens of thousands live, drain to near-zero, regrow.

        Crossing ``GROW_FACTOR * nbuckets`` pending entries triggers the
        occupancy resize; draining across calendar years exercises
        rebase and the overflow deal-in.  Order must never deviate.
        """
        rng = random.Random(seed)
        ref = []
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        now = 0.0
        eid = 0
        grew = False
        for phase, (n_push, n_pop) in enumerate(
            [(20_000, 19_900), (40_000, 39_990), (5_000, 5_110)]
        ):
            for _ in range(n_push):
                eid += 1
                _push_random(rng, ref, q, now, eid)
            if q.stats["nbuckets"] > MIN_BUCKETS:
                grew = True
            for _ in range(n_pop):
                if not ref:
                    break
                a = heapq.heappop(ref)
                assert a is q.pop()
                now = a[0]
        while ref:
            assert heapq.heappop(ref) is q.pop()
        assert grew, "test never crossed the resize threshold"

    def test_far_future_gap_jumps_idle_years(self):
        """A lone outlier far past the horizon pops without spinning.

        With width 0.5 and 256 buckets, t=1e9 is ~7.8M calendar years
        ahead; the rebase must jump straight to it rather than rotate
        through empty spans.
        """
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        near = (1.0, 1, 1, "near")
        far = (1e9, 1, 2, "far")
        q.push(near, 0.0)
        q.push(far, 0.0)
        assert q.pop() is near
        assert q.pop() is far
        assert len(q) == 0

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_push_sorted_matches_sequential_push(self, seed):
        rng = random.Random(seed)
        now = 13.25
        times = sorted(
            now + (0.0 if rng.random() < 0.2 else rng.expovariate(0.01))
            for _ in range(5_000)
        )
        entries = [(t, 1, eid, None) for eid, t in enumerate(times)]
        bulk = CalendarQueue(start=now, width=0.5, nbuckets=MIN_BUCKETS)
        seq = CalendarQueue(start=now, width=0.5, nbuckets=MIN_BUCKETS)
        oracle = list(entries)
        heapq.heapify(oracle)
        bulk.push_sorted(entries, now)
        for entry in entries:
            seq.push(entry, now)
        assert len(bulk) == len(seq) == len(entries)
        while oracle:
            want = heapq.heappop(oracle)
            assert bulk.pop() is want
            assert seq.pop() is want

    def test_push_sorted_rejects_nothing_but_preserves_empty(self):
        q = CalendarQueue()
        q.push_sorted([], 0.0)
        assert len(q) == 0
        assert q.head() is None

    def test_pop_empty_raises_index_error(self):
        q = CalendarQueue()
        with pytest.raises(IndexError):
            q.pop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CalendarQueue(width=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(nbuckets=0)

    def test_heap_backend_is_a_faithful_oracle(self):
        """HeapQueue (tests/heap_oracle.py) is plain heapq semantics."""
        q = HeapQueue()
        entries = [(3.0, 1, 2, None), (1.0, 1, 1, None), (2.0, 0, 3, None)]
        for entry in entries:
            q.push(entry, 0.0)
        assert q.head() == (1.0, 1, 1, None)
        assert [q.pop() for _ in range(3)] == sorted(entries)
        assert q.head() is None
        assert not q

    def test_stats_snapshot_accounts_for_all_regions(self):
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        q.push((0.0, 0, 1, None), 0.0)   # near (priority 0 at now)
        q.push((0.0, 1, 2, None), 0.0)   # immediate
        q.push((0.25, 1, 3, None), 0.0)  # near (inside active bucket)
        q.push((10.0, 1, 4, None), 0.0)  # calendar bucket
        q.push((1e9, 1, 5, None), 0.0)   # overflow
        stats = q.stats
        assert stats["size"] == len(q) == 5
        assert stats["immediate"] == 1
        assert stats["near"] == 2
        assert stats["overflow"] == 1

    def test_entry_on_active_bucket_edge_keeps_eid_order(self):
        """A push landing exactly on the active bucket's end must not
        overtake an earlier entry of the same time in the next bucket."""
        q = CalendarQueue(start=0.0, width=1.0, nbuckets=MIN_BUCKETS)
        oracle = HeapQueue()
        first = (2.0, 1, 1, "first")   # pushed early: bucket 2
        for entry, now in [(first, 0.0), ((1.5, 1, 2, "b"), 0.0)]:
            q.push(entry, now)
            oracle.push(entry, now)
        assert q.pop() is oracle.pop()  # clock 1.5, bucket 1 active
        late = (2.0, 1, 3, "late")      # same time, later eid
        q.push(late, 1.5)
        oracle.push(late, 1.5)
        assert [q.pop(), q.pop()] == [oracle.pop(), oracle.pop()]
        assert not q

    def test_resize_during_head_keeps_delay_zero_fifo(self):
        """A resize that ``head()`` triggers while the clock lags the
        calendar must not put future entries in the delay-0 FIFO."""
        q = CalendarQueue(start=0.0, width=1.0, nbuckets=MIN_BUCKETS)
        oracle = HeapQueue()

        def push(entry, now):
            q.push(entry, now)
            oracle.push(entry, now)

        def pop():
            entry = oracle.pop()
            assert q.pop() is entry
            return entry[0]

        push((0.5, 1, 1, None), 0.0)
        push((255.0, 1, 2, None), 0.0)
        pop()
        now = pop()  # walked 254 empty buckets
        push((300.0, 1, 3, None), now)
        push((511.0, 1, 4, None), now)
        now = pop()
        # Walking to t=511 crosses the scan threshold and resizes.
        assert q.head() is oracle.head()
        push((now, 1, 5, None), now)
        assert [pop(), pop()] == [300.0, 511.0]
        assert not q

    @pytest.mark.parametrize("seed", SEEDS)
    def test_push_sorted_and_pop_sequences_match_heap_oracle(self, seed):
        """Random singles, ``push_sorted`` batches and pops interleaved:
        the calendar queue and HeapQueue pop the identical sequence.

        Times sit on a coarse grid so ties and bucket-edge times are
        common; a final large batch forces a resize mid-drain.
        """
        rng = random.Random(seed)
        q = CalendarQueue(start=0.0, width=1.0, nbuckets=MIN_BUCKETS)
        oracle = HeapQueue()
        now = 0.0
        eid = 0

        def push_batch(size):
            nonlocal eid
            batch = []
            for t in sorted(
                now + rng.randrange(0, 4_000) * 0.25 for _ in range(size)
            ):
                eid += 1
                batch.append((t, 1, eid, None))
            q.push_sorted(batch, now)
            oracle.push_sorted(batch, now)

        def pop_one():
            nonlocal now
            if rng.random() < 0.1:
                assert q.head() is oracle.head()
            popped = oracle.pop()
            assert q.pop() is popped
            now = popped[0]

        for _ in range(4_000):
            roll = rng.random()
            if roll < 0.45:
                eid += 1
                if rng.random() < 0.3:
                    entry = (now, 1, eid, None)
                else:
                    entry = (now + rng.randrange(1, 40) * 0.25, 1, eid, None)
                q.push(entry, now)
                oracle.push(entry, now)
            elif roll < 0.50:
                push_batch(rng.randrange(1, 60))
            elif oracle:
                pop_one()
            assert len(q) == len(oracle)
        push_batch(GROW_FACTOR * MIN_BUCKETS * 3)
        assert q.stats["nbuckets"] > MIN_BUCKETS
        while oracle:
            pop_one()
        assert not q


class TestEnvironmentBackendEquivalence:
    """The same seeded workload on the calendar engine and on
    :class:`tests.heap_oracle.HeapEngine`, a heap-ordered reference
    engine with the same scheduling rules."""

    @staticmethod
    def _workload(env, rng, log):
        def worker(wid):
            for i in range(rng.randint(3, 9)):
                yield env.timeout(rng.expovariate(0.1))
                log.append((env.now, wid, i))
                if rng.random() < 0.3:
                    yield env.timeout(0.0)

        def spawner():
            for wid in range(200):
                env.process(worker(wid))
                yield env.timeout(rng.expovariate(1.0))

        env.process(spawner())
        env.run()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_events_processed_and_trace_identical(self, seed):
        logs = {}
        envs = {"calendar": Environment(), "heap": HeapEngine()}
        for backend, env in envs.items():
            log = []
            self._workload(env, random.Random(seed), log)
            logs[backend] = log
        assert logs["calendar"] == logs["heap"]
        assert len(logs["calendar"]) > 1_000
        assert (
            envs["calendar"].events_processed
            == envs["heap"].events_processed
        )
        assert envs["calendar"].now == envs["heap"].now

    def test_environment_has_one_queue(self):
        """The engine owns its calendar queue; there is no backend knob."""
        env = Environment()
        assert isinstance(env._pending, CalendarQueue)
        with pytest.raises(TypeError):
            Environment(queue="heap")


#: The engine's calendar queue and the heap oracle, for queue-level
#: checks both must pass.
QUEUES = pytest.mark.parametrize(
    "queue_cls", [CalendarQueue, HeapQueue], ids=["calendar", "heap"]
)


class TestBatchScheduling:
    @QUEUES
    def test_timeout_batch_equals_sequential_timeouts(self, queue_cls):
        delays = [0.0, 0.0, 0.5, 0.5, 1.25, 7.0, 7.0, 9_999.0]
        # Queue level: one batch of entries, bulk or one by one, pops
        # in the same order.
        entries = [(d, 1, eid, None) for eid, d in enumerate(delays, 1)]
        bulk, single = queue_cls(), queue_cls()
        bulk.push_sorted(entries, 0.0)
        for entry in entries:
            single.push(entry, 0.0)
        assert [bulk.pop() for _ in delays] == entries
        assert [single.pop() for _ in delays] == entries
        # Engine level: timeout_batch equals sequential timeouts.
        batch_env = Environment()
        seq_env = Environment()
        batch_log, seq_log = [], []
        timeouts = batch_env.timeout_batch(delays, value="v")
        for i, timeout in enumerate(timeouts):
            timeout.callbacks.append(
                lambda ev, i=i: batch_log.append((batch_env.now, i, ev.value))
            )
        seq_timeouts = [seq_env.timeout(d, value="v") for d in delays]
        for i, timeout in enumerate(seq_timeouts):
            timeout.callbacks.append(
                lambda ev, i=i: seq_log.append((seq_env.now, i, ev.value))
            )
        batch_env.run()
        seq_env.run()
        assert batch_log == seq_log
        assert batch_env.events_processed == seq_env.events_processed
        assert batch_env.now == seq_env.now == 9_999.0
        assert all(t.delay == d for t, d in zip(timeouts, delays))

    def test_timeout_batch_validation(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout_batch([-1.0])
        with pytest.raises(ValueError, match="ascending"):
            env.timeout_batch([5.0, 1.0])

    def test_timeout_batch_interleaves_with_singles_by_insertion_id(self):
        """Batch entries tie-break against singles exactly by creation order."""
        log = []
        for batched in (False, True):
            env = Environment()
            order = []
            a = env.timeout(1.0, value="a")
            if batched:
                b, c = env.timeout_batch([1.0, 1.0], value="bc")
            else:
                b, c = env.timeout(1.0, value="bc"), env.timeout(1.0, value="bc")
            d = env.timeout(1.0, value="d")
            for name, t in [("a", a), ("b", b), ("c", c), ("d", d)]:
                t.callbacks.append(lambda ev, name=name: order.append(name))
            env.run()
            log.append(order)
        assert log[0] == log[1] == ["a", "b", "c", "d"]

    @QUEUES
    def test_schedule_batch_fires_pretriggered_events(self, queue_cls):
        # Queue level: a pre-sorted batch landing on a non-empty queue
        # merges with it in (time, priority, eid) order.
        queue = queue_cls()
        early, late = (1.0, 1, 1, "early"), (9.0, 1, 2, "late")
        queue.push(early, 0.0)
        queue.push(late, 0.0)
        batch = [(2.0, 1, 3, "x"), (2.0, 1, 4, "y"), (5.0, 1, 5, "z")]
        queue.push_sorted(batch, 0.0)
        assert [queue.pop() for _ in range(5)] == [early, *batch, late]
        # Engine level: schedule_batch fires pre-triggered events as-is.
        env = Environment()
        events = []
        for value in ("x", "y", "z"):
            event = env.event()
            event._ok = True
            event._value = value
            events.append(event)
        fired = []
        for event in events:
            event.callbacks.append(
                lambda ev: fired.append((env.now, ev.value))
            )
        env.schedule_batch(zip([2.0, 2.0, 5.0], events))
        env.run()
        assert fired == [(2.0, "x"), (2.0, "y"), (5.0, "z")]
        assert all(e.processed for e in events)

    def test_schedule_batch_validation(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError, match="ascending"):
            env.schedule_batch([(5.0, env.event())])  # in the past
        with pytest.raises(ValueError, match="ascending"):
            env.schedule_batch(
                [(20.0, env.event()), (15.0, env.event())]
            )

    def test_batch_growth_triggers_calendar_resize(self):
        """A single bulk insert past the occupancy bound resizes too."""
        env = Environment()
        n = GROW_FACTOR * MIN_BUCKETS * 4
        delays = [float(i) for i in range(n)]
        env.timeout_batch(delays)
        assert env._pending.stats["nbuckets"] > MIN_BUCKETS
        env.run()
        assert env.now == float(n - 1)
        assert env.events_processed == n


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


class TestDrainedQueueReleasesEntries:
    """Popped entries must not outlive a drained queue: each holds its
    event, and an event holds the environment that owns the queue."""

    @pytest.mark.parametrize("drain", ["pop", "head"])
    def test_drained_queue_holds_no_entries(self, drain):
        queue = CalendarQueue()
        for eid, when in enumerate([5.0, 5.5, 6.0, 300.0], 1):
            queue.push((when, 1, eid, object()), 0.0)
        while queue:
            queue.pop()
        if drain == "pop":
            with pytest.raises(IndexError):
                queue.pop()
        else:
            assert queue.head() is None
        assert not any(queue._buckets)

    @pytest.mark.parametrize("until", [None, 1_000.0])
    def test_exhausted_environment_is_not_cyclic_garbage(self, until):
        def ticker(env):
            for _ in range(50):
                yield env.timeout(1.0)

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            env = Environment()
            env.process(ticker(env))
            env.run(until=until)
            del env
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == 0

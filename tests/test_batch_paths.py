"""Batched scheduling paths: replay, open-loop trials, the fleet driver.

These tests pin (a) that the batched and per-event forms produce
identical client-visible outcomes, and (b) that batching actually
removes engine events rather than adding them.
"""

import pytest

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.sim import Environment, SimulationError, Store
from repro.workload.functions import cpu_bound_function
from repro.workload.generator import run_open_loop_trial
from repro.workload.traces import (
    PoissonArrivals,
    ZipfPopularity,
    synthesize_trace,
    replay_trace,
)


def _cluster():
    return FaasCluster.with_seuss_node(Environment())


def _functions(count=8, exec_ms=5.0):
    return [
        cpu_bound_function(f"f{index}", exec_ms=exec_ms)
        for index in range(count)
    ]


def _trace(fns, count=400):
    return synthesize_trace(
        fns,
        PoissonArrivals(200.0, seed=3),
        ZipfPopularity(len(fns), seed=4),
        count,
    )


def _outcome_key(results):
    return sorted(
        (r.function_key, round(r.sent_at_ms, 9), round(r.finished_at_ms, 9), r.success)
        for r in results
    )


class TestBatchedReplay:
    def test_outcomes_identical_to_legacy(self):
        legacy_cluster = _cluster()
        results_legacy = replay_trace(
            legacy_cluster, _trace(_functions())
        )
        batched_cluster = _cluster()
        results_batched = replay_trace(
            batched_cluster, _trace(_functions()), batched=True, epoch_size=64
        )
        assert _outcome_key(results_legacy) == _outcome_key(results_batched)
        # The batched path must save events, not add them.
        assert (
            batched_cluster.env.events_processed
            < legacy_cluster.env.events_processed
        )

    def test_single_epoch_and_tiny_epochs_agree(self):
        whole = replay_trace(
            _cluster(), _trace(_functions(), count=120),
            batched=True, epoch_size=10_000,
        )
        tiny = replay_trace(
            _cluster(), _trace(_functions(), count=120),
            batched=True, epoch_size=7,
        )
        assert _outcome_key(whole) == _outcome_key(tiny)

    def test_empty_trace(self):
        assert replay_trace(_cluster(), [], batched=True) == []

    def test_bad_epoch_size(self):
        with pytest.raises(ConfigError, match="epoch_size"):
            replay_trace(_cluster(), _trace(_functions(), 10),
                         batched=True, epoch_size=0)


class _Boom(RuntimeError):
    pass


class _ExplodingCluster:
    """Cluster stand-in whose marked invocations fail as processes.

    Client-visible failures (``success=False`` results) never raise;
    this models the *engine-level* failure mode — an exception escaping
    an invocation process — which the serial replay path propagates out
    of ``env.run``.
    """

    def __init__(self):
        self.env = Environment()

    def invoke(self, fn):
        def run():
            yield self.env.timeout(1.0)
            if fn.name.endswith("boom"):
                raise _Boom(fn.name)
            return fn.name

        return self.env.process(run())


class TestBatchedReplayFailureParity:
    """A failing invocation process must escape both replay paths
    identically.  Regression: the batched collector once appended
    ``process.value`` unconditionally — for a failed process that is
    the *exception object*, and when the failure landed on the final
    entry the replay declared itself complete with the exception
    sitting in the results list."""

    def _trace(self, boom_at, count=5):
        fns = _functions(count)
        entries = synthesize_trace(
            fns,
            PoissonArrivals(100.0, seed=2),
            ZipfPopularity(count, seed=2),
            count,
        )
        from dataclasses import replace

        boom = replace(
            entries[boom_at].function, name=f"{boom_at}boom"
        )
        entries[boom_at] = type(entries[boom_at])(
            at_ms=entries[boom_at].at_ms, function=boom
        )
        return entries

    def test_legacy_and_batched_raise_identically(self):
        trace = self._trace(boom_at=2)
        with pytest.raises(_Boom) as legacy:
            replay_trace(_ExplodingCluster(), trace)
        with pytest.raises(_Boom) as batched:
            replay_trace(
                _ExplodingCluster(), trace, batched=True, epoch_size=2
            )
        assert str(batched.value) == str(legacy.value)

    def test_failure_on_final_entry_still_raises(self):
        # The exact shape of the old bug: last entry fails, collector
        # counts it as the completing result, replay "succeeds".
        trace = self._trace(boom_at=4)
        with pytest.raises(_Boom):
            replay_trace(
                _ExplodingCluster(), trace, batched=True, epoch_size=64
            )


class TestChaosReplayEquivalence:
    def test_faulty_cluster_outcomes_identical(self):
        """Under fault injection (crashes, corrupt restores, retries)
        the batched replay sees the exact client-visible outcomes of
        the serial replay — including failed requests."""
        from repro.faas.controller import RetryPolicy
        from repro.faults import FaultPlan

        plan = FaultPlan(
            node_crash_p=0.02,
            snapshot_corrupt_restore_p=0.05,
            seed=0xC0A5,
        )

        def run(batched):
            cluster = FaasCluster.with_seuss_node(
                Environment(),
                faults=plan,
                retries=RetryPolicy(max_attempts=2),
            )
            return replay_trace(
                cluster,
                _trace(_functions(), count=300),
                batched=batched,
                epoch_size=64,
            )

        legacy = run(False)
        batched = run(True)
        assert len(legacy) == len(batched) == 300
        assert _outcome_key(legacy) == _outcome_key(batched)


class TestOpenLoopTrial:
    def test_completes_all_invocations(self):
        cluster = _cluster()
        trial = run_open_loop_trial(
            cluster, _functions(), invocation_count=300,
            rate_per_s=300.0, epoch_size=97,
        )
        assert len(trial.results) == 300
        assert trial.error_rate == 0.0
        assert trial.function_set_size == 8
        # Arrivals are open-loop: sends do not wait for completions, so
        # the send timeline is the Poisson one (~1 s for 300 @ 300/s).
        sent = [r.sent_at_ms for r in trial.results]
        assert max(sent) - min(sent) < 3_000.0

    def test_deterministic_across_epoch_sizes(self):
        a = run_open_loop_trial(
            _cluster(), _functions(), 150, rate_per_s=500.0, epoch_size=11
        )
        b = run_open_loop_trial(
            _cluster(), _functions(), 150, rate_per_s=500.0, epoch_size=150
        )
        assert _outcome_key(a.results) == _outcome_key(b.results)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_open_loop_trial(_cluster(), [], 10, rate_per_s=10.0)
        with pytest.raises(ConfigError):
            run_open_loop_trial(_cluster(), _functions(), 10, rate_per_s=0.0)
        with pytest.raises(ConfigError):
            run_open_loop_trial(
                _cluster(), _functions(), 10, rate_per_s=10.0, epoch_size=0
            )


class TestFleetDrivers:
    def _workload(self, arrivals=3_000):
        from repro.workload.fleet import FleetConfig, generate

        return generate(FleetConfig(arrivals=arrivals, epoch_size=1_000))

    def test_drivers_observe_identical_workload(self):
        """The batched driver observes exactly the workload vectors:
        per-function counts, makespan and one completion per arrival."""
        from repro.workload.fleet import run_batched

        workload = self._workload()
        batched = run_batched(workload)
        expected_counts = [0] * workload.config.functions
        for index in workload.function_indices:
            expected_counts[index] += 1
        assert batched.function_counts == expected_counts
        assert batched.final_ms == pytest.approx(
            max(
                t + s
                for t, s in zip(
                    workload.arrival_times_ms, workload.service_times_ms
                )
            ),
            rel=1e-12,
        )
        assert batched.completions == batched.arrivals == 3_000
        # Two engine events per arrival (arrival + completion tick),
        # plus the driver process's start and end.
        assert batched.engine_events == 2 * 3_000 + 2

    def test_batched_same_on_both_backends(self):
        """The batched driver's schedule, replayed at the queue level,
        pops identically from the calendar queue and the heap oracle,
        and the engine's run of it agrees with that replay."""
        from repro.sim import Environment
        from repro.sim.calendar import CalendarQueue
        from repro.workload.fleet import run_batched
        from tests.heap_oracle import HeapQueue

        workload = self._workload(1_500)
        config = workload.config
        times = workload.arrival_times_ms
        services = workload.service_times_ms
        calendar, heap = CalendarQueue(), HeapQueue()
        now, eid, pops = 0.0, 0, 0
        for start in range(0, config.arrivals, config.epoch_size):
            end = min(start + config.epoch_size, config.arrivals)
            chunk = times[start:end]
            finish_deltas = sorted(
                t + s - now for t, s in zip(chunk, services[start:end])
            )
            for deltas in ([t - now for t in chunk], finish_deltas):
                batch = []
                for delay in deltas:
                    eid += 1
                    batch.append((now + delay, 1, eid, None))
                calendar.push_sorted(batch, now)
                heap.push_sorted(list(batch), now)
                if deltas is not finish_deltas:
                    last_arrival = batch[-1]
            while True:  # the driver wakes on its epoch's last arrival
                entry = heap.pop()
                assert calendar.pop() is entry
                pops += 1
                now = entry[0]
                if entry is last_arrival:
                    break
        while heap:
            entry = heap.pop()
            assert calendar.pop() is entry
            pops += 1
            now = entry[0]
        assert not calendar

        stats = run_batched(workload, Environment())
        assert pops == 2 * config.arrivals
        # Plus the driver process's start and completion events.
        assert stats.engine_events == pops + 2
        assert stats.final_ms == now
        assert sum(stats.function_counts) == config.arrivals

    def test_fleet_experiment_registered_and_deterministic(self):
        from repro.experiments import load_all

        spec = load_all().get("fleet")
        first = spec.run(profile="smoke").to_text()
        second = spec.run(profile="smoke").to_text()
        assert first == second
        assert "4000" in first


class TestTimeoutBatchCallback:
    def test_callback_preseeded_equals_appended(self):
        from repro.sim import Environment

        fired_a, fired_b = [], []
        env_a = Environment()
        for t in env_a.timeout_batch([1.0, 2.0, 5.0]):
            t.callbacks.append(lambda e: fired_a.append(env_a.now))
        env_a.run()
        env_b = Environment()
        env_b.timeout_batch(
            [1.0, 2.0, 5.0], callback=lambda e: fired_b.append(env_b.now)
        )
        env_b.run()
        assert fired_a == fired_b == [1.0, 2.0, 5.0]
        assert env_a.events_processed == env_b.events_processed


class TestStoreBatchPut:
    def test_serves_getters_then_extends(self):
        env = Environment()
        store = Store(env)
        first = store.get()
        second = store.get()
        inserted = store.put_nowait_batch(["a", "b", "c", "d"])
        env.run()
        assert inserted == 4
        assert first.value == "a"
        assert second.value == "b"
        assert list(store.items) == ["c", "d"]

    def test_no_events_when_no_getters(self):
        env = Environment()
        store = Store(env)
        store.put_nowait_batch(range(1_000))
        assert len(store) == 1_000
        assert env.events_processed == 0
        assert env.peek() == float("inf")

    def test_rejects_bounded_store(self):
        env = Environment()
        store = Store(env, capacity=10)
        with pytest.raises(SimulationError, match="unbounded"):
            store.put_nowait_batch([1, 2])

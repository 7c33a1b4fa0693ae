"""Engine tests: events, timeouts, processes, conditions, interrupts."""

from __future__ import annotations

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start_time(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=125.0)
        assert env.now == 125.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=100.0)
        with pytest.raises(ValueError):
            env.run(until=50.0)

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        fired = []

        def proc():
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [10.0]

    def test_timeout_value_passed_to_process(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self, env):
        done = []

        def proc():
            yield env.timeout(0.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(30, "c"))
        env.process(proc(10, "a"))
        env.process(proc(20, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in ("x", "y", "z"):
            env.process(proc(tag))
        env.run()
        assert order == ["x", "y", "z"]


    def test_direct_construction_is_env_timeout(self, env):
        fired = []
        timeout = Timeout(env, 4.0, value="v")
        timeout.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        assert timeout.triggered and timeout.delay == 4.0
        env.run()
        assert fired == [(4.0, "v")]
        with pytest.raises(ValueError, match="negative delay"):
            Timeout(env, -1.0)


class TestEvent:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        got = []

        def waiter():
            got.append((yield event))

        def trigger():
            yield env.timeout(5)
            event.succeed(99)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got == [99]

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1)
            event.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_multiple_waiters_all_resumed(self, env):
        event = env.event()
        got = []

        def waiter(tag):
            value = yield event
            got.append((tag, value, env.now))

        env.process(waiter("a"))
        env.process(waiter("b"))

        def trigger():
            yield env.timeout(3)
            event.succeed("v")

        env.process(trigger())
        env.run()
        assert got == [("a", "v", 3.0), ("b", "v", 3.0)]


class TestProcess:
    def test_return_value_via_run_until(self, env):
        def proc():
            yield env.timeout(5)
            return "done"

        assert env.run(until=env.process(proc())) == "done"

    def test_process_is_waitable(self, env):
        def inner():
            yield env.timeout(7)
            return 13

        def outer():
            value = yield env.process(inner())
            return value * 2

        assert env.run(until=env.process(outer())) == 26

    def test_yield_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("inside")

        with pytest.raises(KeyError):
            env.run(until=env.process(proc()))

    def test_waiting_on_already_processed_event(self, env):
        timeout = env.timeout(1)
        env.run(until=5)
        assert timeout.processed

        def proc():
            value = yield timeout
            return value

        # Must not hang: the event already fired.
        assert env.run(until=env.process(proc())) is None

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(10)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                causes.append((interrupt.cause, env.now))

        target = env.process(victim())

        def attacker():
            yield env.timeout(5)
            target.interrupt("stop it")

        env.process(attacker())
        env.run()
        assert causes == [("stop it", 5.0)]

    def test_interrupted_process_can_continue(self, env):
        trace = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                trace.append("interrupted")
            yield env.timeout(10)
            trace.append(env.now)

        target = env.process(victim())

        def attacker():
            yield env.timeout(5)
            target.interrupt()

        env.process(attacker())
        env.run()
        assert trace == ["interrupted", 15.0]

    def test_interrupt_finished_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_stale_target_does_not_resume_twice(self, env):
        resumed = []

        def victim():
            try:
                yield env.timeout(10)
            except Interrupt:
                pass
            yield env.timeout(50)
            resumed.append(env.now)

        target = env.process(victim())

        def attacker():
            yield env.timeout(1)
            target.interrupt()

        env.process(attacker())
        env.run()
        # The original timeout at t=10 must not resume the process; the
        # post-interrupt timeout lands at 1 + 50.
        assert resumed == [51.0]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            yield AllOf(env, [env.timeout(5), env.timeout(20), env.timeout(10)])
            return env.now

        assert env.run(until=env.process(proc())) == 20.0

    def test_any_of_fires_on_first(self, env):
        def proc():
            yield AnyOf(env, [env.timeout(50), env.timeout(3)])
            return env.now

        assert env.run(until=env.process(proc())) == 3.0

    def test_any_of_does_not_fire_on_merely_scheduled(self, env):
        """A pending (unprocessed) timeout must not satisfy AnyOf."""

        def proc():
            slow = env.timeout(100)
            fast = env.timeout(10)
            yield AnyOf(env, [slow, fast])
            return env.now

        assert env.run(until=env.process(proc())) == 10.0

    def test_all_of_collects_values(self, env):
        def proc():
            first = env.timeout(1, value="a")
            second = env.timeout(2, value="b")
            values = yield AllOf(env, [first, second])
            return (values[first], values[second])

        assert env.run(until=env.process(proc())) == ("a", "b")

    def test_empty_all_of_fires_immediately(self, env):
        def proc():
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(proc())) == 0.0

    def test_all_of_fails_fast(self, env):
        event = env.event()

        def failer():
            yield env.timeout(1)
            event.fail(RuntimeError("nope"))

        def proc():
            try:
                yield AllOf(env, [event, env.timeout(100)])
            except RuntimeError:
                return env.now

        env.process(failer())
        assert env.run(until=env.process(proc())) == 1.0

    def test_env_helpers(self, env):
        def proc():
            yield env.all_of([env.timeout(2)])
            yield env.any_of([env.timeout(3), env.timeout(9)])
            return env.now

        assert env.run(until=env.process(proc())) == 5.0

    def test_any_of_won_by_process_detaches_from_losing_timeout(self, env):
        def work():
            yield env.timeout(5)
            return "done"

        def proc():
            node = env.process(work())
            deadline = env.timeout(60_000)
            race = AnyOf(env, [node, deadline])
            values = yield race
            assert deadline.callbacks == []
            return values[node], deadline

        outcome = env.process(proc())
        value, deadline = env.run(until=outcome)
        assert value == "done"
        # The losing timer still fires, as an empty event.
        assert not deadline.processed
        events = env.events_processed
        env.run()
        assert deadline.processed
        assert env.now == 60_000.0
        assert env.events_processed == events + 1

    def test_any_of_won_by_timeout_still_defuses_late_failure(self, env):
        def work():
            yield env.timeout(20)
            raise RuntimeError("late failure")

        node = env.process(work())

        def proc():
            deadline = env.timeout(5)
            yield AnyOf(env, [node, deadline])
            assert len(node.callbacks) == 1  # still subscribed
            return env.now

        assert env.run(until=env.process(proc())) == 5.0
        env.run()  # the failure is defused by the settled AnyOf
        assert node.processed and not node.ok
        assert env.now == 20.0

    def test_all_of_failing_fast_detaches_from_scheduled_timeouts(self, env):
        event = env.event()
        slow = env.timeout(100)

        def failer():
            yield env.timeout(1)
            event.fail(RuntimeError("nope"))

        def proc():
            try:
                yield AllOf(env, [event, slow])
            except RuntimeError:
                return env.now

        env.process(failer())
        assert env.run(until=env.process(proc())) == 1.0
        assert slow.callbacks == []
        env.run()
        assert slow.processed
        assert env.now == 100.0


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(4)
            return "value"

        assert env.run(until=env.process(proc())) == "value"

    def test_run_until_event_never_triggered_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_run_without_until_drains_queue(self, env):
        done = []

        def proc():
            yield env.timeout(10)
            done.append(True)

        env.process(proc())
        env.run()
        assert done == [True]
        assert env.now == 10.0


class TestAllOfWithProcessedComponents:
    def test_mixed_components_trigger_once_on_last_pending(self, env):
        done = env.timeout(1, value="done")
        env.run(until=2.0)
        assert done.processed
        slow = env.timeout(5, value="slow")
        fast = env.timeout(3, value="fast")
        condition = AllOf(env, [done, slow, fast])
        fired = []
        condition.callbacks.append(
            lambda ev: fired.append((env.now, dict(ev.value)))
        )
        env.run()
        assert fired == [
            (7.0, {done: "done", slow: "slow", fast: "fast"})
        ]
        # Only the two pending components were ever outstanding.
        assert condition._outstanding == 0

    def test_all_processed_components_trigger_immediately(self, env):
        first, second = env.timeout(1, value=1), env.timeout(2, value=2)
        env.run()
        condition = AllOf(env, [first, second])
        assert condition._outstanding == 0
        env.run()
        assert condition.processed
        assert condition.value == {first: 1, second: 2}
        assert env.now == 2.0

    def test_processed_failure_fails_the_condition(self, env):
        failed = env.event()
        failed.fail(RuntimeError("early"))
        failed._defused = True
        env.run()
        pending = env.timeout(5)
        condition = AllOf(env, [pending, failed])
        with pytest.raises(RuntimeError, match="early"):
            env.run(until=condition)


class TestFusedLoop:
    @pytest.mark.parametrize("mode", ["drain", "time", "event"])
    def test_events_processed_exact_when_callback_raises(self, env, mode):
        fired = []
        for delay in (1.0, 2.0, 3.0):
            env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))

        def explode(ev):
            raise KeyError("callback")

        env._pending.head()  # rotating the calendar must not matter
        env.timeout(2.0).callbacks.append(explode)
        until = {"drain": None, "time": 10.0, "event": env.event()}[mode]
        with pytest.raises(KeyError):
            env.run(until=until)
        # Events at t=1 and t=2 ran, and the failing one counts too.
        assert fired == [1.0, 2.0]
        assert env.events_processed == 3
        env.run()
        assert fired == [1.0, 2.0, 3.0]
        assert env.events_processed == 4

    def test_limit_message_identical_in_all_run_modes(self):
        messages = []
        for until in (None, 1_000.0, "event"):
            env = Environment()

            def ticker():
                while True:
                    yield env.timeout(1.0)

            env.process(ticker())
            with pytest.raises(SimulationError) as excinfo:
                env.run(
                    until=env.event() if until == "event" else until,
                    limit=10,
                )
            messages.append(str(excinfo.value))
            assert env.events_processed == 10
        assert messages == ["event limit of 10 reached at t=9.0"] * 3

    def test_limit_does_not_mask_empty_queue(self, env):
        with pytest.raises(SimulationError, match="queue empty"):
            env.run(until=env.event(), limit=0)
        assert env.run(limit=0) is None

    def test_failed_until_event_is_reraised_and_defused(self, env):
        def doomed():
            yield env.timeout(4)
            raise RuntimeError("doomed")

        process = env.process(doomed())
        with pytest.raises(RuntimeError, match="doomed"):
            env.run(until=process)
        assert process._defused
        assert env.now == 4.0
        # Waiting on the failed event again re-raises it, still defused.
        with pytest.raises(RuntimeError, match="doomed"):
            env.run(until=process)
        env.run()  # nothing left undefused

    def test_failed_until_event_defused_by_a_waiter(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter())
        env.run()
        event.fail(ValueError("bad"))
        with pytest.raises(ValueError, match="bad"):
            env.run(until=event)
        assert event._defused
        assert caught == ["bad"]

    def test_urgent_events_bypass_the_calendar(self, env):
        """Process starts and interrupts are bare urgent events; a
        delay-0 timeout created first still runs after them."""
        order = []
        timeout = env.timeout(0)
        timeout.callbacks.append(lambda ev: order.append("timeout"))

        def proc():
            order.append("start")
            yield env.timeout(0)

        env.process(proc())
        assert len(env._urgent) == 1
        assert env.peek() == 0.0
        env.run()
        assert order == ["start", "timeout"]

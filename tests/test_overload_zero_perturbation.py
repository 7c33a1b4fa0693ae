"""The overload control plane must not perturb the default path.

Mirrors ``test_trace_zero_perturbation.py``: every knob defaults off,
and a cluster built with the disabled config (or with a deadline that
never binds) must replay the exact event schedule of one built without
the module at all.  These tests lock that down by comparing complete
per-request timing sequences — a single reordered event or 1-ulp float
drift shows up as a changed ``finished_at_ms``.
"""

from __future__ import annotations

import pytest

from repro.costs import DEFAULT_COSTS
from repro.faas.cluster import FaasCluster
from repro.faas.controller import RetryPolicy
from repro.faas.health import NEVER_OPENS, BreakerPolicy
from repro.faas.overload import OVERLOAD_DISABLED, OverloadConfig
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from repro.workload.generator import run_trial

INVOCATIONS = 200
SET_SIZE = 16
WORKERS = 8
SEED = 0x0FF


def _fingerprint(trial):
    """Everything a client can observe, in completion order.

    ``request_id`` is excluded: it comes from a process-global counter,
    so it differs between any two runs in one test process.
    """
    return [
        (
            r.sent_at_ms,
            r.finished_at_ms,
            r.path,
            r.success,
            r.attempts,
        )
        for r in trial.results
    ]


def _seuss_trial(node_kwargs):
    env = Environment()
    cluster = FaasCluster.with_seuss_node(env, **node_kwargs)
    return run_trial(
        cluster,
        unique_nop_set(SET_SIZE),
        invocation_count=INVOCATIONS,
        workers=WORKERS,
        seed=SEED,
    )


def _linux_trial(node_kwargs):
    env = Environment()
    cluster = FaasCluster.with_linux_node(env, **node_kwargs)
    return run_trial(
        cluster,
        unique_nop_set(SET_SIZE),
        invocation_count=INVOCATIONS,
        workers=WORKERS,
        seed=SEED,
    )


class TestDisabledConfigIsInvisible:
    def test_seuss_cluster_schedule_is_byte_identical(self):
        baseline = _seuss_trial({})
        disabled = _seuss_trial({"overload": OVERLOAD_DISABLED})
        assert _fingerprint(disabled) == _fingerprint(baseline)

    def test_linux_cluster_schedule_is_byte_identical(self):
        baseline = _linux_trial({})
        disabled = _linux_trial({"overload": OVERLOAD_DISABLED})
        assert _fingerprint(disabled) == _fingerprint(baseline)

    def test_disabled_cluster_wires_no_control_plane(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, overload=OVERLOAD_DISABLED)
        shard = cluster.control_plane.shards[0]
        assert shard.overload is None
        assert shard.router.policy.name == "round_robin"
        assert shard.router.healths[0].breaker.policy is NEVER_OPENS


class TestUnboundDeadlineIsInvisible:
    """Attaching a deadline that never binds must not shift a single
    event: the remaining-time arithmetic replicates the historical
    float-operation order exactly, and zombie/cancel bookkeeping is
    pure accounting."""

    RESILIENT = dict(
        retries=RetryPolicy(max_attempts=3),
        breaker=BreakerPolicy(),
    )

    @pytest.fixture(scope="class")
    def baseline(self):
        return _seuss_trial(dict(self.RESILIENT))

    def test_never_binding_deadline_matches_baseline(self, baseline):
        # Ten times the platform request timeout: min(timeout, deadline)
        # always resolves to the historical expression.
        never = OverloadConfig(
            deadline_ms=10.0 * DEFAULT_COSTS.platform.request_timeout_ms
        )
        deadlined = _seuss_trial(dict(self.RESILIENT, overload=never))
        assert _fingerprint(deadlined) == _fingerprint(baseline)

    def test_no_overload_counters_fire(self, baseline):
        never = OverloadConfig(
            deadline_ms=10.0 * DEFAULT_COSTS.platform.request_timeout_ms
        )
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, overload=never)
        run_trial(
            cluster,
            unique_nop_set(SET_SIZE),
            invocation_count=INVOCATIONS,
            workers=WORKERS,
            seed=SEED,
        )
        stats = cluster.control_plane.shards[0].overload.stats
        assert stats.shed == 0
        assert stats.cancelled == 0
        assert stats.deadline_rejected == 0
        assert stats.retry_budget_denied == 0
        for node in cluster.nodes:
            assert node.cancelled_count == 0
            assert node.zombie_count == 0
            assert node.wasted_ms == 0.0

"""Default paths replay the baseline exactly.

Each replay case runs a baseline and a variant that must be
indistinguishable from it: a cluster built with a mechanism's defaults
spelled out (page dedup, the disabled overload plane, a deadline that
never binds), or a seeded suite run with the tracer on.  The variant
must replay the baseline's complete per-request timing sequence (or
rendered tables), so a single reordered event or 1-ulp float drift
fails the case.  The inert cases check that such a cluster wires
nothing and that no counter fires; the suite JSON check asserts that
tracing changes only the trace metadata.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import trace
from repro.costs import DEFAULT_COSTS
from repro.experiments import load_all
from repro.experiments.suite import run_suite
from repro.faas.cluster import FaasCluster
from repro.faas.controller import RetryPolicy
from repro.faas.health import NEVER_OPENS, BreakerPolicy
from repro.faas.overload import OVERLOAD_DISABLED, OverloadConfig
from repro.linuxnode.ksm import KsmDaemon
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from repro.trace import Tracer
from repro.workload.functions import unique_nop_set
from repro.workload.generator import run_trial

INVOCATIONS = 200
SET_SIZE = 16
WORKERS = 8
SEED = 0x0FF

SEUSS = FaasCluster.with_seuss_node
LINUX = FaasCluster.with_linux_node

EXPLICIT_DEDUP_DEFAULTS = SeussConfig(
    page_dedup=False,
    dedup_scope="tenant",
    dedup_duplicate_fraction=0.55,
    dedup_scanner=False,
    dedup_scan_rate_pages_per_s=25_000.0,
)

#: Ten times the platform request timeout: min(timeout, deadline)
#: always resolves to the timeout, with the same float operations.
NEVER_BINDS = OverloadConfig(
    deadline_ms=10.0 * DEFAULT_COSTS.platform.request_timeout_ms
)

RESILIENT = dict(retries=RetryPolicy(max_attempts=3), breaker=BreakerPolicy())

#: A deterministic selection covering the seeded fault-injection paths
#: (chaos), the microbenchmark paths (table1) and the traced experiment
#: itself (latency).
TRACED_EXPERIMENTS = ["table1", "chaos", "latency"]
SUITE_SEED = 0xC0FFEE


def _fingerprint(results):
    """Everything a client can observe, in completion order.

    ``request_id`` is excluded: it comes from a process-global counter,
    so it differs between any two runs in one test process.
    """
    return [
        (r.sent_at_ms, r.finished_at_ms, r.path, r.success, r.attempts)
        for r in results
    ]


def _trial(constructor, prepare=None, **cluster_kwargs):
    """One seeded closed-loop trial; returns (cluster, fingerprint)."""
    env = Environment()
    cluster = constructor(env, **cluster_kwargs)
    if prepare is not None:
        prepare(cluster)
    trial = run_trial(
        cluster,
        unique_nop_set(SET_SIZE),
        invocation_count=INVOCATIONS,
        workers=WORKERS,
        seed=SEED,
    )
    return cluster, _fingerprint(trial.results)


def _built(constructor, **cluster_kwargs):
    """A cluster that has run nothing; returns (cluster, None)."""
    return constructor(Environment(), **cluster_kwargs), None


def _suite(traced: bool):
    """One seeded smoke suite; returns (tracer, suite)."""
    tracer = trace.enable(Tracer()) if traced else None
    try:
        suite = run_suite(
            TRACED_EXPERIMENTS,
            profile="smoke",
            parallel=1,
            seed=SUITE_SEED,
            registry=load_all(),
        )
    finally:
        if tracer is not None:
            trace.disable()
    assert suite.ok, [o.error for o in suite.failed]
    suite.trace_enabled = traced
    return tracer, suite


def _suite_tables(traced: bool):
    """Returns (tracer, every rendered text and table of the suite)."""
    tracer, suite = _suite(traced)
    if traced:
        # The traced run recorded something: it was not a comparison
        # of two untraced runs.
        assert len(tracer.spans) > 0
        assert len(tracer.events) > 0
    return tracer, (
        [o.text for o in suite.outcomes],
        [o.table for o in suite.outcomes],
    )


def _suite_json(traced: bool):
    """Returns (trace field, suite JSON without it and wall-clock times)."""
    _, suite = _suite(traced)
    payload = suite.to_dict()
    payload.pop("wall_clock_s")
    trace_field = payload.pop("trace")
    for experiment in payload["experiments"]:
        experiment.pop("duration_s")
    return trace_field, payload


def _build_ksm_daemons(cluster):
    # The adapter may be built eagerly; only start() costs time.
    for node in cluster.nodes:
        KsmDaemon(cluster.env, node.allocator)


def _no_dedup_domain(cluster):
    assert all(node.dedup is None for node in cluster.nodes)


def _no_overload_plane(cluster):
    shard = cluster.control_plane.shards[0]
    assert shard.overload.queue_for(cluster.node) is None
    assert shard.overload.retry_budget is None
    assert shard.router.policy.name == "round_robin"
    assert shard.router.healths[0].breaker.policy is NEVER_OPENS


def _no_overload_counter_fires(cluster):
    stats = cluster.control_plane.shards[0].overload.stats
    assert stats.shed == 0
    assert stats.cancelled == 0
    assert stats.retry_budget_denied == 0
    assert cluster.control_plane.controller_stats().deadline_rejected == 0
    for node in cluster.nodes:
        assert node.cancelled_count == 0
        assert node.zombie_count == 0
        assert node.wasted_ms == 0.0


@pytest.mark.parametrize(
    "baseline, variant",
    [
        pytest.param(
            partial(_trial, SEUSS),
            partial(_trial, SEUSS, config=EXPLICIT_DEDUP_DEFAULTS),
            id="dedup-defaults-seuss",
        ),
        pytest.param(
            partial(_trial, LINUX),
            partial(_trial, LINUX, prepare=_build_ksm_daemons),
            id="dedup-defaults-linux",
        ),
        pytest.param(
            partial(_trial, SEUSS),
            partial(_trial, SEUSS, overload=OVERLOAD_DISABLED),
            id="overload-disabled-seuss",
        ),
        pytest.param(
            partial(_trial, LINUX),
            partial(_trial, LINUX, overload=OVERLOAD_DISABLED),
            id="overload-disabled-linux",
        ),
        pytest.param(
            partial(_trial, SEUSS, **RESILIENT),
            partial(_trial, SEUSS, overload=NEVER_BINDS, **RESILIENT),
            id="never-binding-deadline",
        ),
        pytest.param(
            partial(_suite_tables, traced=False),
            partial(_suite_tables, traced=True),
            id="traced-suite",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_default_path_replays_baseline(baseline, variant):
    _, expected = baseline()
    _, observed = variant()
    assert observed == expected


@pytest.mark.parametrize(
    "variant, check",
    [
        pytest.param(
            partial(_built, SEUSS),
            _no_dedup_domain,
            id="dedup-default-config",
        ),
        pytest.param(
            partial(_built, SEUSS, config=EXPLICIT_DEDUP_DEFAULTS),
            _no_dedup_domain,
            id="dedup-explicit-defaults",
        ),
        pytest.param(
            partial(_built, SEUSS, overload=OVERLOAD_DISABLED),
            _no_overload_plane,
            id="overload-disabled",
        ),
        pytest.param(
            partial(_trial, SEUSS, overload=NEVER_BINDS),
            _no_overload_counter_fires,
            id="never-binding-deadline",
        ),
    ],
)
def test_default_path_stays_inert(variant, check):
    cluster, _ = variant()
    check(cluster)


def test_traced_suite_json_differs_only_in_trace_fields():
    base_trace, base_payload = _suite_json(traced=False)
    traced_trace, traced_payload = _suite_json(traced=True)
    assert traced_payload == base_payload
    assert base_trace == {"enabled": False, "path": None}
    assert traced_trace == {"enabled": True, "path": None}

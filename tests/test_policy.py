"""Cache-policy unit tests: victim orders, windows, stats, plumbing.

The contract under test: policies only *order* eviction decisions (the
caches keep ownership of entries and budgets), the default ``lru``
policy replays the seed discipline byte-for-byte even under eviction
pressure (pinned by digests of the seed schedules), no policy perturbs
a trial without pressure, and the histogram/greedy-dual policies
implement their published decision rules exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.linuxnode.config import LinuxNodeConfig
from repro.metrics.resilience import ResilienceReport
from repro.seuss.config import SeussConfig
from repro.seuss.policy import (
    POLICY_NAMES,
    GreedyDualPolicy,
    HybridHistogramPolicy,
    LIFOPolicy,
    LRUPolicy,
    make_policy,
    normalize_policy_name,
)
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from repro.workload.generator import run_trial


class TestNames:
    def test_aliases_fold_to_canonical(self):
        assert normalize_policy_name("hybrid-histogram") == "hybrid"
        assert normalize_policy_name("GDSF") == "greedy_dual"
        assert normalize_policy_name("FaasCache") == "greedy_dual"
        assert normalize_policy_name(" LRU ") == "lru"

    def test_make_policy_builds_each_name(self):
        classes = {
            "lru": LRUPolicy,
            "lifo": LIFOPolicy,
            "hybrid": HybridHistogramPolicy,
            "greedy_dual": GreedyDualPolicy,
        }
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert isinstance(policy, classes[name])
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("belady")


class TestTrackedKeys:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_len_and_contains_follow_lifecycle(self, name):
        policy = make_policy(name)
        for key in ("a", "b", "a"):
            policy.on_insert(key)
        policy.on_hit("b")
        assert len(policy) == 2 and "a" in policy and "b" in policy
        policy.on_remove("a")
        assert len(policy) == 1 and "a" not in policy
        assert policy.victim() == "b"
        policy.on_remove("b", evicted=False)
        assert len(policy) == 0 and policy.victim() is None


class TestLRUOrder:
    def test_victim_is_least_recently_used(self):
        policy = LRUPolicy()
        for key in ("a", "b", "c"):
            policy.on_insert(key)
        assert policy.victim() == "a"
        policy.on_hit("a")
        assert policy.victim() == "b"
        policy.on_remove("b")
        assert policy.victim() == "c"
        assert policy.stats.evictions == 1

    def test_requeue_rotates_to_back(self):
        policy = LRUPolicy()
        for key in ("a", "b"):
            policy.on_insert(key)
        policy.requeue("a")
        assert policy.victim() == "b"
        assert policy.stats.requeues == 1


class TestLIFOOrder:
    def test_victim_is_newest(self):
        policy = LIFOPolicy()
        for key in ("a", "b", "c"):
            policy.on_insert(key)
        assert policy.victim() == "c"
        policy.on_hit("a")
        assert policy.victim() == "a"

    def test_requeue_pushes_to_oldest_end(self):
        policy = LIFOPolicy()
        for key in ("a", "b", "c"):
            policy.on_insert(key)
        policy.requeue("c")
        assert policy.victim() == "b"


class TestHybridWindows:
    def _clocked(self, **kwargs):
        state = {"now": 0.0}
        policy = HybridHistogramPolicy(clock=lambda: state["now"], **kwargs)
        return policy, state

    def test_sparse_history_uses_default_window(self):
        policy, _ = self._clocked()
        policy.on_insert("f")
        assert policy.keep_alive_ms("f") == policy.default_keep_alive_ms
        assert policy.prewarm_gap_ms("f") is None

    def test_long_head_unloads_fast_and_prewarms(self):
        """Idles concentrated at ~300 s: unload after one bucket, warm
        one bucket ahead of the earliest likely return, keep the
        pre-warmed instance through the tail."""
        policy, _ = self._clocked()
        policy.on_insert("f")
        for _ in range(4):
            policy.observe_idle("f", 300_000.0)
        assert policy.keep_alive_ms("f") == 60_000.0
        assert policy.prewarm_gap_ms("f") == 240_000.0
        # tail = 360 s (end of bucket 5); prewarm keep = tail - gap.
        assert policy.prewarm_keep_alive_ms("f") == 120_000.0

    def test_short_idles_keep_through_tail(self):
        policy, _ = self._clocked()
        policy.on_insert("f")
        for _ in range(4):
            policy.observe_idle("f", 30_000.0)
        assert policy.keep_alive_ms("f") == 60_000.0  # end of bucket 0
        assert policy.prewarm_gap_ms("f") is None

    def test_hits_classified_against_window(self):
        policy, state = self._clocked()
        policy.on_insert("f")
        for now in (30_000.0, 60_000.0, 90_000.0, 120_000.0):
            state["now"] = now
            policy.on_hit("f")
        # Four 30 s idles: keep = 60 s; all hits inside a window so far.
        assert policy.stats.keepalive_hits == 4
        state["now"] = 500_000.0  # 380 s idle > 60 s keep
        policy.on_hit("f")
        assert policy.stats.expired_hits == 1

    def test_histogram_survives_removal(self):
        """Cold starts are arrivals too: a function that is never warm
        at its next arrival must still accumulate history."""
        policy, state = self._clocked()
        policy.on_insert("f")
        policy.on_remove("f", evicted=False)
        for now in (180_000.0, 360_000.0, 540_000.0, 720_000.0):
            state["now"] = now
            policy.on_insert("f")
            policy.on_remove("f", evicted=False)
        # Four observed 180 s inter-arrival gaps despite zero hits.
        assert policy.keep_alive_ms("f") == 60_000.0
        assert policy.prewarm_gap_ms("f") == 120_000.0

    def test_prewarmed_insert_is_not_an_arrival(self):
        policy, state = self._clocked()
        policy.on_insert("f")
        state["now"] = 100_000.0
        policy.on_insert("f", prewarmed=True)
        # No idle observation happened: history is still one arrival.
        assert policy.keep_alive_ms("f") == policy.default_keep_alive_ms

    def test_victim_order_is_lru_with_requeue_last(self):
        policy, state = self._clocked()
        for now, key in ((0.0, "a"), (10.0, "b"), (20.0, "c")):
            state["now"] = now
            policy.on_insert(key)
        assert policy.victim() == "a"
        policy.requeue("a")
        assert policy.victim() == "b"
        state["now"] = 30.0
        policy.on_hit("b")
        assert policy.victim() == "c"
        policy.on_remove("c")
        # The requeued key returns only after everything else.
        assert policy.victim() == "b"
        policy.on_remove("b")
        assert policy.victim() == "a"

    def test_reinserted_key_ranks_by_its_new_use(self):
        policy, state = self._clocked()
        policy.on_insert("a")
        state["now"] = 10.0
        policy.on_insert("b")
        policy.on_remove("a", evicted=False)
        state["now"] = 20.0
        policy.on_insert("a")
        # The heap entry left from a's first life (last use 0) must not
        # rank the re-inserted a (last use 20) ahead of b (10).
        assert policy.victim() == "b"
        policy.on_remove("b")
        assert policy.victim() == "a"

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            HybridHistogramPolicy(bucket_ms=0.0)
        with pytest.raises(ConfigError):
            HybridHistogramPolicy(prewarm_percentile=0.9, keep_percentile=0.5)


class TestGreedyDual:
    def test_large_cheap_entries_evicted_first(self):
        policy = GreedyDualPolicy()
        policy.on_insert("big", size_mb=100.0, cost_ms=100.0)
        policy.on_insert("small", size_mb=1.0, cost_ms=100.0)
        # priority = clock + freq * cost / size: 1 vs 100.
        assert policy.victim() == "big"

    def test_eviction_advances_clock(self):
        policy = GreedyDualPolicy()
        policy.on_insert("a", size_mb=100.0, cost_ms=100.0)
        policy.on_insert("b", size_mb=1.0, cost_ms=100.0)
        policy.on_remove("a")  # priority 1.0 becomes the clock
        assert policy.clock_value == 1.0
        policy.on_insert("c", size_mb=100.0, cost_ms=100.0)
        # c enters at clock + 1 = 2.0, still below b's 100.
        assert policy.victim() == "c"
        assert policy.stats.evictions == 1

    def test_frequency_protects_hot_keys(self):
        policy = GreedyDualPolicy()
        policy.on_insert("cold", size_mb=10.0, cost_ms=100.0)
        policy.on_insert("hot", size_mb=10.0, cost_ms=100.0)
        for _ in range(5):
            policy.on_hit("hot")
        assert policy.victim() == "cold"

    def test_reinserted_key_ranks_by_its_new_priority(self):
        policy = GreedyDualPolicy()
        policy.on_insert("a", size_mb=100.0, cost_ms=100.0)  # priority 1
        policy.on_insert("b", size_mb=10.0, cost_ms=100.0)  # priority 10
        policy.on_remove("a", evicted=False)
        policy.on_insert("a", size_mb=1.0, cost_ms=100.0)  # priority 100
        # The heap entry left from a's first life (priority 1) must not
        # rank the re-inserted a ahead of b.
        assert policy.victim() == "b"
        policy.on_remove("b")
        assert policy.victim() == "a"

    def test_requeue_credits_like_a_hit(self):
        policy = GreedyDualPolicy()
        policy.on_insert("a", size_mb=10.0, cost_ms=100.0)
        policy.on_insert("b", size_mb=10.0, cost_ms=100.0)
        policy.requeue("a")
        assert policy.victim() == "b"
        assert policy.stats.requeues == 1


PRESSURE = dict(
    invocation_count=300,
    workers=8,
    seed=0x0FF,
)

#: Closed-loop trials on one node: (cluster builder, config class,
#: config knobs, distinct NOP functions, invocations).
SCENARIOS = {
    # Snapshot-cache evictions (48 MB holds a handful of snapshots).
    "seuss-pressure": (
        FaasCluster.with_seuss_node, SeussConfig,
        dict(snapshot_cache_budget_mb=48.0), 24, 300,
    ),
    # Snapshot evictions *and* OOM-daemon idle-UC reclaim.
    "seuss-reclaim": (
        FaasCluster.with_seuss_node, SeussConfig,
        dict(memory_gb=0.75, snapshot_cache_budget_mb=96.0), 48, 300,
    ),
    "seuss-quiet": (FaasCluster.with_seuss_node, SeussConfig, {}, 16, 200),
    # Idle-container evictions (8 containers for 24 functions).
    "linux-pressure": (
        FaasCluster.with_linux_node, LinuxNodeConfig,
        dict(container_cache_limit=8), 24, 300,
    ),
    "linux-quiet": (FaasCluster.with_linux_node, LinuxNodeConfig, {}, 16, 200),
}

#: sha256 of each scenario's client fingerprint under the seed eviction
#: discipline, captured from the hard-coded LRU paths the ``lru``
#: policy replaced.  Any change to the seed victim order (or to the
#: event schedule at all) changes these.
SEED_DIGESTS = {
    "seuss-pressure": "7d955cebd1263b6e9f40dbc434622f522b997badd128543b22f5abacdf601bf2",
    "seuss-reclaim": "ae08c962f52252748cac15ab92b93d980a9ad4d679ce0be3668ded93dd777752",
    "seuss-quiet": "4af0ae4274db548175ea556ef6ca384b45fea47b2d01cf734a92decd0b2176b0",
    "linux-pressure": "a826d5a91470b891fb2a17f71b6d61bfb18ab19154568700dfc301b41bdb4c68",
    "linux-quiet": "8dd94be560b93a80ada6ea2cb48f84d6c0ec7dec50a2592671d4d9a019e9ca9f",
}


def _run(scenario, **knobs):
    build, config_cls, base, set_size, count = SCENARIOS[scenario]
    cluster = build(Environment(), config=config_cls(**base, **knobs))
    trial = run_trial(
        cluster,
        unique_nop_set(set_size),
        invocation_count=count,
        workers=8,
        seed=0x0FF,
    )
    return trial, cluster.nodes[0]


def _digest(trial):
    """sha256 of everything a client can observe, in completion order.

    ``request_id`` is excluded: it comes from a process-global counter,
    so it differs between any two runs in one test process.  A single
    reordered event or 1-ulp float drift changes the digest.
    """
    rows = [
        (r.sent_at_ms, r.finished_at_ms, r.path.value, r.success, r.attempts)
        for r in trial.results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestSeedParityUnderPressure:
    """The default ``lru`` policy must replay the seed eviction
    decisions byte-for-byte *while evictions are actually happening*."""

    def test_seuss_snapshot_evictions_identical(self):
        trial, node = _run("seuss-pressure")
        assert _digest(trial) == SEED_DIGESTS["seuss-pressure"]
        assert node.snapshot_cache.stats.evictions == 25
        assert node.cache_policy.stats.evictions == 25

    def test_seuss_uc_reclaim_identical(self):
        trial, node = _run("seuss-reclaim")
        assert _digest(trial) == SEED_DIGESTS["seuss-reclaim"]
        assert node.snapshot_cache.stats.evictions == 31
        assert node.uc_cache.stats.reclaimed == 290
        assert node.uc_policy.stats.evictions > 0

    def test_linux_idle_evictions_identical(self):
        trial, node = _run("linux-pressure")
        assert _digest(trial) == SEED_DIGESTS["linux-pressure"]
        assert node.cache_policy.stats.evictions > 0

    def test_lifo_diverges_under_pressure(self):
        # The digests do see the victim order.
        trial, _ = _run("seuss-pressure", cache_policy="lifo")
        assert _digest(trial) != SEED_DIGESTS["seuss-pressure"]


class TestPolicyWithoutPressure:
    @pytest.mark.parametrize(
        "scenario, policy",
        [
            ("seuss-quiet", "lru"),
            ("seuss-quiet", "lifo"),
            ("linux-quiet", "lru"),
            ("linux-quiet", "lifo"),
        ],
        ids=["seuss-lru", "seuss-lifo", "linux-lru", "linux-lifo"],
    )
    def test_schedule_matches_seed(self, scenario, policy):
        # Policies only order evictions; with no eviction pressure even
        # the anti-LRU order replays the seed schedule.
        trial, _ = _run(scenario, cache_policy=policy)
        assert _digest(trial) == SEED_DIGESTS[scenario]


class TestPolicyStatsStayQuiet:
    def test_lru_policy_counts_without_perturbing(self):
        """The default policy sees traffic (tracked/hits) even when it
        never has to decide anything."""
        _, node = _run("seuss-quiet")
        assert node.cache_policy.stats.tracked > 0
        assert node.uc_policy.stats.tracked > 0
        assert node.cache_policy.stats.evictions == 0


class TestConfigPlumbing:
    def test_names_canonicalized_at_config_time(self):
        assert SeussConfig(cache_policy="hybrid-histogram").cache_policy == "hybrid"
        assert LinuxNodeConfig(cache_policy="GDSF").cache_policy == "greedy_dual"

    def test_bogus_names_rejected(self):
        for bogus in ("belady", None):
            with pytest.raises(ConfigError):
                SeussConfig(cache_policy=bogus)
            with pytest.raises(ConfigError):
                LinuxNodeConfig(cache_policy=bogus)

    def test_default_is_lru(self):
        assert SeussConfig().cache_policy == "lru"
        assert LinuxNodeConfig().cache_policy == "lru"
        env = Environment()
        seuss = FaasCluster.with_seuss_node(env).nodes[0]
        assert isinstance(seuss.cache_policy, LRUPolicy)
        assert isinstance(seuss.uc_policy, LRUPolicy)
        linux = FaasCluster.with_linux_node(Environment()).nodes[0]
        assert isinstance(linux.cache_policy, LRUPolicy)

    def test_node_builds_configured_policy(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, config=SeussConfig(cache_policy="greedy_dual")
        )
        node = cluster.nodes[0]
        assert node.cache_policy.name == "greedy_dual"
        assert node.uc_policy.name == "greedy_dual"
        # Separate instances: snapshot and UC caches must not share
        # recency state.
        assert node.cache_policy is not node.uc_policy


class TestResilienceRow:
    def test_default_report_names_lru(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        run_trial(cluster, unique_nop_set(8), **PRESSURE)
        report = ResilienceReport.from_cluster(cluster)
        assert report.cache_policy == "lru"
        text = "\n".join(report.lines())
        assert "cache policy: lru (0 policy evictions" in text
        # The default one-shard round-robin plane prints no shards row.
        assert report.shard_dispatch and "shards:" not in text

    def test_policy_row_reports_counters(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env,
            config=SeussConfig(
                snapshot_cache_budget_mb=48.0, cache_policy="lru"
            ),
        )
        run_trial(cluster, unique_nop_set(24), **PRESSURE)
        report = ResilienceReport.from_cluster(cluster)
        assert report.cache_policy == "lru"
        assert report.policy_evictions > 0
        text = "\n".join(report.lines())
        assert "cache policy: lru" in text

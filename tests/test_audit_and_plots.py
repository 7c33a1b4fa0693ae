"""Audit-module and ASCII-plot tests."""

from __future__ import annotations

import pytest

from repro.metrics.ascii_plot import burst_figure, scatter
from repro.seuss.audit import audit_allocator, audit_node, audit_snapshot_lineage
from repro.workload.functions import nop_function


class TestAudit:
    def test_fresh_node_is_clean(self, seuss_node):
        assert audit_node(seuss_node) == []

    def test_node_stays_clean_under_churn(self, seuss_node):
        for index in range(40):
            fn = nop_function(owner=f"churn-{index % 7}")
            seuss_node.invoke_sync(fn)
            if index % 5 == 0:
                seuss_node.uc_cache.drop_function(fn.key)
            if index % 11 == 0:
                seuss_node.snapshot_cache.evict_key(fn.key)
        assert audit_node(seuss_node) == []

    def test_allocator_imbalance_detected(self, seuss_node):
        seuss_node.allocator._by_category["phantom"] = 123
        issues = audit_allocator(seuss_node.allocator)
        assert any("categories sum" in issue for issue in issues)

    def test_cache_counter_drift_detected(self, seuss_node):
        seuss_node.invoke_sync(nop_function())
        seuss_node.snapshot_cache._held_pages += 17
        issues = audit_node(seuss_node)
        assert any("held-page counter" in issue for issue in issues)

    def test_dedup_node_is_clean(self):
        # The audit checks the cache's charging rule: shared dedup
        # chunks count once, not once per holder's footprint.
        from repro.workload.functions import unique_nop_set
        from tests.conftest import make_seuss_node

        node = make_seuss_node(page_dedup=True, dedup_scope="global")
        for fn in unique_nop_set(6):
            node.invoke_sync(fn)
        assert len(node.snapshot_cache) == 6
        assert audit_node(node) == []

    def test_policy_key_mismatch_detected(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        assert audit_node(seuss_node) == []
        seuss_node.cache_policy.on_remove(fn.key, evicted=False)
        seuss_node.uc_policy.on_insert("ghost")
        issues = audit_node(seuss_node)
        assert any(
            issue.startswith("snapshot cache: policy tracks 0 keys for 1")
            for issue in issues
        )
        assert any(
            issue.startswith("uc cache: policy tracks 2 keys for 1")
            for issue in issues
        )

    def test_deleted_lineage_detected(self, allocator):
        from repro.mem.intervals import IntervalSet
        from repro.mem.snapshot import Snapshot

        base = Snapshot("base", IntervalSet([(0, 10)]), allocator)
        child = Snapshot("child", IntervalSet([(20, 30)]), allocator, parent=base)
        # Forcibly corrupt: delete the parent out from under the child.
        base._refs = 0
        base.delete()
        issues = audit_snapshot_lineage(child)
        assert any("deleted" in issue for issue in issues)

    def test_clean_lineage_passes(self, allocator):
        from repro.mem.intervals import IntervalSet
        from repro.mem.snapshot import Snapshot

        base = Snapshot("base", IntervalSet([(0, 10)]), allocator)
        child = Snapshot("child", IntervalSet([(20, 30)]), allocator, parent=base)
        assert audit_snapshot_lineage(child) == []


class TestAsciiPlot:
    def test_scatter_renders_markers(self):
        points = [(0.0, 10.0, "."), (500.0, 100.0, "o"), (1000.0, 1000.0, "x")]
        text = scatter(points, title="demo")
        assert "demo" in text
        assert "o" in text and "x" in text
        assert "[log scale]" in text

    def test_failures_overwrite_dots(self):
        # Same cell: the 'x' must win regardless of insertion order.
        text = scatter([(0.0, 10.0, "x"), (0.0, 10.0, ".")], width=16, height=4)
        plot_area = "".join(
            line.split("|", 1)[1] for line in text.splitlines() if "|" in line
        )
        assert "x" in plot_area
        assert "." not in plot_area

    def test_empty_points(self):
        assert "(no data)" in scatter([], title="t")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            scatter([(0, 1, ".")], width=4, height=4)

    def test_burst_figure_from_result(self):
        from repro.faas.cluster import FaasCluster
        from repro.sim import Environment
        from repro.workload.burst import BurstConfig, BurstWorkload

        cluster = FaasCluster.with_seuss_node(Environment())
        config = BurstConfig(
            burst_interval_ms=1000,
            burst_count=2,
            burst_size=4,
            background_workers=4,
            background_functions=2,
            background_rate_per_s=20.0,
            warmup_ms=200.0,
        )
        result = BurstWorkload(config).run(cluster)
        text = burst_figure(result, title="SEUSS")
        assert "SEUSS" in text
        assert "o" in text  # burst markers present

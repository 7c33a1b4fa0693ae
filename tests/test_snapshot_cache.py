"""SnapshotCache tests: LRU, budget, eviction-safety rules."""

from __future__ import annotations

import pytest

from repro.mem.frames import FrameAllocator
from repro.mem.intervals import IntervalSet
from repro.mem.snapshot import Snapshot
from repro.seuss.snapshots import SnapshotCache


@pytest.fixture
def alloc():
    return FrameAllocator(10_000_000)


def snap(alloc, pages=256, name="s"):
    return Snapshot(name=name, pages=IntervalSet([(0, pages)]), allocator=alloc)


class TestBasics:
    def test_put_get(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        snapshot = snap(alloc)
        assert cache.put("fn", snapshot)
        assert cache.get("fn") is snapshot
        assert "fn" in cache
        assert len(cache) == 1

    def test_get_miss_returns_none(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_put_retains_snapshot(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        snapshot = snap(alloc)
        cache.put("fn", snapshot)
        assert snapshot.refcount == 1

    def test_duplicate_put_returns_false(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        first, second = snap(alloc, name="a"), snap(alloc, name="b")
        assert cache.put("fn", first)
        assert not cache.put("fn", second)
        assert cache.get("fn") is first

    def test_hit_rate(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        cache.put("fn", snap(alloc))
        cache.get("fn")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_estimate(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        assert cache.capacity_estimate(256) == 100 * 256 // 256
        with pytest.raises(ValueError):
            cache.capacity_estimate(0)


class TestEviction:
    def test_budget_evicts_lru(self, alloc):
        # Budget fits two ~1 MB snapshots (data + page tables).
        cache = SnapshotCache(budget_mb=2.1)
        cache.put("a", snap(alloc, name="a"))
        cache.put("b", snap(alloc, name="b"))
        cache.get("a")  # touch a; b becomes LRU
        cache.put("c", snap(alloc, name="c"))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions >= 1

    def test_evicted_snapshot_is_deleted(self, alloc):
        cache = SnapshotCache(budget_mb=1.1)
        first = snap(alloc, name="a")
        cache.put("a", first)
        cache.put("b", snap(alloc, name="b"))
        assert first.deleted

    def test_eviction_skips_snapshots_with_live_ucs(self, alloc):
        cache = SnapshotCache(budget_mb=1.1)
        pinned = snap(alloc, name="pinned")
        pinned.retain()  # a live UC depends on it
        cache.put("pinned", pinned)
        cache.put("other", snap(alloc, name="other"))
        assert "pinned" in cache
        assert not pinned.deleted
        assert cache.stats.eviction_failures >= 1

    def test_drop_idle_callback_used_before_eviction(self, alloc):
        dropped = []

        def drop_idle(key):
            dropped.append(key)
            return 0

        cache = SnapshotCache(budget_mb=1.1, drop_idle=drop_idle)
        cache.put("a", snap(alloc, name="a"))
        cache.put("b", snap(alloc, name="b"))
        assert "a" in dropped

    def test_evict_key(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        cache.put("fn", snap(alloc))
        assert cache.evict_key("fn")
        assert "fn" not in cache
        assert not cache.evict_key("fn")

    def test_clear(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        before = alloc.allocated_pages
        cache.put("a", snap(alloc, name="a"))
        cache.put("b", snap(alloc, name="b"))
        cache.clear()
        assert len(cache) == 0
        assert alloc.allocated_pages == before

    def test_held_mb_tracks_contents(self, alloc):
        cache = SnapshotCache(budget_mb=100)
        assert cache.held_mb == 0
        cache.put("a", snap(alloc, pages=256))
        assert cache.held_mb > 1.0  # data + page-table overhead


class TestDedupAccounting:
    """Shared dedup chunks are charged once while any cached entry
    holds them, whichever entry leaves first and however it leaves (cf.
    the merge/unmerge accounting of Qiu et al., arXiv 2311.13588)."""

    @pytest.fixture
    def node(self):
        from tests.conftest import make_seuss_node

        return make_seuss_node(page_dedup=True, dedup_scope="global")

    def test_quarantined_first_holder_then_evicted_holds_zero(self, node):
        from repro.workload.functions import unique_nop_set

        first, second = unique_nop_set(2)
        node.invoke_sync(first)
        node.invoke_sync(second)
        cache = node.snapshot_cache
        survivor = cache._entries[second.key]
        assert survivor.shared_chunks
        # The first capture claimed the shared chunks; quarantining it
        # moves their charge onto the entry still holding them.
        assert cache.quarantine(first.key)
        assert cache._held_pages == (
            survivor.private_pages
            + sum(pages for _, pages in survivor.shared_chunks)
        )
        assert cache.evict_key(second.key)
        assert len(cache) == 0
        assert cache._held_pages == 0

    def test_evicting_in_any_order_holds_zero(self, node):
        from repro.workload.functions import unique_nop_set

        fns = unique_nop_set(4)
        for fn in fns:
            node.invoke_sync(fn)
        cache = node.snapshot_cache
        for fn in (fns[0], fns[2], fns[3], fns[1]):
            assert cache.evict_key(fn.key)
        assert cache._held_pages == 0

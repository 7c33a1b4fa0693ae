"""Pluggable keep-alive / eviction policies for the platform caches.

SEUSS's prototype hard-codes its cache discipline: the snapshot cache
evicts LRU (§6), idle UCs are reused LIFO and reclaimed oldest-first.
Production schedulers treat that discipline as a *policy* input — the
Azure "Serverless in the Wild" scheduler derives per-function keep-alive
and pre-warm windows from idle-time histograms, and FaasCache recasts
keep-alive as greedy-dual cache replacement.  This module factors the
decision out of :class:`~repro.seuss.snapshots.SnapshotCache`,
:class:`~repro.seuss.uc_cache.IdleUCCache` and the Linux node's idle
container cache behind one small protocol, so the ``keepalive``
experiment can race policies under a production-shaped fleet trace.

A policy only *orders* eviction decisions and accounts keep-alive
quality; the caches keep full ownership of entries, refcounts and
budget accounting.  Every cache owns exactly one policy: the default
``lru`` policy *is* the seed discipline (pinned by seed fingerprints in
``tests/test_policy.py`` under eviction pressure), so there is no
separate hard-coded path.  Policies never draw randomness and never
schedule simulator events, so selecting one cannot perturb an event
schedule except through the victim order itself.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.trace import current as _active_tracer

#: Canonical selectable policy names (config validation uses this).
POLICY_NAMES = ("lru", "lifo", "hybrid", "greedy_dual")


@dataclass
class PolicyStats:
    """What one policy instance decided."""

    tracked: int = 0
    hits: int = 0
    evictions: int = 0
    requeues: int = 0
    #: Hits that landed inside the key's keep-alive window vs. after it
    #: lapsed (hybrid-histogram only; window-less policies leave these 0).
    keepalive_hits: int = 0
    expired_hits: int = 0
    #: Pre-warm accounting, charged by the keep-alive lab: instances
    #: warmed ahead of a predicted arrival, and warm milliseconds spent
    #: on pre-warms that were never used.
    prewarms: int = 0
    prewarm_wasted_ms: float = 0.0


class CachePolicy:
    """Victim selection + keep-alive windows over a set of cache keys.

    The owning cache reports lifecycle transitions (``on_insert`` /
    ``on_hit`` / ``on_remove``) and asks :meth:`victim` which key to
    evict next; :meth:`requeue` tells the policy an eviction was refused
    (live dependents) so the victim must be deprioritized.  Keep-alive
    policies additionally expose per-key :meth:`keep_alive_ms` /
    :meth:`prewarm_gap_ms` windows for TTL-style expiry and pre-warming
    (consumed by the keep-alive replay lab; the node caches are purely
    pressure-driven and only use the ordering hooks).
    """

    name = "base"

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.stats = PolicyStats()

    def now_ms(self) -> float:
        return self._clock()

    # -- ordering hooks --------------------------------------------------
    def on_insert(
        self,
        key: str,
        size_mb: float = 0.0,
        cost_ms: float = 0.0,
        prewarmed: bool = False,
    ) -> None:
        raise NotImplementedError

    def on_hit(self, key: str) -> None:
        raise NotImplementedError

    def on_remove(self, key: str, evicted: bool = True) -> None:
        raise NotImplementedError

    def victim(self) -> Optional[str]:
        """The next key to evict; ``None`` only when no key is tracked."""
        raise NotImplementedError

    def requeue(self, key: str) -> None:
        raise NotImplementedError

    # -- tracked keys (audited against the owning cache) -----------------
    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        raise NotImplementedError

    # -- keep-alive windows ----------------------------------------------
    def keep_alive_ms(self, key: str) -> Optional[float]:
        """How long to keep ``key`` warm after its last use (None = until
        evicted under pressure)."""
        return None

    def prewarm_gap_ms(self, key: str) -> Optional[float]:
        """Idle gap after which to re-warm ``key`` ahead of a predicted
        arrival (None = never pre-warm)."""
        return None

    def prewarm_keep_alive_ms(self, key: str) -> Optional[float]:
        """How long a *pre-warmed* (not yet used) instance of ``key``
        stays warm (defaults to the plain keep-alive window)."""
        return self.keep_alive_ms(key)

    # -- shared accounting ----------------------------------------------
    def _note_eviction(self, key: str) -> None:
        self.stats.evictions += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.counter("policy.evictions")
            tracer.event("policy.evict", policy=self.name, key=key)


class LRUPolicy(CachePolicy):
    """Least-recently-used: the seed discipline and the default policy.

    Oldest function snapshot evicted first (§6), idle UCs reclaimed
    from the least recently used function; a refused victim rotates to
    the back.
    """

    name = "lru"

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        super().__init__(clock)
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: str) -> bool:
        return key in self._order

    def on_insert(
        self,
        key: str,
        size_mb: float = 0.0,
        cost_ms: float = 0.0,
        prewarmed: bool = False,
    ) -> None:
        self._order[key] = None
        self._order.move_to_end(key)
        self.stats.tracked += 1

    def on_hit(self, key: str) -> None:
        if key in self._order:
            self._order.move_to_end(key)
        self.stats.hits += 1

    def on_remove(self, key: str, evicted: bool = True) -> None:
        self._order.pop(key, None)
        if evicted:
            self._note_eviction(key)

    def victim(self) -> Optional[str]:
        return next(iter(self._order)) if self._order else None

    def requeue(self, key: str) -> None:
        if key in self._order:
            self._order.move_to_end(key)
        self.stats.requeues += 1


class LIFOPolicy(LRUPolicy):
    """Newest-first: evict the most recently inserted/used key.

    The stack discipline SEUSS applies *within* a function's idle-UC
    bucket, lifted to whole-cache victim selection.  Protects
    long-resident entries at the cost of thrashing the newest — the
    classic anti-LRU foil for the policy table.
    """

    name = "lifo"

    def victim(self) -> Optional[str]:
        return next(reversed(self._order)) if self._order else None

    def requeue(self, key: str) -> None:
        # Deprioritize by pushing the refused victim to the *front*
        # (oldest end), the opposite of LRU's rotation.
        if key in self._order:
            self._order.move_to_end(key, last=False)
        self.stats.requeues += 1


class HybridHistogramPolicy(CachePolicy):
    """Per-function idle-time histograms driving keep-alive windows.

    The "Serverless in the Wild" hybrid policy: every observed idle time
    (gap between consecutive uses of a key) lands in a coarse histogram.
    The keep-alive window covers the histogram's tail
    (``keep_percentile``); when the *head* of the distribution
    (``prewarm_percentile``) shows the function reliably stays idle for
    a while, the instance is instead unloaded after one bucket of
    idleness and *pre-warmed* one bucket ahead of the earliest likely
    return, then kept warm through the tail — memory is free for the
    whole predicted gap.  Keys with too few observations fall back to a
    fixed ``default_keep_alive_ms`` window.  Victim selection under
    memory pressure is plain LRU via a lazily invalidated heap (the
    histogram drives the windows, not the pressure order); a refused
    victim is pushed genuinely last until its next touch.
    """

    name = "hybrid"

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        bucket_ms: float = 60_000.0,
        bucket_count: int = 240,
        keep_percentile: float = 0.99,
        prewarm_percentile: float = 0.05,
        default_keep_alive_ms: float = 600_000.0,
        min_observations: int = 4,
    ) -> None:
        super().__init__(clock)
        if bucket_ms <= 0 or bucket_count < 1:
            raise ConfigError("histogram shape must be positive")
        if not 0.0 < prewarm_percentile <= keep_percentile <= 1.0:
            raise ConfigError("need 0 < prewarm_percentile <= keep_percentile <= 1")
        self.bucket_ms = bucket_ms
        self.bucket_count = bucket_count
        self.keep_percentile = keep_percentile
        self.prewarm_percentile = prewarm_percentile
        self.default_keep_alive_ms = default_keep_alive_ms
        self.min_observations = min_observations
        self._last_use: Dict[str, float] = {}
        #: Last *arrival* per key, surviving removal: the histogram
        #: learns from every inter-arrival gap, warm or cold — a
        #: periodic function whose instance never survives its period
        #: would otherwise stay forever unlearnable.
        self._last_arrival: Dict[str, float] = {}
        self._hist: Dict[str, Dict[int, int]] = {}
        self._seen: Dict[str, int] = {}
        #: Percentile-window cache:
        #: key -> (seen-count, keep, prewarm_gap, prewarm_keep).
        #: Windows only move when the histogram does, and the hot paths
        #: (victim scans, expiry rescheduling) read them constantly.
        self._windows: Dict[
            str, Tuple[int, float, Optional[float], float]
        ] = {}
        #: (last_use_ms, seq, key, stamp) lazy-invalidation heap: LRU
        #: victim order; requeued (refused) victims re-enter at +inf.
        self._heap: List[Tuple[float, int, str, int]] = []
        self._stamp: Dict[str, int] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._last_use)

    def __contains__(self, key: str) -> bool:
        return key in self._last_use

    # -- histogram bookkeeping -------------------------------------------
    def observe_idle(self, key: str, idle_ms: float) -> None:
        """Record one idle gap for ``key`` (exposed for trace pre-training)."""
        bucket = min(int(idle_ms // self.bucket_ms), self.bucket_count - 1)
        hist = self._hist.setdefault(key, {})
        hist[bucket] = hist.get(bucket, 0) + 1
        self._seen[key] = self._seen.get(key, 0) + 1

    def _percentile_bucket(self, key: str, fraction: float) -> Optional[int]:
        hist = self._hist.get(key)
        seen = self._seen.get(key, 0)
        if not hist or seen < self.min_observations:
            return None
        target = fraction * seen
        running = 0
        for bucket in sorted(hist):
            running += hist[bucket]
            if running >= target:
                return bucket
        return self.bucket_count - 1

    def _window(self, key: str) -> Tuple[float, Optional[float], float]:
        """(keep, prewarm_gap, prewarm_keep) for ``key``, cached per
        histogram state."""
        seen = self._seen.get(key, 0)
        cached = self._windows.get(key)
        if cached is not None and cached[0] == seen:
            return cached[1], cached[2], cached[3]
        keep_bucket = self._percentile_bucket(key, self.keep_percentile)
        if keep_bucket is None:
            keep = self.default_keep_alive_ms
            gap: Optional[float] = None
            prewarm_keep = keep
        else:
            # The tail of the idle distribution: keep through the end
            # of the ``keep_percentile`` bucket.
            tail = (keep_bucket + 1) * self.bucket_ms
            head_bucket = self._percentile_bucket(
                key, self.prewarm_percentile
            )
            head = (head_bucket or 0) * self.bucket_ms
            if head >= 2.0 * self.bucket_ms:
                # The function reliably stays away >= ``head`` ms (only
                # ``prewarm_percentile`` of gaps are shorter): unload
                # after one bucket of idleness, pre-warm one bucket
                # before the earliest likely return, and keep the
                # pre-warmed instance through the tail of the window.
                keep = self.bucket_ms
                gap = head - self.bucket_ms
                prewarm_keep = tail - gap
            else:
                keep = tail
                gap = None
                prewarm_keep = tail
        self._windows[key] = (seen, keep, gap, prewarm_keep)
        return keep, gap, prewarm_keep

    def keep_alive_ms(self, key: str) -> Optional[float]:
        return self._window(key)[0]

    def prewarm_gap_ms(self, key: str) -> Optional[float]:
        return self._window(key)[1]

    def prewarm_keep_alive_ms(self, key: str) -> Optional[float]:
        return self._window(key)[2]

    # -- ordering hooks --------------------------------------------------
    def _push(self, key: str, sort_key: Optional[float] = None) -> None:
        if sort_key is None:
            sort_key = self._last_use[key]
        self._seq += 1
        stamp = self._stamp.get(key, 0) + 1
        self._stamp[key] = stamp
        heapq.heappush(self._heap, (sort_key, self._seq, key, stamp))

    def on_insert(
        self,
        key: str,
        size_mb: float = 0.0,
        cost_ms: float = 0.0,
        prewarmed: bool = False,
    ) -> None:
        now = self.now_ms()
        self._last_use[key] = now
        if not prewarmed:
            # A cold start is still an arrival: record the gap since
            # the previous arrival (warm or not).
            prev = self._last_arrival.get(key)
            if prev is not None:
                self.observe_idle(key, now - prev)
            self._last_arrival[key] = now
        self._push(key)
        self.stats.tracked += 1

    def on_hit(self, key: str) -> None:
        now = self.now_ms()
        last = self._last_arrival.get(key)
        if last is not None:
            idle = now - last
            keep = self.keep_alive_ms(key)
            if keep is not None and idle > keep:
                self.stats.expired_hits += 1
            else:
                self.stats.keepalive_hits += 1
                tracer = _active_tracer()
                if tracer.enabled:
                    tracer.counter("policy.keepalive_hits")
            self.observe_idle(key, idle)
        self._last_arrival[key] = now
        self._last_use[key] = now
        self._push(key)
        self.stats.hits += 1

    def on_remove(self, key: str, evicted: bool = True) -> None:
        self._last_use.pop(key, None)
        self._stamp.pop(key, None)
        if evicted:
            self._note_eviction(key)

    def victim(self) -> Optional[str]:
        while self._heap:
            sort_key, seq, key, stamp = self._heap[0]
            if self._stamp.get(key) != stamp:
                heapq.heappop(self._heap)  # stale entry
                continue
            return key
        return None

    def requeue(self, key: str) -> None:
        # Refused eviction: move the key genuinely last in the victim
        # order (without faking a use — that would poison the idle
        # histogram) until its next real touch re-ranks it.
        if key in self._last_use:
            self._push(key, sort_key=float("inf"))
        self.stats.requeues += 1


class GreedyDualPolicy(CachePolicy):
    """Greedy-dual-size-frequency keep-alive (the FaasCache policy).

    Each key carries ``priority = clock + frequency * cost / size``:
    cost is what a cold rebuild of the entry costs (milliseconds), size
    its memory footprint, frequency its hit count.  Eviction takes the
    minimum-priority key and advances the clock to that priority, so
    recency ages competitively with cheap-to-rebuild and large entries
    being evicted first.
    """

    name = "greedy_dual"

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        default_cost_ms: float = 100.0,
    ) -> None:
        super().__init__(clock)
        self.default_cost_ms = default_cost_ms
        self.clock_value = 0.0
        self._freq: Dict[str, int] = {}
        self._cost: Dict[str, float] = {}
        self._size: Dict[str, float] = {}
        self._priority: Dict[str, float] = {}
        self._heap: List[Tuple[float, int, str, int]] = []
        self._stamp: Dict[str, int] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._freq)

    def __contains__(self, key: str) -> bool:
        return key in self._freq

    def _credit(self, key: str) -> None:
        self._priority[key] = self.clock_value + (
            self._freq[key] * self._cost[key] / self._size[key]
        )
        self._seq += 1
        stamp = self._stamp.get(key, 0) + 1
        self._stamp[key] = stamp
        heapq.heappush(
            self._heap, (self._priority[key], self._seq, key, stamp)
        )

    def on_insert(
        self,
        key: str,
        size_mb: float = 0.0,
        cost_ms: float = 0.0,
        prewarmed: bool = False,
    ) -> None:
        self._freq[key] = 1
        self._cost[key] = cost_ms if cost_ms > 0 else self.default_cost_ms
        self._size[key] = size_mb if size_mb > 0 else 1.0
        self._credit(key)
        self.stats.tracked += 1

    def on_hit(self, key: str) -> None:
        if key in self._freq:
            self._freq[key] += 1
            self._credit(key)
        self.stats.hits += 1

    def on_remove(self, key: str, evicted: bool = True) -> None:
        priority = self._priority.pop(key, None)
        self._freq.pop(key, None)
        self._cost.pop(key, None)
        self._size.pop(key, None)
        self._stamp.pop(key, None)
        if evicted:
            if priority is not None and priority > self.clock_value:
                self.clock_value = priority
            self._note_eviction(key)

    def victim(self) -> Optional[str]:
        while self._heap:
            priority, seq, key, stamp = self._heap[0]
            if self._stamp.get(key) != stamp:
                heapq.heappop(self._heap)  # stale entry
                continue
            return key
        return None

    def requeue(self, key: str) -> None:
        # Refused eviction: credit the key like a hit so the heap moves
        # on to the next-lowest priority.
        if key in self._freq:
            self._freq[key] += 1
            self._credit(key)
        self.stats.requeues += 1


_POLICY_CLASSES = {
    "lru": LRUPolicy,
    "lifo": LIFOPolicy,
    "hybrid": HybridHistogramPolicy,
    "greedy_dual": GreedyDualPolicy,
}


def normalize_policy_name(name: str) -> str:
    """Canonical form of a policy name (hyphens/aliases folded)."""
    folded = name.strip().lower().replace("-", "_")
    aliases = {
        "hybrid_histogram": "hybrid",
        "gd": "greedy_dual",
        "gdsf": "greedy_dual",
        "faascache": "greedy_dual",
    }
    return aliases.get(folded, folded)


def canonical_policy_name(name: str) -> str:
    """Validate a policy name (``POLICY_NAMES`` or an alias) and return
    its canonical form; the node configs call this on ``cache_policy``."""
    canonical = normalize_policy_name(name) if isinstance(name, str) else None
    if canonical not in _POLICY_CLASSES:
        raise ConfigError(
            f"unknown cache policy {name!r} (have {', '.join(POLICY_NAMES)})"
        )
    return canonical


def make_policy(
    name: str, clock: Optional[Callable[[], float]] = None, **kwargs
) -> CachePolicy:
    """Instantiate a policy by name (``POLICY_NAMES`` or an alias)."""
    return _POLICY_CLASSES[canonical_policy_name(name)](clock=clock, **kwargs)

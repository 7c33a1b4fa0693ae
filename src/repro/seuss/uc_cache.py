"""The idle-UC cache and OOM reclaim daemon.

After an invocation finishes, "its UC can either be destroyed or cached
for future invocations of that function on a new set of arguments" (§4)
— cached UCs serve the *hot* path.  Idle UCs are transient by design:
"UCs for function invocations are transient and can always be killed by
the system without impacting forward progress", so the OOM daemon
reclaims them (oldest first, across all functions) whenever free memory
drops below the configured threshold (§6 "Memory Management").  The
cache's policy (LRU by default, ``seuss/policy.py``) picks which
function gives up its oldest idle UC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.seuss.policy import CachePolicy, LRUPolicy
from repro.trace import current as _active_tracer
from repro.unikernel.context import UCState, UnikernelContext


@dataclass
class UCCacheStats:
    cached: int = 0
    hot_hits: int = 0
    reclaimed: int = 0
    dropped: int = 0


class IdleUCCache:
    """Idle unikernel contexts keyed by function, policy-ordered across
    functions."""

    def __init__(
        self,
        per_function_limit: int = 512,
        policy: Optional[CachePolicy] = None,
    ) -> None:
        self._per_function_limit = per_function_limit
        # Each function key holds a FIFO of idle UCs.
        self._idle: Dict[str, Deque[UnikernelContext]] = {}
        self._count = 0
        #: Reclaim order over *function keys* (``seuss/policy.py``);
        #: tracks exactly the keys with idle UCs.
        self._policy = LRUPolicy() if policy is None else policy
        self.stats = UCCacheStats()

    def __len__(self) -> int:
        return self._count

    def function_count(self, key: str) -> int:
        return len(self._idle.get(key, ()))

    # -- hot-path operations -------------------------------------------------
    def put(self, key: str, uc: UnikernelContext) -> bool:
        """Cache a UC for hot reuse; returns False if over the limit."""
        if uc.state is not UCState.IDLE:
            raise ValueError(f"cannot cache UC in state {uc.state}")
        bucket = self._idle.get(key)
        if bucket is None:
            bucket = deque()
            self._idle[key] = bucket
        if len(bucket) >= self._per_function_limit:
            return False
        bucket.append(uc)
        self._count += 1
        self._policy.on_insert(key)
        self.stats.cached += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event("uc_cache.cached", key=key)
            tracer.gauge("uc_cache.idle_ucs", self._count)
        return True

    def pop(self, key: str) -> Optional[UnikernelContext]:
        """Take an idle UC for ``key``, if any (the hot path).

        Takes the *most recently idled* context (LIFO): reuse and the
        OOM daemon must consume from opposite ends, so hot hits get the
        cache-warm UC while reclaim keeps eating the oldest.
        """
        bucket = self._idle.get(key)
        if not bucket:
            return None
        uc = bucket.pop()
        self._count -= 1
        if not bucket:
            del self._idle[key]
            # The function left the cache by being *used*, not evicted;
            # keep policy eviction counts clean.
            self._policy.on_remove(key, evicted=False)
        else:
            self._policy.on_hit(key)
        self.stats.hot_hits += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event("uc_cache.hot_hit", key=key)
            tracer.gauge("uc_cache.idle_ucs", self._count)
        return uc

    # -- reclamation -----------------------------------------------------
    def reclaim_pages(self, pages_needed: int) -> int:
        """OOM-daemon hook: destroy idle UCs until enough pages free.

        Reclaims from the policy's victim function first (the least
        recently used under the default policy).  Returns pages
        actually freed.
        """
        freed = 0
        while freed < pages_needed and self._idle:
            key = self._policy.victim()
            bucket = self._idle.get(key)
            if bucket is None:
                raise RuntimeError(
                    f"{self._policy.name} policy chose {key!r}, "
                    f"which has no idle UCs"
                )
            uc = bucket.popleft()
            self._count -= 1
            if not bucket:
                del self._idle[key]
                self._policy.on_remove(key)
            freed += uc.destroy()
            self.stats.reclaimed += 1
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.event("uc_cache.reclaimed", key=key)
                tracer.gauge("uc_cache.idle_ucs", self._count)
        return freed

    def drop_function(self, key: str) -> int:
        """Destroy every idle UC of one function (pre-eviction hook)."""
        bucket = self._idle.pop(key, None)
        if not bucket:
            return 0
        # Dropped on behalf of a snapshot-cache eviction (or a clear);
        # the owning cache's policy accounts the eviction.
        self._policy.on_remove(key, evicted=False)
        dropped = 0
        for uc in bucket:
            uc.destroy()
            dropped += 1
        self._count -= dropped
        self.stats.dropped += dropped
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event("uc_cache.dropped", key=key, count=dropped)
            tracer.gauge("uc_cache.idle_ucs", self._count)
        return dropped

    def clear(self) -> int:
        """Destroy all idle UCs; returns how many were destroyed."""
        total = 0
        for key in list(self._idle):
            total += self.drop_function(key)
        return total

"""Resilience counters: one view over a cluster's failure handling.

The platform's failure story is scattered by design — retries live in
``ControllerStats``, breaker transitions in each node's
``BreakerStats``, quarantines in the snapshot-cache stats, drops in the
bus topic stats, injected faults in the injector.
:class:`ResilienceReport` gathers them into one flat record that the
chaos experiment tabulates and tests assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


def goodput_per_sec(results: Iterable, duration_ms: float) -> float:
    """Completed-within-deadline requests per second of simulated time.

    With the overload control plane's deadlines attached, a request that
    misses its deadline is failed at the controller, so client-visible
    ``success`` *is* "completed within deadline"; without deadlines this
    degrades gracefully to plain throughput.
    """
    if duration_ms <= 0:
        return 0.0
    completed = sum(1 for result in results if result.success)
    return completed * 1000.0 / duration_ms


@dataclass
class ResilienceReport:
    """Aggregated resilience counters for one cluster run."""

    # Controller-side.
    received: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    recovered: int = 0
    retry_exhausted: int = 0
    circuit_rejected: int = 0
    # Gateway quotas (zero with the paper's quotas-disabled default).
    throttled: int = 0
    quota_rate_rejections: int = 0
    quota_concurrency_rejections: int = 0
    # Overload control plane (all zero with overload off).
    deadline_rejected: int = 0
    shed: int = 0
    cancelled: int = 0
    zombies: int = 0
    retry_budget_denied: int = 0
    # Node work accounting (core-ms).
    useful_ms: float = 0.0
    wasted_ms: float = 0.0
    # Node-side.
    node_crashes: int = 0
    node_restarts: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    snapshots_quarantined: int = 0
    # Bus-side.
    bus_dropped: int = 0
    bus_delayed: int = 0
    # Injected faults by kind (empty when no injector is installed).
    faults_injected: Dict[str, int] = field(default_factory=dict)
    # Sharded control plane / routing (defaults describe the unsharded,
    # round-robin wiring so historical reports are unchanged).
    shards: int = 1
    routing_policy: str = "round_robin"
    route_decisions: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    spills: int = 0
    #: Requests each shard was handed by the hash ring.
    shard_dispatch: Dict[int, int] = field(default_factory=dict)
    # Page dedup (all zero with dedup off — the default).
    dedup_merged_pages: int = 0
    dedup_unmerged_pages: int = 0
    dedup_saved_pages: int = 0
    dedup_scan_ms: float = 0.0
    # Cache policy of the cluster's nodes (empty with no nodes).
    cache_policy: str = ""
    policy_evictions: int = 0
    policy_keepalive_hits: int = 0
    policy_prewarm_wasted_ms: float = 0.0

    @property
    def success_rate(self) -> float:
        """Client-visible success fraction."""
        if self.received == 0:
            return 1.0
        return self.succeeded / self.received

    @property
    def locality_hit_rate(self) -> float:
        """Affinity decisions landing on a node that held the state."""
        total = self.locality_hits + self.locality_misses
        return self.locality_hits / total if total else 0.0

    @property
    def wasted_work_fraction(self) -> float:
        """Node core time burned for nobody over all core time spent."""
        total = self.useful_ms + self.wasted_ms
        if total <= 0:
            return 0.0
        return self.wasted_ms / total

    @classmethod
    def from_cluster(cls, cluster) -> "ResilienceReport":
        """Collect from a :class:`~repro.faas.cluster.FaasCluster`."""
        plane = getattr(cluster, "control_plane", None)
        stats = (
            plane.controller_stats()
            if plane is not None
            else cluster.controller.stats
        )
        report = cls(
            received=stats.received,
            succeeded=stats.succeeded,
            failed=stats.failed,
            timed_out=stats.timed_out,
            retried=stats.retried,
            recovered=stats.recovered,
            retry_exhausted=stats.retry_exhausted,
            circuit_rejected=stats.circuit_rejected,
            throttled=stats.throttled,
            deadline_rejected=stats.deadline_rejected,
        )
        quota_stats = cluster.controller.quotas.stats
        report.quota_rate_rejections = quota_stats.rate_rejections
        report.quota_concurrency_rejections = quota_stats.concurrency_rejections
        if plane is not None:
            # Sharded wiring: overloads, buses and breakers are owned
            # per shard; fold every shard's copy into the report.
            for shard in plane.shards:
                if shard.overload is not None:
                    report.shed += shard.overload.stats.shed
                    report.retry_budget_denied += (
                        shard.overload.stats.retry_budget_denied
                    )
                for topic_stats in shard.controller.bus.stats.values():
                    report.bus_dropped += topic_stats.dropped
                    report.bus_delayed += topic_stats.delayed
            routing = plane.routing_stats()
            report.shards = plane.shard_count
            report.routing_policy = plane.routing_policy_name
            report.route_decisions = routing.decisions
            report.locality_hits = routing.locality_hits
            report.locality_misses = routing.locality_misses
            report.spills = routing.spills
            report.shard_dispatch = plane.dispatch_counts()
            healths = plane.healths()
        else:
            overload = getattr(cluster, "overload", None)
            if overload is not None:
                report.shed = overload.stats.shed
                report.retry_budget_denied = overload.stats.retry_budget_denied
            for topic_stats in cluster.bus.stats.values():
                report.bus_dropped += topic_stats.dropped
                report.bus_delayed += topic_stats.delayed
            healths = getattr(cluster, "health", [])
        for node in getattr(cluster, "nodes", []):
            report.cancelled += getattr(node, "cancelled_count", 0)
            report.zombies += getattr(node, "zombie_count", 0)
            report.useful_ms += getattr(node, "useful_ms", 0.0)
            report.wasted_ms += getattr(node, "wasted_ms", 0.0)
            for policy in (
                getattr(node, "cache_policy", None),
                getattr(node, "uc_policy", None),
            ):
                if policy is not None:
                    report.cache_policy = policy.name
                    report.policy_evictions += policy.stats.evictions
                    report.policy_keepalive_hits += policy.stats.keepalive_hits
                    report.policy_prewarm_wasted_ms += (
                        policy.stats.prewarm_wasted_ms
                    )
        seen_nodes = set()
        for health in healths:
            node = health.node
            report.breaker_opens += health.breaker.stats.opens
            report.breaker_closes += health.breaker.stats.closes
            if id(node) in seen_nodes:
                # Sharded planes wrap each node once per shard; count
                # node-side state (crashes, quarantines) once per node.
                continue
            seen_nodes.add(id(node))
            report.node_crashes += getattr(node, "crash_count", 0)
            report.node_restarts += getattr(node, "restart_count", 0)
            cache = getattr(node, "snapshot_cache", None)
            if cache is not None:
                report.snapshots_quarantined += cache.stats.quarantined
        # Dedup domains hang off nodes, which are reachable via
        # ``cluster.nodes`` even when no health view is wired (the
        # default cluster) and via healths when only those exist;
        # count each node's domain once.
        dedup_nodes = {}
        for node in getattr(cluster, "nodes", []):
            dedup_nodes[id(node)] = node
        for health in healths:
            dedup_nodes.setdefault(id(health.node), health.node)
        for node in dedup_nodes.values():
            dedup = getattr(node, "dedup", None)
            if dedup is not None:
                report.dedup_merged_pages += dedup.merged_pages
                report.dedup_unmerged_pages += dedup.unmerged_pages
                report.dedup_saved_pages += dedup.saved_pages
                report.dedup_scan_ms += dedup.scan_ms
        injector = getattr(cluster, "fault_injector", None)
        if injector is not None:
            report.faults_injected = injector.stats.as_dict()
        return report

    def lines(self) -> List[str]:
        """A human-readable summary block."""
        out = [
            f"requests: {self.received} "
            f"(ok {self.succeeded}, failed {self.failed}, "
            f"timed out {self.timed_out})",
            f"retries: {self.retried} scheduled, {self.recovered} requests "
            f"recovered, {self.retry_exhausted} exhausted",
            f"circuit: {self.circuit_rejected} rejections, "
            f"{self.breaker_opens} opens, {self.breaker_closes} closes",
            f"nodes: {self.node_crashes} crashes, {self.node_restarts} restarts",
            f"snapshots quarantined: {self.snapshots_quarantined}",
            f"bus: {self.bus_dropped} dropped, {self.bus_delayed} delayed",
        ]
        # Quota / overload rows appear only when those planes acted, so
        # historical (overload-off, quota-off) reports are unchanged.
        if (
            self.throttled
            or self.quota_rate_rejections
            or self.quota_concurrency_rejections
        ):
            out.append(
                f"quotas: {self.throttled} throttled "
                f"({self.quota_rate_rejections} rate, "
                f"{self.quota_concurrency_rejections} concurrency)"
            )
        if (
            self.shed
            or self.cancelled
            or self.deadline_rejected
            or self.zombies
            or self.retry_budget_denied
        ):
            out.append(
                f"overload: {self.shed} shed, {self.cancelled} cancelled, "
                f"{self.deadline_rejected} rejected at deadline, "
                f"{self.zombies} zombies, "
                f"{self.retry_budget_denied} retries denied"
            )
        if self.wasted_ms:
            out.append(
                f"node work: {self.useful_ms:.0f} ms useful, "
                f"{self.wasted_ms:.0f} ms wasted "
                f"({self.wasted_work_fraction:.1%} wasted)"
            )
        if self.cache_policy:
            out.append(
                f"cache policy: {self.cache_policy} "
                f"({self.policy_evictions} policy evictions, "
                f"{self.policy_keepalive_hits} keep-alive hits, "
                f"{self.policy_prewarm_wasted_ms:.0f} ms pre-warm wasted)"
            )
        if self.faults_injected:
            fired = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.faults_injected.items())
                if count
            )
            out.append(f"faults injected: {fired or 'none'}")
        # Sharding / affinity rows appear only when that plane is in
        # play (same pattern as the quota row above): a default 1-shard
        # round-robin cluster prints the historical block verbatim.
        if self.shards > 1 or self.shard_dispatch:
            spread = ", ".join(
                f"s{shard_id}={count}"
                for shard_id, count in sorted(self.shard_dispatch.items())
            )
            out.append(
                f"shards: {self.shards} ({self.routing_policy}), "
                f"dispatch {spread or 'none'}"
            )
        if self.locality_hits or self.locality_misses:
            out.append(
                f"locality: {self.locality_hits} hits, "
                f"{self.locality_misses} misses "
                f"({self.locality_hit_rate:.1%} hit rate, "
                f"{self.spills} spills)"
            )
        # Dedup row appears only when a dedup domain acted (default-off
        # clusters print the historical block verbatim).
        if (
            self.dedup_merged_pages
            or self.dedup_unmerged_pages
            or self.dedup_scan_ms
        ):
            out.append(
                f"dedup: {self.dedup_merged_pages} pages merged, "
                f"{self.dedup_unmerged_pages} unmerged, "
                f"{self.dedup_saved_pages} held savings, "
                f"{self.dedup_scan_ms:.0f} ms scanned"
            )
        return out

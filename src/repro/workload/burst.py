"""The burst-resiliency workload (§7, Figures 6-8).

A continuous background stream keeps the platform at moderate
utilization: 128 workers invoking 16 IO-bound functions, rate-throttled
to 72 requests/s, each blocking 250 ms on the external HTTP server.  On
top, a series of *bursts* arrives at a fixed period; each burst is a
volley of concurrent invocations of a CPU-bound function (~150 ms) that
is **unique to that burst** — simulating a compute-intensive workload
triggered by a single application the platform has never seen.

The interesting observables are exactly the paper's: whether burst
requests error (Linux: container-cache exhaustion around the 5th burst),
cold-start magnitudes when the stemcell pool cannot repopulate between
bursts (10-60 s), and how much the background stream is disturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Tuple

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.faas.records import FunctionSpec, InvocationResult
from repro.workload.functions import (
    CPU_BOUND_EXEC_MS,
    IO_BLOCK_MS,
    cpu_bound_function,
    io_bound_function,
)


@dataclass(frozen=True)
class BurstConfig:
    """Parameters of one burst-resiliency run."""

    burst_interval_ms: float
    burst_count: int = 8
    burst_size: int = 128
    background_workers: int = 128
    background_functions: int = 16
    background_rate_per_s: float = 72.0
    cpu_exec_ms: float = CPU_BOUND_EXEC_MS
    io_block_ms: float = IO_BLOCK_MS
    #: Lead time for the background stream to reach steady state.
    warmup_ms: float = 5_000.0
    seed: int = 0xB0257

    def __post_init__(self) -> None:
        if self.burst_interval_ms <= 0:
            raise ConfigError("burst_interval_ms must be positive")
        if self.burst_count < 1 or self.burst_size < 1:
            raise ConfigError("burst_count and burst_size must be >= 1")
        if self.background_workers < 1 or self.background_functions < 1:
            raise ConfigError("background stream parameters must be >= 1")
        if self.background_rate_per_s <= 0:
            raise ConfigError("background_rate_per_s must be positive")

    @property
    def stream_end_ms(self) -> float:
        """When the background stream stops admitting requests."""
        return self.warmup_ms + self.burst_interval_ms * self.burst_count


@dataclass
class BurstResult:
    """Everything observed during one run."""

    config: BurstConfig
    background: List[InvocationResult] = field(default_factory=list)
    bursts: List[List[InvocationResult]] = field(default_factory=list)
    #: Optional cache-occupancy time series attached by the experiment
    #: harness (a :class:`repro.metrics.monitor.Monitor`).
    cache_monitor: object = None

    # -- scatter data (the dots and x's of Figures 6-8) ---------------------
    def points(self) -> List[Tuple[float, float, bool, str]]:
        """(sent_ms, latency_ms, success, kind) for every request."""
        rows = [
            (r.sent_at_ms, r.latency_ms, r.success, "background")
            for r in self.background
        ]
        for burst in self.bursts:
            rows.extend(
                (r.sent_at_ms, r.latency_ms, r.success, "burst") for r in burst
            )
        rows.sort(key=lambda row: row[0])
        return rows

    # -- aggregates ---------------------------------------------------------
    @property
    def burst_errors(self) -> int:
        return sum(1 for burst in self.bursts for r in burst if not r.success)

    @property
    def background_errors(self) -> int:
        return sum(1 for r in self.background if not r.success)

    @property
    def total_errors(self) -> int:
        return self.burst_errors + self.background_errors

    def first_failing_burst(self) -> int:
        """1-based index of the first burst with an error, or 0 if none."""
        for index, burst in enumerate(self.bursts, start=1):
            if any(not r.success for r in burst):
                return index
        return 0

    def burst_latency_max_ms(self) -> float:
        samples = [
            r.latency_ms for burst in self.bursts for r in burst if r.success
        ]
        return max(samples) if samples else 0.0

    def background_latencies(self) -> List[float]:
        return [r.latency_ms for r in self.background if r.success]


class BurstWorkload:
    """Runs the background stream and the burst volleys."""

    def __init__(self, config: BurstConfig) -> None:
        self.config = config
        self._next_admission_ms = 0.0
        self._bg_cursor = 0

    def _background_fns(self) -> List[FunctionSpec]:
        return [
            io_bound_function(f"io-{index}", block_ms=self.config.io_block_ms)
            for index in range(self.config.background_functions)
        ]

    def _admission_delay_ms(self, now: float) -> float:
        interval = 1000.0 / self.config.background_rate_per_s
        slot = max(self._next_admission_ms, now)
        self._next_admission_ms = slot + interval
        return slot - now

    def _background_worker(
        self,
        cluster: FaasCluster,
        functions: List[FunctionSpec],
        result: BurstResult,
    ) -> Generator:
        env = cluster.env
        while True:
            delay = self._admission_delay_ms(env.now)
            if env.now + delay >= self.config.stream_end_ms:
                return
            if delay > 0:
                yield env.timeout(delay)
            fn = functions[self._bg_cursor % len(functions)]
            self._bg_cursor += 1
            outcome = yield cluster.invoke(fn)
            result.background.append(outcome)

    def _burst(
        self, cluster: FaasCluster, index: int, result: BurstResult
    ) -> Generator:
        """Fire one volley: ``burst_size`` concurrent requests to a
        function unique to this burst."""
        env = cluster.env
        fn = cpu_bound_function(
            f"burst-{index}", exec_ms=self.config.cpu_exec_ms
        )
        bucket: List[InvocationResult] = []
        result.bursts.append(bucket)
        requests = [cluster.invoke(fn) for _ in range(self.config.burst_size)]
        outcomes = yield env.all_of(requests)
        for process in requests:
            bucket.append(outcomes[process])

    def _conductor(self, cluster: FaasCluster, result: BurstResult) -> Generator:
        env = cluster.env
        yield env.timeout(self.config.warmup_ms)
        volleys = []
        for index in range(self.config.burst_count):
            volleys.append(env.process(self._burst(cluster, index, result)))
            yield env.timeout(self.config.burst_interval_ms)
        yield env.all_of(volleys)

    def run(self, cluster: FaasCluster) -> BurstResult:
        """Run the full scenario on the cluster's environment."""
        env = cluster.env
        result = BurstResult(config=self.config)
        functions = self._background_fns()
        self._next_admission_ms = env.now
        workers = [
            env.process(self._background_worker(cluster, functions, result))
            for _ in range(self.config.background_workers)
        ]
        conductor = env.process(self._conductor(cluster, result))
        env.run(until=env.all_of(workers + [conductor]))
        return result

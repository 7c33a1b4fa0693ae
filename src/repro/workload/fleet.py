"""Fleet-scale engine-throughput workload (the million-event bench).

A SEUSS deployment's control plane sees *fleet* event rates: hundreds of
arrivals per millisecond across tens of thousands of functions, each
arrival producing at least an arrival tick and a completion tick in the
simulator.  At that scale the event queue itself — not the platform
model — dominates wall-clock time, so this module isolates it: a
seeded Zipf-skewed open-loop arrival stream with exponential service
times, driven through the engine by :func:`run_batched`
(:meth:`~repro.sim.core.Environment.timeout_batch` arrival epochs, plain
callbacks instead of processes).  Its :class:`FleetStats` engine-event
cost is exactly the quantity
``benchmarks/perf_gate.py::million_event_fleet`` and the ``fleet``
experiment table report.

All randomness is pre-generated by :func:`generate` from one seeded RNG
*before* the driver runs: the driver is deterministic, timing-free, and
reusable for byte-identical tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.sim import Environment
from repro.workload.traces import ModulatedArrivals, ZipfPopularity


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet workload (defaults match the committed bench)."""

    arrivals: int
    functions: int = 10_000
    #: Aggregate arrival rate.  400/ms = 400k invocations per second of
    #: simulated time — cloud-provider scale, far past what the per-node
    #: experiments drive.
    rate_per_ms: float = 400.0
    service_mean_ms: float = 250.0
    zipf_exponent: float = 1.1
    seed: int = 0xF1EE7
    #: Arrivals injected per bulk insert; bounds peak queue length,
    #: not the totals.
    epoch_size: int = 100_000

    def __post_init__(self) -> None:
        if self.arrivals < 1:
            raise ConfigError(f"arrivals must be >= 1, got {self.arrivals}")
        if self.functions < 1:
            raise ConfigError(f"functions must be >= 1, got {self.functions}")
        if self.rate_per_ms <= 0:
            raise ConfigError(f"rate_per_ms must be positive, got {self.rate_per_ms}")
        if self.service_mean_ms <= 0:
            raise ConfigError(
                f"service_mean_ms must be positive, got {self.service_mean_ms}"
            )
        if self.zipf_exponent <= 0:
            raise ConfigError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}"
            )
        if self.epoch_size < 1:
            raise ConfigError(f"epoch_size must be >= 1, got {self.epoch_size}")


@dataclass(frozen=True)
class FleetWorkload:
    """Pre-generated vectors: the driver consumes these, never an RNG."""

    config: FleetConfig
    arrival_times_ms: List[float]
    function_indices: List[int]
    service_times_ms: List[float]


@dataclass
class FleetStats:
    """What one driver run did, in deterministic sim quantities only."""

    arrivals: int
    completions: int
    engine_events: int
    final_ms: float
    function_counts: List[int] = field(repr=False)

    @property
    def events_per_arrival(self) -> float:
        return self.engine_events / self.arrivals

    @property
    def head_share(self) -> float:
        """Traffic fraction on the single most popular function."""
        return max(self.function_counts) / self.arrivals


def generate(config: FleetConfig) -> FleetWorkload:
    """Materialize the workload vectors from ``config.seed``.

    One RNG drives arrival gaps, Zipf function choice and service times
    in a fixed order, so a config is a complete description of the run.
    """
    rng = random.Random(config.seed)
    at = 0.0
    arrival_times: List[float] = []
    for _ in range(config.arrivals):
        at += rng.expovariate(config.rate_per_ms)
        arrival_times.append(at)
    weights = [
        1.0 / pow(rank, config.zipf_exponent)
        for rank in range(1, config.functions + 1)
    ]
    indices = rng.choices(
        range(config.functions), weights=weights, k=config.arrivals
    )
    services = [
        rng.expovariate(1.0 / config.service_mean_ms)
        for _ in range(config.arrivals)
    ]
    return FleetWorkload(
        config=config,
        arrival_times_ms=arrival_times,
        function_indices=indices,
        service_times_ms=services,
    )


def run_batched(workload: FleetWorkload, env: Optional[Environment] = None) -> FleetStats:
    """Bulk arrival injection — the calendar-queue era idiom.

    Both tick streams enter through
    :meth:`~repro.sim.core.Environment.timeout_batch`: arrivals as-is
    (already time-sorted) and completions sorted per epoch (completion
    time = arrival + service is known up front because the workload is
    pre-generated).  Arrivals fire in injection order, so one shared
    cursor-driven callback tallies the per-function counts — no
    per-arrival process, closure, or timeout construction — and the
    engine cost drops to ~2 events per arrival.
    """
    if env is None:
        env = Environment()
    config = workload.config
    times = workload.arrival_times_ms
    services = workload.service_times_ms
    counts = [0] * config.functions
    completed = [0]
    next_fn = iter(workload.function_indices).__next__

    def arrive(event, counts=counts, next_fn=next_fn) -> None:
        counts[next_fn()] += 1

    def complete(event, completed=completed) -> None:
        completed[0] += 1

    def driver():
        n = config.arrivals
        for start in range(0, n, config.epoch_size):
            end = min(start + config.epoch_size, n)
            now = env.now
            chunk = times[start:end]
            arrivals = env.timeout_batch(
                [t - now for t in chunk], callback=arrive
            )
            finish_deltas = sorted(
                t + s - now
                for t, s in zip(chunk, services[start:end])
            )
            env.timeout_batch(finish_deltas, callback=complete)
            yield arrivals[-1]

    env.process(driver())
    env.run()
    return FleetStats(
        arrivals=config.arrivals,
        completions=completed[0],
        engine_events=env.events_processed,
        final_ms=env.now,
        function_counts=counts,
    )


# ---------------------------------------------------------------------------
# Production-shaped fleet traces ("Serverless in the Wild" regime)
# ---------------------------------------------------------------------------

#: Per-function inter-arrival CV classes.  The Azure Functions trace
#: analysis splits functions into roughly-Poisson traffic, timer-driven
#: low-CV traffic, and high-CV bursty traffic; the synthesizer assigns
#: each function one class and shapes its arrivals accordingly.
CLASS_POISSON = 0  #: CV ~ 1: drawn from the shared diurnal Poisson pool.
CLASS_PERIODIC = 1  #: CV < 1: timer-like near-regular per-function period.
CLASS_BURSTY = 2  #: CV > 1: pool arrivals clumped into same-function runs.

CLASS_NAMES = {
    CLASS_POISSON: "poisson",
    CLASS_PERIODIC: "periodic",
    CLASS_BURSTY: "bursty",
}


@dataclass(frozen=True)
class FleetTraceConfig:
    """Shape of a production-style fleet trace.

    Defaults target the ``keepalive`` experiment's full profile: 100k
    functions, one simulated hour, Zipf-skewed popularity with a long
    tail of nearly-idle functions, and a compressed diurnal cycle (one
    base/peak "day" per ``diurnal_period_ms``).
    """

    functions: int = 100_000
    duration_ms: float = 3_600_000.0
    #: Stitched-segment length.  Synthesis draws arrivals one segment at
    #: a time (the way hour-chunked production trace files are built),
    #: which is exactly the pattern that exercised the historical
    #: ``ZipfPopularity``/``ModulatedArrivals`` resume bugs.
    segment_ms: float = 600_000.0
    #: Aggregate (fleet-wide) rates for the shared Poisson/bursty pool.
    base_rate_per_s: float = 60.0
    peak_rate_per_s: float = 180.0
    diurnal_period_ms: float = 1_800_000.0
    peak_fraction: float = 0.35
    zipf_exponent: float = 1.05
    #: Function-population shares per CV class (remainder is Poisson).
    periodic_share: float = 0.15
    bursty_share: float = 0.25
    #: Mean same-function run length for bursty-class arrivals.
    burst_mean_run: float = 4.0
    #: Timer periods are log-uniform in [min, max]; each tick jitters by
    #: a Gaussian factor of CV ``period_jitter_cv``.
    period_min_ms: float = 120_000.0
    period_max_ms: float = 2_400_000.0
    period_jitter_cv: float = 0.1
    #: Per-function snapshot footprints: Pareto-tailed in [min, max] MB.
    size_min_mb: float = 2.0
    size_max_mb: float = 256.0
    #: Per-function mean execution time: shifted-exponential, capped.
    exec_min_ms: float = 5.0
    exec_mean_ms: float = 80.0
    exec_max_ms: float = 30_000.0
    seed: int = 0x5EED5

    def __post_init__(self) -> None:
        if self.functions < 1:
            raise ConfigError(f"functions must be >= 1, got {self.functions}")
        if self.duration_ms <= 0:
            raise ConfigError(f"duration_ms must be positive, got {self.duration_ms}")
        if self.segment_ms <= 0:
            raise ConfigError(f"segment_ms must be positive, got {self.segment_ms}")
        if self.base_rate_per_s <= 0 or self.peak_rate_per_s <= 0:
            raise ConfigError("rates must be positive")
        if self.diurnal_period_ms <= 0:
            raise ConfigError("diurnal_period_ms must be positive")
        if not 0.0 < self.peak_fraction < 1.0:
            raise ConfigError(f"peak_fraction {self.peak_fraction} not in (0,1)")
        if self.zipf_exponent <= 0:
            raise ConfigError("zipf_exponent must be positive")
        if self.periodic_share < 0 or self.bursty_share < 0:
            raise ConfigError("class shares must be non-negative")
        if self.periodic_share + self.bursty_share >= 1.0:
            raise ConfigError("periodic_share + bursty_share must leave a Poisson remainder")
        if self.burst_mean_run < 1.0:
            raise ConfigError(f"burst_mean_run must be >= 1, got {self.burst_mean_run}")
        if not 0 < self.period_min_ms <= self.period_max_ms:
            raise ConfigError("need 0 < period_min_ms <= period_max_ms")
        if self.period_jitter_cv < 0:
            raise ConfigError("period_jitter_cv must be non-negative")
        if not 0 < self.size_min_mb <= self.size_max_mb:
            raise ConfigError("need 0 < size_min_mb <= size_max_mb")
        if not 0 < self.exec_min_ms <= self.exec_max_ms:
            raise ConfigError("need 0 < exec_min_ms <= exec_max_ms")
        if self.exec_mean_ms <= self.exec_min_ms:
            raise ConfigError("exec_mean_ms must exceed exec_min_ms")


@dataclass(frozen=True)
class FleetTrace:
    """A synthesized fleet trace: parallel arrival vectors + per-function metadata.

    Arrival ``i`` is function ``function_ids[i]`` at ``times_ms[i]``
    (non-decreasing).  Per-function vectors are indexed by function id:
    ``sizes_mb`` (snapshot footprint), ``exec_ms`` (mean execution
    time), ``classes`` (``CLASS_*``).
    """

    config: FleetTraceConfig
    times_ms: List[float] = field(repr=False)
    function_ids: List[int] = field(repr=False)
    sizes_mb: List[float] = field(repr=False)
    exec_ms: List[float] = field(repr=False)
    classes: List[int] = field(repr=False)
    segments: int

    @property
    def arrivals(self) -> int:
        return len(self.times_ms)

    @property
    def duration_ms(self) -> float:
        return self.config.duration_ms

    def distinct_functions(self) -> int:
        return len(set(self.function_ids))

    def class_counts(self) -> Dict[str, int]:
        """Arrival count per CV class name."""
        counts = {name: 0 for name in CLASS_NAMES.values()}
        for fn in self.function_ids:
            counts[CLASS_NAMES[self.classes[fn]]] += 1
        return counts

    def head_share(self, head: int) -> float:
        """Traffic fraction landing on the ``head`` busiest functions."""
        per_fn: Dict[int, int] = {}
        for fn in self.function_ids:
            per_fn[fn] = per_fn.get(fn, 0) + 1
        busiest = sorted(per_fn.values(), reverse=True)[:head]
        return sum(busiest) / max(1, len(self.function_ids))


def synthesize_fleet_trace(config: FleetTraceConfig) -> FleetTrace:
    """Build a diurnal, Zipf-skewed fleet trace segment by segment.

    Synthesis is fully deterministic from ``config.seed``.  The shared
    pool (Poisson + bursty classes) comes from one resumable
    :class:`~repro.workload.traces.ModulatedArrivals` stream stitched
    across ``segment_ms`` windows with popularity drawn from one
    resumable Zipf stream — both depend on the resume fixes pinned in
    ``tests/test_traces_and_monitor.py``.  Timer-class functions emit
    their own jittered periodic trains, and everything merges into one
    time-sorted trace.
    """
    rng = random.Random(config.seed)

    # Per-function metadata: CV class, snapshot size, mean exec time.
    classes: List[int] = []
    sizes: List[float] = []
    execs: List[float] = []
    periodic_cut = config.periodic_share
    bursty_cut = config.periodic_share + config.bursty_share
    for _ in range(config.functions):
        draw = rng.random()
        if draw < periodic_cut:
            classes.append(CLASS_PERIODIC)
        elif draw < bursty_cut:
            classes.append(CLASS_BURSTY)
        else:
            classes.append(CLASS_POISSON)
        sizes.append(
            round(
                min(config.size_max_mb, config.size_min_mb * rng.paretovariate(1.6)),
                2,
            )
        )
        execs.append(
            round(
                min(
                    config.exec_max_ms,
                    config.exec_min_ms
                    + rng.expovariate(1.0 / (config.exec_mean_ms - config.exec_min_ms)),
                ),
                2,
            )
        )

    # Shared diurnal pool over the non-periodic population, stitched one
    # segment at a time from resumable arrival + popularity streams.
    pooled = [fn for fn in range(config.functions) if classes[fn] != CLASS_PERIODIC]
    times: List[float] = []
    fns: List[int] = []
    segments = 0
    if pooled:
        arrivals = ModulatedArrivals(
            config.base_rate_per_s,
            config.peak_rate_per_s,
            config.diurnal_period_ms,
            peak_fraction=config.peak_fraction,
            seed=rng.randrange(2**31),
        )
        zipf = ZipfPopularity(
            len(pooled), config.zipf_exponent, seed=rng.randrange(2**31)
        ).stream()
        seg_start = 0.0
        while seg_start < config.duration_ms:
            seg_end = min(seg_start + config.segment_ms, config.duration_ms)
            seg_times = arrivals.arrival_times_until(seg_end, seg_start)
            times.extend(seg_times)
            fns.extend(pooled[idx] for idx in zipf.take(len(seg_times)))
            segments += 1
            seg_start = seg_end

        # Clump bursty-class pool arrivals into same-function runs:
        # whenever a bursty function is drawn, the next ~burst_mean_run
        # pool slots repeat it (CV > 1 without changing the timeline).
        burst_rng = random.Random(rng.randrange(2**31))
        mean_extra = config.burst_mean_run - 1.0
        cursor = 0
        total_pool = len(fns)
        while cursor < total_pool:
            fn = fns[cursor]
            if classes[fn] == CLASS_BURSTY and mean_extra > 0:
                run_end = min(
                    cursor + 1 + int(burst_rng.expovariate(1.0 / mean_extra)),
                    total_pool,
                )
                for slot in range(cursor + 1, run_end):
                    fns[slot] = fn
                cursor = run_end
            else:
                cursor += 1

    # Timer-class functions: independent jittered periodic trains.
    timer_rng = random.Random(rng.randrange(2**31))
    log_min = math.log(config.period_min_ms)
    log_max = math.log(config.period_max_ms)
    for fn in range(config.functions):
        if classes[fn] != CLASS_PERIODIC:
            continue
        period = math.exp(timer_rng.uniform(log_min, log_max))
        at = timer_rng.uniform(0.0, period)
        while at <= config.duration_ms:
            times.append(at)
            fns.append(fn)
            at += period * max(0.05, timer_rng.gauss(1.0, config.period_jitter_cv))

    order = sorted(range(len(times)), key=times.__getitem__)
    return FleetTrace(
        config=config,
        times_ms=[times[i] for i in order],
        function_ids=[fns[i] for i in order],
        sizes_mb=sizes,
        exec_ms=execs,
        classes=classes,
        segments=segments,
    )

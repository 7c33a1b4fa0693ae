"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per measurement, so no heap, cache
or import state survives from one measurement to the next, and the
garbage collector keeps its interpreter defaults throughout.  The
script builds its inputs from ``--seed`` (set-up), runs the timed
region once, checks the outputs, and prints one JSON object as its
last line of standard output.

Modes:

* ``setup``   -- set up, report ``setup_s`` and exit (no timed region);
* ``run``     -- set up, run the timed region untraced;
* ``profile`` -- as ``run``, with ``cProfile`` around the timed region
  (its times are raw wall times);
* ``spans``   -- as ``run``, with a ``repro.trace.Tracer`` enabled from
  the start of set-up (the span tracer's host cost).

Times are reference-speed seconds (``speed.py``); the raw wall times
are reported beside them.

Usage (from the repository root)::

    python3 perfbench/workloads.py --workload seuss_zipf --seed 1 \\
        --mode run --started "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from typing import Dict, List, Tuple

from layers import profile_layers
from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "data", "quick_suite_tables.sha256.json")

#: (value, unit) pairs keyed by metric name.
Metrics = Dict[str, Tuple[float, str]]


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Refuses a ``repro`` found anywhere else, so a run can never measure
    an installed copy instead of the code in the checkout.
    """
    sys.path.insert(0, SRC)
    import repro

    found = os.path.realpath(repro.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro imported from {found}, not from {SRC}")


def sub_seeds(seed: int, count: int) -> List[int]:
    """Independent RNG seeds for the generators of one workload."""
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(count)]


def raw_seconds(start: float, end: float) -> float:
    return end - start


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class PaperSuite:
    """Every registered experiment at the ``quick`` profile, serially.

    The inputs are the experiments' registered seeds, not ``--seed``:
    the correctness check is the sha256 golden of each table, which is
    pinned to those seeds.
    """

    def __init__(self, seed: int) -> None:
        from repro.experiments import load_all

        self.registry = load_all()
        self.ids = self.registry.ids()
        with open(GOLDEN, encoding="utf-8") as handle:
            self.golden = json.load(handle)["tables"]
        self.suite = None
        self.events = 0
        #: Named windows of work, as (start, end) ``time.monotonic`` stamps.
        self.phases: Dict[str, Tuple[float, float]] = {}

    def count_events(self) -> None:
        """Sum ``events_processed`` over every ``Environment.run`` call.

        The experiments build their environments internally, so the
        count is taken at the engine's entry point from outside.  Used
        in untraced runs only: the wrapper would otherwise sit between
        the callers and ``sim`` in the call profile.
        """
        from repro.sim import Environment

        original = Environment.run
        workload = self

        def counted_run(env, *args, **kwargs):
            before = env.events_processed
            try:
                return original(env, *args, **kwargs)
            finally:
                workload.events += env.events_processed - before

        Environment.run = counted_run

    def run(self) -> None:
        from repro.experiments.suite import run_suite

        last = time.monotonic()

        def finished(outcome) -> None:
            nonlocal last
            now = time.monotonic()
            self.phases[f"experiment.{outcome.experiment_id}.wall_s"] = (last, now)
            last = now

        self.suite = run_suite(
            self.ids, profile="quick", parallel=1, registry=self.registry,
            on_outcome=finished, keep_results=False,
        )

    def check(self) -> Tuple[int, int, List[str]]:
        problems = []
        outcomes = {outcome.experiment_id: outcome for outcome in self.suite.outcomes}
        for experiment_id in self.ids:
            outcome = outcomes.get(experiment_id)
            if outcome is None or not outcome.ok:
                problems.append(f"{experiment_id}: did not succeed")
                continue
            want = self.golden.get(experiment_id)
            digest = hashlib.sha256(outcome.text.encode()).hexdigest()
            if want is not None and digest != want:
                problems.append(f"{experiment_id}: table sha256 {digest} != golden")
        failed = len(problems)
        missing = sorted(set(self.golden) - set(self.ids))
        problems.extend(f"{name}: golden table not registered" for name in missing)
        return len(self.ids) + len(missing), failed + len(missing), problems

    def metrics(self) -> Metrics:
        return {"sim.events": (self.events, "count")}


class SeussZipf:
    """Open-loop Poisson NOP invocations over Zipf-popular functions.

    One SEUSS node behind the OpenWhisk controller and shim.  Node
    memory and the snapshot budget sit below the working set, so the
    OOM daemon reclaims idle UCs and cold, warm and hot paths all occur.
    """

    FUNCTIONS = 1_000
    ZIPF_S = 1.2
    RATE_PER_S = 100.0
    INVOCATIONS = 30_000
    MEMORY_GB = 1.25
    SNAPSHOT_BUDGET_MB = 384.0

    def __init__(self, seed: int) -> None:
        from repro.faas.cluster import FaasCluster
        from repro.seuss.config import SeussConfig
        from repro.sim import Environment
        from repro.workload.functions import unique_nop_set
        from repro.workload.traces import (
            PoissonArrivals,
            ZipfPopularity,
            synthesize_trace,
        )

        self.env = Environment()
        self.cluster = FaasCluster.with_seuss_node(
            self.env,
            config=SeussConfig(
                memory_gb=self.MEMORY_GB,
                snapshot_cache_budget_mb=self.SNAPSHOT_BUDGET_MB,
            ),
        )
        arrival_seed, popularity_seed = sub_seeds(seed, 2)
        started = time.monotonic()
        self.trace = synthesize_trace(
            unique_nop_set(self.FUNCTIONS),
            PoissonArrivals(self.RATE_PER_S, seed=arrival_seed),
            ZipfPopularity(self.FUNCTIONS, self.ZIPF_S, seed=popularity_seed),
            self.INVOCATIONS,
        )
        self.phases = {"workload.synth_s": (started, time.monotonic())}
        self.results: list = []
        self.events = 0

    def run(self) -> None:
        from repro.workload.traces import replay_trace

        before = self.env.events_processed
        self.results = replay_trace(self.cluster, self.trace, batched=True)
        self.events = self.env.events_processed - before

    def check(self) -> Tuple[int, int, List[str]]:
        from repro.faas.records import InvocationPath

        node = self.cluster.node
        arrivals = len(self.trace)
        paths = {path: 0 for path in InvocationPath}
        for result in self.results:
            paths[result.path] += 1
        stats = node.stats
        ledger = {
            "results": len(self.results),
            "node total": stats.total,
            "controller received": self.cluster.controller.stats.received,
        }
        problems = [
            f"ledger: arrivals {arrivals} != {name} {value}"
            for name, value in ledger.items()
            if value != arrivals
        ]
        node_paths = {
            InvocationPath.COLD: stats.cold,
            InvocationPath.WARM: stats.warm,
            InvocationPath.HOT: stats.hot,
            InvocationPath.ERROR: stats.errors,
        }
        if node_paths != paths:
            problems.append(f"ledger: node paths {node_paths} != result paths {paths}")
        failed = sum(1 for result in self.results if not result.success)
        if failed:
            problems.append(f"{failed} invocations failed")
        # An unbalanced ledger fails the run even if every result succeeded.
        if problems:
            failed = max(failed, 1)
        return arrivals, failed, problems

    def metrics(self) -> Metrics:
        node = self.cluster.node
        stats = node.stats
        snapshots = node.snapshot_cache.stats
        idle = node.uc_cache.stats
        controller = self.cluster.controller.stats
        latencies = sorted(result.latency_ms for result in self.results)
        return {
            "sim.events": (self.events, "count"),
            "sim_p50_ms": (percentile(latencies, 0.50), "sim_ms"),
            "sim_p99_ms": (percentile(latencies, 0.99), "sim_ms"),
            "sim_latency_samples": (len(latencies), "count"),
            "sim_cold_rate": (stats.cold / stats.total, "share"),
            "seuss.cold": (stats.cold, "count"),
            "seuss.warm": (stats.warm, "count"),
            "seuss.hot": (stats.hot, "count"),
            "seuss.snapshot_hits": (snapshots.hits, "count"),
            "seuss.snapshot_misses": (snapshots.misses, "count"),
            "seuss.snapshot_evictions": (snapshots.evictions, "count"),
            "seuss.uc_hot_hits": (idle.hot_hits, "count"),
            "seuss.uc_reclaimed": (idle.reclaimed, "count"),
            "seuss.shim_busy_ms": (self.cluster.shim.stats.busy_ms, "sim_ms"),
            "mem.peak_pages": (node.allocator.peak_pages, "count"),
            "faas.received": (controller.received, "count"),
            "faas.succeeded": (controller.succeeded, "count"),
            "faas.failed": (controller.failed, "count"),
            "workload.arrivals": (len(self.trace), "count"),
        }


class FleetKeepalive:
    """A production-shaped fleet trace replayed once per keep-alive policy.

    Synthesis and the four replays are all in the timed region; nothing
    here drives a node, so ``mem``, ``unikernel``, ``faas`` and
    ``linuxnode`` do no work.
    """

    FUNCTIONS = 20_000
    DURATION_MS = 900_000.0
    BUDGET_MB = 4_096.0
    POLICIES = ("lru", "lifo", "hybrid", "greedy_dual")

    def __init__(self, seed: int) -> None:
        from repro.workload.fleet import FleetTraceConfig

        self.config = FleetTraceConfig(
            functions=self.FUNCTIONS, duration_ms=self.DURATION_MS, seed=seed
        )
        self.trace = None
        self.replays: list = []
        self.events = 0
        self.phases: Dict[str, Tuple[float, float]] = {}

    def run(self) -> None:
        from repro.sim import Environment
        from repro.workload.fleet import synthesize_fleet_trace
        from repro.workload.keepalive import KeepAliveConfig, replay_keepalive

        started = time.monotonic()
        self.trace = synthesize_fleet_trace(self.config)
        self.phases["workload.synth_s"] = (started, time.monotonic())
        for policy in self.POLICIES:
            env = Environment()
            started = time.monotonic()
            result = replay_keepalive(
                self.trace,
                KeepAliveConfig(policy=policy, memory_budget_mb=self.BUDGET_MB),
                env=env,
            )
            self.phases[f"policy.{policy}.replay_s"] = (started, time.monotonic())
            self.replays.append(result)
            self.events += env.events_processed

    def check(self) -> Tuple[int, int, List[str]]:
        problems = []
        failed = 0
        for result in self.replays:
            before = len(problems)
            outcomes = result.cold_starts + result.warm_starts
            if not result.arrivals == outcomes == self.trace.arrivals:
                problems.append(
                    f"{result.policy}: arrivals {result.arrivals}, outcomes "
                    f"{outcomes}, trace {self.trace.arrivals}"
                )
            if result.peak_resident_mb > self.BUDGET_MB and not result.overcommits:
                problems.append(
                    f"{result.policy}: peak {result.peak_resident_mb} MB over "
                    f"budget without a reported overcommit"
                )
            failed += len(problems) > before
        failed += len(self.POLICIES) - len(self.replays)
        return len(self.POLICIES), failed, problems

    def metrics(self) -> Metrics:
        out: Metrics = {
            "sim.events": (self.events, "count"),
            "workload.arrivals": (self.trace.arrivals, "count"),
        }
        for result in self.replays:
            prefix = f"policy.{result.policy}"
            out[f"{prefix}.cold_rate"] = (result.cold_rate, "share")
            out[f"{prefix}.evictions"] = (result.evictions, "count")
            out[f"{prefix}.prewarm_hits"] = (result.prewarm_hits, "count")
            out[f"{prefix}.overcommits"] = (result.overcommits, "count")
        out["sim_cold_rate"] = out["policy.lru.cold_rate"]
        return out


WORKLOADS = {
    "paper_suite": PaperSuite,
    "seuss_zipf": SeussZipf,
    "fleet_keepalive": FleetKeepalive,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "run", "profile", "spans"), required=True
    )
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() just before this interpreter was started",
    )
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    import_repro()
    if args.mode == "spans":
        from repro import trace

        trace.enable(trace.Tracer())
    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "run" and isinstance(workload, PaperSuite):
        workload.count_events()
    timed_start = time.monotonic()
    record = {
        "setup_s": probe.normalize(args.started, timed_start),
        "raw_setup_s": timed_start - args.started,
    }
    if args.mode != "setup":
        profiler = None
        measure = probe.normalize
        if args.mode == "profile":
            import cProfile

            # The profiler slows the calibration loop itself, so profiled
            # times stay raw.
            probe.stop()
            measure = raw_seconds
            profiler = cProfile.Profile(builtins=False)
            profiler.enable()
        workload.run()
        timed_end = time.monotonic()
        if profiler is not None:
            profiler.disable()
        probe.stop()
        attempted, failed, problems = workload.check()
        metrics = workload.metrics()
        for name, (start, end) in workload.phases.items():
            metrics[name] = (measure(start, end), "s")
        record.update(
            wall_s=measure(timed_start, timed_end),
            raw_wall_s=timed_end - timed_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=attempted,
            failed=failed,
            problems=problems,
            metrics=metrics,
        )
        if profiler is not None:
            record["layers"] = profile_layers(profiler, SRC)
    probe.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

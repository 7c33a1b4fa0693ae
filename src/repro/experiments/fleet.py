"""Fleet-scale engine economics: events per invocation.

Not a paper table — an engineering experiment for the fleet-scale
directions on the ROADMAP (Azure-style trace replay over 100k-1M
functions, Lithops-style fan-out).  It runs a pre-generated Zipf fleet
workload (:mod:`repro.workload.fleet`) through the batched-injection
driver and tables the *deterministic* cost model: engine events
consumed per invocation, completions, and the simulated makespan.
Wall-clock throughput for the same workload is measured by
``benchmarks/perf_gate.py`` (``million_event_fleet``) against
``benchmarks/fleet_heap_baseline.json``; this table pins the part that
must never drift.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ExperimentSpec, registry
from repro.sim import Environment
from repro.workload.fleet import FleetConfig, generate, run_batched


def run_fleet(arrivals: int = 100_000, seed: int = 0xF1EE7) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fleet",
        title="Fleet-scale engine events per invocation",
        headers=[
            "arrivals",
            "engine events",
            "events/arrival",
            "completions",
            "makespan (ms)",
            "head fn share",
        ],
    )
    workload = generate(FleetConfig(arrivals=arrivals, seed=seed))
    stats = run_batched(workload, Environment())
    # Every arrival completes: the ledger must balance.
    assert stats.completions == stats.arrivals
    result.add_row(
        stats.arrivals,
        stats.engine_events,
        round(stats.events_per_arrival, 3),
        stats.completions,
        round(stats.final_ms, 3),
        round(stats.head_share, 4),
    )
    result.add_note(
        "wall-clock throughput for this workload is gated by "
        "benchmarks/perf_gate.py::million_event_fleet vs the committed "
        "heap-era reference in benchmarks/fleet_heap_baseline.json"
    )
    return result


SPEC = registry.register(
    ExperimentSpec(
        experiment_id="fleet",
        title="Fleet-scale engine events per invocation",
        entry=run_fleet,
        profiles={
            "full": {},
            "quick": {"arrivals": 20_000},
            "smoke": {"arrivals": 4_000},
        },
        default_seed=0xF1EE7,
        tags=("extension", "engine"),
    )
)

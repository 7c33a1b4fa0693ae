"""The repository benchmark: host time of the SEUSS simulator, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seuss_zipf --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (``perfbench/workloads.py``).
With ``--trace 0`` the workload runs untraced, repeatedly, until
``--seconds`` of measuring is spent (at least once), then set-up alone
runs a few more times; the end-to-end metrics are medians over those
interpreters.  With ``--trace 1`` one untraced run is followed by one
run under ``cProfile`` (and, for ``seuss_zipf``, one with the span
tracer on); the per-layer metrics come from those.  Times are
reference-speed seconds (``perfbench/speed.py``) unless named ``raw_``.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before
it record the host and every other measured figure.  A check that
fails counts its operation as failed and makes ``correct`` false.  The
exit code is not 0, and no result is printed, when the checkout has no
program to measure or a measurement cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

from layers import ALL_LAYERS
from speed import CAL_ITERATIONS, REFERENCE_SLICE_S, calibration_slice
from workloads import ROOT, WORKLOADS, FleetKeepalive

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
#: Extra set-up-only interpreters per untraced run, so ``setup_s`` is a
#: median and not one sample.
SETUP_REPEATS = 5
#: Every interpreter this run starts must end inside this many seconds.
DEADLINE_S = 170.0
#: Per-layer metrics read from the workloads' public stats objects;
#: a workload that does not exercise a counter reports it as 0.
STAT_METRICS = {
    "sim.events": "count",
    "sim_p50_ms": "sim_ms",
    "sim_p99_ms": "sim_ms",
    "sim_latency_samples": "count",
    "sim_cold_rate": "share",
    "seuss.cold": "count",
    "seuss.warm": "count",
    "seuss.hot": "count",
    "seuss.snapshot_hits": "count",
    "seuss.snapshot_misses": "count",
    "seuss.snapshot_evictions": "count",
    "seuss.uc_hot_hits": "count",
    "seuss.uc_reclaimed": "count",
    "seuss.shim_busy_ms": "sim_ms",
    "mem.peak_pages": "count",
    "faas.received": "count",
    "faas.succeeded": "count",
    "faas.failed": "count",
    "workload.arrivals": "count",
    **{
        f"policy.{policy}.{name}": unit
        for policy in FleetKeepalive.POLICIES
        for name, unit in (
            ("cold_rate", "share"), ("evictions", "count"), ("prewarm_hits", "count"),
        )
    },
}


def host_record() -> dict:
    """The host a result was measured on, with its calibration loop speed."""
    slices = [calibration_slice() for _ in range(21)]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "calibration_ops_per_s": CAL_ITERATIONS / statistics.median(slices),
        "reference_ops_per_s": CAL_ITERATIONS / REFERENCE_SLICE_S,
    }


class Runner:
    """Starts workload interpreters and keeps the run's deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        env = dict(os.environ)
        env.pop("REPRO_SIM_QUEUE", None)  # measure the default engine
        env["PYTHONHASHSEED"] = "0"
        # Imports use the bytecode cache, as repeated CLI runs do; only
        # the checkout's first interpreter compiles (and caches) them.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def child(self, mode: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("run deadline spent before the last measurement")
        command = [
            sys.executable, CHILD, "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode,
            "--started", repr(time.monotonic()),
        ]
        proc = subprocess.run(
            command, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} run of {self.workload} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> Tuple[List[dict], List[dict]]:
    """Untraced runs for ``seconds`` (at least one), then set-up-only runs."""
    runs = [runner.child("run")]
    while True:
        spent = time.monotonic() - runner.started
        if spent + max(run["raw_wall_s"] + run["raw_setup_s"] for run in runs) > seconds:
            break
        runs.append(runner.child("run"))
    setups = [runner.child("setup") for _ in range(SETUP_REPEATS)]
    return runs, setups


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def medians(runs: List[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def untraced(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics: medians over the untraced interpreters."""
    runs, setups = measure(runner, seconds)
    metrics = {
        "wall_s": metric(medians(runs, "wall_s"), "s"),
        "setup_s": metric(medians(runs + setups, "setup_s"), "s"),
        "peak_rss_mb": metric(medians(runs, "peak_rss_mb"), "MB"),
    }
    detail = {
        name: metric(
            statistics.median(run["metrics"][name][0] for run in runs), unit
        )
        for name, (_, unit) in runs[0]["metrics"].items()
    }
    detail["runs"] = metric(len(runs), "count")
    detail["raw_wall_s"] = metric(medians(runs, "raw_wall_s"), "s")
    detail["raw_setup_s"] = metric(medians(runs + setups, "raw_setup_s"), "s")
    return runs, metrics, detail


def traced(runner: Runner) -> tuple:
    """Per-layer metrics: one untraced, one profiled, one span-traced run."""
    plain = runner.child("run")
    profiled = runner.child("profile")
    runs = [plain, profiled]
    counted = plain["metrics"]
    metrics = {
        name: metric(counted[name][0] if name in counted else 0, unit)
        for name, unit in STAT_METRICS.items()
    }
    metrics["sim.host_us_per_event"] = metric(
        plain["wall_s"] * 1e6 / counted["sim.events"][0], "us"
    )
    # Profiled times are raw (see workloads.py), so the ratio is of raw times.
    metrics["trace.profile_overhead"] = metric(
        profiled["raw_wall_s"] / plain["raw_wall_s"], "ratio"
    )
    for layer in ALL_LAYERS:
        measured = profiled["layers"][layer]
        metrics[f"layer.{layer}.self_share"] = metric(measured["self_share"], "share")
        metrics[f"layer.{layer}.calls_in"] = metric(measured["calls_in"], "count")
    detail = {name: metric(value, unit) for name, (value, unit) in counted.items()}
    for layer, measured in profiled["layers"].items():
        detail[f"layer.{layer}.profiled_self_s"] = metric(measured["self_s"], "s")
    detail["layer.harness.self_share"] = metric(
        profiled["layers"]["harness"]["self_share"], "share"
    )
    detail["wall_s"] = metric(plain["wall_s"], "s")
    detail["raw_wall_s"] = metric(plain["raw_wall_s"], "s")
    detail["profiled_raw_wall_s"] = metric(profiled["raw_wall_s"], "s")
    if runner.workload == "seuss_zipf":
        spans = runner.child("spans")
        runs.append(spans)
        detail["trace.span_us_per_invocation"] = metric(
            (spans["wall_s"] - plain["wall_s"]) * 1e6 / counted["workload.arrivals"][0],
            "us",
        )
    return runs, metrics, detail


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="SEUSS simulator benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    print(json.dumps({"host": host_record()}), flush=True)
    try:
        if args.trace:
            runs, metrics, detail = traced(runner)
        else:
            runs, metrics, detail = untraced(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"benchmark did not finish: {error}", file=sys.stderr)
        return 1
    problems = [problem for run in runs for problem in run["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

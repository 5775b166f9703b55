"""Measurement loop shared by the command line and the harness's tests.

A run sets up several times (set-up time is the median), repeats the
workload's measured unit for the requested seconds, then runs the output
checks.  A traced run first measures untraced units for half the time, then
repeats traced units (at least two, so their exact counts can be compared)
until the time is up; the traced spans never include the checks.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench.layers import PER_LAYER, TARGETS, per_layer_metrics
from perfbench.spans import Tracer
from perfbench.workloads import UnitResult, Workload

# Reported by every workload: the benchmark's end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class RunResult:
    checks: list[tuple[str, bool]]
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    units: list[UnitResult] = field(default_factory=list)
    unit_seconds: list[float] = field(default_factory=list)  # untraced, then traced
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_record(root: Path) -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    commit = "unknown"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": nproc(),
        "git_commit": commit,
    }


def _time(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> RunResult:
    tracer = Tracer(TARGETS) if trace else None

    setup_times = []
    for k in range(workload.setup_repeats):
        if tracer is None:
            state, dt = _time(workload.setup, seed, workdir)
        else:
            with tracer.installed(), tracer.run_as(f"setup{k}"):
                state, dt = _time(workload.setup, seed, workdir)
        setup_times.append(dt)

    units: list[UnitResult] = []
    walls: list[float] = []
    start = perf_counter()
    while True:
        unit, dt = _time(workload.unit, state)
        units.append(unit)
        walls.append(dt)
        if perf_counter() - start >= (seconds / 2 if trace else seconds):
            break
    traced_walls: list[float] = []
    if tracer is not None:
        with tracer.installed():
            while len(traced_walls) < 2 or perf_counter() - start < seconds:
                with tracer.run_as(f"unit{len(traced_walls)}"):
                    unit, dt = _time(workload.unit, state)
                units.append(unit)
                traced_walls.append(dt)

    checks = workload.checks(state, units, np.random.default_rng([seed, 0xC4EC]))

    untraced = units[: len(walls)]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {m: (e2e[m], unit) for m, (unit, _) in END_TO_END.items()}
    metrics = report
    if tracer is not None:
        stats = tracer.stats()
        values, differed = per_layer_metrics(
            [stats[f"setup{k}"] for k in range(workload.setup_repeats)],
            [stats[f"unit{k}"] for k in range(len(traced_walls))],
            step_utts=units[-1].step_utts,
            overhead_s=statistics.median(traced_walls) - e2e["wall_s"],
        )
        checks.append(("traced exact counts repeat between units", not differed))
        metrics = {m: (values[m], unit) for m, (unit, _) in PER_LAYER.items()}

    attempted = sum(u.offered for u in units) + len(checks)
    failed = sum(u.skipped for u in units) + sum(1 for _, ok in checks if not ok)
    report = {**report, **_report_metrics(untraced, attempted, failed)}
    return RunResult(checks, attempted, failed, metrics, report, units, walls + traced_walls, tracer)


def _report_metrics(units: list[UnitResult], attempted, failed) -> dict:
    """Metrics printed beside the end-to-end ones: each is absent from some
    workload, zero on a correct run, or different for every seed by design."""
    first = units[0]
    out = {
        "ops_failed_frac": (failed / attempted, "fraction"),
        "eval_frames_per_s": (statistics.median(f / s for u in units for f, s in u.evals), "frames/s"),
    }
    train_s = sum(u.train_s for u in units)
    if train_s:
        out["train_frames_per_s"] = (sum(u.step_frames for u in units) / train_s, "frames/s")
    for rec in first.records:
        if "method" in rec:  # run_benchmark record
            key = {"zero_shot": "zero_shot_unseen_per", "few_shot": "few_shot_per"}[rec["condition"]]
            value = rec["unseen_per"] if rec["condition"] == "zero_shot" else rec["per"]
            out[f"{key}.{rec['method']}"] = (value, "fraction")
        else:  # long_eval: a zero-shot evaluation of the nonlinear head
            out["zero_shot_unseen_per.nonlinear"] = (rec["unseen_per"], "fraction")
    if first.final_dev_loss is not None:
        out["final_dev_loss"] = (first.final_dev_loss, "nats")
    return out


def result_line(result: RunResult) -> str:
    """The last line of a run's output."""
    metrics = {}
    for name, (value, unit) in result.metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )

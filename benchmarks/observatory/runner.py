"""Run one workload in this process and describe the run.

This is what ``driver.py`` calls.  An untraced run does the workload's
full repetitions and yields the end-to-end metrics; a traced run does one
repetition untraced, one with the span wrappers installed, then the
process-tier probe, and yields the per-layer metrics — end-to-end numbers
never come from a traced pass.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import replace
from pathlib import Path

from .layers import TARGETS, layer_metrics
from .results import Recorder, peak_rss_mb
from .spec import REPO_ROOT, Benchmark, load_benchmark
from .speed import SpeedProbe
from .stats import summarize
from .trace import Tracer, TraceSummary
from .workloads import WORKLOADS, Plan

__all__ = ["manifest", "run_one"]


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(*, seed: int, smoke: bool, plan: Plan, workload: str) -> dict:
    """What is needed to reproduce a result, or to refuse to compare it."""
    import numpy
    import scipy

    status = _git("status", "--porcelain")
    spec = WORKLOADS[workload]
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "smoke": smoke,
        "scale": plan.scale,
        "repetitions": {
            name: plan.reps(getattr(spec, name))
            for name in ("fits", "windows", "reps", "resumes", "setup_reps")
            if hasattr(spec, name)
        },
    }


def _overhead_share(untraced: Tracer, traced: Tracer) -> float:
    """Traced over untraced (speed-scaled) wall, minus one, over the shared phases."""
    phases = [p for p in traced.phase_walls if untraced.phase_walls.get(p)]
    base = sum(untraced.phase_walls[p] for p in phases)
    return sum(traced.phase_walls[p] for p in phases) / base - 1.0 if base else 0.0


def _characterisation(summary: TraceSummary) -> dict[str, dict[str, float]]:
    """Per phase, each layer's share of the recorded self time."""
    return {
        phase: dict(sorted(summary.self_shares(phase).items(), key=lambda kv: -kv[1]))
        for phase in summary.layers
    }


def run_one(
    workload: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Path,
    probe: SpeedProbe,
    import_span: tuple[float, float],
    allowed_cpus: set[int],
) -> dict:
    """Run ``workload`` once; returns the driver result plus run details.

    The caller has pinned this thread to one CPU (:func:`speed.pin_to_one_cpu`)
    before starting ``probe``; ``allowed_cpus`` is the mask it had before,
    which the process-tier probe's workers get back.
    """
    bench: Benchmark = load_benchmark()
    if workload not in WORKLOADS or workload not in bench.workloads:
        raise SystemExit(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    spec = WORKLOADS[workload]
    plan = Plan(scale=seconds / bench.run_seconds, smoke=smoke, single=trace)
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out))
    # Everything the program parks in "the temp dir" (flow checkpoints,
    # the process tier's detection store) stays inside the checkout.
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = str(workdir)
    details: dict = {}
    try:
        rec = Recorder(speed=probe.speed)
        state = spec.prepare(plan, seed, rec, workdir)
        untraced = Tracer(speed=probe.speed)
        spec.measure(state, plan, rec, untraced)
        recorders = [rec]
        if trace:
            traced_rec = Recorder(speed=probe.speed)
            tracer = Tracer(TARGETS, speed=probe.speed).install()
            try:
                spec.measure(
                    state,
                    replace(
                        plan,
                        probe_cpus=frozenset(allowed_cpus)
                        if hasattr(spec, "windows") else None,
                    ),
                    traced_rec, tracer,
                )
            finally:
                tracer.uninstall()
            recorders.append(traced_rec)
            summary = tracer.summary()
            surfaces = dict(traced_rec.surfaces)
            surfaces["trace.overhead_share"] = _overhead_share(untraced, tracer)
            reasons = {**traced_rec.reasons, **summary.missing}
            layer_values = layer_metrics(
                tuple(bench.per_layer), summary, surfaces, reasons
            )
            metrics = {
                name: {"value": layer_values[name], "unit": bench.per_layer[name].unit}
                for name in bench.per_layer
            }
            spans_path = out / f"{workload}-seed{seed}-spans.jsonl"
            tracer.write_jsonl(spans_path)
            details.update(
                reasons=reasons,
                spans_file=str(spans_path),
                characterisation=_characterisation(summary),
                threads={
                    name: {
                        "rooted_s": rooted, "self_sum_s": self_sum,
                        "bench_s": bench_total, "bench_self_s": bench_self,
                    }
                    for name, (rooted, self_sum, bench_total, bench_self)
                    in summary.threads.items()
                },
                phase_walls={
                    "untraced": dict(untraced.phase_walls),
                    "traced": dict(tracer.phase_walls),
                },
            )
            values = {}
        else:
            values = rec.metric_values()
            # The program's imports happen once per process: every set-up
            # repetition is charged for them.
            imports_s = rec.seconds(*import_span)
            for key in ("value", "q1", "median", "q3"):
                values["setup_s"][key] += imports_s
            values["peak_rss_mb"] = {
                "value": peak_rss_mb(), "n": 1, "q1": 0.0, "median": 0.0, "q3": 0.0
            }
            metrics = {
                name: {"value": values[name]["value"], "unit": metric.unit}
                for name, metric in bench.end_to_end.items()
            }
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in recorders)
    failures = [text for r in recorders for text in r.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details.update(
        workload=workload,
        trace=trace,
        manifest=manifest(seed=seed, smoke=smoke, plan=plan, workload=workload),
        result=result,
        samples=values,
        raw_samples=rec.samples,
        request_ms=rec.request_ms,
        import_s=import_span[1] - import_span[0],
        machine_speed=summarize([speed for _, speed in probe.series()]),
        counters=recorders[-1].counters,
        failures=failures[:50],
    )
    detail_path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    detail_path.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result

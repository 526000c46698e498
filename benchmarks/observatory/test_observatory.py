"""Checks of the observatory itself (outside tier-1's ``testpaths``).

Run explicitly — the determinism test makes eight smoke runs (~1-2 min):

    python -m pytest benchmarks/observatory/test_observatory.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.observatory import cli  # noqa: E402
from benchmarks.observatory.compare import judge  # noqa: E402
from benchmarks.observatory.layers import SPAN_METRICS  # noqa: E402
from benchmarks.observatory.speed import SpeedProbe  # noqa: E402
from benchmarks.observatory.spec import (  # noqa: E402
    BENCHMARK_PATH,
    INTERACTIONS,
    NAME_PATTERN,
    NATIVE_WORKLOADS,
    Metric,
    load_benchmark,
)

DRIVER = REPO_ROOT / "benchmarks" / "observatory" / "driver.py"
WORKLOAD_NAMES = ("drive_hot", "city_miss", "stream_mixed", "sweep_budget")


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


def test_benchmark_json_shape(bench):
    raw = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    assert 1 <= raw["run_seconds"] <= 60
    assert BENCHMARK_PATH.stat().st_size <= 64 * 1024
    names = [w["name"] for w in raw["workloads"]]
    names += [m["name"] for m in raw["end_to_end"] + raw["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME_PATTERN.match(name), name
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in raw["end_to_end"]
    )
    for path in raw["paths"]:
        assert (REPO_ROOT / path).is_dir()
    assert all(not part.startswith("/") and ".." not in part for part in raw["command"])


def test_names_match_the_code(bench):
    from benchmarks.observatory.workloads import WORKLOADS

    assert tuple(bench.workloads) == WORKLOAD_NAMES == tuple(WORKLOADS)
    assert set(NATIVE_WORKLOADS) == set(bench.reported())
    for metric, workloads in NATIVE_WORKLOADS.items():
        assert set(workloads) <= set(bench.workloads), metric
    assert set(SPAN_METRICS) <= set(bench.per_layer)


def test_interaction_table_names_real_metrics(bench):
    covered: list[str] = []
    for row in INTERACTIONS:
        covered += row.layers
        assert set(row.layers) <= set(bench.per_layer), row.layers
        assert set(row.moves) <= set(bench.end_to_end), row.moves
        assert set(row.on) | set(row.not_on) <= set(bench.workloads), row
        assert not set(row.on) & set(row.not_on), row
    assert sorted(covered) == sorted(bench.per_layer), (
        "every per-layer metric sits in exactly one interaction row"
    )


def test_compare_verdicts():
    latency = Metric("request_p99_ms", "ms", "lower", 0.10)
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert judge(latency, "w", steady, [v * 1.3 for v in steady]).verdict == "regressed"
    assert judge(latency, "w", steady, [v * 1.02 for v in steady]).verdict == "unchanged"
    assert judge(latency, "w", steady, [v * 0.7 for v in steady]).verdict == "improved"
    # Better, but too few pairs to claim it.
    few = judge(latency, "w", steady[:3], [v * 0.7 for v in steady[:3]])
    assert few.verdict == "unchanged" and "no claim" in few.note
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 13.0, 8.0]
    assert judge(latency, "w", noisy, [v * 1.05 for v in noisy]).verdict == "unresolved"
    # Wide spread, but every run of B is worse than every run of A.
    assert judge(latency, "w", noisy, [v + 20 for v in noisy]).verdict == "regressed"
    exact = Metric("failed_share", "ratio", "lower", 0.0)
    assert judge(exact, "w", [0.0, 0.0], [0.0, 0.0]).verdict == "unchanged"
    assert judge(exact, "w", [0.0, 0.0], [0.01, 0.01]).verdict == "regressed"
    throughput = Metric("queries_per_s", "1/s", "higher", 0.10)
    assert judge(throughput, "w", steady, [v * 0.8 for v in steady]).verdict == "regressed"


def test_speed_probe_reads_the_probes_inside_the_interval():
    assert SpeedProbe().speed(0.0, 1.0) == 1.0  # no probe yet: no scaling
    probe = SpeedProbe()
    probe._times[:] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    probe._speeds[:] = [1.0, 1.0, 0.5, 0.5, 0.5, 1.0]
    assert probe.speed(1.99, 4.01) == 0.5
    assert probe.speed(0.0, 5.0) == pytest.approx(4.5 / 6)
    # Too short to hold three probes: the three nearest in time.
    assert probe.speed(2.4, 2.6) == pytest.approx(2.0 / 3)
    assert probe.speed(9.0, 9.1) == pytest.approx(2.0 / 3)


def test_speed_probe_thread_samples_and_stops():
    probe = SpeedProbe().start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        probe.close()
    series = probe.series()
    assert len(series) >= 3
    assert all(0.05 < speed < 20 for _, speed in series)
    assert not probe._thread.is_alive()


def test_speed_probe_shares_the_pinned_cpu():
    """Pin first, start the probe second: it must sit on the program's CPU."""
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT)!r})\n"
        "from benchmarks.observatory.speed import SpeedProbe, pin_to_one_cpu\n"
        "allowed = pin_to_one_cpu()\n"
        "probe = SpeedProbe().start()\n"
        "mask = os.sched_getaffinity(probe._thread.native_id)\n"
        "probe.close()\n"
        "assert mask == {max(allowed)} == os.sched_getaffinity(0), (mask, allowed)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_record_refuses_smoke_and_dirty_runs():
    run = {"workload": "drive_hot", "correct": True, "values": {"fit_wall_s": 1.0}}
    clean = {"smoke": False, "dirty": False, "git_sha": "abc"}
    for manifest in (
        {**clean, "smoke": True},
        {**clean, "dirty": True},
        {**clean, "dirty": None, "git_sha": None},
    ):
        with pytest.raises(SystemExit):
            cli._record({"manifest": manifest, "runs": [run]})
    with pytest.raises(SystemExit):
        cli._record({"manifest": clean, "runs": [{**run, "correct": False}]})


def _smoke(workload: str, out: Path, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(DRIVER), "--workload", workload, "--seed", "3",
         "--smoke", "--trace", str(trace), "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    detail = json.loads(
        (out / f"{workload}-seed3-trace{trace}.json").read_text(encoding="utf-8")
    )
    return {"result": result, "detail": detail}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_counters_repeat_exactly(workload, tmp_path, bench):
    first = _smoke(workload, tmp_path / "a")
    second = _smoke(workload, tmp_path / "b")
    assert set(first["result"]["metrics"]) == set(bench.end_to_end)
    for name, entry in first["result"]["metrics"].items():
        assert entry["unit"] == bench.end_to_end[name].unit
        assert isinstance(entry["value"], float) and entry["value"] != 0, name
    assert first["detail"]["manifest"]["smoke"] is True
    assert first["detail"]["counters"], "no deterministic counters were recorded"
    # detector_s, cache and flow counters: the program's own counts repeat.
    assert first["detail"]["counters"] == second["detail"]["counters"]
    for name in ("detector_s", "agg_error", "retrieval_f1"):
        assert (
            first["result"]["metrics"][name] == second["result"]["metrics"][name]
        ), name


def test_traced_smoke_reports_every_layer_metric(tmp_path, bench):
    run = _smoke("stream_mixed", tmp_path, trace=1)
    metrics = run["result"]["metrics"]
    assert set(metrics) == set(bench.per_layer)
    assert all(entry["value"] is not None for entry in metrics.values())
    assert metrics["serving.cache.invalidations"]["value"] > 0
    assert metrics["streaming.source.events"]["value"] > 0
    assert metrics["trace.untraced_share"]["value"] <= 0.05
    for thread in run["detail"]["threads"].values():
        assert thread["self_sum_s"] == pytest.approx(thread["rooted_s"], rel=1e-6)
    assert Path(run["detail"]["spans_file"]).is_file()


def test_driver_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must not succeed."""
    shutil.copy(BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        REPO_ROOT / "benchmarks" / "observatory",
        tmp_path / "benchmarks" / "observatory",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/observatory/driver.py", "--workload", "city_miss",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_driver_leaves_no_process_behind():
    """``reap_children`` ends the resource tracker and any stray child."""
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT)!r})\n"
        "from multiprocessing import resource_tracker\n"
        "from benchmarks.observatory.driver import _child_pids, reap_children\n"
        "resource_tracker.ensure_running()\n"
        "stray = subprocess.Popen(['sleep', '60'])\n"
        "assert len(_child_pids()) == 2, _child_pids()\n"
        "reap_children(grace_s=0.2)\n"
        "assert _child_pids() == [], _child_pids()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]

"""``python -m benchmarks.observatory run|compare``.

``run`` starts one subprocess per workload (so ``peak_rss_mb`` and every
cache start clean), collects the per-run detail files and prints every
metric by name with unit, value, quartiles and sample count; its exit
status is non-zero when any correctness check failed.  ``compare`` judges
two result sets against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from .compare import compare_sets, format_rows
from .spec import BENCHMARK_PATH, DEFAULT_OUT, REPO_ROOT, Benchmark, load_benchmark
from .stats import summarize

__all__ = ["main"]

PACKAGE_DIR = Path(__file__).resolve().parent
DRIVER = PACKAGE_DIR / "driver.py"
RECORDED_PATH = PACKAGE_DIR / "results" / "recorded.json"


def _run_driver(
    workload: str, *, seed: int, trace: bool, smoke: bool, seconds: float | None,
    out: Path,
) -> dict:
    """One driver subprocess; returns its detail file's content."""
    command = [
        sys.executable, str(DRIVER), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if smoke:
        command.append("--smoke")
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    detail_path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    if not done.stdout.strip() or not detail_path.is_file():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: the driver died (exit {done.returncode})")
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    detail["exit_code"] = done.returncode
    detail["process_wall_s"] = time.perf_counter() - started
    return detail


def _print_run(detail: dict, bench: Benchmark) -> None:
    result = detail["result"]
    kind = "per-layer (traced)" if detail["trace"] else "end-to-end"
    print(
        f"\n== {detail['workload']} seed {detail['manifest']['seed']} — {kind}: "
        f"{'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['attempted']} operations, {result['failed']} failed, "
        f"{detail['process_wall_s']:.1f} s"
    )
    samples = detail.get("samples", {})
    names = list(result["metrics"])
    if not detail["trace"]:
        names.append("failed_share")
    for name in names:
        if name in result["metrics"]:
            value, unit = result["metrics"][name]["value"], result["metrics"][name]["unit"]
        else:
            value, unit = samples[name]["value"], bench.reported()[name].unit
        shown = "null" if value is None else f"{value:.6g}"
        line = f"  {name:40s} {shown:>12s} {unit:9s}"
        stats = samples.get(name)
        if stats and stats["n"] > 1:
            line += (
                f" median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                f"q3 {stats['q3']:.6g}  n={stats['n']}"
            )
        elif stats:
            line += " n=1"
        reason = detail.get("reasons", {}).get(name)
        if value is None and reason:
            line += f" ({reason})"
        print(line)
    for failure in detail.get("failures", [])[:5]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")


def _result_set(details: list[dict]) -> dict:
    """The file ``compare`` reads: every run's values, keyed by workload."""
    runs = []
    for detail in details:
        values = {
            name: entry["value"] for name, entry in detail["result"]["metrics"].items()
        }
        if not detail["trace"]:
            values["failed_share"] = detail["samples"]["failed_share"]["value"]
        runs.append(
            {
                "workload": detail["workload"],
                "trace": detail["trace"],
                "seed": detail["manifest"]["seed"],
                "correct": detail["result"]["correct"],
                "values": values,
                "counters": detail["counters"],
                "characterisation": detail.get("characterisation"),
            }
        )
    return {"manifest": details[0]["manifest"], "runs": runs}


def _record(result_set: dict) -> None:
    """Rewrite the tracked results file from a clean, full-scale set."""
    manifest = result_set["manifest"]
    if manifest["smoke"]:
        raise SystemExit("--record refuses a smoke run: it would clobber the record")
    if manifest["dirty"] is not False or not manifest["git_sha"]:
        raise SystemExit(
            "--record refuses a dirty or unversioned tree: the recorded numbers "
            "must name the commit that produced them"
        )
    if not all(run["correct"] for run in result_set["runs"]):
        raise SystemExit("--record refuses a set with failed correctness checks")
    samples: dict[str, dict[str, list[float]]] = {}
    for run in result_set["runs"]:
        table = samples.setdefault(run["workload"], {})
        for name, value in run["values"].items():
            if value is not None:
                table.setdefault(name, []).append(value)
    recorded = {
        "manifest": manifest,
        "results": {
            workload: {name: summarize(values) for name, values in table.items()}
            for workload, table in samples.items()
        },
    }
    RECORDED_PATH.parent.mkdir(parents=True, exist_ok=True)
    RECORDED_PATH.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"recorded -> {RECORDED_PATH.relative_to(REPO_ROOT)}")


def _command_run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    workloads = args.workload or list(bench.workloads)
    unknown = [w for w in workloads if w not in bench.workloads]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {list(bench.workloads)}")
    out = args.out if args.out is not None else DEFAULT_OUT
    out.mkdir(parents=True, exist_ok=True)
    details: list[dict] = []
    for run_index in range(args.runs):
        seed = args.seed + run_index if args.vary_seed else args.seed
        for workload in workloads:
            common = {
                "seed": seed, "smoke": args.smoke, "seconds": args.seconds, "out": out,
            }
            detail = _run_driver(workload, trace=False, **common)
            _print_run(detail, bench)
            details.append(detail)
            if args.trace:
                detail = _run_driver(workload, trace=True, **common)
                _print_run(detail, bench)
                details.append(detail)
    result_set = _result_set(details)
    results_path = out / "results.json"
    results_path.write_text(json.dumps(result_set, indent=2) + "\n", encoding="utf-8")
    print(f"\nresult set -> {results_path}")
    if args.record:
        _record(result_set)
    return 0 if all(d["exit_code"] == 0 for d in details) else 1


def _command_compare(args: argparse.Namespace) -> int:
    base = json.loads(args.base.read_text(encoding="utf-8"))
    other = json.loads(args.other.read_text(encoding="utf-8"))
    for key in ("smoke", "scale"):
        if base["manifest"][key] != other["manifest"][key]:
            raise SystemExit(
                f"refusing to compare: {key} is {base['manifest'][key]!r} in A and "
                f"{other['manifest'][key]!r} in B — the two sets ran different sizes"
            )
    rows = compare_sets(base, other, load_benchmark())
    print(format_rows(rows))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.observatory", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all four)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", action="store_true",
                     help="also make the traced run that yields per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help="sizes / 4, one repetition (< 60 s); never recorded")
    run.add_argument("--runs", type=int, default=1, help="repeat the set N times")
    run.add_argument("--vary-seed", action="store_true",
                     help="run k uses --seed + k (default: the same seed)")
    run.add_argument("--seconds", type=float, default=None,
                     help=f"nominal seconds per run (default: run_seconds in "
                          f"{BENCHMARK_PATH.name})")
    run.add_argument("--out", type=Path, default=None,
                     help="output directory (default: .observatory/, untracked)")
    run.add_argument("--record", action="store_true",
                     help="rewrite results/recorded.json (clean full-scale runs only)")
    run.set_defaults(handler=_command_run)
    compare = commands.add_parser(
        "compare", help="judge result set B against A with BENCHMARK.json's bounds"
    )
    compare.add_argument("base", type=Path, help="A: the parent's results.json")
    compare.add_argument("other", type=Path, help="B: the change's results.json")
    compare.set_defaults(handler=_command_compare)
    args = parser.parse_args(argv)
    return int(args.handler(args))

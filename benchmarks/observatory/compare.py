"""Judge two result sets: improved / regressed / unchanged / unresolved.

One row per (end-to-end metric, workload), never a combined score.  The
rules are the choosing-metrics guide's:

* **regressed** — B's median is worse than A's by more than the metric's
  bound, and the evidence is clean: the run-to-run spread of both sides
  stays within the bound, or every run of B reads worse than every run
  of A.
* **unresolved** — the spread of either side is wider than the bound and
  the two sides' runs overlap: the data cannot say unchanged.
* **improved** — claimed only from at least ten pairs (run *i* of A
  against run *i* of B, alternating order is the caller's job): B wins
  at least nine tenths of them, ties counting for neither, and the
  medians differ by more than A's own inter-quartile distance.
* **unchanged** — everything else.

Every ratio is printed with its base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import NATIVE_WORKLOADS, Benchmark, Metric
from .stats import quartiles, relative_spread

__all__ = ["Row", "compare_sets", "format_rows"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Row:
    """The verdict on one (metric, workload) pair."""

    metric: str
    workload: str
    unit: str
    verdict: str
    base_median: float
    other_median: float
    #: relative change in the bad direction (positive = B is worse)
    worse_by: float
    bound: float
    spread: float
    runs: tuple[int, int]
    note: str = ""


def _values(result_set: dict, workload: str, metric: str) -> list[float]:
    return [
        run["values"][metric]
        for run in result_set["runs"]
        if run["workload"] == workload and not run["trace"]
        and run["values"].get(metric) is not None
    ]


def judge(metric: Metric, workload: str, base: list[float], other: list[float]) -> Row:
    """Apply the module's rules to one pair's runs."""
    bound = metric.bound or 0.0
    base_median = quartiles(base)[1]
    other_median = quartiles(other)[1]
    worse_by = metric.worse_by(base_median, other_median)
    spread = max(relative_spread(base), relative_spread(other))
    sign = 1.0 if metric.better == "lower" else -1.0
    all_worse = min(sign * v for v in other) > max(sign * v for v in base)
    all_better = max(sign * v for v in other) < min(sign * v for v in base)
    overlap = not (all_worse or all_better)
    pairs = list(zip(base, other))
    wins = sum(sign * o < sign * b for b, o in pairs)
    note = ""
    if worse_by > bound and (spread <= bound or all_worse):
        verdict = "regressed"
    elif spread > bound and overlap:
        verdict = "unresolved"
        note = f"spread {spread:.1%} > bound {bound:.1%} and the runs overlap"
    elif (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(other_median - base_median) > quartiles(base)[2] - quartiles(base)[0]
    ):
        verdict = "improved"
        note = f"B wins {wins}/{len(pairs)} pairs"
    else:
        verdict = "unchanged"
        if worse_by < 0 and len(pairs) < MIN_PAIRS:
            note = f"reads better, no claim from {len(pairs)} pair(s) (< {MIN_PAIRS})"
    return Row(
        metric.name, workload, metric.unit, verdict, base_median, other_median,
        worse_by, bound, spread, (len(base), len(other)), note,
    )


def compare_sets(base: dict, other: dict, bench: Benchmark) -> list[Row]:
    """One row per (reported end-to-end metric, workload) both sets measured."""
    rows = []
    for name, metric in bench.reported().items():
        for workload in bench.workloads:
            a, b = _values(base, workload, name), _values(other, workload, name)
            if a and b:
                rows.append(judge(metric, workload, a, b))
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'metric':22s} {'workload':13s} {'verdict':10s} {'A median':>12s} "
        f"{'B median':>12s} {'B/A':>8s} {'worse by':>9s} {'bound':>7s} "
        f"{'spread':>7s} {'runs':>7s}  note"
    ]
    for row in rows:
        ratio = (
            f"{row.other_median / row.base_median:8.4f}" if row.base_median else "     n/a"
        )
        native = "" if row.workload in NATIVE_WORKLOADS.get(row.metric, ()) else " (stand-in)"
        lines.append(
            f"{row.metric:22s} {row.workload:13s} {row.verdict:10s} "
            f"{row.base_median:12.6g} {row.other_median:12.6g} {ratio} "
            f"{row.worse_by:+9.2%} {row.bound:7.2%} {row.spread:7.2%} "
            f"{row.runs[0]:>3d}/{row.runs[1]:<3d}  {row.note}{native}"
        )
    lines.append(
        f"ratios are B/A with A's median ({rows[0].unit if rows else ''}…) as the base; "
        "worse-by is signed in each metric's bad direction"
    )
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    lines.append(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return "\n".join(lines)

"""What one workload run records, and how it becomes metric values."""

from __future__ import annotations

import resource
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .stats import percentile, quartiles, summarize

__all__ = ["Recorder", "answers_equal", "peak_rss_mb"]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def answers_equal(got: object, want: object) -> bool:
    """Bit-identity of two query answers (plain or corpus fan-out)."""
    want_parts = getattr(want, "by_sequence", None)
    if want_parts is not None:
        got_parts = getattr(got, "by_sequence", None)
        if got_parts is None or list(got_parts) != list(want_parts):
            return False
        if hasattr(want, "value") and not _same_value(got.value, want.value):
            return False
        return all(
            answers_equal(got_parts[name], want_parts[name]) for name in want_parts
        )
    if hasattr(want, "value"):
        return hasattr(got, "value") and _same_value(got.value, want.value)
    got_ids = getattr(got, "frame_ids", None)
    if got_ids is None:
        return False
    return list(got_ids) == list(want.frame_ids)


def _same_value(got: float, want: float) -> bool:
    return got == want or (got != got and want != want)  # NaN answers NaN


def _unit_speed(start: float, end: float) -> float:
    return 1.0


@dataclass
class Recorder:
    """Samples, operation counts and failures of one workload run."""

    #: mean machine speed over a ``perf_counter`` interval (:mod:`speed`)
    speed: Callable[[float, float], float] = _unit_speed
    #: metric -> samples (reduced by :meth:`metric_values`)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: per window, its request latencies in reference-speed ms
    request_ms: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: deterministic program counters (must repeat for one seed)
    counters: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics read from stats surfaces (None = surface gone)
    surfaces: dict[str, float | None] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``."""
        return (end - start) * self.speed(start, end)

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def requests(self, latencies_s: Sequence[float], start: float, end: float) -> None:
        """One window's request latencies, sent during ``[start, end]``."""
        scale = 1e3 * self.speed(start, end)
        self.request_ms.append([scale * value for value in latencies_s])

    @property
    def n_requests(self) -> int:
        return sum(len(window) for window in self.request_ms)

    def op(self, ok: bool = True, why: str = "") -> bool:
        """Count one attempted operation; a failed one keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failures.append(why or "operation failed")
        return ok

    def check(self, ok: bool, why: str) -> bool:
        """One correctness check = one operation."""
        return self.op(bool(ok), f"correctness: {why}")

    def surface(self, metric: str, value: float | None, reason: str = "") -> None:
        self.surfaces[metric] = value
        if value is None and reason:
            self.reasons[metric] = reason

    @property
    def failed(self) -> int:
        return len(self.failures)

    def metric_values(self) -> dict[str, dict[str, float]]:
        """Each metric's value with its sample count and quartiles.

        Wall-clock and throughput metrics report the median of their
        samples; a request percentile is taken inside each window and the
        median over the windows reported, so one window that met a burst
        of interference does not set the run's tail.
        """
        values: dict[str, dict[str, float]] = {}
        for metric, samples in self.samples.items():
            stats = summarize(samples)
            values[metric] = {"value": stats["median"], **stats}
        windows = [window for window in self.request_ms if window]
        if windows:
            for metric, q in (("request_p50_ms", 50.0), ("request_p99_ms", 99.0)):
                q1, median, q3 = quartiles([percentile(w, q) for w in windows])
                values[metric] = {
                    "value": median, "n": self.n_requests,
                    "q1": q1, "median": median, "q3": q3,
                }
        values["failed_share"] = {
            "value": self.failed / max(1, self.attempted),
            "n": self.attempted, "q1": 0.0, "median": 0.0, "q3": 0.0,
        }
        return values

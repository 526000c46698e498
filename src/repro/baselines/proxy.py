"""Proxy-model baseline (the approach the paper argues against).

The paper's introduction discusses the main alternative to sampling:
"design lightweight models (referred to as proxy models) as replacements
for the original costly model" (NoScope / BlazeIt / probabilistic-
predicates style [19, 20, 21]).  The criticism is that proxies are
task-specialized and hard to make accurate across diverse queries.  This
module implements that baseline so the claim can be *measured*:

* :func:`tiny_proxy` — a very cheap, very noisy simulated detector
  (0.005 s/frame: 20x cheaper than PV-RCNN), standing in for a distilled
  student network;
* :class:`ProxyCountProvider` — runs the proxy on **every** frame, runs
  the oracle on a small uniform calibration subset, and fits a
  per-filter linear correction ``oracle_count ~ a * proxy_count + b``
  (the standard proxy-calibration recipe).  Count series come from the
  corrected proxy everywhere.

With the default split (proxy on 100 % + oracle on 5 %), the deep-model
budget equals MAST's default 10 % of oracle-only time — an equal-budget
comparison, exercised in ``benchmarks/bench_proxy_comparison.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampler import uniform_ids
from repro.data.annotations import ObjectArray
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.models.detectors import SimulatedDetector
from repro.models.noise import NoiseProfile
from repro.query.predicates import ObjectFilter
from repro.utils.timing import CostLedger
from repro.utils.validation import require_fraction

__all__ = ["tiny_proxy", "PROFILE_TINY_PROXY", "ProxyCountProvider"]

#: A distilled-student error profile: misses a third of near objects,
#: degrades quickly with distance, hallucinates often, localizes coarsely.
PROFILE_TINY_PROXY = NoiseProfile(
    detect_prob_near=0.72,
    falloff_start=18.0,
    falloff_scale=22.0,
    center_sigma=0.9,
    size_sigma=0.3,
    yaw_sigma=0.3,
    false_positive_rate=1.2,
    false_positive_score=0.6,
    score_mean=0.8,
    score_spread=0.12,
    score_distance_slope=0.3,
    score_threshold=0.30,
)


def tiny_proxy(seed: int = 0) -> SimulatedDetector:
    """The cheap proxy detector (0.005 s/frame, 20x cheaper than PV-RCNN)."""
    return SimulatedDetector(
        "tiny_proxy",
        PROFILE_TINY_PROXY,
        cost_per_frame=0.005,
        seed=seed,
        num_parameters=150_000,
    )


class ProxyCountProvider:
    """Calibrated-proxy count series (BlazeIt-style baseline).

    The proxy processes every frame; the oracle processes a small
    uniform subset.  Per object filter, a least-squares line maps proxy
    counts to oracle counts; the corrected proxy answers queries for all
    frames.
    """

    #: Proxy evaluation is linear-scan-like at query time.
    simulated_query_cost_per_frame = 6.6e-6

    def __init__(
        self,
        sequence: FrameSequence,
        oracle_model: DetectionModel,
        *,
        proxy_model: DetectionModel | None = None,
        oracle_fraction: float = 0.05,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> None:
        require_fraction(oracle_fraction, "oracle_fraction")
        self.n_frames = len(sequence)
        self.ledger = ledger if ledger is not None else CostLedger()
        proxy_model = proxy_model or tiny_proxy()
        self.proxy_name = proxy_model.name
        self.oracle_name = oracle_model.name

        self._proxy_detections: dict[int, ObjectArray] = {}
        self._oracle_detections: dict[int, ObjectArray] = {}
        budget = max(2, round(oracle_fraction * self.n_frames))
        self.calibration_ids = uniform_ids(self.n_frames, budget)
        self._detect_passes(
            sequence, proxy_model, oracle_model, engine or InferenceEngine()
        )

        self._cache: dict[ObjectFilter, np.ndarray] = {}
        self._fits: dict[ObjectFilter, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def _detect_passes(
        self,
        sequence: FrameSequence,
        proxy_model: DetectionModel,
        oracle_model: DetectionModel,
        engine: InferenceEngine,
    ) -> None:
        """Proxy pass over every frame + oracle calibration subset."""
        # Proxy pass over everything (this is the approach's whole point).
        engine.detect_wave(
            sequence, range(self.n_frames), proxy_model,
            ledger=self.ledger, known=self._proxy_detections,
        )
        # Oracle calibration subset (uniform, endpoints included).
        engine.detect_wave(
            sequence, [int(i) for i in self.calibration_ids], oracle_model,
            ledger=self.ledger, known=self._oracle_detections,
        )

    # ------------------------------------------------------------------
    def calibration_for(self, object_filter: ObjectFilter) -> tuple[float, float]:
        """The fitted ``(slope, intercept)`` for one filter."""
        fit = self._fits.get(object_filter)
        if fit is not None:
            return fit
        proxy_counts = np.array(
            [
                object_filter.count(self._proxy_detections[int(frame_id)])
                for frame_id in self.calibration_ids
            ],
            dtype=float,
        )
        oracle_counts = np.array(
            [
                object_filter.count(self._oracle_detections[int(frame_id)])
                for frame_id in self.calibration_ids
            ],
            dtype=float,
        )
        variance = float(np.var(proxy_counts))
        if variance < 1e-12:
            # Constant proxy signal: fall back to matching the means.
            slope = 1.0
            intercept = float(np.mean(oracle_counts) - np.mean(proxy_counts))
        else:
            slope = float(
                np.cov(proxy_counts, oracle_counts, bias=True)[0, 1] / variance
            )
            intercept = float(
                np.mean(oracle_counts) - slope * np.mean(proxy_counts)
            )
        fit = (slope, intercept)
        self._fits[object_filter] = fit
        return fit

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Calibrated per-frame counts from the proxy detections."""
        cached = self._cache.get(object_filter)
        if cached is not None:
            return cached
        slope, intercept = self.calibration_for(object_filter)
        raw = np.array(
            [
                object_filter.count(self._proxy_detections[frame_id])
                for frame_id in range(self.n_frames)
            ],
            dtype=float,
        )
        counts = np.maximum(slope * raw + intercept, 0.0)
        self._cache[object_filter] = counts
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProxyCountProvider(frames={self.n_frames}, "
            f"proxy={self.proxy_name!r}, calibration="
            f"{len(self.calibration_ids)} oracle frames)"
        )

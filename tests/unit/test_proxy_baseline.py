"""Unit tests for the calibrated-proxy baseline."""

import numpy as np
import pytest

from repro.baselines import OracleCountProvider, ProxyCountProvider, tiny_proxy
from repro.models import GroundTruthDetector, pv_rcnn
from repro.query import ObjectFilter, QueryEngine, SpatialPredicate
from repro.simulation import semantickitti_like

CAR_NEAR = ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 20.0))


@pytest.fixture(scope="module")
def sequence():
    return semantickitti_like(0, n_frames=400, with_points=False)


@pytest.fixture(scope="module")
def provider(sequence):
    return ProxyCountProvider(
        sequence, pv_rcnn(seed=5), proxy_model=tiny_proxy(seed=5)
    )


class TestTinyProxy:
    def test_much_cheaper_than_oracle(self):
        assert tiny_proxy().cost_per_frame == pytest.approx(0.005)
        assert tiny_proxy().cost_per_frame < pv_rcnn().cost_per_frame / 10

    def test_much_noisier_than_oracle(self, sequence):
        """The proxy's per-frame counts deviate more from ground truth."""
        proxy = tiny_proxy(seed=5)
        oracle = pv_rcnn(seed=5)
        gt = sequence.ground_truth_counts("Car").astype(float)
        proxy_counts = np.array(
            [CAR_NEAR.count(proxy.detect(f).objects) for f in sequence[:100]]
        )
        oracle_counts = np.array(
            [CAR_NEAR.count(oracle.detect(f).objects) for f in sequence[:100]]
        )
        truth = np.array(
            [CAR_NEAR.count(GroundTruthDetector().detect(f).objects)
             for f in sequence[:100]]
        )
        assert np.abs(proxy_counts - truth).mean() > np.abs(
            oracle_counts - truth
        ).mean()


class TestProxyCountProvider:
    def test_budget_accounting(self, sequence, provider):
        expected = 0.005 * len(sequence) + 0.10 * len(provider.calibration_ids)
        assert provider.ledger.total("deep_model") == pytest.approx(expected)

    def test_equal_budget_to_mast_default(self, sequence, provider):
        """Proxy(100 %) + oracle(5 %) == oracle(10 %) in model seconds."""
        mast_budget = 0.10 * len(sequence) * pv_rcnn().cost_per_frame
        assert provider.ledger.total("deep_model") == pytest.approx(
            mast_budget, rel=0.1
        )

    def test_count_series_shape_and_sign(self, provider, sequence):
        counts = provider.count_series(CAR_NEAR)
        assert counts.shape == (len(sequence),)
        assert np.all(counts >= 0)

    def test_memoization(self, provider):
        """The provider computes; the engine in front of it keeps the series."""
        assert provider.count_series(CAR_NEAR) is not provider.count_series(CAR_NEAR)
        engine = QueryEngine(provider)
        assert engine.count_series(CAR_NEAR) is engine.count_series(CAR_NEAR)

    def test_calibration_reduces_bias(self, sequence, provider):
        """The fitted correction must shrink the mean count error
        relative to the raw proxy."""
        oracle = OracleCountProvider(sequence, pv_rcnn(seed=5))
        truth = oracle.count_series(CAR_NEAR)
        calibrated = provider.count_series(CAR_NEAR)
        raw = np.array(
            [
                CAR_NEAR.count(provider._proxy_detections[i])
                for i in range(len(sequence))
            ],
            dtype=float,
        )
        raw_bias = abs(float(np.mean(raw - truth)))
        calibrated_bias = abs(float(np.mean(calibrated - truth)))
        assert calibrated_bias <= raw_bias + 0.05

    def test_constant_proxy_signal_fallback(self, sequence):
        """A filter the proxy never matches exercises the mean-match path."""
        provider = ProxyCountProvider(
            sequence, pv_rcnn(seed=5), proxy_model=tiny_proxy(seed=5)
        )
        impossible = ObjectFilter(
            label="Car", spatial=SpatialPredicate("<=", 0.0)
        )
        slope, intercept = provider.calibration_for(impossible)
        assert np.isfinite(slope) and np.isfinite(intercept)
        counts = provider.count_series(impossible)
        assert np.all(np.isfinite(counts))

    def test_oracle_fraction_validation(self, sequence):
        with pytest.raises(ValueError):
            ProxyCountProvider(sequence, pv_rcnn(seed=5), oracle_fraction=0.0)

    def test_usable_in_query_engine(self, provider):
        engine = QueryEngine(provider)
        result = engine.execute("SELECT AVG OF COUNT(Car DIST <= 20)")
        assert result.value >= 0.0

"""Unit tests for the baseline samplers and method specs."""

import numpy as np
import pytest

from repro.baselines import (
    ABLATION_METHODS,
    MAST,
    ORACLE,
    PAPER_METHODS,
    SEIDEN_PC,
    SEIDEN_PCST,
    OracleCountProvider,
    RandomSampler,
    SeidenPCSampler,
    UniformSampler,
    available_methods,
    get_method,
)
from repro.core import MASTConfig
from repro.query import ObjectFilter, QueryEngine, SpatialPredicate
from repro.utils.timing import STAGE_MODEL


class TestSeidenPCSampler:
    @pytest.fixture(scope="class")
    def result(self, kitti_sequence, detector):
        return SeidenPCSampler(MASTConfig(seed=3)).sample(kitti_sequence, detector)

    def test_budget_respected(self, result, kitti_sequence):
        assert len(result.sampled_ids) == round(0.1 * len(kitti_sequence))

    def test_sorted_unique(self, result):
        assert np.all(np.diff(result.sampled_ids) > 0)

    def test_policy_info(self, result):
        assert result.policy_info["sampler"] == "seiden_pc"
        assert result.policy_info["n_segments"] >= 1

    def test_st_reward_variant_is_mast_noh(self, kitti_sequence, detector):
        sampler = SeidenPCSampler(MASTConfig(seed=3), reward_kind="st")
        assert sampler.name == "mast_noh"
        result = sampler.sample(kitti_sequence, detector)
        assert result.policy_info["reward_kind"] == "st"

    def test_invalid_reward_kind(self):
        with pytest.raises(ValueError):
            SeidenPCSampler(MASTConfig(), reward_kind="bogus")

    def test_deterministic(self, kitti_sequence, detector):
        a = SeidenPCSampler(MASTConfig(seed=3)).sample(kitti_sequence, detector)
        b = SeidenPCSampler(MASTConfig(seed=3)).sample(kitti_sequence, detector)
        assert np.array_equal(a.sampled_ids, b.sampled_ids)


class TestSimpleSamplers:
    def test_uniform_equal_spacing(self, kitti_sequence, detector):
        result = UniformSampler(MASTConfig(seed=1)).sample(kitti_sequence, detector)
        gaps = np.diff(result.sampled_ids)
        assert gaps.max() - gaps.min() <= 1

    def test_random_includes_endpoints(self, kitti_sequence, detector):
        result = RandomSampler(MASTConfig(seed=1)).sample(kitti_sequence, detector)
        assert result.sampled_ids[0] == 0
        assert result.sampled_ids[-1] == len(kitti_sequence) - 1

    def test_random_budget(self, kitti_sequence, detector):
        result = RandomSampler(MASTConfig(seed=1)).sample(kitti_sequence, detector)
        assert len(result.sampled_ids) == round(0.1 * len(kitti_sequence))

    def test_random_seed_variation(self, kitti_sequence, detector):
        a = RandomSampler(MASTConfig(seed=1)).sample(kitti_sequence, detector)
        b = RandomSampler(MASTConfig(seed=2)).sample(kitti_sequence, detector)
        assert not np.array_equal(a.sampled_ids, b.sampled_ids)


class TestOracleCountProvider:
    @pytest.fixture(scope="class")
    def provider(self, kitti_sequence, detector):
        return OracleCountProvider(kitti_sequence, detector)

    def test_charges_full_model_budget(self, provider, kitti_sequence, detector):
        expected = len(kitti_sequence) * detector.cost_per_frame
        assert provider.ledger.total(STAGE_MODEL) == pytest.approx(expected)

    def test_counts_match_per_frame_detection(
        self, provider, kitti_sequence, detector
    ):
        object_filter = ObjectFilter(
            label="Car", spatial=SpatialPredicate("<=", 25.0)
        )
        counts = provider.count_series(object_filter)
        for frame in list(kitti_sequence)[:30]:
            expected = object_filter.count(detector.detect(frame).objects)
            assert counts[frame.frame_id] == expected

    def test_memoization(self, provider):
        """The provider computes; the engine in front of it keeps the series."""
        object_filter = ObjectFilter(label="Car")
        assert provider.count_series(object_filter) is not provider.count_series(
            object_filter
        )
        engine = QueryEngine(provider)
        assert engine.count_series(object_filter) is engine.count_series(object_filter)

    def test_detections_at(self, provider):
        assert provider.detections_at(0) is not None


class TestMethodSpecs:
    def test_paper_methods(self):
        assert [m.name for m in PAPER_METHODS] == ["seiden_pc", "seiden_pcst", "mast"]

    def test_ablation_methods(self):
        names = [m.name for m in ABLATION_METHODS]
        assert "mast_nost" in names and "mast_noh" in names

    def test_oracle_flags(self):
        assert ORACLE.is_oracle
        assert not MAST.is_oracle

    def test_seiden_pc_is_all_linear(self):
        assert SEIDEN_PC.retrieval_predictor == "linear"
        assert set(SEIDEN_PC.predictor_by_operator.values()) == {"linear"}

    def test_seiden_pcst_is_all_st(self):
        assert SEIDEN_PCST.retrieval_predictor == "st"
        assert set(SEIDEN_PCST.predictor_by_operator.values()) == {"st"}

    def test_mast_mixed_assignment(self):
        """Paper §7.1: ST everywhere except linear for Avg."""
        assert MAST.retrieval_predictor == "st"
        assert MAST.predictor_by_operator["Avg"] == "linear"
        assert MAST.predictor_by_operator["Med"] == "st"
        assert MAST.predictor_by_operator["Count"] == "st"

    def test_get_method(self):
        assert get_method("mast") is MAST
        with pytest.raises(ValueError, match="unknown"):
            get_method("bogus")

    def test_available_methods(self):
        names = available_methods()
        assert "oracle" in names and "mast" in names

    def test_sampler_factories_produce_distinct_instances(self):
        config = MASTConfig()
        assert MAST.make_sampler(config) is not MAST.make_sampler(config)

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
from repro.core.sampler import uniform_ids
from repro.query import ObjectFilter, QueryEngine, SpatialPredicate
from repro.simulation import semantickitti_like
from repro.utils.timing import STAGE_MODEL
from tests.streaming.harness import CountingModel


class TestSeidenPCSampler:
    """What ``tests/spec/test_differential.py`` does not see: the sampled
    ids, budget and determinism are the spec's; these are not."""

    def test_policy_info(self, kitti_sequence, detector):
        config = MASTConfig(seed=3)
        result = SeidenPCSampler(config).sample(kitti_sequence, detector)
        n_frames = len(kitti_sequence)
        uniform_budget = config.uniform_budget_for(config.budget_for(n_frames))
        n_segments = len(uniform_ids(n_frames, uniform_budget)) - 1
        assert result.policy_info == {
            "sampler": "seiden_pc", "reward_kind": "count", "n_segments": n_segments,
        }

    def test_st_reward_variant_is_mast_noh(self, kitti_sequence, detector):
        sampler = SeidenPCSampler(MASTConfig(seed=3), reward_kind="st")
        assert sampler.name == "mast_noh"
        result = sampler.sample(kitti_sequence, detector)
        assert result.policy_info["reward_kind"] == "st"

    def test_invalid_reward_kind(self):
        with pytest.raises(ValueError):
            SeidenPCSampler(MASTConfig(), reward_kind="bogus")


@pytest.mark.wall_bound(60)
@pytest.mark.parametrize("beta", [0.3, 0.9])
@pytest.mark.parametrize(
    "method", ["mast", "mast_nost", "mast_noh", "seiden_pc", "uniform", "random"]
)
def test_a_near_full_budget_is_spent_exactly_once(method, beta, detector):
    """At 99 % every sampled method samples ``budget_for(n)`` distinct
    frames, bills each once and stops: the exhaustion path of the tree,
    which the flat configuration shares, ends instead of spinning."""
    sequence = semantickitti_like(1, n_frames=150, with_points=False)
    config = MASTConfig(budget_fraction=0.99, beta=beta, seed=2)
    model = CountingModel(detector, [sequence])
    result = get_method(method).make_sampler(config).sample(sequence, model)
    ids = result.sampled_ids.tolist()
    assert len(ids) == len(set(ids)) == config.budget_for(len(sequence))
    assert sorted(model.detected) == [(sequence.name, frame_id) for frame_id in ids]
    assert result.ledger.invocations(STAGE_MODEL) == len(ids)


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

"""Unit tests for the MASTPipeline facade."""

import numpy as np
import pytest

from repro.core import MASTConfig, MASTPipeline
from repro.core.pipeline import predictor_kind
from repro.query import AggregateResult, RetrievalResult, parse_query
from repro.serving.batching import base_kind


@pytest.fixture(scope="module")
def pipeline(kitti_sequence, detector):
    return MASTPipeline(MASTConfig(seed=4)).fit(kitti_sequence, detector)


class TestFitAndQuery:
    def test_query_before_fit_raises(self):
        with pytest.raises(ValueError, match="fit"):
            MASTPipeline().query("SELECT AVG OF COUNT(Car)")

    def test_retrieval_query(self, pipeline):
        result = pipeline.query("SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1")
        assert isinstance(result, RetrievalResult)
        assert result.n_frames == 400

    def test_aggregate_query(self, pipeline):
        result = pipeline.query("SELECT AVG OF COUNT(Car DIST <= 20)")
        assert isinstance(result, AggregateResult)
        assert result.value >= 0

    def test_query_many(self, pipeline):
        results = pipeline.query_many(
            ["SELECT MIN OF COUNT(Car)", "SELECT MAX OF COUNT(Car)"]
        )
        assert results[0].value <= results[1].value

    def test_avg_uses_linear_predictor(self, pipeline):
        """Paper §7.1: MAST answers Avg with linear prediction."""
        query = parse_query("SELECT AVG OF COUNT(Car DIST <= 20)")
        assert pipeline.route(query) == "linear"
        linear = pipeline.providers["linear"].count_series(query.object_filter)
        assert np.array_equal(pipeline.query(query).counts, linear)

    def test_med_uses_st_predictor(self, pipeline):
        query = parse_query("SELECT MED OF COUNT(Car DIST <= 20)")
        assert pipeline.route(query) == "st"
        st = pipeline.index.count_series(query.object_filter)
        assert np.array_equal(pipeline.query(query).counts, st)

    def test_retrieval_uses_st_predictor(self, pipeline):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert pipeline.route(query) == "st"

    def test_retrieval_predictor_override(self, kitti_sequence, detector):
        config = MASTConfig(seed=4, retrieval_predictor="linear")
        pipe = MASTPipeline(config).fit(kitti_sequence, detector)
        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert pipe.route(query) == "linear_floor"
        floored = np.floor(pipe.providers["linear"].count_series(query.object_filter))
        assert np.array_equal(pipe.query(query).frame_ids, np.flatnonzero(floored >= 1))

    def test_a_repeat_returns_the_memoized_read_only_answer(self, kitti_sequence, detector):
        """A repeated single-filter query shares one answer, as QueryService does."""
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(kitti_sequence, detector)
        for text in ("SELECT FRAMES WHERE COUNT(Car) >= 2", "SELECT MED OF COUNT(Pedestrian)"):
            first, second, third = (pipe.query(text) for _ in range(3))
            assert second is third and first is not second
            array = second.frame_ids if isinstance(second, RetrievalResult) else second.counts
            assert not array.flags.writeable
            assert repr(first) == repr(second)
        assert not pipe.ledger.cache_hits and not pipe.ledger.cache_misses

    def test_cost_summary(self, pipeline):
        summary = pipeline.cost_summary()
        assert summary["deep_model"] > 0
        assert "indexing" in summary

    def test_sampling_result_accessor(self, pipeline, kitti_sequence):
        assert pipeline.sampling_result.n_frames == len(kitti_sequence)

    def test_index_accessor(self, pipeline):
        assert pipeline.index.n_frames == 400

    def test_fit_returns_self(self, kitti_sequence, detector):
        pipe = MASTPipeline(MASTConfig(seed=9))
        assert pipe.fit(kitti_sequence, detector) is pipe


class TestAllLinearAssignment:
    """The ST index exists only where the assignment can route to it."""

    TEXTS = [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car DIST <= 20)",
        "SELECT MED OF COUNT(Car DIST <= 20)",
        "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 2",
    ]

    @pytest.fixture()
    def linear_pipe(self, kitti_sequence, detector):
        config = MASTConfig(
            seed=4,
            retrieval_predictor="linear",
            predictor_by_operator={"Avg": "linear", "Med": "linear", "Count": "linear"},
        )
        return MASTPipeline(config).fit(kitti_sequence, detector)

    def test_no_index_is_built_or_billed(self, linear_pipe):
        assert linear_pipe.ledger.total("indexing") == 0.0
        assert set(linear_pipe.providers) == {"linear"}
        with pytest.raises(ValueError, match="no ST index"):
            linear_pipe.index
        assert "not built" in linear_pipe.explain(self.TEXTS[1])
        # Min is not named: it follows retrieval_predictor, like every query.
        for text in [*self.TEXTS, "SELECT MIN OF COUNT(Car)"]:
            assert base_kind(linear_pipe.route(parse_query(text))) == "linear"
            linear_pipe.query(text)

    def test_unnamed_operator_follows_retrieval_predictor(self):
        query = parse_query("SELECT MIN OF COUNT(Car)")
        for retrieval in ("st", "linear"):
            config = MASTConfig(retrieval_predictor=retrieval, predictor_by_operator={})
            assert predictor_kind(config, query) == retrieval

    def test_served_without_an_index(self, linear_pipe):
        from repro.serving import QueryService

        service = QueryService(linear_pipe)
        assert service.n_frames == 400
        for text, served in zip(self.TEXTS, service.execute_batch(self.TEXTS)):
            assert repr(served) == repr(linear_pipe.query(text))

    def test_calibration_builds_the_index_it_starts_routing_to(self, linear_pipe):
        linear_pipe.calibrate_predictors(max_holdouts=20)
        kinds = {
            predictor_kind(linear_pipe.config, parse_query(t)) for t in self.TEXTS
        }
        assert ("st" in kinds) <= ("st" in linear_pipe.providers)
        linear_pipe.query_many(self.TEXTS)

    def test_a_live_service_routes_to_the_index_calibration_built(self, linear_pipe):
        from repro.serving import QueryService

        service = QueryService(linear_pipe)
        service.execute_batch(self.TEXTS)
        linear_pipe.calibrate_predictors(max_holdouts=20)
        assert "st" in {linear_pipe.route(parse_query(t)) for t in self.TEXTS}
        for text, served in zip(self.TEXTS, service.execute_batch(self.TEXTS)):
            assert repr(served) == repr(linear_pipe.query(text))
        assert service.generation == 0


class TestCalibrationReroutesLiveServices:
    """A service built before ``calibrate_predictors`` routes as the pipeline now does."""

    def test_served_retrieval_follows_the_calibrated_config(self):
        from repro.models import pv_rcnn
        from repro.serving import QueryService
        from repro.simulation import once_like

        pipe = MASTPipeline(MASTConfig(budget_fraction=0.2)).fit(
            once_like(0, n_frames=300), pv_rcnn()
        )
        service = QueryService(pipe)
        text = "SELECT FRAMES WHERE COUNT(Car) >= 3"
        before = service.execute(text)
        pipe.calibrate_predictors()
        assert pipe.config.retrieval_predictor == "linear"
        after = service.execute(text)
        assert repr(after) == repr(pipe.query(text))
        assert after.cardinality != before.cardinality
        assert [repr(r) for r in service.execute_batch([text])] == [repr(after)]


class TestExtend:
    def test_extend_before_fit_raises(self):
        with pytest.raises(ValueError, match="fit"):
            MASTPipeline().extend([])

    def test_extend_ingests_new_batch(self, detector):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=300, with_points=False)
        head = full.head(200, name=full.name)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(head, detector)
        n_before = len(pipe.sampling_result.sampled_ids)

        pipe.extend(list(full[200:300]))
        result = pipe.sampling_result
        assert result.n_frames == 300
        assert len(result.sampled_ids) > n_before
        # The uniform grid continued into the new region at its fixed
        # stride from the old last frame; frames after the last grid
        # point are extrapolated, not sampled.
        stride = round(1 / (pipe.config.beta * pipe.config.budget_fraction))
        grid = set(range(199 + stride, 300, stride))
        assert len(grid) >= 2
        assert grid <= set(map(int, result.sampled_ids))
        assert result.sampled_ids[-1] == max(grid)

    def test_extend_keeps_queries_working(self, detector):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=300, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), detector
        )
        pipe.extend(list(full[200:300]))
        result = pipe.query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert result.n_frames == 300

    def test_extend_budget_fraction_preserved(self, detector):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=400, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4, budget_fraction=0.1)).fit(
            full.head(200, name=full.name), detector
        )
        pipe.extend(list(full[200:400]))
        fraction = pipe.sampling_result.sampling_fraction
        assert fraction == pytest.approx(0.1, abs=0.02)


class TestCacheLivesOneIndexEpoch:
    """Series resolved on one index are never served for a later one."""

    TEXTS = [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car DIST <= 20)",
    ]

    @pytest.mark.parametrize("rebuild", ["extend", "fit_from_sampling"])
    def test_rebuild_starts_an_empty_cache(self, detector, rebuild):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=260, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), detector
        )
        pipe.query_many(self.TEXTS)
        for text in self.TEXTS:
            assert "[count series cached]" in pipe.explain(text)

        if rebuild == "extend":
            pipe.extend(list(full[200:]))
        else:
            pipe.fit_from_sampling(pipe.sequence, detector, pipe.sampling_result)
        for text in self.TEXTS:
            assert "[count series not cached]" in pipe.explain(text)

        fresh = MASTPipeline(pipe.config).fit_from_sampling(
            pipe.sequence, detector, pipe.sampling_result
        )
        for text in self.TEXTS:
            got, want = pipe.query(text), fresh.query(text)
            if isinstance(got, RetrievalResult):
                assert got.n_frames == len(pipe.sequence)
                assert np.array_equal(got.frame_ids, want.frame_ids)
            else:
                assert len(got.counts) == len(pipe.sequence)
                assert np.array_equal(got.counts, want.counts)


class TestExtendFrameIdAlignment:
    """Regression: extend() must key new detections by extended-sequence
    frame ids, not re-base the appended batch at zero."""

    def test_sampled_detections_match_source_frames(self, exact_detector):
        from repro.query import ObjectFilter
        from repro.simulation import semantickitti_like

        full = semantickitti_like(1, n_frames=300, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), exact_detector
        )
        pipe.extend(list(full[200:300]))
        sampling = pipe.sampling_result
        everything = ObjectFilter()
        # A frame-id shift would pair detections with the wrong source
        # frame; the perfect detector makes any mismatch exact.
        new_ids = sampling.sampled_ids[sampling.sampled_ids >= 200]
        assert len(new_ids) >= 2
        for frame_id in sampling.sampled_ids:
            frame_id = int(frame_id)
            assert (
                everything.count(sampling.detections[frame_id])
                == full[frame_id].n_objects
            ), f"detections at frame {frame_id} do not match the source frame"

    def test_extend_matches_whole_sequence_fit(self, exact_detector):
        """Shared sampled ids agree with a from-scratch fit of the full run."""
        from repro.query import ObjectFilter
        from repro.simulation import semantickitti_like

        full = semantickitti_like(1, n_frames=300, with_points=False)
        extended = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), exact_detector
        )
        extended.extend(list(full[200:300]))
        fresh = MASTPipeline(MASTConfig(seed=4)).fit(full, exact_detector)

        everything = ObjectFilter()
        shared = set(map(int, extended.sampling_result.sampled_ids)) & set(
            map(int, fresh.sampling_result.sampled_ids)
        )
        assert shared
        for frame_id in sorted(shared):
            assert everything.count(
                extended.sampling_result.detections[frame_id]
            ) == everything.count(fresh.sampling_result.detections[frame_id])

    def test_tail_detections_are_canonical(self, detector):
        """A noisy detector's output depends on the frame id: every
        detection ``extend`` adds is what the detector says about the
        true frame, i.e. what a whole-sequence fit would hold."""
        from repro.simulation import semantickitti_like

        full = semantickitti_like(1, n_frames=260, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), detector
        )
        pipe.extend(list(full[200:230]))
        pipe.extend(list(full[230:]))
        sampling = pipe.sampling_result
        assert np.any(sampling.sampled_ids >= 230)
        assert "noncanonical_ids" not in sampling.policy_info
        for frame_id, objects in sampling.detections.items():
            want = detector.detect(full[frame_id]).objects
            for column in ("labels", "centers", "sizes", "yaws", "scores"):
                assert np.array_equal(
                    getattr(objects, column), getattr(want, column)
                ), (frame_id, column)

    def test_extend_accepts_the_callers_grown_sequence(self, detector):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(1, n_frames=240, with_points=False)
        head = full.head(200, name=full.name)
        new_frames = list(full[200:])
        ours = MASTPipeline(MASTConfig(seed=4)).fit(head, detector)
        theirs = MASTPipeline(MASTConfig(seed=4)).fit(head, detector)
        grown = head.extended(new_frames)
        ours.extend(new_frames)
        theirs.extend(new_frames, extended=grown)
        assert theirs.sequence is grown
        assert np.array_equal(
            ours.sampling_result.sampled_ids, theirs.sampling_result.sampled_ids
        )
        with pytest.raises(ValueError, match="plus 3"):
            theirs.extend(new_frames[:3], extended=grown)

    def test_last_extend_boundary_semantics(self, detector):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=300, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), detector
        )
        assert pipe.last_extend_boundary is None
        old_ids = pipe.sampling_result.sampled_ids.copy()

        pipe.extend(list(full[200:300]))
        boundary = pipe.last_extend_boundary
        # The last old sample before the earliest new one.
        new_ids = np.setdiff1d(pipe.sampling_result.sampled_ids, old_ids)
        assert len(new_ids)
        expected_prefix = old_ids[old_ids < new_ids[0]]
        expected = int(expected_prefix.max()) if len(expected_prefix) else -1
        assert boundary == expected
        # Counts on frames up to the boundary only depend on detections
        # at bracketing sampled frames, all of which were preserved.
        kept = pipe.sampling_result.sampled_ids
        assert set(map(int, old_ids[old_ids <= boundary])) <= set(map(int, kept))

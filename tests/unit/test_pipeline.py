"""Unit tests for the MASTPipeline facade."""

import numpy as np
import pytest

from repro.core import MASTConfig, MASTPipeline
from repro.core.pipeline import predictor_kind
from repro.query import AggregateResult, RetrievalResult, parse_query


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
        from repro.query import parse_query

        query = parse_query("SELECT AVG OF COUNT(Car DIST <= 20)")
        assert pipeline._engine_for(query) is pipeline._engines["linear"]

    def test_med_uses_st_predictor(self, pipeline):
        from repro.query import parse_query

        query = parse_query("SELECT MED OF COUNT(Car DIST <= 20)")
        assert pipeline._engine_for(query) is pipeline._engines["st"]

    def test_retrieval_uses_st_predictor(self, pipeline):
        from repro.query import parse_query

        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert pipeline._engine_for(query) is pipeline._engines["st"]

    def test_retrieval_predictor_override(self, kitti_sequence, detector):
        config = MASTConfig(seed=4, retrieval_predictor="linear")
        pipe = MASTPipeline(config).fit(kitti_sequence, detector)
        from repro.query import parse_query

        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert pipe._engine_for(query) is pipe._engines["linear_floor"]

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
            engine = linear_pipe._engine_for(parse_query(text))
            assert engine.provider is linear_pipe.providers["linear"]
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
        # New region received samples, including the final frame.
        new_samples = result.sampled_ids[result.sampled_ids >= 200]
        assert len(new_samples) >= 2
        assert result.sampled_ids[-1] == 299

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


class TestEnginesLiveOneIndexEpoch:
    """Series an engine resolved are never served for a later index."""

    TEXTS = [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car DIST <= 20)",
    ]

    def _engines(self, pipe):
        return tuple(pipe._engines[kind] for kind in ("st", "linear", "linear_floor"))

    @pytest.mark.parametrize("rebuild", ["extend", "fit_from_sampling"])
    def test_rebuild_installs_fresh_engines(self, detector, rebuild):
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=260, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(200, name=full.name), detector
        )
        pipe.query_many(self.TEXTS)
        old = self._engines(pipe)
        assert old[0].cached_filters() and old[1].cached_filters()
        assert old[2].cached_filters() == old[1].cached_filters()

        if rebuild == "extend":
            pipe.extend(list(full[200:]))
        else:
            pipe.fit_from_sampling(pipe.sequence, detector, pipe.sampling_result)
        new = self._engines(pipe)
        assert not set(map(id, new)) & set(map(id, old))
        assert all(engine.cached_filters() == () for engine in new)
        assert new[0].provider is pipe.index
        assert new[1].provider is new[2].provider is pipe.providers["linear"]

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
        expected_prefix = old_ids[old_ids < 199]
        expected = int(expected_prefix.max()) if len(expected_prefix) else -1
        assert boundary == expected
        # Counts on frames up to the boundary only depend on detections
        # at bracketing sampled frames, all of which were preserved.
        kept = pipe.sampling_result.sampled_ids
        assert set(map(int, old_ids[old_ids <= boundary])) <= set(map(int, kept))

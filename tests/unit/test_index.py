"""Unit tests for the MAST index (Alg. 3) and count providers."""

import numpy as np
import pytest

from repro.core import (
    HierarchicalMultiAgentSampler,
    LinearCountProvider,
    MASTConfig,
    MASTIndex,
)
from repro.core.index import SIMULATED_INDEX_COST_PER_FRAME
from repro.core.stpc import analyze_pair
from repro.query import ObjectFilter, SpatialPredicate
from repro.utils.timing import STAGE_INDEX


@pytest.fixture(scope="module")
def sampling(kitti_sequence, detector):
    sampler = HierarchicalMultiAgentSampler(MASTConfig(seed=2))
    return sampler.sample(kitti_sequence, detector)


@pytest.fixture(scope="module")
def index(sampling):
    return MASTIndex.build(sampling, MASTConfig(seed=2))


@pytest.fixture(scope="module")
def extended_sampling(detector):
    """A sampling grown by ``extend``: the merged ids of a fit and a tail run."""
    from repro.core import MASTPipeline
    from repro.simulation import semantickitti_like

    full = semantickitti_like(0, n_frames=150, with_points=False)
    pipeline = MASTPipeline(MASTConfig(seed=2)).fit(
        full.head(120, name=full.name), detector
    )
    return pipeline.extend(list(full[120:])).sampling_result


CAR_NEAR = ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 20.0))


class TestBuild:
    def test_covers_all_frames(self, index, sampling):
        assert index.n_frames == sampling.n_frames

    def test_charges_index_stage(self, sampling):
        from repro.utils.timing import CostLedger

        ledger = CostLedger()
        MASTIndex.build(sampling, MASTConfig(), ledger=ledger)
        assert ledger.total(STAGE_INDEX) > 0

    def test_indexed_objects_nonzero(self, index):
        assert index.n_indexed_objects > 0


class TestCountSeries:
    def test_declares_query_cost(self, index):
        assert index.simulated_query_cost_per_frame > 0

    def test_shape(self, index):
        counts = index.count_series(CAR_NEAR)
        assert counts.shape == (index.n_frames,)
        assert np.all(counts >= 0)

    def test_sampled_frames_are_exact(self, index, sampling):
        """On sampled frames the index stores the raw model output."""
        counts = index.count_series(CAR_NEAR)
        for frame_id in sampling.sampled_ids[:20]:
            expected = CAR_NEAR.count(sampling.detections[int(frame_id)])
            assert counts[int(frame_id)] == expected

    def test_different_filters_differ(self, index):
        near = index.count_series(CAR_NEAR)
        far = index.count_series(
            ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 20.0))
        )
        assert not np.array_equal(near, far)

    def test_confidence_threshold_reduces_counts(self, index):
        low = index.count_series(ObjectFilter(label="Car", confidence=0.1))
        high = index.count_series(ObjectFilter(label="Car", confidence=0.9))
        assert high.sum() <= low.sum()


class TestObjectsAt:
    def test_sampled_frame_returns_detections(self, index, sampling):
        frame_id = int(sampling.sampled_ids[3])
        objects = index.objects_at(frame_id)
        assert np.allclose(
            objects.centers, sampling.detections[frame_id].centers
        )

    def test_unsampled_frame_returns_prediction(self, index, sampling):
        gaps = sampling.gaps()
        start, end = gaps[0]
        mid = (start + end) // 2
        objects = index.objects_at(mid)
        # Prediction matches the flat-column counts for that frame.
        counts = index.count_series(ObjectFilter(label=None, confidence=0.0))
        assert len(objects) == counts[mid]

    def test_out_of_range(self, index):
        with pytest.raises(IndexError):
            index.objects_at(index.n_frames)

    def test_open_tail_extrapolates_the_last_gap(self, extended_sampling):
        """Frames after a live sampling's last sample: ``objects_at`` and
        the flat rows agree on the last gap's extrapolation, and linear
        interpolation holds the last sampled count."""
        ids = extended_sampling.sampled_ids
        last, n_frames = int(ids[-1]), extended_sampling.n_frames
        assert last < n_frames - 1
        index = MASTIndex.build(extended_sampling, MASTConfig(seed=2))
        everything = ObjectFilter(label=None, confidence=0.0)
        counts = index.count_series(everything)
        linear = LinearCountProvider(extended_sampling).count_series(CAR_NEAR)
        estimate = analyze_pair(
            extended_sampling.detections[int(ids[-2])],
            extended_sampling.detections[last],
            extended_sampling.timestamps[int(ids[-2])],
            extended_sampling.timestamps[last],
        )
        for frame_id in range(last + 1, n_frames):
            objects = index.objects_at(frame_id)
            want = estimate.predict(float(extended_sampling.timestamps[frame_id]))
            assert np.array_equal(objects.centers, want.centers)
            assert np.array_equal(objects.scores, want.scores)
            assert len(objects) == counts[frame_id]
            assert linear[frame_id] == linear[last]


class TestLinearCountProvider:
    def test_exact_on_sampled_frames(self, sampling):
        provider = LinearCountProvider(sampling)
        counts = provider.count_series(CAR_NEAR)
        for frame_id in sampling.sampled_ids[:20]:
            expected = CAR_NEAR.count(sampling.detections[int(frame_id)])
            assert counts[int(frame_id)] == pytest.approx(expected)

    def test_interpolates_between_samples(self, sampling):
        provider = LinearCountProvider(sampling)
        counts = provider.count_series(CAR_NEAR)
        ids = sampling.sampled_ids
        for start, end in sampling.gaps()[:10]:
            lo, hi = counts[start], counts[end]
            interior = counts[start + 1 : end]
            assert np.all(interior >= min(lo, hi) - 1e-9)
            assert np.all(interior <= max(lo, hi) + 1e-9)

    def test_linear_cheaper_than_st(self, sampling, index):
        linear = LinearCountProvider(sampling)
        assert (
            linear.simulated_query_cost_per_frame
            < index.simulated_query_cost_per_frame
        )


FILTER_SET = [
    CAR_NEAR,
    ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 20.0)),
    ObjectFilter(label="Pedestrian"),
    ObjectFilter(confidence=0.7),
    ObjectFilter(),
]


class TestBatchedSeriesAPI:
    """count_series_many contracts: batched and from a start frame."""

    @pytest.mark.parametrize("provider_kind", ["index", "linear"])
    def test_many_matches_one_by_one(self, sampling, provider_kind):
        if provider_kind == "linear":
            provider = LinearCountProvider(sampling)
        else:
            provider = MASTIndex.build(sampling, MASTConfig(seed=2))
        batched = provider.count_series_many(FILTER_SET)
        for object_filter in FILTER_SET:
            assert np.array_equal(
                batched[object_filter], provider.count_series(object_filter)
            )

    def test_tail_equals_series_slice(self, index, sampling, extended_sampling):
        """Every start: before the first sample, on one, between two, the last frame."""
        providers = (
            index,
            LinearCountProvider(sampling),
            LinearCountProvider(extended_sampling),
        )
        for provider in providers:
            series = provider.count_series(CAR_NEAR)
            for start in range(provider.n_frames):
                tail = provider.count_series_many([CAR_NEAR], start=start)[CAR_NEAR]
                assert np.array_equal(tail, series[start:]), (
                    f"{type(provider).__name__} tail mismatch at start={start}"
                )

    def test_linear_tail_counts_only_from_the_bracketing_sample(
        self, extended_sampling, counted_rows
    ):
        from repro.query.predicates import ObjectRows

        provider = LinearCountProvider(extended_sampling)
        ids = extended_sampling.sampled_ids
        detections = extended_sampling.detections
        for start in (1, int(ids[3]), int(ids[3]) + 1, provider.n_frames - 1):
            counted_rows.clear()
            provider.count_series_many([CAR_NEAR], start=start)
            expected = ids[max(np.searchsorted(ids, start, side="right") - 1, 0) :]
            ((rows, n_bins),) = counted_rows
            assert n_bins == len(expected)
            want = ObjectRows.flatten(
                {k: detections[int(frame_id)] for k, frame_id in enumerate(expected)}
            )
            for got_column, want_column in zip(rows, want):
                assert np.array_equal(got_column, want_column)


def _counting_analyses(monkeypatch):
    """Record the ``(t_start, t_end)`` of every gap an index build hands to
    the ST-PC batch for analysis."""
    from repro.core import stpc

    analysed = []
    building = []
    real = stpc.analyze_pairs
    real_build = MASTIndex.build.__func__

    def counting(pairs, **kwargs):
        if building:
            analysed.extend((t_start, t_end) for _, _, t_start, t_end in pairs)
        return real(pairs, **kwargs)

    def build(cls, *args, **kwargs):
        building.append(True)
        try:
            return real_build(cls, *args, **kwargs)
        finally:
            building.pop()

    # Every caller analyses through ``stpc.analyze_pairs`` (one pair is a
    # batch of one); only the calls made while an index build is running
    # are the build's own.
    monkeypatch.setattr(stpc, "analyze_pairs", counting)
    monkeypatch.setattr(MASTIndex, "build", classmethod(build))
    return analysed


def _counting_predictions(monkeypatch, count=None):
    """Record ``count(estimate, timestamps)`` — by default the ``(t_start,
    t_end)`` — of every gap (or tail) an index build hands to the batched
    prediction."""
    from repro.core import stpc

    if count is None:
        def count(estimate, timestamps):
            return estimate.t_start, estimate.t_end

    predicted = []
    real = stpc.predict_gaps

    def counting(estimates, timestamps):
        predicted.extend(map(count, estimates, timestamps))
        return real(estimates, timestamps)

    monkeypatch.setattr(stpc, "predict_gaps", counting)
    return predicted


def _assert_same_columns(got, want):
    for column in got._rows._fields:
        assert np.array_equal(
            getattr(got._rows, column), getattr(want._rows, column)
        ), column


def _gaps(sampling):
    """The sampled pairs with interior frames, as ``(t_start, t_end)``."""
    ids, times = sampling.sampled_ids, sampling.timestamps
    return [
        (float(times[a]), float(times[b]))
        for a, b in zip(ids[:-1], ids[1:])
        if b - a > 1
    ]


class TestIndexBill:
    """A build bills ``SIMULATED_INDEX_COST_PER_FRAME`` for each frame
    whose rows it made, not for the rows it reused."""

    def test_a_fresh_fit_bills_every_frame(self, detector):
        from repro.core import MASTPipeline
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=241, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(full, detector)
        assert pipe.ledger.simulated[STAGE_INDEX] == SIMULATED_INDEX_COST_PER_FRAME * 241

    def test_a_one_frame_extend_bills_only_the_frames_it_rebuilt(
        self, detector, monkeypatch
    ):
        from repro.core import MASTPipeline
        from repro.serving import QueryService
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=274, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(240, name=full.name), detector
        )
        service = QueryService(pipe)
        # Frames each gap or tail prediction covers.
        predicted = _counting_predictions(
            monkeypatch, count=lambda estimate, timestamps: len(timestamps)
        )
        flushes = set()
        for frame_id in range(240, 274):
            prior_ids = pipe.sampling_result.sampled_ids.tolist()
            before = pipe.ledger.simulated[STAGE_INDEX]
            predicted.clear()
            service.extend([full[frame_id]])
            ids = pipe.sampling_result.sampled_ids.tolist()
            # The rebuilt frames: the predicted ones, plus the new sample.
            added = sorted(set(ids) - set(prior_ids))
            rebuilt = sum(predicted) + len(added)
            if not added:
                # No new sample: the prior index's rows, its tail's
                # included, are all reused; only the new frame is made.
                assert rebuilt == 1
                flushes.add("no sample")
            elif added == [frame_id]:
                # A grid sample ends the old tail: every frame past the
                # prior index's last sample is made again.
                assert rebuilt == frame_id - prior_ids[-1]
                flushes.add("grid sample")
            else:
                # An adaptive sample splits one gap: its frames are made
                # again, and the tail keeps its rows but for the new frame.
                (sample,) = added
                position = ids.index(sample)
                assert rebuilt == ids[position + 1] - ids[position - 1]
                flushes.add("adaptive sample")
            bill = pipe.ledger.simulated[STAGE_INDEX] - before
            assert bill == pytest.approx(SIMULATED_INDEX_COST_PER_FRAME * rebuilt)
        assert flushes == {"no sample", "grid sample", "adaptive sample"}


def _assert_same_objects(got, want):
    for name in ("labels", "centers", "sizes", "yaws", "scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestEstimateReuse:
    """``previous`` carries motion estimates and their predicted rows:
    a rebuild analyses, and predicts, only what changed."""

    @pytest.mark.parametrize("new_frames", [1, 30])
    def test_extend_equals_scratch_build_and_analyses_only_the_tail(
        self, detector, monkeypatch, new_frames
    ):
        from repro.core import MASTPipeline
        from repro.query.workload import generate_workload
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=240 + new_frames, with_points=False)
        pipe = MASTPipeline(MASTConfig(seed=4)).fit(
            full.head(240, name=full.name), detector
        )
        # The fit sampled its last frame, so the prior index has no tail.
        assert pipe.index._tail is None
        analysed = _counting_analyses(monkeypatch)
        predicted = _counting_predictions(monkeypatch)
        tail_frames = _counting_predictions(
            monkeypatch, count=lambda estimate, timestamps: len(timestamps)
        )
        pipe.extend(list(full[240:]))
        sampling = pipe.sampling_result
        ids, times = sampling.sampled_ids, sampling.timestamps
        # Frames past the last sample are extrapolated by the last gap's
        # estimate.  It is handed over once, for exactly the frames this
        # build made: with no prior tail to keep, every one past the
        # last sample.
        tail = []
        if ids[-1] < sampling.n_frames - 1:
            tail = [(float(times[ids[-2]]), float(times[ids[-1]]))]
            assert tail_frames[-1] == sampling.n_frames - 1 - ids[-1]
        assert predicted[len(predicted) - len(tail):] == tail
        # Rows are predicted for exactly the gaps that were analysed;
        # every other gap's rows are sliced out of the previous index.
        gaps = _gaps(sampling)
        assert predicted[: len(predicted) - len(tail)] == [
            pair for pair in analysed if pair in gaps
        ]

        boundary_time = float(times[pipe.last_extend_boundary])
        assert len(analysed) == len(set(analysed)) < len(gaps) / 2
        assert all(t_start >= boundary_time for t_start, _ in analysed)
        assert set(analysed) <= set(gaps) | set(tail)
        # A one-frame extension adds a gap with no interior frame, so it
        # may analyse nothing at all; a longer one must analyse its tail.
        assert analysed or new_frames == 1

        scratch = MASTIndex.build(sampling, pipe.config)
        incremental = pipe.index
        _assert_same_columns(incremental, scratch)
        for frame_id in range(sampling.n_frames):
            _assert_same_objects(
                incremental.objects_at(frame_id), scratch.objects_at(frame_id)
            )
        for object_filter in generate_workload(rng=1).object_filters():
            assert np.array_equal(
                incremental.count_series(object_filter),
                scratch.count_series(object_filter),
            ), object_filter.describe()

    def test_replan_equals_scratch_build_and_predicts_only_changed_gaps(
        self, detector, monkeypatch
    ):
        """A re-plan adopted through ``fit_from_sampling`` reuses rows too."""
        from repro.core import MASTPipeline
        from repro.inference import InferenceEngine
        from repro.simulation import semantickitti_like

        full = semantickitti_like(0, n_frames=270, with_points=False)
        config = MASTConfig(seed=4)
        pipe = MASTPipeline(config).fit(full.head(240, name=full.name), detector)
        pipe.extend(list(full[240:]))

        # The corpus re-plan: a fresh session over the grown sequence,
        # re-entered with every detection the shard already holds.  The
        # second plan is granted six more frames than the first, so it
        # replays the first's trajectory and then splits a few gaps.
        def plan(budget):
            with InferenceEngine() as engine:
                session = HierarchicalMultiAgentSampler(config).session(
                    pipe.sequence, detector, engine=engine, budget=budget,
                    known=pipe.sampling_result.detections,
                )
                session.step(session.remaining)
                return session.result()

        first = plan(None)
        pipe.fit_from_sampling(pipe.sequence, detector, first)
        _assert_same_columns(pipe.index, MASTIndex.build(first, config))

        second = plan(first.budget + 6)
        analysed = _counting_analyses(monkeypatch)
        predicted = _counting_predictions(monkeypatch)
        pipe.fit_from_sampling(pipe.sequence, detector, second)
        assert predicted == analysed
        assert 0 < len(analysed) <= 12 < len(_gaps(second))
        _assert_same_columns(pipe.index, MASTIndex.build(second, config))

    def test_replaced_detection_object_is_reanalysed(
        self, sampling, index, monkeypatch
    ):
        from dataclasses import replace

        config = MASTConfig(seed=2)
        analysed = _counting_analyses(monkeypatch)
        predicted = _counting_predictions(monkeypatch)
        MASTIndex.build(sampling, config, previous=index)
        assert analysed == [] and predicted == []

        # An equal copy of one interior sampled frame's detections is a
        # different object: both gaps it borders are analysed again.
        ids = sampling.sampled_ids
        position = next(
            k for k in range(1, len(ids) - 1)
            if ids[k] - ids[k - 1] > 1 and ids[k + 1] - ids[k] > 1
        )
        frame_id = int(ids[position])
        objects = sampling.detections[frame_id]
        swapped = replace(
            sampling,
            detections={
                **sampling.detections,
                frame_id: objects.filter(np.arange(len(objects))),
            },
        )
        rebuilt = MASTIndex.build(swapped, config, previous=index)
        times = sampling.timestamps
        assert analysed == [
            (float(times[ids[position - 1]]), float(times[frame_id])),
            (float(times[frame_id]), float(times[ids[position + 1]])),
        ]
        # Exactly those two gaps' rows are predicted again; the rest are
        # the previous index's rows, and the copy is equal, so nothing moved.
        assert predicted == analysed
        _assert_same_columns(rebuilt, index)

    def test_other_timestamps_reuse_no_rows(self, sampling, index, monkeypatch):
        """Rows depend on interior timestamps the estimates never see: a
        prior with other timestamps is rejected whole, so every gap is
        analysed and predicted again."""
        from dataclasses import replace

        config = MASTConfig(seed=2)
        ids = sampling.sampled_ids
        start = int(next(a for a, b in zip(ids[:-1], ids[1:]) if b - a > 1))
        timestamps = sampling.timestamps.copy()
        timestamps[start + 1] += 0.01  # an unsampled frame
        moved = replace(sampling, timestamps=timestamps)

        analysed = _counting_analyses(monkeypatch)
        predicted = _counting_predictions(monkeypatch)
        rebuilt = MASTIndex.build(moved, config, previous=index)
        assert analysed == _gaps(moved)
        assert predicted == _gaps(moved)
        _assert_same_columns(rebuilt, MASTIndex.build(moved, config))
        assert not np.array_equal(rebuilt._rows.positions, index._rows.positions)

    def test_other_matching_gate_reuses_nothing(
        self, sampling, index, monkeypatch
    ):
        analysed = _counting_analyses(monkeypatch)
        MASTIndex.build(
            sampling,
            MASTConfig(seed=2, match_max_distance=5.0),
            previous=index,
        )
        assert analysed == _gaps(sampling)

    def test_dropped_sample_predicts_the_merged_gap(
        self, sampling, index, monkeypatch
    ):
        """A plan without one of the prior's samples: the two gaps around
        it merge into one the prior never held, so its rows are predicted;
        the samples and gaps on either side are reused."""
        from dataclasses import replace

        config = MASTConfig(seed=2)
        ids = sampling.sampled_ids
        position = len(ids) // 2
        fewer = replace(sampling, sampled_ids=np.delete(ids, position))
        predicted = _counting_predictions(monkeypatch)
        rebuilt = MASTIndex.build(fewer, config, previous=index)
        times = sampling.timestamps
        assert predicted == [(float(times[ids[position - 1]]), float(times[ids[position + 1]]))]
        scratch = MASTIndex.build(fewer, config)
        _assert_same_columns(rebuilt, scratch)
        assert list(rebuilt._estimates) == list(scratch._estimates)


class TestTailAppend:
    """A rebuild that only adds frames past the prior index's tail writes
    their rows past the prior's, in the buffer the prior wrote last."""

    @staticmethod
    def _builder(sampling):
        """``build(n)``: the index of ``sampling``'s samples up to its widest
        gap, over its first ``n`` frames, with the very same detection
        objects; with a frame past that gap's first sample, an open tail.
        Returns ``build`` and that sample."""
        from dataclasses import replace

        from repro.utils.timing import CostLedger

        ids = sampling.sampled_ids
        k = int(np.argmax(np.diff(ids)))
        last = int(ids[k])
        assert ids[k + 1] - last > 16
        ids = ids[: k + 1]

        def build(n_frames, previous=None):
            grown = replace(
                sampling,
                n_frames=n_frames,
                timestamps=sampling.timestamps[:n_frames],
                sampled_ids=ids,
                detections={int(f): sampling.detections[int(f)] for f in ids},
            )
            return MASTIndex.build(
                grown, MASTConfig(seed=2), ledger=CostLedger(), previous=previous
            )

        return build, last

    @staticmethod
    def _assert_scratch_columns(index, build):
        scratch = build(index.n_frames)
        for column, got, want in zip(scratch._rows._fields, index._rows, scratch._rows):
            assert got.dtype == want.dtype, column
            assert np.array_equal(got, want), column

    def test_successors_of_one_index_leave_each_other_and_the_prior_alone(
        self, sampling
    ):
        build, last = self._builder(sampling)
        # A rebuild leaves room to grow; a scratch build does not.
        prior = build(last + 3, previous=build(last + 1))
        before = [column.copy() for column in prior._rows]
        first = build(last + 7, previous=prior)
        second = build(last + 11, previous=prior)
        third = build(last + 11, previous=first)

        # The first successor and its own successor appended in place;
        # the second found the prior no longer the last writer and copied.
        assert first._columns is prior._columns is third._columns
        assert second._columns is not prior._columns
        for index in (prior, first, second, third):
            self._assert_scratch_columns(index, build)
        for column, copy in zip(prior._rows, before):
            assert column.tobytes() == copy.tobytes()

    @pytest.mark.wall_bound(60)
    def test_successors_built_on_many_threads_leave_each_other_alone(self, sampling):
        """Eight threads build successors of one index, and one successor
        of each, with a tiny switch interval: at most one first successor
        appends in place, and every index holds its scratch build's rows."""
        import sys
        import threading

        build, last = self._builder(sampling)
        prior = build(last + 3, previous=build(last + 1))
        before = [column.copy() for column in prior._rows]
        built = {}
        start = threading.Barrier(8)

        def work(extra):
            start.wait(timeout=10)
            successor = build(last + 3 + extra, previous=prior)
            built[extra] = (successor, build(last + 6 + extra, previous=successor))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(extra,)) for extra in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(built) == list(range(1, 9))
        assert sum(first._columns is prior._columns for first, _ in built.values()) <= 1
        for pair in built.values():
            for index in pair:
                self._assert_scratch_columns(index, build)
        for column, copy in zip(prior._rows, before):
            assert column.tobytes() == copy.tobytes()

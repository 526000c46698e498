"""Streaming extension — lifetime detector spend against live answer error.

The streaming analogue of Fig. 9: a stream on the observatory's
``stream_mixed`` corpus shape (three drives of 400 / 400 / 260 frames,
12-frame initial prefixes, drip-fed at 20 / 30 / 8 FPS, re-planned by
the UCB allocator every 24 flushed frames) is scored at every re-plan
epoch, mid-stream, against the oracle on the prefix that has arrived:

* **detector s** — the simulated deep-model seconds billed so far
  (one ``cost_per_frame`` per detection);
* **agg error** — the mean of ``1 - aggregate_accuracy`` over the
  workload's 30 corpus-wide aggregates;
* **F1** — the mean retrieval F1 over its retrievals with a non-empty
  oracle answer on that prefix.

A frame that has arrived but is not yet indexed counts against the
answer, so the staleness bound ``max_lag_frames`` (0, 3, 12) is part of
what the table measures.  The last row of each block is the drained
state after ``quiesce``.  Independent of ``REPRO_BENCH_SCALE``: the
corpus is the observatory's, at its own size.

The timed operation is one live fan-out aggregate on the drained stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._harness import emit, simulated_seconds
from benchmarks.observatory import inputs
from benchmarks.observatory.workloads import StreamMixed
from repro.baselines import OracleCountProvider
from repro.evalx import aggregate_accuracy, f1_score, format_table
from repro.inference import DetectionStore, InferenceEngine
from repro.query.aggregates import aggregate
from repro.query.engine import QueryEngine, evaluate_query
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from repro.utils.timing import STAGE_MODEL

MAX_LAGS = (0, 3, 12)


class _PrefixOracle:
    """Exact corpus answers over the first ``arrived[name]`` frames of
    each sequence: every frame detected once, series sliced per prefix."""

    def __init__(self, sequences, model) -> None:
        engine = InferenceEngine(store=DetectionStore())
        self._engines = {
            sequence.name: QueryEngine(OracleCountProvider(sequence, model, engine=engine))
            for sequence in sequences
        }

    def score(self, answer, workload, arrived: dict[str, int]) -> tuple[float, float]:
        def series(name):
            return lambda f: self._engines[name].count_series(f)[: arrived[name]]

        f1s = []
        for query in workload.retrieval:
            truth = {
                (name, int(frame_id))
                for name in self._engines
                for frame_id in evaluate_query(query, series(name), arrived[name]).frame_ids
            }
            if truth:
                f1s.append(f1_score(answer(query).id_set(), truth))
        errors = []
        for query in workload.aggregates:
            combined = np.concatenate(
                [series(name)(query.object_filter) for name in self._engines]
            )
            truth = float(aggregate(query.operator, combined, query.count_predicate))
            errors.append(1.0 - aggregate_accuracy(answer(query).value, truth))
        return float(np.mean(errors)), float(np.mean(f1s))


def _stream(sequences, max_lag: int) -> StreamingCorpusService:
    shape = StreamMixed
    source = ScheduledFrameSource(
        sequences,
        initial_frames=shape.initial_frames,
        schedule={
            name: ArrivalSchedule(rate=rate, batch_frames=batch)
            for name, (rate, batch) in shape.schedules.items()
        },
    )
    return StreamingCorpusService(
        source, inputs.model(), inputs.config(), policy="ucb",
        max_lag_frames=max_lag, replan_every=shape.replan_every,
    )


def _curve(sequences, oracle, workload, max_lag: int):
    rows = []
    service = _stream(sequences, max_lag)

    def row(label) -> None:
        answer = lambda query: service.execute(query).result  # noqa: E731
        agg_error, f1 = oracle.score(answer, workload, service.report()["arrived"])
        ledger = service.cost_ledger()
        rows.append([
            max_lag, label, sum(service.report()["arrived"].values()),
            round(simulated_seconds(ledger, STAGE_MODEL), 1),
            round(agg_error, 4), round(f1, 4),
        ])

    epochs = 0
    while service.pump(max_events=StreamMixed.pump_events):
        if service.epochs > epochs:
            epochs = service.epochs
            row(epochs)
    service.quiesce()
    row("drained")
    return rows, service


@pytest.fixture(scope="module")
def results():
    sequences = inputs.drive_sequences(StreamMixed.frames)
    workload = inputs.evaluation_workload()
    oracle = _PrefixOracle(sequences, inputs.model())
    rows, services = [], []
    for max_lag in MAX_LAGS:
        curve, service = _curve(sequences, oracle, workload, max_lag)
        rows += curve
        services.append(service)
    yield rows, services[-1], workload
    for service in services:
        service.close()


def test_stream_live_error(results, benchmark):
    rows, drained, workload = results
    emit(
        "stream_live_error",
        format_table(
            ["max lag", "epoch", "frames arrived", "detector s", "agg error", "F1"],
            rows,
            title="Streaming extension: lifetime detector spend against live "
            "error, scored per epoch on the arrived prefix (stream_mixed shape)",
        ),
    )
    for max_lag in MAX_LAGS:
        block = [row for row in rows if row[0] == max_lag]
        # Spend only grows, and the drain answers on every arrived frame.
        assert [row[3] for row in block] == sorted(row[3] for row in block)
        assert block[-1][1] == "drained" and block[-1][2] == sum(StreamMixed.frames)
    # Post-drain quality is the batch plan's whatever the staleness bound.
    drained_scores = [row[4:] for row in rows if row[1] == "drained"]
    assert all(scores == drained_scores[0] for scores in drained_scores)

    query = workload.aggregates[0]
    benchmark(lambda: drained.execute(query))

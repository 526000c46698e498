"""Property: online re-planning spends exactly the configured budget.

Hypothesis generates arbitrary arrival interleavings — per-sequence
rates, batch sizes, start offsets, jitter, staleness bounds and re-plan
cadence — and for every one of them the drained-and-quiesced service
must land on *the same final plan* spending *exactly* the configured
corpus budget:

* ``allocation.total_frames == sum_i budget_for(n_i)`` on the final
  sequence lengths — the shared adaptive pool is spent to the last
  frame, regardless of how ingest was interleaved;
* the per-sequence frame split equals the schedule-independent batch
  fit on the final corpus (arrival order can shift *when* budget is
  spent, never *where* it ends up);
* the merged ledger charges exactly one deep-model invocation per
  detection-store miss, no ``(sequence, frame id)`` ever reaches the
  detector twice, and the bill never exceeds the frames that arrived —
  live sessions never re-draw and the drain re-enters with every
  carried detection, so interleaving can change the bill's size but
  can never double-charge a frame;
* the bill is at most twice the configured budget: once live, once
  for the drain's exact plan.

Follows the ``tests/property`` conventions: seeded strategies, bounded
``max_examples``, ``deadline=None`` for model-running examples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MASTConfig
from repro.corpus import CorpusPipeline, SequenceCatalog
from repro.evalx.corpus import corpus_oracle_truth
from repro.evalx.metrics import aggregate_accuracy
from repro.models import pv_rcnn
from repro.query.workload import generate_workload
from repro.simulation import once_like, semantickitti_like
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from tests.streaming.harness import (
    CountingModel,
    assert_billed_once,
    batch_reference,
    heterogeneous_specs,
)

CONFIG = MASTConfig(budget_fraction=0.15, seed=7)
MODEL_SEED = 5

#: Tiny but heterogeneous corpus so every example runs in well under a
#: second; module-level so hypothesis examples share the built frames.
SEQUENCES = [
    semantickitti_like(0, n_frames=26, with_points=False),
    once_like(0, n_frames=20, with_points=False),
]

#: Schedule-independent ground truth, computed lazily once per policy:
#: the batch plan on the final corpus.
_BATCH_PLANS: dict[str, dict[str, int]] = {}


def _batch_frames_by_sequence(policy: str) -> dict[str, int]:
    if policy not in _BATCH_PLANS:
        catalog = SequenceCatalog()
        for sequence in SEQUENCES:
            catalog.register_sequence(sequence, dataset="stream")
        with CorpusPipeline(catalog, CONFIG, policy=policy) as corpus:
            corpus.fit(pv_rcnn(seed=MODEL_SEED))
            assert corpus.allocation is not None
            _BATCH_PLANS[policy] = dict(corpus.allocation.frames_by_sequence)
    return _BATCH_PLANS[policy]


schedule_strategy = st.builds(
    ArrivalSchedule,
    rate=st.floats(min_value=1.0, max_value=60.0, allow_nan=False),
    batch_frames=st.integers(min_value=1, max_value=5),
    start_time=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)

run_strategy = st.fixed_dictionaries(
    {
        "schedules": st.tuples(schedule_strategy, schedule_strategy),
        "initial": st.tuples(
            st.integers(min_value=2, max_value=12),
            st.integers(min_value=2, max_value=12),
        ),
        "policy": st.sampled_from(["uniform", "ucb"]),
        "max_lag": st.integers(min_value=0, max_value=5),
        "replan_every": st.integers(min_value=3, max_value=48),
        "source_seed": st.integers(min_value=0, max_value=2**16),
    }
)


@given(run_strategy)
@settings(max_examples=12, deadline=None)
def test_total_spend_equals_configured_budget(run) -> None:
    names = [sequence.name for sequence in SEQUENCES]
    source = ScheduledFrameSource(
        SEQUENCES,
        initial_frames=dict(zip(names, run["initial"])),
        schedule=dict(zip(names, run["schedules"])),
        seed=run["source_seed"],
    )
    model = CountingModel(pv_rcnn(seed=MODEL_SEED), SEQUENCES)
    with StreamingCorpusService(
        source,
        model,
        CONFIG,
        policy=run["policy"],
        max_lag_frames=run["max_lag"],
        replan_every=run["replan_every"],
    ) as service:
        service.pump()
        service.quiesce()

        # Exact spend: the final plan's total equals the corpus budget
        # the config prescribes for the final sequence lengths.
        configured = sum(
            CONFIG.budget_for(len(source.final_sequence(name)))
            for name in names
        )
        allocation = service.allocation
        assert allocation.total_frames == configured, (
            f"{run['policy']} plan spent {allocation.total_frames} frames, "
            f"configured budget is {configured}"
        )
        assert (
            sum(allocation.frames_by_sequence.values())
            == allocation.total_frames
        )

        # Where the budget landed is interleaving-independent: it is
        # exactly the batch plan on the same final corpus.
        assert (
            allocation.frames_by_sequence
            == _batch_frames_by_sequence(run["policy"])
        )

        # No double charging under any interleaving: no frame reaches
        # the detector twice, and one deep-model invocation is billed
        # per detection-store miss.
        assert_billed_once(
            service, model, sum(len(sequence) for sequence in SEQUENCES)
        )

        # The stream spends its budget once, plus the drain's top-up.
        # Live sessions never spend past the corpus budget except by
        # rounding: a sequence's next grid point can land up to one frame
        # before the budget that pays for it accrues.  The drain bills
        # only final-plan frames not yet paid for, and every plan holds
        # each sequence's frame 0, paid at the initial fit.  Together:
        # invocations <= 2 * configured, with no slack left over.
        by_origin = service.report()["detections_by_origin"]
        invocations = sum(by_origin.values())
        assert invocations - by_origin["drain"] <= configured + len(names)
        assert by_origin["drain"] <= configured - len(names)
        assert invocations <= 2 * configured


def _heterogeneous_source(seed: int = 1) -> ScheduledFrameSource:
    """Sequences growing at different rates (240 / 240 / 160 frames)."""
    return ScheduledFrameSource(
        [spec.build() for spec in heterogeneous_specs(240, 160)],
        initial_frames=12,
        schedule={
            "static-drive": ArrivalSchedule(rate=20.0, batch_frames=1),
            "volatile-drive": ArrivalSchedule(rate=30.0, batch_frames=1),
            "sparse-urban": ArrivalSchedule(rate=8.0, batch_frames=2),
        },
        seed=seed,
    )


def test_an_epoch_reoffers_the_sessions_it_published() -> None:
    """A UCB epoch can run a session's tree dry.  The epoch that
    publishes that session's new samples offers it to the next run
    again (``AdaptiveSamplingSession.reoffer``), where an empty chunk
    marks it dry once more.  The extra pull draws from the root agent's
    stream, so it shapes the live plan: here the epochs pull 47 chunks
    and the last one holds 76 / 60 / 116 frames (without the re-offer,
    45 chunks and 65 / 71 / 116)."""
    with StreamingCorpusService(
        _heterogeneous_source(seed=3),
        pv_rcnn(seed=5),
        MASTConfig(budget_fraction=0.4, seed=3),
        policy="ucb",
        max_lag_frames=5,
        replan_every=16,
    ) as stream:
        stream.pump()
        epochs = stream.epoch_snapshots()
    assert sum(epoch.allocation.rounds for epoch in epochs) == 47
    assert epochs[-1].allocation.frames_by_sequence == {
        "static-drive": 76, "volatile-drive": 60, "sparse-urban": 116,
    }


def test_stream_bills_its_budget_once_plus_the_drain() -> None:
    """The detections a stream bills, by origin, on the 240/240/160
    stream below.  Flushes detect only grid points and epochs only the
    budget accrued since the last one, so the live split stays under the
    64-frame plan; the drain tops it up to the batch plan.  (Re-drawing
    every epoch billed 6 / 151 / 227 here, six times the plan.)"""
    with StreamingCorpusService(
        _heterogeneous_source(),
        pv_rcnn(seed=5),
        MASTConfig(budget_fraction=0.10, seed=1),
        policy="ucb",
        max_lag_frames=3,
        replan_every=24,
    ) as stream:
        report = stream.quiesce()
    assert report["detections_by_origin"] == {
        "initial_fit": 6, "flush": 16, "replan": 42, "drain": 50,
    }
    assert report["model_invocations"] == 114 <= 2 * report["allocation"]["total_frames"]


def test_online_ucb_error_no_worse_than_static_uniform_at_equal_spend() -> None:
    """What re-planning buys: sequences growing at different rates,
    re-planned by UCB every 24 flushed frames, end on aggregate error no
    worse than one uniform split fit on the final corpus, at exactly the
    same plan size (measured 0.0511 vs 0.0720)."""
    config = MASTConfig(budget_fraction=0.10, seed=1)
    model = pv_rcnn(seed=5)
    source = ScheduledFrameSource(
        [spec.build() for spec in heterogeneous_specs(240, 160)],
        initial_frames=12,
        schedule={
            "static-drive": ArrivalSchedule(rate=20.0, batch_frames=1),
            "volatile-drive": ArrivalSchedule(rate=30.0, batch_frames=1),
            "sparse-urban": ArrivalSchedule(rate=8.0, batch_frames=2),
        },
        seed=1,
    )
    with batch_reference(source, config, model, policy="uniform") as static:
        truth = corpus_oracle_truth(
            static.corpus.catalog,
            model,
            retrieval_queries=(),
            aggregate_queries=list(generate_workload(rng=1).aggregates),
            engine=static.corpus.engine,
        ).aggregate_truth

        def error(answer) -> float:
            misses = [1.0 - aggregate_accuracy(answer(q), want) for q, want in truth]
            return float(np.mean(misses))

        static_spend = static.corpus.allocation.total_frames
        static_error = error(lambda query: static.execute(query).value)

    with StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=3, replan_every=24
    ) as online:
        online.quiesce()
        online_spend = online.allocation.total_frames
        online_error = error(lambda query: online.execute(query).result.value)

    assert online_spend == static_spend == 64
    assert online_error <= static_error

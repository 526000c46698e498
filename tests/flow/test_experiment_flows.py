"""Flow-vs-legacy differentials and mid-DAG crash/resume accounting.

The acceptance contract of the DAG migration: the flow-shaped
experiment and corpus pipelines produce reports that are
*bit-identical* (per the content digests, which exclude only measured
wall-clock) to the legacy monolithic paths — and a run killed after a
mid-pipeline checkpoint resumes to the same result without re-detecting
a single checkpointed frame.
"""

import pytest

from repro.baselines.variants import get_method
from repro.core import MASTConfig
from repro.evalx import (
    CorpusFlowSpec,
    ExperimentFlowSpec,
    corpus_digest,
    corpus_flow,
    experiment_digest,
    experiment_flow,
    run_corpus_experiment,
    run_experiment,
)
from repro.evalx.flows import _summary_step
from repro.flow import FlowInterrupted, FlowRunner, read_events
from repro.models import make_model
from repro.query.workload import generate_workload
from repro.simulation import build_sequence, dataset_spec
from repro.utils.timing import STAGE_MODEL

N_FRAMES = 120
METHODS = ("seiden_pc", "mast")
BUDGET = 0.10
CORPUS_SEQUENCES = (
    ("semantickitti", 0, 60, "kitti-demo", ()),
    ("once", 0, 48, "once-demo", ()),
)
N_RETRIEVAL = 4


@pytest.fixture(scope="module")
def experiment_spec():
    return ExperimentFlowSpec(
        dataset="semantickitti",
        sequence_index=0,
        n_frames=N_FRAMES,
        methods=METHODS,
        budgets=(BUDGET,),
    )


@pytest.fixture(scope="module")
def corpus_spec():
    return CorpusFlowSpec(sequences=CORPUS_SEQUENCES, n_retrieval=N_RETRIEVAL)


class TestExperimentDifferential:
    def test_flow_report_matches_legacy_run_experiment(
        self, tmp_path, experiment_spec
    ):
        result = FlowRunner(
            experiment_flow(experiment_spec), checkpoint_dir=tmp_path
        ).run()
        sequence = build_sequence(
            dataset_spec("semantickitti"), 0, n_frames=N_FRAMES, with_points=False
        )
        legacy = run_experiment(
            sequence,
            make_model("pv_rcnn", seed=experiment_spec.model_seed),
            generate_workload(rng=experiment_spec.seed),
            methods=tuple(get_method(m) for m in METHODS),
            config=MASTConfig(seed=experiment_spec.seed, budget_fraction=BUDGET),
        )
        flow_report = result["report:10pct"]
        assert experiment_digest(flow_report) == experiment_digest(legacy)

    def test_experiment_flow_crash_resume_is_bit_identical(
        self, tmp_path, experiment_spec
    ):
        flow = experiment_flow(experiment_spec)
        clean = FlowRunner(flow, checkpoint_dir=tmp_path / "clean").run()

        crash_dir = tmp_path / "crash"
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                flow,
                checkpoint_dir=crash_dir,
                interrupt_after="method:seiden_pc:10pct",
            ).run()
        events_path = crash_dir / "resume.jsonl"
        resumed = FlowRunner(
            flow, checkpoint_dir=crash_dir, events_path=events_path
        ).run()

        assert experiment_digest(resumed["report:10pct"]) == experiment_digest(
            clean["report:10pct"]
        )
        # The oracle and the completed method replayed from checkpoints.
        assert {"oracle", "method:seiden_pc:10pct"} <= resumed.cached
        cached_events = {
            record["step"]
            for record in read_events(events_path)
            if record["event"] == "step_cached"
        }
        assert {"oracle", "method:seiden_pc:10pct"} <= cached_events


def test_summary_rows_are_labelled_like_their_report_steps():
    """``0.29 * 100`` is 28.99…: a row and the ``report:<n>pct`` step it
    summarises must round it the same way."""
    budgets = (0.05, 0.29, 0.57, 0.10)
    summary = _summary_step((None,) * len(budgets), (), budgets)
    assert summary["rows_f1"] == summary["rows_avg"] == [
        ["5%"], ["29%"], ["57%"], ["10%"],
    ]
    assert summary["budgets"] == ["5pct", "29pct", "57pct", "10pct"]


def test_default_budget_is_spelled_like_any_other():
    """The default sweep is ``(0.10,)``: its steps are the ``10pct`` ones
    an explicit ``budgets=(0.10,)`` names, so both share checkpoints."""
    flow = experiment_flow(ExperimentFlowSpec(methods=("mast",)))
    assert "method:mast:10pct" in flow and "report:10pct" in flow
    explicit = experiment_flow(ExperimentFlowSpec(methods=("mast",), budgets=(0.10,)))
    assert flow.names() == explicit.names()


def test_unknown_names_fail_before_the_flow_exists():
    with pytest.raises(ValueError, match="unknown method 'nosuch'"):
        experiment_flow(ExperimentFlowSpec(methods=("mast", "nosuch")))
    with pytest.raises(ValueError, match="got 'nosuch'"):
        corpus_flow(CorpusFlowSpec(sequences=CORPUS_SEQUENCES, policies=("nosuch",)))


class TestCorpusDifferential:
    def test_flow_report_matches_legacy_run_corpus_experiment(
        self, tmp_path, corpus_spec
    ):
        result = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path
        ).run()
        catalog = corpus_flow_catalog(corpus_spec)
        workload = generate_workload(rng=corpus_spec.seed)
        legacy = run_corpus_experiment(
            catalog,
            make_model("pv_rcnn", seed=corpus_spec.model_seed),
            config=MASTConfig(
                seed=corpus_spec.seed,
                budget_fraction=corpus_spec.budget_fraction,
            ),
            retrieval_queries=list(workload.retrieval)[:N_RETRIEVAL],
            aggregate_queries=list(workload.aggregates),
        )
        assert corpus_digest(result["corpus-report"]) == corpus_digest(legacy)

    def test_two_cold_runs_agree_on_every_key_and_fingerprint(
        self, tmp_path, corpus_spec
    ):
        """Measured wall-clock enters no step's fingerprint, so two cold
        runs in fresh directories share every checkpoint key."""
        flow = corpus_flow(corpus_spec)
        first = FlowRunner(flow, checkpoint_dir=tmp_path / "first").run()
        second = FlowRunner(flow, checkpoint_dir=tmp_path / "second").run()
        assert not first.cached and not second.cached
        assert second.keys == first.keys
        assert second.fingerprints == first.fingerprints

    def test_corpus_crash_resume_with_zero_re_detection(
        self, tmp_path, corpus_spec
    ):
        """Kill after the oracle checkpoint; resume must not re-detect.

        The oracle pass detects every corpus frame into the run's
        persistent store, so ``invocations == store.misses`` — one model
        run per persisted frame file, and none after the resume.
        """
        flow = corpus_flow(corpus_spec)
        clean = FlowRunner(flow, checkpoint_dir=tmp_path / "clean").run()

        crash_dir = tmp_path / "crash"
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                flow, checkpoint_dir=crash_dir, interrupt_after="corpus-oracle"
            ).run()

        total_frames = sum(entry[2] for entry in CORPUS_SEQUENCES)
        persisted = sorted((crash_dir / "detections").glob("*.npz"))
        assert len(persisted) == total_frames

        resumed = FlowRunner(flow, checkpoint_dir=crash_dir).run()
        assert resumed.cached == {"corpus-oracle"}
        assert corpus_digest(resumed["corpus-report"]) == corpus_digest(
            clean["corpus-report"]
        )
        # Ledger no-double-charge: the oracle billed one invocation per
        # frame file, and the resumed policy steps added none.
        report = resumed["corpus-report"]
        assert report.oracle_ledger.invocations(STAGE_MODEL) == total_frames
        assert sorted((crash_dir / "detections").glob("*.npz")) == persisted


def corpus_flow_catalog(spec):
    """Materialize a CorpusFlowSpec's catalog exactly as the flow does."""
    from repro.corpus import SequenceCatalog, SequenceSpec

    catalog = SequenceCatalog()
    for dataset, index, n_frames, name, overrides in spec.sequences:
        catalog.register(
            SequenceSpec(
                dataset, index, n_frames=n_frames,
                name=name, world_overrides=overrides,
            )
        )
    return catalog


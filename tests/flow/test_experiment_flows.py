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
    ExperimentReport,
    corpus_digest,
    corpus_flow,
    evaluate_method,
    experiment_digest,
    experiment_flow,
    oracle_truth,
    run_corpus_experiment,
    run_experiment,
)
from repro.evalx.flows import _summary_step, budget_label
from repro.flow import EventLog, FlowInterrupted, FlowRunner, read_events
from repro.models import make_model
from repro.models.detectors import SimulatedDetector
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


def flow_and_legacy_reports(spec, checkpoint_dir):
    """The ``report:10pct`` of ``spec``'s flow and ``run_experiment``'s report."""
    result = FlowRunner(experiment_flow(spec), checkpoint_dir=checkpoint_dir).run()
    sequence = build_sequence(
        dataset_spec(spec.dataset), spec.sequence_index,
        n_frames=spec.n_frames, with_points=False,
    )
    legacy = run_experiment(
        sequence,
        make_model(spec.model, seed=spec.model_seed),
        generate_workload(rng=spec.seed),
        methods=tuple(get_method(m) for m in spec.methods),
        config=MASTConfig(seed=spec.seed, budget_fraction=BUDGET),
    )
    return result["report:10pct"], legacy


class TestExperimentDifferential:
    def test_flow_report_matches_legacy_run_experiment(
        self, tmp_path, experiment_spec
    ):
        flow_report, legacy = flow_and_legacy_reports(experiment_spec, tmp_path)
        assert experiment_digest(flow_report) == experiment_digest(legacy)

    def test_oracle_method_is_billed_only_its_own_queries(self, tmp_path):
        """The Oracle method shares the truth pass's detections, not its
        query charges: flow and legacy agree with it in the sweep."""
        spec = ExperimentFlowSpec(
            n_frames=N_FRAMES, methods=("oracle", "mast"), budgets=(BUDGET,)
        )
        flow_report, legacy = flow_and_legacy_reports(spec, tmp_path)
        assert legacy["oracle"].ledger.deterministic_state() == (
            flow_report["oracle"].ledger.deterministic_state()
        )
        assert experiment_digest(flow_report) == experiment_digest(legacy)
        truth_queries = legacy.oracle_ledger.invocations("query")
        assert legacy["oracle"].ledger.invocations("query") == (
            legacy["mast"].ledger.invocations("query")
        ) < truth_queries

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


class TestReplayEqualsDetecting:
    """Method steps replay the oracle step's detections within a run.

    Each (method, budget) report of a sweep must equal a standalone
    :func:`evaluate_method` whose model detects every sampled frame
    itself: same digest, same ledger, one billed invocation per sampled
    frame — whether the run replayed (a cold run) or detected (a resume
    whose oracle step came from its checkpoint).
    """

    SPEC = ExperimentFlowSpec(
        n_frames=N_FRAMES,
        methods=("seiden_pc", "seiden_pcst", "mast"),
        budgets=(0.05, 0.10),
    )

    @pytest.fixture(scope="class")
    def standalone(self):
        spec = self.SPEC
        sequence = build_sequence(
            dataset_spec(spec.dataset), spec.sequence_index,
            n_frames=spec.n_frames, with_points=False,
        )
        truth = oracle_truth(
            sequence,
            make_model(spec.model, seed=spec.model_seed),
            generate_workload(rng=spec.seed),
        )
        reports = {}
        for budget in spec.budgets:
            methods = {
                method: evaluate_method(
                    get_method(method),
                    sequence,
                    make_model(spec.model, seed=spec.model_seed),
                    MASTConfig(seed=spec.seed, budget_fraction=budget),
                    truth,
                )
                for method in spec.methods
            }
            reports[budget_label(budget)] = ExperimentReport(
                sequence=truth.sequence,
                model=truth.model,
                n_frames=truth.n_frames,
                oracle_ledger=truth.ledger,
                methods=methods,
                n_retrieval_queries=len(truth.retrieval_queries),
                n_aggregate_queries=len(truth.aggregate_queries),
            )
        return reports

    @staticmethod
    def counting_detects(monkeypatch):
        calls = []
        detect = SimulatedDetector.detect

        def counting(self, frame):
            calls.append(frame.frame_id)
            return detect(self, frame)

        monkeypatch.setattr(SimulatedDetector, "detect", counting)
        return calls

    def assert_matches(self, result, standalone):
        for label, reference in standalone.items():
            report = result[f"report:{label}"]
            assert experiment_digest(report) == experiment_digest(reference), label
            for method in self.SPEC.methods:
                ledger = report[method].ledger
                assert ledger.deterministic_state() == (
                    reference[method].ledger.deterministic_state()
                ), (method, label)
                assert ledger.invocations(STAGE_MODEL) == len(
                    report[method].sampling.sampled_ids
                ), (method, label)

    def sampled_frames(self, result):
        return sum(
            len(result[f"report:{budget_label(b)}"][m].sampling.sampled_ids)
            for b in self.SPEC.budgets
            for m in self.SPEC.methods
        )

    def test_a_cold_run_replays_and_matches(self, tmp_path, monkeypatch, standalone):
        calls = self.counting_detects(monkeypatch)
        result = FlowRunner(experiment_flow(self.SPEC), checkpoint_dir=tmp_path).run()
        # Every frame is simulated once, by the oracle step.
        assert sorted(calls) == list(range(N_FRAMES))
        self.assert_matches(result, standalone)

    def test_a_resume_after_the_oracle_detects_and_matches(
        self, tmp_path, monkeypatch, standalone
    ):
        flow = experiment_flow(self.SPEC)
        with pytest.raises(FlowInterrupted):
            FlowRunner(flow, checkpoint_dir=tmp_path, interrupt_after="oracle").run()
        calls = self.counting_detects(monkeypatch)
        resumed = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert "oracle" in resumed.cached
        # The recording died with the interrupted run: each method step
        # simulated its own sampled frames.
        assert len(calls) == self.sampled_frames(resumed)
        self.assert_matches(resumed, standalone)


def test_a_lost_step_finish_resumes_from_the_checkpoint(tmp_path, monkeypatch):
    """The ``step_finish`` append of a step raises once, after its
    checkpoint is written: the run raises, and the resume replays that
    step, reaches the uninterrupted run's keys, fingerprints and digest,
    and leaves one event log whose ``seq`` never goes back."""
    flow = experiment_flow(ExperimentFlowSpec(n_frames=N_FRAMES, methods=("mast",)))
    clean = FlowRunner(flow, checkpoint_dir=tmp_path / "clean").run()

    step = "method:mast:10pct"
    emit = EventLog.emit
    lost: list[str] = []

    def emit_but_lose_one(self, event, **fields):
        if event == "step_finish" and fields["step"] == step and not lost:
            lost.append(step)
            raise OSError("event log append failed")
        emit(self, event, **fields)

    monkeypatch.setattr(EventLog, "emit", emit_but_lose_one)
    ckpt = tmp_path / "crash"
    events_path = ckpt / "events.jsonl"
    with pytest.raises(OSError, match="append failed"):
        FlowRunner(flow, checkpoint_dir=ckpt, events_path=events_path).run()
    resumed = FlowRunner(flow, checkpoint_dir=ckpt, events_path=events_path).run()

    assert step in resumed.cached
    assert resumed.keys == clean.keys
    assert resumed.fingerprints == clean.fingerprints
    assert experiment_digest(resumed["report:10pct"]) == experiment_digest(
        clean["report:10pct"]
    )
    events = read_events(events_path)
    assert step in [
        record["step"] for record in events if record["event"] == "step_cached"
    ]
    assert [record["event"] for record in events].count("run_start") == 2
    seqs = [record["seq"] for record in events]
    assert seqs == sorted(set(seqs))


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


def test_bad_values_fail_before_the_flow_exists():
    with pytest.raises(ValueError, match="budget_fraction must be in"):
        experiment_flow(ExperimentFlowSpec(methods=("mast",), budgets=(0.1, 1.5)))
    with pytest.raises(ValueError, match="budget_fraction must be in"):
        corpus_flow(CorpusFlowSpec(sequences=CORPUS_SEQUENCES, budget_fraction=0.0))
    with pytest.raises(ValueError, match="round_size must be >= 1"):
        corpus_flow(CorpusFlowSpec(sequences=CORPUS_SEQUENCES, round_size=0))


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


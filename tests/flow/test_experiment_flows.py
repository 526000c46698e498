"""Flow-vs-standalone differentials and mid-DAG crash/resume accounting.

The flows are the one experiment orchestrator.  Their reports must be
*bit-identical* (per the content digests, which exclude only measured
wall-clock) to the same units called by hand — ``oracle_truth`` then
``evaluate_method`` per method, ``corpus_oracle_truth`` then
``score_policy`` per policy — and a run killed after a mid-pipeline
checkpoint resumes to the same result and the same bill.

A flow object's detection recording lives as long as the flow, so a
test that stands for a new process builds a fresh flow for each run.
"""

from dataclasses import replace

import pytest

from repro.baselines.variants import get_method
from repro.core import MASTConfig
from repro.evalx import (
    CorpusExperimentReport,
    CorpusFlowSpec,
    ExperimentFlowSpec,
    ExperimentReport,
    corpus_digest,
    corpus_flow,
    corpus_oracle_truth,
    evaluate_method,
    experiment_digest,
    experiment_flow,
    oracle_truth,
    score_policy,
)
from repro.evalx import flows
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


def standalone_reports(spec):
    """``spec``'s reports by budget label, from the units called by hand.

    Every method's model detects its sampled frames itself: no recording.
    """
    sequence = build_sequence(
        dataset_spec(spec.dataset), spec.sequence_index,
        n_frames=spec.n_frames, with_points=False,
    )
    workload_seed = spec.seed if spec.workload_seed is None else spec.workload_seed
    truth = oracle_truth(
        sequence,
        make_model(spec.model, seed=spec.model_seed),
        generate_workload(rng=workload_seed),
    )
    reports = {}
    for budget in spec.budgets:
        config = MASTConfig(
            seed=spec.seed, budget_fraction=budget, **dict(spec.overrides)
        )
        methods = {
            method: evaluate_method(
                get_method(method),
                sequence,
                make_model(spec.model, seed=spec.model_seed),
                config,
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


def flow_and_standalone_reports(spec, checkpoint_dir):
    """The ``report:10pct`` of ``spec``'s flow and of its standalone units."""
    result = FlowRunner(experiment_flow(spec), checkpoint_dir=checkpoint_dir).run()
    return result["report:10pct"], standalone_reports(spec)["10pct"]


class TestExperimentDifferential:
    def test_flow_report_matches_standalone_units(self, tmp_path):
        """The two settable fields reach the units as a caller would set
        them: ``workload_seed`` the workload, ``overrides`` the config."""
        spec = ExperimentFlowSpec(
            n_frames=N_FRAMES, methods=METHODS, budgets=(BUDGET,),
            seed=2, workload_seed=0, overrides=(("beta", 0.5), ("c_var", 0.25)),
        )
        flow_report, standalone = flow_and_standalone_reports(spec, tmp_path)
        assert experiment_digest(flow_report) == experiment_digest(standalone)

    def test_oracle_method_is_billed_only_its_own_queries(self, tmp_path):
        """The Oracle method detects every frame once and is billed its
        own queries, not the truth pass's: flow and standalone agree."""
        spec = ExperimentFlowSpec(
            n_frames=N_FRAMES, methods=("oracle", "mast"), budgets=(BUDGET,)
        )
        flow_report, standalone = flow_and_standalone_reports(spec, tmp_path)
        assert standalone["oracle"].ledger.deterministic_state() == (
            flow_report["oracle"].ledger.deterministic_state()
        )
        assert experiment_digest(flow_report) == experiment_digest(standalone)
        oracle_ledger = flow_report["oracle"].ledger
        assert oracle_ledger.invocations(STAGE_MODEL) == N_FRAMES
        truth_queries = flow_report.oracle_ledger.invocations("query")
        assert oracle_ledger.invocations("query") == (
            flow_report["mast"].ledger.invocations("query")
        ) < truth_queries

    def test_experiment_flow_crash_resume_is_bit_identical(
        self, tmp_path, experiment_spec
    ):
        clean = FlowRunner(
            experiment_flow(experiment_spec), checkpoint_dir=tmp_path / "clean"
        ).run()

        crash_dir = tmp_path / "crash"
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                experiment_flow(experiment_spec),
                checkpoint_dir=crash_dir,
                interrupt_after="method:seiden_pc:10pct",
            ).run()
        events_path = crash_dir / "resume.jsonl"
        resumed = FlowRunner(
            experiment_flow(experiment_spec),
            checkpoint_dir=crash_dir,
            events_path=events_path,
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


def counting_detects(monkeypatch):
    """Record the frame id of every ``SimulatedDetector.detect`` call."""
    calls = []
    detect = SimulatedDetector.detect

    def counting(self, frame):
        calls.append(frame.frame_id)
        return detect(self, frame)

    monkeypatch.setattr(SimulatedDetector, "detect", counting)
    return calls


class TestReplayEqualsDetecting:
    """Method steps replay the oracle step's detections within a flow object.

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
        return standalone_reports(self.SPEC)

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
        calls = counting_detects(monkeypatch)
        result = FlowRunner(experiment_flow(self.SPEC), checkpoint_dir=tmp_path).run()
        # Every frame is simulated once, by the oracle step.
        assert sorted(calls) == list(range(N_FRAMES))
        self.assert_matches(result, standalone)

    def test_a_resume_after_the_oracle_detects_and_matches(
        self, tmp_path, monkeypatch, standalone
    ):
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                experiment_flow(self.SPEC),
                checkpoint_dir=tmp_path,
                interrupt_after="oracle",
            ).run()
        calls = counting_detects(monkeypatch)
        resumed = FlowRunner(experiment_flow(self.SPEC), checkpoint_dir=tmp_path).run()
        assert "oracle" in resumed.cached
        # The recording died with the interrupted run's flow object: each
        # method step simulated its own sampled frames.
        assert len(calls) == self.sampled_frames(resumed)
        self.assert_matches(resumed, standalone)

    def test_a_rerun_detects_nothing(self, tmp_path, monkeypatch, standalone):
        """A second run in the same directory replays every checkpointed
        step, so no frame is simulated or billed again."""
        first = FlowRunner(experiment_flow(self.SPEC), checkpoint_dir=tmp_path).run()
        calls = counting_detects(monkeypatch)
        second = FlowRunner(experiment_flow(self.SPEC), checkpoint_dir=tmp_path).run()
        assert calls == []
        uncached = {"workload"} | {
            f"report:{budget_label(b)}" for b in self.SPEC.budgets
        }
        assert second.cached == set(first.keys) - uncached
        self.assert_matches(second, standalone)


def test_a_lost_step_finish_resumes_from_the_checkpoint(tmp_path, monkeypatch):
    """The ``step_finish`` append of a step raises once, after its
    checkpoint is written: the run raises, and the resume replays that
    step, reaches the uninterrupted run's keys, fingerprints and digest,
    and leaves one event log whose ``seq`` never goes back."""
    spec = ExperimentFlowSpec(n_frames=N_FRAMES, methods=("mast",))
    clean = FlowRunner(experiment_flow(spec), checkpoint_dir=tmp_path / "clean").run()

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
        FlowRunner(
            experiment_flow(spec), checkpoint_dir=ckpt, events_path=events_path
        ).run()
    resumed = FlowRunner(
        experiment_flow(spec), checkpoint_dir=ckpt, events_path=events_path
    ).run()

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


def test_a_resume_loads_the_sequence_instead_of_simulating_it(
    tmp_path, monkeypatch, experiment_spec
):
    """The ``sequence`` step is checkpointed as the sequence's columns: a
    resume replays it (``step_cached``) and never calls ``build_sequence``."""
    with pytest.raises(FlowInterrupted):
        FlowRunner(
            experiment_flow(experiment_spec),
            checkpoint_dir=tmp_path,
            interrupt_after="oracle",
        ).run()
    builds = []
    build = flows.build_sequence

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(flows, "build_sequence", counting_build)
    events_path = tmp_path / "resume.jsonl"
    resumed = FlowRunner(
        experiment_flow(experiment_spec),
        checkpoint_dir=tmp_path,
        events_path=events_path,
    ).run()
    assert builds == []
    assert "sequence" in resumed.cached
    assert "sequence" in {
        record["step"]
        for record in read_events(events_path)
        if record["event"] == "step_cached"
    }


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


def test_bad_values_fail_before_the_flow_exists(monkeypatch):
    def no_flow(name):
        raise AssertionError(f"flow {name!r} was built from a bad spec")

    monkeypatch.setattr(flows, "Flow", no_flow)
    with pytest.raises(ValueError, match="budget_fraction must be in"):
        experiment_flow(ExperimentFlowSpec(methods=("mast",), budgets=(0.1, 1.5)))
    with pytest.raises(ValueError, match="budget_fraction must be in"):
        corpus_flow(CorpusFlowSpec(sequences=CORPUS_SEQUENCES, budget_fraction=0.0))
    with pytest.raises(ValueError, match="round_size must be >= 1"):
        corpus_flow(CorpusFlowSpec(sequences=CORPUS_SEQUENCES, round_size=0))
    for overrides, message in (
        ((("seed", 2),), "cannot set 'seed'"),
        ((("budget_fraction", 0.2),), "cannot set 'budget_fraction'"),
        ((("nosuch", 1),), "unknown MASTConfig field 'nosuch'"),
        ((("beta", 0.5), ("beta", 0.7)), "set a field twice"),
        ((("beta", 1.5),), "beta must be in"),
        ((("branching", 1),), "branching must be >= 2"),
    ):
        with pytest.raises(ValueError, match=message):
            experiment_flow(ExperimentFlowSpec(methods=("mast",), overrides=overrides))


def test_the_oracle_step_is_shared_across_seeds_and_overrides(tmp_path):
    """Specs that differ only in ``seed``, or only in ``overrides``, key
    the same oracle step: a run in the same directory replays it and
    executes its own method steps."""
    base = ExperimentFlowSpec(n_frames=N_FRAMES, methods=("mast",), workload_seed=1)
    step = "method:mast:10pct"
    first = FlowRunner(experiment_flow(base), checkpoint_dir=tmp_path).run()
    assert not first.cached
    for spec in (replace(base, seed=2), replace(base, overrides=(("beta", 0.5),))):
        result = FlowRunner(experiment_flow(spec), checkpoint_dir=tmp_path).run()
        assert result.keys["oracle"] == first.keys["oracle"]
        assert "oracle" in result.cached
        assert step not in result.cached
        assert result.keys[step] != first.keys[step]
    # ``workload_seed=None`` means ``seed``: the default spec is the same DAG.
    default = FlowRunner(
        experiment_flow(replace(base, workload_seed=None)), checkpoint_dir=tmp_path
    ).run()
    assert default.keys == first.keys
    assert default.cached == {"sequence", "oracle", step, "summary"}


class TestCorpusDifferential:
    def test_flow_report_matches_standalone_units(self, tmp_path, corpus_spec):
        """The standalone policies detect every sampled frame themselves;
        the flow's replay the oracle step's detections: same digest."""
        result = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path
        ).run()
        catalog = corpus_flow_catalog(corpus_spec)
        model = make_model(corpus_spec.model, seed=corpus_spec.model_seed)
        workload = generate_workload(rng=corpus_spec.seed)
        truth = corpus_oracle_truth(
            catalog,
            model,
            retrieval_queries=list(workload.retrieval)[:N_RETRIEVAL],
            aggregate_queries=list(workload.aggregates),
        )
        config = MASTConfig(
            seed=corpus_spec.seed, budget_fraction=corpus_spec.budget_fraction
        )
        standalone = CorpusExperimentReport(
            sequences=truth.sequences,
            model=truth.model,
            total_corpus_frames=truth.total_corpus_frames,
            oracle_ledger=truth.ledger,
            policies={
                policy: score_policy(
                    catalog, model, config, truth, policy=policy,
                    round_size=corpus_spec.round_size,
                )
                for policy in corpus_spec.policies
            },
            n_retrieval_queries=len(truth.retrieval_truth),
            n_aggregate_queries=len(truth.aggregate_truth),
        )
        assert corpus_digest(result["corpus-report"]) == corpus_digest(standalone)

    def test_each_policy_bills_the_frames_it_samples(self, tmp_path, corpus_spec):
        """Replayed detections are billed: every policy's ledger holds one
        deep-model invocation per sampled frame, at ``cost_per_frame``."""
        report = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path
        ).run()["corpus-report"]
        model = make_model(corpus_spec.model, seed=corpus_spec.model_seed)
        for policy in report.policies.values():
            assert policy.ledger.invocations(STAGE_MODEL) == policy.total_frames > 0
            assert policy.ledger.total(STAGE_MODEL) == pytest.approx(
                policy.total_frames * model.cost_per_frame
            )

    def test_a_cold_run_simulates_each_frame_once(
        self, tmp_path, monkeypatch, corpus_spec
    ):
        """The policy steps replay the oracle step's detections of every
        sequence, so each corpus frame is simulated once, and the run
        leaves no detection files behind."""
        calls = counting_detects(monkeypatch)
        FlowRunner(corpus_flow(corpus_spec), checkpoint_dir=tmp_path).run()
        total_frames = sum(entry[2] for entry in CORPUS_SEQUENCES)
        assert len(calls) == total_frames
        assert sorted(path.name for path in tmp_path.iterdir()) == ["steps"]

    def test_two_cold_runs_agree_on_every_key_and_fingerprint(
        self, tmp_path, corpus_spec
    ):
        """Measured wall-clock enters no step's fingerprint, so two cold
        runs in fresh directories share every checkpoint key."""
        first = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path / "first"
        ).run()
        second = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path / "second"
        ).run()
        assert not first.cached and not second.cached
        assert second.keys == first.keys
        assert second.fingerprints == first.fingerprints

    def test_a_resume_detects_and_matches(
        self, tmp_path, monkeypatch, corpus_spec
    ):
        """Kill after the oracle checkpoint and resume with a new flow
        object: the policy steps detect their sampled frames on their
        own, with the clean run's bill and digest."""
        clean = FlowRunner(
            corpus_flow(corpus_spec), checkpoint_dir=tmp_path / "clean"
        ).run()

        crash_dir = tmp_path / "crash"
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                corpus_flow(corpus_spec),
                checkpoint_dir=crash_dir,
                interrupt_after="corpus-oracle",
            ).run()
        calls = counting_detects(monkeypatch)
        resumed = FlowRunner(corpus_flow(corpus_spec), checkpoint_dir=crash_dir).run()
        assert resumed.cached == {"corpus-oracle"}
        report = resumed["corpus-report"]
        assert corpus_digest(report) == corpus_digest(clean["corpus-report"])
        assert len(calls) == sum(p.total_frames for p in report.policies.values())
        for name, policy in report.policies.items():
            assert policy.ledger.deterministic_state() == (
                clean["corpus-report"][name].ledger.deterministic_state()
            )
        total_frames = sum(entry[2] for entry in CORPUS_SEQUENCES)
        assert report.oracle_ledger.invocations(STAGE_MODEL) == total_frames


def test_every_billed_step_reports_its_output_ledger(
    tmp_path, experiment_spec, corpus_spec
):
    """A step's ``step_finish`` ledger is its output's ledger state: the
    oracle, method and policy steps report what their outputs bill."""
    for flow in (experiment_flow(experiment_spec), corpus_flow(corpus_spec)):
        events_path = tmp_path / f"{flow.name}.jsonl"
        result = FlowRunner(
            flow, checkpoint_dir=tmp_path / flow.name, events_path=events_path
        ).run()
        finished = {
            record["step"]: record["ledger"]
            for record in read_events(events_path)
            if record["event"] == "step_finish"
        }
        billed = {
            name for name, value in result.outputs.items() if hasattr(value, "ledger")
        }
        assert billed == {
            name for name in flow.names()
            if name.split(":")[0] in ("oracle", "method", "corpus-oracle", "policy")
        }
        for name, ledger in finished.items():
            if name in billed:
                state = result[name].ledger.deterministic_state()
                assert ledger == state, name
                assert ledger["counts"][STAGE_MODEL] > 0, name
            else:
                assert ledger is None, name


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


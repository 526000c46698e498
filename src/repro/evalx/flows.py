"""Named experiment flows: the one orchestrator of every experiment.

An experiment is a :class:`~repro.flow.Flow` of pure steps, run by
:class:`~repro.flow.FlowRunner` against a checkpoint directory (a
temporary one when the caller keeps nothing):

* ``sequence`` / ``workload`` — cheap deterministic builders
  (``cache=False``: recomputed every run, fingerprinted by inputs);
* ``oracle`` — the full-processing truth pass
  (:func:`~repro.evalx.runner.oracle_truth`), checkpointed once and
  replayed under every method, budget, policy seed and config override
  that shares its (sequence, model, workload);
* ``method:<name>:<budget>`` — one checkpointed
  :func:`~repro.evalx.runner.evaluate_method` call per (method, budget),
  detecting through a replay of the oracle step's detections (billed
  like a detection, simulated once per flow object);
* ``report:<budget>`` / ``summary`` — one
  :class:`~repro.evalx.runner.ExperimentReport` per budget, and
  fig9-shaped rows over the sweep.  :func:`experiment_digest` pins a
  report's content; it excludes only measured wall-clock, by
  construction.

The report assemblies (``report:<budget>``, ``corpus-report``) are
``cache=False`` like the builders: they only bundle values their
upstream steps already checkpointed, so storing them would save, load
and re-verify every method report twice.  A resume rebuilds them from
the verified upstream values.

The corpus flow has the same shape over a catalog
(:func:`~repro.evalx.corpus.corpus_oracle_truth`, then one
:func:`~repro.evalx.corpus.score_policy` step per policy), and shares
detections the same way.

Each builder makes one :class:`~repro.inference.DetectionRecording` per
flow object it returns and binds it positionally into the oracle and
method (or policy) step functions: the oracle step records its
detections there and the later steps fit through
``recording.replaying(model)``.  The recording enters no checkpoint key
and no param, and lives as long as the flow object.  A run whose oracle
step comes from its checkpoint records nothing, so its later steps
detect on their own, with the same output and the same bill.

Both builders check every value a later step would reject (method and
policy names, budgets, config overrides, the UCB round size) before
returning, so a bad value fails before any step runs or writes a
checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

from repro.baselines.variants import get_method
from repro.core.config import MASTConfig
from repro.corpus import SequenceCatalog, SequenceSpec
from repro.corpus.allocator import make_allocator
from repro.data.sequence import FrameSequence
from repro.evalx.corpus import (
    CorpusExperimentReport,
    CorpusPolicyReport,
    CorpusTruth,
    corpus_oracle_truth,
    score_policy,
)
from repro.evalx.runner import (
    ExperimentReport,
    MethodReport,
    OracleTruth,
    evaluate_method,
    oracle_truth,
)
from repro.flow import Flow, stable_digest
from repro.inference import DetectionRecording
from repro.models import DEFAULT_MODEL_SEED, make_model
from repro.query.workload import QueryWorkload, generate_workload
from repro.simulation import build_sequence, dataset_spec

__all__ = [
    "ExperimentFlowSpec",
    "CorpusFlowSpec",
    "experiment_flow",
    "corpus_flow",
    "experiment_digest",
    "corpus_digest",
    "budget_label",
]

@dataclass(frozen=True)
class ExperimentFlowSpec:
    """Configuration of one single-sequence experiment flow.

    ``budgets`` sweeps ``MASTConfig.budget_fraction``; every budget
    shares the one oracle step.  ``seed`` seeds the sampling policy and,
    unless ``workload_seed`` is set, the generated workload.  Fixing
    ``workload_seed`` while ``seed`` or ``overrides`` vary keeps the
    oracle step's checkpoint key, so one truth pass serves them all.
    """

    dataset: str = "semantickitti"
    sequence_index: int = 0
    n_frames: int = 1000
    model: str = "pv_rcnn"
    model_seed: int = DEFAULT_MODEL_SEED
    seed: int = 1
    methods: tuple[str, ...] = ("seiden_pc", "seiden_pcst", "mast")
    budgets: tuple[float, ...] = (0.10,)
    #: Seed of the generated workload (``None`` means ``seed``).
    workload_seed: int | None = None
    #: ``(field, value)`` pairs of ``MASTConfig`` fields other than
    #: ``seed`` and ``budget_fraction``, set in every method step's config.
    overrides: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class CorpusFlowSpec:
    """Configuration of one corpus allocation flow.

    ``sequences`` entries are ``(dataset, sequence_index, n_frames,
    name, world_overrides)`` tuples — primitive enough to live in a
    checkpoint key — and are materialized into a
    :class:`~repro.corpus.SequenceCatalog` by the catalog step.
    """

    sequences: tuple[tuple[str, int, int, str, tuple[tuple[str, float], ...]], ...]
    model: str = "pv_rcnn"
    model_seed: int = DEFAULT_MODEL_SEED
    seed: int = 1
    budget_fraction: float = 0.10
    policies: tuple[str, ...] = ("uniform", "ucb")
    round_size: int = 8
    #: Truncate the generated retrieval workload (None keeps all).
    n_retrieval: int | None = None


#: ``MASTConfig`` fields the spec sets itself, never through ``overrides``.
_SPEC_FIELDS = ("seed", "budget_fraction")


def _method_config(
    seed: int, budget: float, overrides: tuple[tuple[str, object], ...]
) -> MASTConfig:
    return MASTConfig(seed=seed, budget_fraction=budget, **dict(overrides))


def _check_overrides(overrides: tuple[tuple[str, object], ...]) -> None:
    known = {field.name for field in fields(MASTConfig)}
    names = [name for name, _ in overrides]
    for name in names:
        if name in _SPEC_FIELDS:
            raise ValueError(
                f"overrides cannot set {name!r}; it is an ExperimentFlowSpec field"
            )
        if name not in known:
            raise ValueError(f"overrides name unknown MASTConfig field {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"overrides set a field twice: {names}")


def _budget_percent(budget: float) -> int:
    """A budget fraction in whole percent (``0.29 * 100`` is 28.99…)."""
    return int(round(budget * 100))


def budget_label(budget: float) -> str:
    """Step-name suffix for one budget (``0.05`` -> ``"5pct"``)."""
    return f"{_budget_percent(budget)}pct"


# ----------------------------------------------------------------------
# Step functions (pure over their declared inputs; a leading
# ``recording`` is bound by the builder and is no step input)
# ----------------------------------------------------------------------
def _sequence_step(dataset: str, sequence_index: int, n_frames: int) -> FrameSequence:
    return build_sequence(
        dataset_spec(dataset), sequence_index, n_frames=n_frames, with_points=False
    )


def _workload_step(seed: int) -> QueryWorkload:
    return generate_workload(rng=seed)


def _oracle_step(
    recording: DetectionRecording,
    sequence: FrameSequence,
    workload: QueryWorkload,
    model: str,
    model_seed: int,
) -> OracleTruth:
    return oracle_truth(
        sequence, make_model(model, seed=model_seed), workload, recording=recording
    )


def _method_step(
    recording: DetectionRecording,
    sequence: FrameSequence,
    truth: OracleTruth,
    method: str,
    model: str,
    model_seed: int,
    seed: int,
    budget: float,
) -> MethodReport:
    return _tuned_method_step(
        recording, sequence, truth, method, model, model_seed, seed, budget, ()
    )


def _tuned_method_step(
    recording: DetectionRecording,
    sequence: FrameSequence,
    truth: OracleTruth,
    method: str,
    model: str,
    model_seed: int,
    seed: int,
    budget: float,
    overrides: tuple[tuple[str, object], ...],
) -> MethodReport:
    return evaluate_method(
        get_method(method),
        sequence,
        recording.replaying(make_model(model, seed=model_seed)),
        _method_config(seed, budget, overrides),
        truth,
    )


def _report_step(
    truth: OracleTruth, methods: tuple[MethodReport, ...]
) -> ExperimentReport:
    return ExperimentReport(
        sequence=truth.sequence,
        model=truth.model,
        n_frames=truth.n_frames,
        oracle_ledger=truth.ledger,
        methods={report.method: report for report in methods},
        n_retrieval_queries=len(truth.retrieval_queries),
        n_aggregate_queries=len(truth.aggregate_queries),
    )


def _summary_step(
    reports: tuple[ExperimentReport, ...],
    methods: tuple[str, ...],
    budgets: tuple[float, ...],
) -> dict[str, object]:
    """Fig-9-shaped rows: retrieval F1 and Avg accuracy per budget."""
    rows_f1: list[list[object]] = []
    rows_avg: list[list[object]] = []
    for budget, report in zip(budgets, reports):
        label = f"{_budget_percent(budget)}%"
        rows_f1.append(
            [label, *(round(report[m].mean_retrieval_f1, 3) for m in methods)]
        )
        rows_avg.append(
            [
                label,
                *(
                    round(report[m].aggregate_accuracy_by_operator()["Avg"], 2)
                    for m in methods
                ),
            ]
        )
    return {
        "methods": list(methods),
        "budgets": [budget_label(budget) for budget in budgets],
        "rows_f1": rows_f1,
        "rows_avg": rows_avg,
    }


def experiment_flow(spec: ExperimentFlowSpec) -> Flow:
    """The single-sequence method-comparison harness as a flow.

    Output steps: ``report:<budget>`` per budget (an
    :class:`ExperimentReport`) and ``summary`` with fig9-shaped rows
    over the sweep.  Raises ``ValueError`` on an unknown method name, a
    bad budget, or an override that names a spec field, an unknown
    ``MASTConfig`` field or an out-of-range value.
    """
    for method in spec.methods:
        get_method(method)
    _check_overrides(spec.overrides)
    for budget in spec.budgets:
        _method_config(spec.seed, budget, spec.overrides)
    workload_seed = spec.seed if spec.workload_seed is None else spec.workload_seed
    recording = DetectionRecording()
    flow = Flow(f"experiment-{spec.dataset}-{spec.sequence_index}")
    flow.add(
        _sequence_step,
        name="sequence",
        params={
            "dataset": spec.dataset,
            "sequence_index": spec.sequence_index,
            "n_frames": spec.n_frames,
        },
        cache=False,
    )
    flow.add(
        _workload_step,
        name="workload",
        params={"seed": workload_seed},
        cache=False,
    )
    flow.add(
        partial(_oracle_step, recording),
        name="oracle",
        deps={"sequence": "sequence", "workload": "workload"},
        params={"model": spec.model, "model_seed": spec.model_seed},
    )
    report_steps: list[str] = []
    for budget in spec.budgets:
        label = budget_label(budget)
        method_steps: list[str] = []
        for method in spec.methods:
            params = {
                "method": method,
                "model": spec.model,
                "model_seed": spec.model_seed,
                "seed": spec.seed,
                "budget": budget,
            }
            step = _method_step
            if spec.overrides:
                # Only a non-empty override is a param, so a default
                # spec keeps the checkpoint keys it always had.
                step = _tuned_method_step
                params["overrides"] = spec.overrides
            method_steps.append(
                flow.add(
                    partial(step, recording),
                    name=f"method:{method}:{label}",
                    deps={"sequence": "sequence", "truth": "oracle"},
                    params=params,
                )
            )
        report_steps.append(
            flow.add(
                _report_step,
                name=f"report:{label}",
                deps={"truth": "oracle", "methods": tuple(method_steps)},
                cache=False,
            )
        )
    flow.add(
        _summary_step,
        name="summary",
        deps={"reports": tuple(report_steps)},
        params={"methods": spec.methods, "budgets": spec.budgets},
    )
    return flow


# ----------------------------------------------------------------------
# Corpus flow
# ----------------------------------------------------------------------
def _catalog_step(
    sequences: tuple[tuple[str, int, int, str, tuple[tuple[str, float], ...]], ...],
) -> SequenceCatalog:
    catalog = SequenceCatalog()
    for dataset, sequence_index, n_frames, name, world_overrides in sequences:
        catalog.register(
            SequenceSpec(
                dataset,
                sequence_index,
                n_frames=n_frames,
                name=name,
                world_overrides=world_overrides,
            )
        )
    return catalog


def _corpus_oracle_step(
    recording: DetectionRecording,
    catalog: SequenceCatalog,
    model: str,
    model_seed: int,
    seed: int,
    budget_fraction: float,
    n_retrieval: int | None,
) -> CorpusTruth:
    workload = generate_workload(rng=seed)
    retrieval = list(workload.retrieval)
    if n_retrieval is not None:
        retrieval = retrieval[:n_retrieval]
    return corpus_oracle_truth(
        catalog,
        make_model(model, seed=model_seed),
        retrieval_queries=retrieval,
        aggregate_queries=list(workload.aggregates),
        recording=recording,
    )


def _policy_step(
    recording: DetectionRecording,
    catalog: SequenceCatalog,
    truth: CorpusTruth,
    policy: str,
    model: str,
    model_seed: int,
    seed: int,
    budget_fraction: float,
    round_size: int,
) -> CorpusPolicyReport:
    return score_policy(
        catalog,
        recording.replaying(make_model(model, seed=model_seed)),
        MASTConfig(seed=seed, budget_fraction=budget_fraction),
        truth,
        policy=policy,
        round_size=round_size,
    )


def _corpus_report_step(
    truth: CorpusTruth, policies: tuple[CorpusPolicyReport, ...]
) -> CorpusExperimentReport:
    return CorpusExperimentReport(
        sequences=truth.sequences,
        model=truth.model,
        total_corpus_frames=truth.total_corpus_frames,
        oracle_ledger=truth.ledger,
        policies={report.policy: report for report in policies},
        n_retrieval_queries=len(truth.retrieval_truth),
        n_aggregate_queries=len(truth.aggregate_truth),
    )


def corpus_flow(spec: CorpusFlowSpec) -> Flow:
    """The corpus allocation harness as a flow.

    Output step: ``corpus-report`` (a :class:`CorpusExperimentReport`,
    pinned by :func:`corpus_digest`).  Policy steps replay the oracle
    step's detections and bill each frame they sample.  Raises
    ``ValueError`` on an unknown policy name, a bad budget or a bad
    round size.
    """
    config = MASTConfig(seed=spec.seed, budget_fraction=spec.budget_fraction)
    for policy in spec.policies:
        make_allocator(policy, config, round_size=spec.round_size)
    recording = DetectionRecording()
    flow = Flow("corpus")
    flow.add(
        _catalog_step,
        name="catalog",
        params={"sequences": spec.sequences},
        cache=False,
    )
    flow.add(
        partial(_corpus_oracle_step, recording),
        name="corpus-oracle",
        deps={"catalog": "catalog"},
        params={
            "model": spec.model,
            "model_seed": spec.model_seed,
            "seed": spec.seed,
            "budget_fraction": spec.budget_fraction,
            "n_retrieval": spec.n_retrieval,
        },
    )
    policy_steps: list[str] = []
    for policy in spec.policies:
        policy_steps.append(
            flow.add(
                partial(_policy_step, recording),
                name=f"policy:{policy}",
                deps={"catalog": "catalog", "truth": "corpus-oracle"},
                params={
                    "policy": policy,
                    "model": spec.model,
                    "model_seed": spec.model_seed,
                    "seed": spec.seed,
                    "budget_fraction": spec.budget_fraction,
                    "round_size": spec.round_size,
                },
            )
        )
    flow.add(
        _corpus_report_step,
        name="corpus-report",
        deps={"truth": "corpus-oracle", "policies": tuple(policy_steps)},
        cache=False,
    )
    return flow


# ----------------------------------------------------------------------
# Report digests (bit-identity pins)
# ----------------------------------------------------------------------
def experiment_digest(report: ExperimentReport) -> str:
    """Content fingerprint of an experiment report.

    Covers every field — query evaluations, sampling results, ledgers —
    except measured wall-clock seconds, which
    :func:`~repro.flow.stable_digest` excludes via
    :meth:`~repro.utils.timing.CostLedger.deterministic_state`.  Two
    runs agree on this digest iff they agree on every answer, metric,
    sampled frame, and simulated cost.
    """
    return stable_digest(report)


def corpus_digest(report: CorpusExperimentReport) -> str:
    """Content fingerprint of a corpus report.

    Like :func:`experiment_digest`: every field, with each ledger —
    the oracle's and every policy's — by its deterministic state, so
    measured wall-clock never enters it.
    """
    return stable_digest(report)

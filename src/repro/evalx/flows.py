"""Named experiment flows: the evalx harness decomposed into DAG steps.

The monolithic :func:`~repro.evalx.runner.run_experiment` and
:func:`~repro.evalx.corpus.run_corpus_experiment` pipelines are
re-expressed here as :class:`~repro.flow.Flow` graphs of pure steps:

* ``sequence`` / ``workload`` — cheap deterministic builders
  (``cache=False``: recomputed every run, fingerprinted by inputs);
* ``oracle`` — the full-processing truth pass, checkpointed once and
  replayed under every method and budget;
* ``method:<name>:<budget>`` — one checkpointed
  :func:`~repro.evalx.runner.evaluate_method` call per (method, budget),
  detecting through the run's replay of the oracle step's detections
  (``ctx.recording``; billed like a detection, simulated once a run);
* ``report:<budget>`` / ``summary`` — assembly of the same
  :class:`~repro.evalx.runner.ExperimentReport` objects the legacy path
  returns, **bit-identically** (pinned by :func:`experiment_digest`,
  which excludes only measured wall-clock by construction).

The report assemblies (``report:<budget>``, ``corpus-report``) are
``cache=False`` like the builders: they only bundle values their
upstream steps already checkpointed, so storing them would save, load
and re-verify every method report twice.  A resume rebuilds them from
the verified upstream values.

The corpus flow mirrors :func:`run_corpus_experiment` with one twist:
the shared in-memory detection store becomes a *persistent* store under
the run's checkpoint directory (``ctx.store_dir``), so a crash between
policy steps resumes without re-detecting — the engine records disk
hits exactly like memory hits and never re-bills them.

Both builders check every value a later step would reject (method and
policy names, budgets, the UCB round size) before returning, so a bad
value fails before any step runs or writes a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.flow import Flow, StepContext, stable_digest
from repro.inference import DetectionStore, InferenceEngine
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

    ``budgets`` sweeps ``MASTConfig.budget_fraction``.  With several
    budgets the flow shares one oracle step across the whole sweep — the
    DAG-shaped win over the legacy path, which re-ran the oracle once
    per budget.
    """

    dataset: str = "semantickitti"
    sequence_index: int = 0
    n_frames: int = 1000
    model: str = "pv_rcnn"
    model_seed: int = DEFAULT_MODEL_SEED
    seed: int = 1
    methods: tuple[str, ...] = ("seiden_pc", "seiden_pcst", "mast")
    budgets: tuple[float, ...] = (0.10,)


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


def _budget_percent(budget: float) -> int:
    """A budget fraction in whole percent (``0.29 * 100`` is 28.99…)."""
    return int(round(budget * 100))


def budget_label(budget: float) -> str:
    """Step-name suffix for one budget (``0.05`` -> ``"5pct"``)."""
    return f"{_budget_percent(budget)}pct"


# ----------------------------------------------------------------------
# Step functions (pure over their declared inputs)
# ----------------------------------------------------------------------
def _sequence_step(dataset: str, sequence_index: int, n_frames: int) -> FrameSequence:
    return build_sequence(
        dataset_spec(dataset), sequence_index, n_frames=n_frames, with_points=False
    )


def _workload_step(seed: int) -> QueryWorkload:
    return generate_workload(rng=seed)


def _oracle_step(
    sequence: FrameSequence,
    workload: QueryWorkload,
    model: str,
    model_seed: int,
    ctx: StepContext,
) -> OracleTruth:
    truth = oracle_truth(
        sequence,
        make_model(model, seed=model_seed),
        workload,
        recording=ctx.recording,
    )
    ctx.ledger.merge(truth.ledger)
    return truth


def _method_step(
    sequence: FrameSequence,
    truth: OracleTruth,
    method: str,
    model: str,
    model_seed: int,
    seed: int,
    budget: float,
    ctx: StepContext,
) -> MethodReport:
    report = evaluate_method(
        get_method(method),
        sequence,
        ctx.recording.replaying(sequence, make_model(model, seed=model_seed)),
        MASTConfig(seed=seed, budget_fraction=budget),
        truth,
    )
    ctx.ledger.merge(report.ledger)
    return report


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
    :class:`ExperimentReport` bit-identical to the legacy path at that
    budget) and ``summary`` with fig9-shaped rows over the sweep.
    Raises ``ValueError`` on an unknown method name or a bad budget.
    """
    for method in spec.methods:
        get_method(method)
    for budget in spec.budgets:
        MASTConfig(seed=spec.seed, budget_fraction=budget)
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
        params={"seed": spec.seed},
        cache=False,
    )
    flow.add(
        _oracle_step,
        name="oracle",
        deps={"sequence": "sequence", "workload": "workload"},
        params={"model": spec.model, "model_seed": spec.model_seed},
    )
    report_steps: list[str] = []
    for budget in spec.budgets:
        label = budget_label(budget)
        method_steps: list[str] = []
        for method in spec.methods:
            method_steps.append(
                flow.add(
                    _method_step,
                    name=f"method:{method}:{label}",
                    deps={"sequence": "sequence", "truth": "oracle"},
                    params={
                        "method": method,
                        "model": spec.model,
                        "model_seed": spec.model_seed,
                        "seed": spec.seed,
                        "budget": budget,
                    },
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
    catalog: SequenceCatalog,
    model: str,
    model_seed: int,
    seed: int,
    budget_fraction: float,
    n_retrieval: int | None,
    ctx: StepContext,
) -> CorpusTruth:
    workload = generate_workload(rng=seed)
    retrieval = list(workload.retrieval)
    if n_retrieval is not None:
        retrieval = retrieval[:n_retrieval]
    config = MASTConfig(seed=seed, budget_fraction=budget_fraction)
    store = DetectionStore(persist_dir=ctx.store_dir)
    truth = corpus_oracle_truth(
        catalog,
        make_model(model, seed=model_seed),
        retrieval_queries=retrieval,
        aggregate_queries=list(workload.aggregates),
        engine=InferenceEngine(store=store),
    )
    ctx.ledger.merge(truth.ledger)
    return truth


def _policy_step(
    catalog: SequenceCatalog,
    truth: CorpusTruth,
    policy: str,
    model: str,
    model_seed: int,
    seed: int,
    budget_fraction: float,
    round_size: int,
    ctx: StepContext,
) -> CorpusPolicyReport:
    config = MASTConfig(seed=seed, budget_fraction=budget_fraction)
    store = DetectionStore(persist_dir=ctx.store_dir)
    return score_policy(
        catalog,
        make_model(model, seed=model_seed),
        config,
        truth,
        policy=policy,
        round_size=round_size,
        engine=InferenceEngine(store=store),
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

    The ``corpus-report`` step reproduces
    :func:`~repro.evalx.corpus.run_corpus_experiment` bit-identically
    (pinned by :func:`corpus_digest`); oracle detections persist in the
    run's shared store, so policy steps — and resumed runs — replay
    them as cache hits instead of re-billing model invocations.
    Raises ``ValueError`` on an unknown policy name, a bad budget or a
    bad round size.
    """
    config = MASTConfig(seed=spec.seed, budget_fraction=spec.budget_fraction)
    for policy in spec.policies:
        make_allocator(policy, config, round_size=spec.round_size)
    flow = Flow("corpus")
    flow.add(
        _catalog_step,
        name="catalog",
        params={"sequences": spec.sequences},
        cache=False,
    )
    flow.add(
        _corpus_oracle_step,
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
                _policy_step,
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
# Differential digests (flow-vs-legacy bit-identity pins)
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

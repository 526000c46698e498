"""Command-line interface: a thin shell over the library.

Ten subcommands cover the operational lifecycle:

* ``repro simulate`` — build a synthetic sequence and persist it;
* ``repro fit``      — run MAST sampling on a stored sequence, persist
  the detections checkpoint;
* ``repro query``    — answer query-language queries from a stored
  sequence + detections checkpoint;
* ``repro tracks``   — stitch object tracks from a checkpoint and print
  per-label summaries plus persistent close-proximity tracks;
* ``repro experiment`` — run the paper's method comparison on one
  sequence and print the result tables;
* ``repro serve-workload`` — answer a whole workload through the
  sharded, caching :class:`~repro.corpus.CorpusQueryService` (one
  sequence, or the ``--corpus`` catalog) and report cache statistics;
* ``repro corpus`` — fit a multi-sequence corpus under a budget
  policy, print the allocation report, and answer scoped queries;
* ``repro stream`` — replay a corpus as a continuous stream: frames
  arrive on per-sequence schedules, the budget re-plans online, and
  queries run against the live indexes under a bounded-staleness
  contract (:mod:`repro.streaming`);
* ``repro flow`` — run/resume the named checkpointed experiment flows
  (``experiment``, ``fig9``, ``corpus``) and tail their JSONL event
  streams (:mod:`repro.flow`);
* ``repro lint`` — run the project static-analysis rules
  (:mod:`repro.analysis`).

Every command is pure-offline and deterministic given its ``--seed``.
Shared flags are declared once (:func:`_shared`), a ``SPEC`` becomes a
catalog entry through :func:`_parse_corpus_spec`, every answer prints
through :func:`_format_answer`, and :func:`main` is the one place an
error becomes an exit status: a bad input prints one ``error: …`` line
and exits 2, an interrupted flow exits 3.

Heavy imports (numpy, the pipeline) are deferred into the command
handlers so that ``repro lint`` — which gates CI before dependencies
are installed — never pays for them.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_DATASETS = ("semantickitti", "once", "synlidar")
_SPEC = "dataset[:index[:frames]] (e.g. semantickitti:0:600 once:1:400)"
_SCOPED = ("query text; append 'IN SEQUENCE <name>' to scope, otherwise "
           "the query fans out")


def _shared(parser: argparse.ArgumentParser, **defaults: object) -> None:
    """Declare shared flags with this command's defaults.

    Each keyword names one flag (``sequence_index=0`` declares
    ``--sequence-index`` defaulting to 0); its type, choices and help
    are the same under every command.
    """
    from repro.corpus.allocator import POLICIES
    from repro.models import available_models

    flags: dict[str, dict[str, object]] = {
        "dataset": {"choices": _DATASETS},
        "sequence_index": {"type": int},
        "frames": {"type": int, "help": "sequence length in frames"},
        "budget": {"type": float,
                   "help": "sampling budget fraction (default %(default)s)"},
        "model": {"choices": available_models()},
        "seed": {"type": int},
        "policy": {"choices": POLICIES,
                   "help": "cross-sequence budget policy (default %(default)s)"},
        "round_size": {"type": int, "help": "frames per UCB allocation round "
                       "(default %(default)s)"},
    }
    for name, default in defaults.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), default=default, **flags[name]
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAST reproduction: efficient analytical queries on "
        "point-cloud data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    one_sequence = {"dataset": "semantickitti", "sequence_index": 0}
    fitting = {"budget": 0.10, "model": "pv_rcnn", "seed": 1}
    allocation = {"policy": "ucb", "round_size": 8}

    simulate = sub.add_parser(
        "simulate", help="build a synthetic sequence and save it as .npz"
    )
    _shared(simulate, **one_sequence, frames=1000, seed=None)
    simulate.add_argument("--out", required=True, help="output .npz path")

    fit = sub.add_parser(
        "fit", help="run MAST sampling on a stored sequence"
    )
    fit.add_argument("--sequence", required=True, help="sequence .npz path")
    _shared(fit, budget=0.10, model="pv_rcnn", seed=0)
    fit.add_argument("--store", default=None, metavar="DIR",
                     help="persistent detection store directory "
                     "(repeat runs reuse detections)")
    fit.add_argument("--out", required=True, help="detections .npz path")

    query = sub.add_parser(
        "query", help="answer queries from a sequence + detections checkpoint"
    )
    query.add_argument("--sequence", required=True)
    query.add_argument("--detections", required=True)
    query.add_argument("queries", nargs="+", help="query-language text(s)")

    tracks = sub.add_parser(
        "tracks", help="stitch object tracks from a checkpoint"
    )
    tracks.add_argument("--sequence", required=True)
    tracks.add_argument("--detections", required=True)
    tracks.add_argument("--max-speed", type=float, default=40.0,
                        help="association gate in m/s (default 40)")
    tracks.add_argument("--within", type=float, default=None,
                        help="also list tracks staying within this distance (m)")
    tracks.add_argument("--min-duration", type=float, default=4.0,
                        help="minimum contiguous residence for --within (s)")

    experiment = sub.add_parser(
        "experiment", help="run the paper's method comparison on one sequence"
    )
    _shared(experiment, **one_sequence, frames=1000, **fitting)

    serve = sub.add_parser(
        "serve-workload",
        help="serve a query workload through the sharded caching service",
    )
    _shared(serve, **one_sequence, frames=600, **fitting)
    serve.add_argument("--queries", type=int, default=50,
                       help="generated workload size (ignored with --workload)")
    serve.add_argument("--workload", default=None,
                       help="file with one query per line ('#' comments allowed)")
    serve.add_argument("--repeat", type=int, default=2,
                       help="times to replay the batch (>= 2 shows cache hits)")
    serve.add_argument("--show", type=int, default=5,
                       help="print the first N answers (0 for none)")
    serve.add_argument("--corpus", nargs="+", default=None, metavar="SPEC",
                       help="serve this catalog instead of the one sequence "
                       f"--dataset names; each SPEC is {_SPEC}")

    corpus = sub.add_parser(
        "corpus",
        help="fit a multi-sequence corpus under a budget policy and "
        "answer scoped queries",
    )
    corpus.add_argument("--sequences", nargs="+", required=True, metavar="SPEC",
                        help=f"catalog entries, each {_SPEC}")
    _shared(corpus, **allocation, **fitting)
    corpus.add_argument("queries", nargs="*", help=_SCOPED)

    stream = sub.add_parser(
        "stream",
        help="replay a corpus as a continuous stream with online "
        "re-planning and bounded-staleness queries",
    )
    stream.add_argument("--sequences", nargs="+", required=True, metavar="SPEC",
                        help=f"sequences to stream, each {_SPEC}")
    stream.add_argument("--initial", type=int, default=8,
                        help="prefix frames each sequence starts with "
                        "(default 8)")
    stream.add_argument("--rate", type=float, default=10.0,
                        help="arrival rate in frames per virtual second "
                        "(default 10)")
    stream.add_argument("--batch", type=int, default=1,
                        help="frames per arrival event (default 1)")
    stream.add_argument("--jitter", type=float, default=0.0,
                        help="seeded arrival jitter as a fraction of the "
                        "inter-batch gap, in [0, 1)")
    stream.add_argument("--max-lag", type=int, default=0,
                        help="bounded-staleness contract: max frames a "
                        "sequence may buffer before a flush (default 0)")
    stream.add_argument("--replan-every", type=int, default=32,
                        help="re-run the budget allocator after this many "
                        "ingested frames (default 32)")
    _shared(stream, **allocation, **fitting)
    stream.add_argument("--query-every", type=int, default=0, metavar="N",
                        help="answer the queries mid-ingest every N arrival "
                        "events (0 = only after the stream drains)")
    stream.add_argument("queries", nargs="*",
                        help=f"{_SCOPED} (unscoped queries also become "
                        "standing queries, tracked at every re-plan epoch)")

    flow = sub.add_parser(
        "flow",
        help="run, resume, or tail a checkpointed experiment flow "
        "(repro.flow)",
    )
    flow_sub = flow.add_subparsers(dest="action", required=True)
    for action, text in (
        ("run", "execute a named flow (completed steps replay from checkpoints)"),
        ("resume", "re-run a flow against its existing checkpoints"),
    ):
        runner = flow_sub.add_parser(
            action, help=text,
            description=f"{text}. --frames defaults to the benchmark "
            "harness scaling: REPRO_BENCH_SCALE of the paper length, with "
            "a 1000-frame floor.",
        )
        runner.add_argument("flow_name", choices=("experiment", "fig9", "corpus"),
                            help="named flow to execute")
        runner.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                            help="checkpoint directory "
                            "(default .repro-flow/<name>)")
        runner.add_argument("--events", default=None, metavar="PATH",
                            help="JSONL event log "
                            "(default <checkpoint-dir>/events.jsonl)")
        runner.add_argument("--interrupt-after", default=None, metavar="STEP",
                            help="crash drill: stop right after this step's "
                            "checkpoint is written")
        _shared(runner, **one_sequence, frames=None)
        runner.add_argument("--budgets", default=None, metavar="B1,B2,...",
                            help="budget fractions; fig9 defaults to "
                            "0.05..0.25, experiment to 0.10; corpus takes "
                            "one (default 0.10)")
        runner.add_argument("--methods", default="seiden_pc,seiden_pcst,mast",
                            metavar="M1,M2,...")
        runner.add_argument("--sequences", nargs="+", default=None,
                            metavar="SPEC",
                            help=f"corpus flow catalog, each {_SPEC}")
        runner.add_argument("--policies", default="uniform,ucb",
                            metavar="P1,P2,...", help="corpus flow policies")
        runner.add_argument("--n-retrieval", type=int, default=None,
                            help="truncate the corpus retrieval workload")
        _shared(runner, model="pv_rcnn", seed=1)
    tail = flow_sub.add_parser(
        "tail", help="render a flow's JSONL event stream human-readably"
    )
    tail.add_argument("events", help="events file, or a checkpoint "
                      "directory containing events.jsonl")
    tail.add_argument("--follow", action="store_true",
                      help="keep watching until the run finishes")

    lint = sub.add_parser(
        "lint", help="run the project static-analysis rules (repro.analysis)"
    )
    lint.add_argument("args", nargs=argparse.REMAINDER,
                      help="arguments passed to the lint engine "
                      "(see 'repro lint --help')")

    return parser


# ----------------------------------------------------------------------
# Inputs: one path from arguments to library objects
# ----------------------------------------------------------------------
def _config_and_model(args, *, model_seed: int | None = None):
    """``MASTConfig(--seed, --budget)`` and the ``--model`` detector.

    The detector is seeded with :data:`~repro.models.DEFAULT_MODEL_SEED`
    unless the command passes its own ``model_seed``.
    """
    from repro.core import MASTConfig
    from repro.models import DEFAULT_MODEL_SEED, make_model

    config = MASTConfig(seed=args.seed, budget_fraction=args.budget)
    seed = DEFAULT_MODEL_SEED if model_seed is None else model_seed
    return config, make_model(args.model, seed=seed)


def _parse_corpus_spec(text: str):
    """``dataset[:index[:frames]]`` -> :class:`~repro.corpus.SequenceSpec`."""
    from repro.corpus import SequenceSpec

    parts = text.split(":")
    if len(parts) > 3 or parts[0] not in _DATASETS:
        raise ValueError(
            f"bad corpus spec {text!r}; expected dataset[:index[:frames]] "
            f"with dataset in {_DATASETS}"
        )
    index = int(parts[1]) if len(parts) > 1 else 0
    n_frames = int(parts[2]) if len(parts) > 2 else None
    return SequenceSpec(parts[0], index, n_frames=n_frames)


def _sequence_spec(args, seed: int | None = None):
    """The one sequence ``--dataset`` / ``--sequence-index`` / ``--frames`` name."""
    from repro.corpus import SequenceSpec

    return SequenceSpec(
        args.dataset, args.sequence_index, n_frames=args.frames, seed=seed
    )


def _catalog(specs):
    """A catalog of ``specs``, each under its ``resolved_name()``."""
    from repro.corpus import SequenceCatalog

    catalog = SequenceCatalog()
    for spec in specs:
        catalog.register(spec)
    return catalog


def _load_checkpoint(sequence_path, detections_path):
    """``(sequence, model name, sampling run)`` of a stored fit."""
    import numpy as np

    from repro.core import SamplingResult
    from repro.data import load_detections, load_sequence

    sequence = load_sequence(sequence_path)
    detections, model_name = load_detections(detections_path)
    sampling = SamplingResult(
        sequence_name=sequence.name,
        n_frames=len(sequence),
        timestamps=sequence.timestamps,
        budget=len(detections),
        sampled_ids=np.array(sorted(detections), dtype=np.int64),
        detections=detections,
    )
    return sequence, model_name, sampling


def _load_workload(args):
    """The serve-workload queries: the ``--workload`` file, or generated."""
    from repro.query import generate_workload, parse_scoped_query

    if args.workload is not None:
        with open(args.workload, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        queries = [
            parse_scoped_query(line)
            for line in lines
            if line and not line.startswith("#")
        ]
    else:
        queries = list(generate_workload(rng=args.seed).all_queries())
        queries = queries[: args.queries]
    if not queries:
        raise ValueError("empty workload")
    return queries


def _split(text: str, cast=str) -> tuple:
    """``"a,b,,c"`` -> ``(cast("a"), cast("b"), cast("c"))``."""
    return tuple(cast(part) for part in text.split(",") if part.strip())


def _default_flow_frames(dataset: str, sequence_index: int) -> int:
    """The benchmark harness's scaled length (1000-frame floor)."""
    import os

    from repro.simulation import dataset_spec

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
    paper_length = dataset_spec(dataset).lengths[sequence_index]
    return max(1000, int(round(paper_length * scale)))


def _flow_for_args(args):
    """Build the named flow (and its spec) from CLI arguments."""
    from repro.evalx import (
        CorpusFlowSpec,
        ExperimentFlowSpec,
        corpus_flow,
        experiment_flow,
    )

    budgets = _split(args.budgets, float) if args.budgets else None
    if args.flow_name == "corpus":
        if not args.sequences:
            raise ValueError("the corpus flow requires --sequences")
        budgets = budgets or (0.10,)
        if len(budgets) != 1:
            raise ValueError(
                f"the corpus flow takes one budget, got {len(budgets)}: "
                f"{args.budgets}"
            )
        specs = [_parse_corpus_spec(text) for text in args.sequences]
        corpus_spec = CorpusFlowSpec(
            sequences=tuple(
                (spec.dataset, spec.index, spec.resolved_length(),
                 spec.resolved_name(), ())
                for spec in specs
            ),
            model=args.model,
            seed=args.seed,
            budget_fraction=budgets[0],
            policies=_split(args.policies),
            n_retrieval=args.n_retrieval,
        )
        return corpus_flow(corpus_spec), corpus_spec

    if budgets is None:
        fig9 = args.flow_name == "fig9"
        budgets = (0.05, 0.10, 0.15, 0.20, 0.25) if fig9 else (0.10,)
    frames = args.frames
    if frames is None:
        frames = _default_flow_frames(args.dataset, args.sequence_index)
    spec = ExperimentFlowSpec(
        dataset=args.dataset,
        sequence_index=args.sequence_index,
        n_frames=frames,
        model=args.model,
        seed=args.seed,
        methods=_split(args.methods),
        budgets=budgets,
    )
    return experiment_flow(spec), spec


# ----------------------------------------------------------------------
# Answers: one renderer
# ----------------------------------------------------------------------
def _format_answer(text: str, answer, out) -> None:
    """Print ``text`` and its answer.

    A single-sequence retrieval lists its first frame ids; a corpus
    retrieval counts per sequence; a corpus aggregate says it is
    corpus-wide.  A streaming answer adds the time and staleness it was
    served under.
    """
    from repro.corpus import CorpusAggregateResult, CorpusRetrievalResult
    from repro.query import RetrievalResult
    from repro.streaming import StreamingAnswer

    served = ""
    if isinstance(answer, StreamingAnswer):
        served = (
            f" [t={answer.virtual_time:.2f}s, staleness "
            f"{answer.max_staleness}/{answer.max_lag_frames}]"
        )
        answer = answer.result
    if isinstance(answer, RetrievalResult):
        ids = ", ".join(str(i) for i in answer.frame_ids[:20])
        more = " ..." if answer.cardinality > 20 else ""
        body = (
            f"{answer.cardinality} frames ({100 * answer.selectivity:.2f} %): "
            f"[{ids}{more}]"
        )
    elif isinstance(answer, CorpusRetrievalResult):
        per = ", ".join(
            f"{name}: {result.cardinality}"
            for name, result in answer.by_sequence.items()
        )
        body = (
            f"{answer.cardinality} frames ({100 * answer.selectivity:.2f} %) "
            f"[{per}]"
        )
    elif isinstance(answer, CorpusAggregateResult):
        body = f"{answer.value:.4f} (corpus-wide)"
    else:
        body = f"{answer.value:.4f}"
    print(f"{text}\n  -> {body}{served}", file=out)


def _answer_each(texts, answer, out) -> int:
    """Answer and print every text; a bad one prints ``error: …`` and
    the rest still run.  Returns 2 if any failed, else 0."""
    status = 0
    for text in texts:
        try:
            result = answer(text)
        except ValueError as error:
            print(f"error: {error}", file=out)
            status = 2
            continue
        _format_answer(text, result, out)
    return status


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_simulate(args, out) -> int:
    from repro.data import save_sequence

    sequence = _sequence_spec(args, seed=args.seed).build()
    path = save_sequence(sequence, args.out)
    print(f"wrote {sequence} -> {path}", file=out)
    return 0


def _cmd_fit(args, out) -> int:
    from repro.core.sampler import HierarchicalMultiAgentSampler
    from repro.data import load_sequence, save_detections
    from repro.inference import DetectionStore, InferenceEngine

    sequence = load_sequence(args.sequence)
    # The detector follows --seed here, as the stored detections always have.
    config, model = _config_and_model(args, model_seed=args.seed)
    store = DetectionStore(persist_dir=args.store) if args.store else None
    result = HierarchicalMultiAgentSampler(config).sample(
        sequence, model, engine=InferenceEngine(store=store)
    )
    path = save_detections(result.detections, args.out, model_name=model.name)
    print(
        f"sampled {len(result.sampled_ids)} / {len(sequence)} frames "
        f"({100 * result.sampling_fraction:.1f} %), "
        f"deep-model time {result.ledger.total('deep_model'):.1f}s -> {path}",
        file=out,
    )
    if store is not None:
        stats = store.stats()
        print(
            f"detection store: {stats.hits} memory hits, "
            f"{stats.disk_hits} disk hits, {stats.misses} misses, "
            f"{stats.entries} entries",
            file=out,
        )
    return 0


def _cmd_query(args, out) -> int:
    from repro.core import MASTPipeline
    from repro.models import make_model

    sequence, model_name, sampling = _load_checkpoint(args.sequence, args.detections)
    pipeline = MASTPipeline().fit_from_sampling(
        sequence, make_model(model_name), sampling
    )
    return _answer_each(args.queries, pipeline.query, out)


def _cmd_tracks(args, out) -> int:
    from repro.evalx import format_table
    from repro.query import SpatialPredicate
    from repro.tracking import StitchConfig, stitch_tracks, track_summary, tracks_within

    _, _, result = _load_checkpoint(args.sequence, args.detections)
    tracks = stitch_tracks(result, StitchConfig(max_speed=args.max_speed))
    summary = track_summary(tracks)
    rows = [
        [label, int(stats["count"]), f"{stats['mean_duration']:.1f}",
         f"{stats['mean_speed']:.1f}", f"{stats['min_distance']:.1f}"]
        for label, stats in summary.items()
    ]
    print(
        format_table(
            ["label", "tracks", "mean dur (s)", "mean speed (m/s)",
             "closest (m)"],
            rows,
            title=f"{len(tracks)} tracks stitched from "
            f"{len(result.sampled_ids)} sampled frames",
        ),
        file=out,
    )
    if args.within is not None:
        matches = tracks_within(
            tracks,
            SpatialPredicate("<=", args.within),
            min_duration=args.min_duration,
        )
        print(
            f"\ntracks within {args.within:g} m for >= "
            f"{args.min_duration:g} s: {len(matches)}",
            file=out,
        )
        for match in sorted(matches, key=lambda m: -m.duration)[:15]:
            print(
                f"  track {match.track_ids[0]:>4} ({match.label}): "
                f"{match.start_time:.1f}s - {match.end_time:.1f}s "
                f"({match.duration:.1f}s)",
                file=out,
            )
    return 0


def _cmd_experiment(args, out) -> int:
    import tempfile

    from repro.evalx import ExperimentFlowSpec, experiment_flow, format_table
    from repro.evalx.flows import budget_label
    from repro.flow import FlowRunner

    spec = ExperimentFlowSpec(
        dataset=args.dataset,
        sequence_index=args.sequence_index,
        n_frames=args.frames,
        model=args.model,
        seed=args.seed,
        budgets=(args.budget,),
    )
    flow = experiment_flow(spec)
    with tempfile.TemporaryDirectory(prefix="repro-experiment-") as checkpoint_dir:
        result = FlowRunner(flow, checkpoint_dir=checkpoint_dir).run()
    report = result[f"report:{budget_label(args.budget)}"]
    rows = []
    for name, method_report in report.methods.items():
        accuracy = method_report.aggregate_accuracy_by_operator()
        rows.append(
            [
                name,
                round(method_report.mean_retrieval_f1, 3),
                *(round(accuracy[op], 1) for op in ("Count", "Avg", "Med")),
                round(method_report.ledger.total("deep_model"), 1),
            ]
        )
    print(
        format_table(
            ["method", "retrieval F1", "Count%", "Avg%", "Med%", "model sec"],
            rows,
            title=f"{report.sequence} ({args.model}, budget "
            f"{int(100 * args.budget)}%, {report.n_retrieval_queries} "
            f"retrieval queries kept)",
        ),
        file=out,
    )
    return 0


def _cmd_serve_workload(args, out) -> int:
    from time import perf_counter  # repro: noqa[RPR002] CLI throughput display only; no sampling decision or ledger charge reads this clock

    from repro.corpus import CorpusPipeline, CorpusQueryService

    config, model = _config_and_model(args)
    queries = _load_workload(args)
    specs = (
        [_parse_corpus_spec(text) for text in args.corpus]
        if args.corpus
        else [_sequence_spec(args)]
    )
    catalog = _catalog(specs)
    corpus = CorpusPipeline(catalog, config, policy="ucb").fit(model)
    service = CorpusQueryService(corpus)
    scope_note = f" across {len(catalog)} sequences" if args.corpus else ""
    start = perf_counter()
    results = []
    for _ in range(max(1, args.repeat)):
        results = service.execute_batch(queries)
    elapsed = perf_counter() - start

    n_retrieval = sum(hasattr(r, "cardinality") for r in results)
    print(
        f"served {max(1, args.repeat)} x {len(queries)} queries over "
        f"{catalog.total_frames()} frames{scope_note} in {elapsed:.3f}s "
        f"({n_retrieval} retrieval / {len(results) - n_retrieval} "
        "aggregate per batch)",
        file=out,
    )
    print(f"cache: {service.cache_stats().describe()}", file=out)
    for stage, counters in corpus.merged_ledger().cache_summary().items():
        print(
            f"ledger[{stage}]: {counters['hits']} hits / "
            f"{counters['misses']} misses",
            file=out,
        )
    for query, answer in list(zip(queries, results))[: max(0, args.show)]:
        _format_answer(query.describe(), answer, out)
    return 0


def _cmd_corpus(args, out) -> int:
    from repro.corpus import CorpusPipeline

    catalog = _catalog(_parse_corpus_spec(text) for text in args.sequences)
    config, model = _config_and_model(args)
    corpus = CorpusPipeline(
        catalog, config, policy=args.policy, round_size=args.round_size
    ).fit(model)
    assert corpus.allocation is not None
    print(catalog.describe(), file=out)
    print(corpus.allocation.describe(), file=out)
    status = _answer_each(args.queries, corpus.query, out)
    stages = corpus.cost_summary()
    print(
        "cost: "
        + ", ".join(f"{stage}={seconds:.2f}s"
                    for stage, seconds in sorted(stages.items())),
        file=out,
    )
    return status


def _cmd_stream(args, out) -> int:
    from repro.streaming import (
        ArrivalSchedule,
        ScheduledFrameSource,
        StreamingCorpusService,
    )

    source = ScheduledFrameSource(
        [_parse_corpus_spec(text).build() for text in args.sequences],
        initial_frames=args.initial,
        schedule=ArrivalSchedule(
            rate=args.rate, batch_frames=args.batch, jitter=args.jitter
        ),
        seed=args.seed,
    )
    config, model = _config_and_model(args)
    status = 0
    with StreamingCorpusService(
        source,
        model,
        config,
        policy=args.policy,
        round_size=args.round_size,
        max_lag_frames=args.max_lag,
        replan_every=args.replan_every,
    ) as service:
        for text in args.queries:
            try:
                service.register_standing(text)
            except ValueError:
                pass  # scoped queries still run below, just not standing
        print(
            f"streaming {source.total_events} arrival events over "
            f"{len(service.names)} sequences "
            f"(max lag {args.max_lag}, re-plan every {args.replan_every})",
            file=out,
        )
        while not source.drained:
            if args.query_every > 0:
                service.pump(max_events=args.query_every)
                status = max(status, _answer_each(args.queries, service.execute, out))
            else:
                service.pump()
        report = service.quiesce()
        for snapshot in service.epoch_snapshots():
            drifting = ", ".join(
                f"{text}: {value:.3g}"
                + (
                    f" (drift {snapshot.drift[text]:+.2f})"
                    if snapshot.drift[text] == snapshot.drift[text]
                    else ""
                )
                for text, value in snapshot.answers.items()
            )
            print(
                f"epoch {snapshot.epoch} @ t={snapshot.virtual_time:.2f}s "
                f"({snapshot.total_frames} frames)"
                + (f": {drifting}" if drifting else ""),
                file=out,
            )
        print(service.allocation.describe(), file=out)
        status = max(status, _answer_each(args.queries, service.execute, out))
        arrived = report["arrived"]
        watermarks = report["watermarks"]
        assert isinstance(arrived, dict) and isinstance(watermarks, dict)
        per_sequence = ", ".join(
            f"{name}: {watermarks[name]}/{arrived[name]}" for name in arrived
        )
        print(
            f"drained at t={report['virtual_time']:.2f}s: "
            f"{report['events_processed']} events, "
            f"{report['replan_epochs']} re-plan epochs, "
            f"indexed/arrived [{per_sequence}]",
            file=out,
        )
        by_origin = report["detections_by_origin"]
        assert isinstance(by_origin, dict)
        origins = ", ".join(f"{origin} {count}" for origin, count in by_origin.items())
        print(
            f"model invocations: {report['model_invocations']} ({origins}); "
            f"cache: {service.cache_stats().describe()}",
            file=out,
        )
    return status


def _cmd_flow(args, out) -> int:
    from pathlib import Path

    if args.action == "tail":
        from repro.flow import tail_events

        path = Path(args.events)
        if path.is_dir():
            path = path / "events.jsonl"
        if not path.is_file():
            raise FileNotFoundError(f"no event log at {path}")
        tail_events(path, out, follow=args.follow)
        return 0

    from repro.flow import FlowRunner

    flow, spec = _flow_for_args(args)
    checkpoint_dir = Path(
        args.checkpoint_dir or Path(".repro-flow") / args.flow_name
    )
    if args.action == "resume" and not (checkpoint_dir / "steps").is_dir():
        raise FileNotFoundError(
            f"nothing to resume — no checkpoints under {checkpoint_dir}"
        )
    result = FlowRunner(
        flow,
        checkpoint_dir=checkpoint_dir,
        events_path=Path(args.events or checkpoint_dir / "events.jsonl"),
        interrupt_after=args.interrupt_after,
    ).run()
    executed = [name for name in flow.order() if name not in result.cached]
    print(
        f"flow {flow.name}: {len(executed)} steps executed, "
        f"{len(result.cached)} replayed from checkpoints "
        f"({checkpoint_dir})",
        file=out,
    )
    if args.flow_name == "corpus":
        _print_corpus_report(result["corpus-report"], out)
    else:
        _print_sweep(flow.name, spec.budgets, result, out)
    return 0


def _print_corpus_report(report, out) -> None:
    from repro.evalx import corpus_digest, format_table

    rows = [
        [
            policy.policy,
            policy.total_frames,
            round(policy.retrieval_f1, 4),
            round(policy.aggregate_error, 5),
        ]
        for policy in report.policies.values()
    ]
    print(
        format_table(
            ["policy", "frames", "retrieval F1", "aggregate error"],
            rows,
            title=f"corpus allocation over {len(report.sequences)} "
            f"sequences ({report.n_retrieval_queries} retrieval / "
            f"{report.n_aggregate_queries} aggregate queries)",
        ),
        file=out,
    )
    print(f"report digest: {corpus_digest(report)}", file=out)


def _print_sweep(name: str, budgets, result, out) -> None:
    from repro.evalx import experiment_digest, format_table
    from repro.evalx.flows import budget_label

    summary = result["summary"]
    for rows, what in (
        ("rows_f1", "retrieval F1 vs sampling budget"),
        ("rows_avg", "Avg aggregate accuracy % vs budget"),
    ):
        print(
            format_table(
                ["budget", *summary["methods"]],
                summary[rows],
                title=f"{name}: {what}",
            ),
            file=out,
        )
    for budget in budgets:
        label = budget_label(budget)
        print(
            f"report digest [{label}]: "
            f"{experiment_digest(result[f'report:{label}'])}",
            file=out,
        )


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "query": _cmd_query,
    "tracks": _cmd_tracks,
    "experiment": _cmd_experiment,
    "serve-workload": _cmd_serve_workload,
    "corpus": _cmd_corpus,
    "stream": _cmd_stream,
    "flow": _cmd_flow,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit status.

    The one error boundary: a ``ValueError`` (bad value, query syntax,
    flow definition), an ``OSError`` (missing or unreadable file) or a
    corrupted checkpoint prints ``error: <message>`` and returns 2; an
    interrupted flow prints why and returns 3.
    """
    out = out if out is not None else sys.stdout
    args_list = list(sys.argv[1:]) if argv is None else list(argv)
    if args_list[:1] == ["lint"]:
        # Fast path: the lint gate must not import numpy (or wait for
        # build_parser's model registry) just to parse its arguments.
        from repro.analysis.cli import run_lint

        return run_lint(args_list[1:], out=out)
    args = build_parser().parse_args(args_list)
    from repro.flow import CheckpointCorrupted, FlowInterrupted

    try:
        return _COMMANDS[args.command](args, out)
    except FlowInterrupted as interrupted:
        print(interrupted, file=out)
        return 3
    except (ValueError, OSError, CheckpointCorrupted) as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line interface.

Four subcommands cover the operational lifecycle:

* ``repro simulate`` — build a synthetic sequence and persist it;
* ``repro fit``      — run MAST sampling on a stored sequence, persist
  the detections checkpoint;
* ``repro query``    — answer query-language queries from a stored
  sequence + detections checkpoint;
* ``repro experiment`` — run the paper's method comparison on one
  sequence and print the result tables;
* ``repro tracks``   — stitch object tracks from a checkpoint and print
  per-label summaries plus persistent close-proximity tracks;
* ``repro serve-workload`` — answer a whole workload through the
  batched, caching :class:`~repro.serving.QueryService` (or, with
  ``--corpus``, the sharded :class:`~repro.corpus.CorpusQueryService`)
  and report cache statistics;
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

Heavy imports (numpy, the pipeline) are deferred into the command
handlers so that ``repro lint`` — which gates CI before dependencies
are installed — never pays for them.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_DATASETS = ("semantickitti", "once", "synlidar")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    from repro.models import available_models

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAST reproduction: efficient analytical queries on "
        "point-cloud data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="build a synthetic sequence and save it as .npz"
    )
    simulate.add_argument("--dataset", choices=_DATASETS, default="semantickitti")
    simulate.add_argument("--sequence-index", type=int, default=0)
    simulate.add_argument("--frames", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", required=True, help="output .npz path")

    fit = sub.add_parser(
        "fit", help="run MAST sampling on a stored sequence"
    )
    fit.add_argument("--sequence", required=True, help="sequence .npz path")
    fit.add_argument("--model", choices=available_models(), default="pv_rcnn")
    fit.add_argument("--budget", type=float, default=0.10,
                     help="sampling budget fraction (default 0.10)")
    fit.add_argument("--seed", type=int, default=0)
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
    experiment.add_argument("--dataset", choices=_DATASETS, default="semantickitti")
    experiment.add_argument("--sequence-index", type=int, default=0)
    experiment.add_argument("--frames", type=int, default=1000)
    experiment.add_argument("--budget", type=float, default=0.10)
    experiment.add_argument("--model", choices=available_models(), default="pv_rcnn")
    experiment.add_argument("--seed", type=int, default=1)

    serve = sub.add_parser(
        "serve-workload",
        help="serve a query workload through the batched caching service",
    )
    serve.add_argument("--dataset", choices=_DATASETS, default="semantickitti")
    serve.add_argument("--sequence-index", type=int, default=0)
    serve.add_argument("--frames", type=int, default=600)
    serve.add_argument("--budget", type=float, default=0.10)
    serve.add_argument("--model", choices=available_models(), default="pv_rcnn")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--queries", type=int, default=50,
                       help="generated workload size (ignored with --workload)")
    serve.add_argument("--workload", default=None,
                       help="file with one query per line ('#' comments allowed)")
    serve.add_argument("--repeat", type=int, default=2,
                       help="times to replay the batch (>= 2 shows cache hits)")
    serve.add_argument("--backend", choices=("thread", "process"),
                       default="thread",
                       help="serving backend for --corpus mode: 'process' "
                       "routes queries through spawned shard workers behind "
                       "the coalescing dispatcher")
    serve.add_argument("--workers", type=int, default=0,
                       help="process-backend worker count "
                       "(0 = one per sequence)")
    serve.add_argument("--wave-size", type=int, default=0,
                       help="replay the workload in client waves of this "
                       "many queries (0 = the whole batch at once)")
    serve.add_argument("--show", type=int, default=5,
                       help="print the first N answers (0 for none)")
    serve.add_argument("--corpus", nargs="+", default=None, metavar="SPEC",
                       help="serve a sharded corpus instead of one sequence; "
                       "each SPEC is dataset[:index[:frames]] "
                       "(e.g. semantickitti:0:600 once:1:400)")

    corpus = sub.add_parser(
        "corpus",
        help="fit a multi-sequence corpus under a budget policy and "
        "answer scoped queries",
    )
    corpus.add_argument("--sequences", nargs="+", required=True, metavar="SPEC",
                        help="catalog entries, each dataset[:index[:frames]] "
                        "(e.g. semantickitti:0:600 once:1:400)")
    corpus.add_argument("--policy", choices=("uniform", "ucb"), default="ucb",
                        help="cross-sequence budget policy (default ucb)")
    corpus.add_argument("--round-size", type=int, default=8,
                        help="frames per UCB allocation round (default 8)")
    corpus.add_argument("--budget", type=float, default=0.10)
    corpus.add_argument("--model", choices=available_models(), default="pv_rcnn")
    corpus.add_argument("--seed", type=int, default=1)
    corpus.add_argument("queries", nargs="*",
                        help="query text; append 'IN SEQUENCE <name>' to "
                        "scope, otherwise the query fans out")

    stream = sub.add_parser(
        "stream",
        help="replay a corpus as a continuous stream with online "
        "re-planning and bounded-staleness queries",
    )
    stream.add_argument("--sequences", nargs="+", required=True, metavar="SPEC",
                        help="sequences to stream, each dataset[:index[:frames]] "
                        "(e.g. semantickitti:0:120 once:1:80)")
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
    stream.add_argument("--policy", choices=("uniform", "ucb"), default="ucb",
                        help="cross-sequence budget policy (default ucb)")
    stream.add_argument("--round-size", type=int, default=8,
                        help="frames per UCB allocation round (default 8)")
    stream.add_argument("--budget", type=float, default=0.10)
    stream.add_argument("--model", choices=available_models(), default="pv_rcnn")
    stream.add_argument("--seed", type=int, default=1)
    stream.add_argument("--query-every", type=int, default=0, metavar="N",
                        help="answer the queries mid-ingest every N arrival "
                        "events (0 = only after the stream drains)")
    stream.add_argument("queries", nargs="*",
                        help="query text; append 'IN SEQUENCE <name>' to "
                        "scope, otherwise the query fans out (unscoped "
                        "queries also become standing queries, tracked "
                        "at every re-plan epoch)")

    flow = sub.add_parser(
        "flow",
        help="run, resume, or tail a checkpointed experiment flow "
        "(repro.flow)",
    )
    flow_sub = flow.add_subparsers(dest="action", required=True)
    for action in ("run", "resume"):
        runner = flow_sub.add_parser(
            action,
            help=(
                "execute a named flow (completed steps replay from "
                "checkpoints)"
                if action == "run"
                else "re-run a flow against its existing checkpoints"
            ),
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
        runner.add_argument("--dataset", choices=_DATASETS,
                            default="semantickitti")
        runner.add_argument("--sequence-index", type=int, default=0)
        runner.add_argument("--frames", type=int, default=None,
                            help="sequence length (default: the benchmark "
                            "harness scaling, REPRO_BENCH_SCALE of the "
                            "paper length with a 1000-frame floor)")
        runner.add_argument("--budgets", default=None, metavar="B1,B2,...",
                            help="budget fractions; fig9 defaults to "
                            "0.05..0.25, experiment to 0.10; corpus takes "
                            "one (default 0.10)")
        runner.add_argument("--methods", default="seiden_pc,seiden_pcst,mast",
                            metavar="M1,M2,...")
        runner.add_argument("--sequences", nargs="+", default=None,
                            metavar="SPEC",
                            help="corpus flow catalog, each "
                            "dataset[:index[:frames]]")
        runner.add_argument("--policies", default="uniform,ucb",
                            metavar="P1,P2,...", help="corpus flow policies")
        runner.add_argument("--n-retrieval", type=int, default=None,
                            help="truncate the corpus retrieval workload")
        runner.add_argument("--model", choices=available_models(),
                            default="pv_rcnn")
        runner.add_argument("--seed", type=int, default=1)
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
def _cmd_lint(args, out) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(list(args.args), out=out)


def _cmd_simulate(args, out) -> int:
    from repro.data import save_sequence
    from repro.simulation import build_sequence, dataset_spec

    sequence = build_sequence(
        dataset_spec(args.dataset),
        args.sequence_index,
        n_frames=args.frames,
        seed=args.seed,
        with_points=False,
    )
    path = save_sequence(sequence, args.out)
    print(f"wrote {sequence} -> {path}", file=out)
    return 0


def _cmd_fit(args, out) -> int:
    from repro.core import MASTConfig
    from repro.core.sampler import HierarchicalMultiAgentSampler
    from repro.data import load_sequence, save_detections
    from repro.inference import DetectionStore, InferenceEngine
    from repro.models import make_model

    sequence = load_sequence(args.sequence)
    model = make_model(args.model, seed=args.seed)
    config = MASTConfig(budget_fraction=args.budget, seed=args.seed)
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
    try:
        model = make_model(model_name)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    pipeline = MASTPipeline().fit_from_sampling(sequence, model, sampling)
    status = 0
    for text in args.queries:
        try:
            answer = pipeline.query(text)
        except ValueError as error:
            print(f"error: {error}", file=out)
            status = 2
            continue
        _format_answer(text, answer, out)
    return status


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
    from repro.core import MASTConfig
    from repro.evalx import format_table, run_experiment
    from repro.models import make_model
    from repro.query import generate_workload
    from repro.simulation import build_sequence, dataset_spec

    sequence = build_sequence(
        dataset_spec(args.dataset),
        args.sequence_index,
        n_frames=args.frames,
        with_points=False,
    )
    model = make_model(args.model, seed=5)
    report = run_experiment(
        sequence,
        model,
        generate_workload(rng=args.seed),
        config=MASTConfig(seed=args.seed, budget_fraction=args.budget),
    )
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
            title=f"{sequence.name} ({args.model}, budget "
            f"{int(100 * args.budget)}%, {report.n_retrieval_queries} "
            f"retrieval queries kept)",
        ),
        file=out,
    )
    return 0


def _format_answer(text: str, answer, out) -> None:
    from repro.query import AggregateResult, RetrievalResult

    if isinstance(answer, RetrievalResult):
        ids = ", ".join(str(i) for i in answer.frame_ids[:20])
        suffix = " ..." if answer.cardinality > 20 else ""
        print(
            f"{text}\n  -> {answer.cardinality} frames "
            f"({100 * answer.selectivity:.2f} %): [{ids}{suffix}]",
            file=out,
        )
    elif isinstance(answer, AggregateResult):
        print(f"{text}\n  -> {answer.value:.4f}", file=out)


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


def _build_catalog(specs):
    from repro.corpus import SequenceCatalog

    catalog = SequenceCatalog()
    for spec_text in specs:
        catalog.register(_parse_corpus_spec(spec_text))
    return catalog


def _load_workload(args, parse):
    """The serve-workload query list (file or generated), or None on error."""
    from repro.query import generate_workload

    if args.workload is not None:
        with open(args.workload, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        texts = [line for line in lines if line and not line.startswith("#")]
        return [parse(text) for text in texts]
    return list(generate_workload(rng=args.seed).all_queries())[: args.queries]


def _cmd_serve_workload(args, out) -> int:
    from time import perf_counter  # repro: noqa[RPR002] CLI throughput display only; no sampling decision or ledger charge reads this clock

    from repro.core import MASTConfig, MASTPipeline
    from repro.models import make_model
    from repro.query import RetrievalResult, parse_query, parse_scoped_query
    from repro.simulation import build_sequence, dataset_spec

    config = MASTConfig(seed=args.seed, budget_fraction=args.budget)
    model = make_model(args.model, seed=5)
    parse = parse_scoped_query if args.corpus else parse_query
    try:
        queries = _load_workload(args, parse)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=out)
        return 2
    if not queries:
        print("error: empty workload", file=out)
        return 2

    if args.backend == "process" and not args.corpus:
        print("error: --backend process requires --corpus (the process "
              "tier shards a corpus across workers)", file=out)
        return 2
    if args.corpus:
        from repro.corpus import CorpusPipeline, CorpusQueryService

        try:
            catalog = _build_catalog(args.corpus)
        except ValueError as error:
            print(f"error: {error}", file=out)
            return 2
        pipeline = CorpusPipeline(catalog, config, policy="ucb").fit(model)
        service = CorpusQueryService(
            pipeline,
            backend=args.backend,
            workers=args.workers if args.workers > 0 else None,
        )
        n_frames = catalog.total_frames()
        scope_note = f" across {len(catalog)} sequences"
        if args.backend == "process":
            scope_note += (
                f" ({len(service.pool.workers)} process workers)"
            )
    else:
        from repro.serving import QueryService

        sequence = build_sequence(
            dataset_spec(args.dataset),
            args.sequence_index,
            n_frames=args.frames,
            with_points=False,
        )
        pipeline = MASTPipeline(config).fit(sequence, model)
        service = QueryService(pipeline)
        n_frames = len(sequence)
        scope_note = ""

    wave = max(0, args.wave_size)
    start = perf_counter()
    results = []
    for _ in range(max(1, args.repeat)):
        if wave and wave < len(queries):
            results = []
            for lo in range(0, len(queries), wave):
                results.extend(service.execute_batch(queries[lo:lo + wave]))
        else:
            results = service.execute_batch(queries)
    elapsed = perf_counter() - start

    n_retrieval = sum(hasattr(r, "cardinality") for r in results)
    print(
        f"served {max(1, args.repeat)} x {len(queries)} queries over "
        f"{n_frames} frames{scope_note} in {elapsed:.3f}s "
        f"({n_retrieval} retrieval / {len(results) - n_retrieval} aggregate "
        "per batch)",
        file=out,
    )
    print(f"cache: {service.cache_stats().describe()}", file=out)
    if args.corpus and args.backend == "process":
        counters = service.dispatcher.counters()
        print(
            f"dispatcher: {counters['coalesced']} coalesced / "
            f"{counters['shed']} shed / "
            f"{counters['dispatched_batches']} batches dispatched",
            file=out,
        )
    ledger_summary = (
        pipeline.ledger.cache_summary()
        if not args.corpus
        else pipeline.merged_ledger().cache_summary()
    )
    for stage, counters in ledger_summary.items():
        print(
            f"ledger[{stage}]: {counters['hits']} hits / "
            f"{counters['misses']} misses",
            file=out,
        )
    shown = list(zip(queries, results))[: max(0, args.show)]
    for query, answer in shown:
        if isinstance(answer, RetrievalResult) or hasattr(answer, "value"):
            _format_answer(query.describe(), answer, out)
        else:  # corpus retrieval fan-out
            print(
                f"{query.describe()}\n  -> {answer.cardinality} frames "
                f"({100 * answer.selectivity:.2f} %) across "
                f"{len(answer.by_sequence)} sequences",
                file=out,
            )
    service.close()
    return 0


def _cmd_corpus(args, out) -> int:
    from repro.core import MASTConfig
    from repro.corpus import CorpusPipeline
    from repro.models import make_model

    try:
        catalog = _build_catalog(args.sequences)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    config = MASTConfig(seed=args.seed, budget_fraction=args.budget)
    model = make_model(args.model, seed=5)
    with CorpusPipeline(
        catalog, config, policy=args.policy, round_size=args.round_size
    ).fit(model) as corpus:
        assert corpus.allocation is not None
        print(catalog.describe(), file=out)
        print(corpus.allocation.describe(), file=out)
        status = 0
        for text in args.queries:
            try:
                answer = corpus.query(text)
            except ValueError as error:
                print(f"error: {error}", file=out)
                status = 2
                continue
            if hasattr(answer, "by_sequence"):
                if hasattr(answer, "value"):
                    print(f"{text}\n  -> {answer.value:.4f} (corpus-wide)",
                          file=out)
                else:
                    per = ", ".join(
                        f"{name}: {result.cardinality}"
                        for name, result in answer.by_sequence.items()
                    )
                    print(
                        f"{text}\n  -> {answer.cardinality} frames "
                        f"({100 * answer.selectivity:.2f} %) [{per}]",
                        file=out,
                    )
            else:
                _format_answer(text, answer, out)
        stages = corpus.cost_summary()
        print(
            "cost: "
            + ", ".join(f"{stage}={seconds:.2f}s"
                        for stage, seconds in sorted(stages.items())),
            file=out,
        )
    return status


def _cmd_stream(args, out) -> int:
    from repro.core import MASTConfig
    from repro.models import make_model
    from repro.streaming import (
        ArrivalSchedule,
        ScheduledFrameSource,
        StreamingCorpusService,
    )

    try:
        sequences = [
            _parse_corpus_spec(text).build() for text in args.sequences
        ]
        source = ScheduledFrameSource(
            sequences,
            initial_frames=args.initial,
            schedule=ArrivalSchedule(
                rate=args.rate, batch_frames=args.batch, jitter=args.jitter
            ),
            seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    config = MASTConfig(seed=args.seed, budget_fraction=args.budget)
    model = make_model(args.model, seed=5)
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
                for text in args.queries:
                    status = _stream_query(service, text, out) or status
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
        for text in args.queries:
            status = _stream_query(service, text, out) or status
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
        print(
            f"model invocations: {report['model_invocations']}; "
            f"cache: {service.cache_stats().describe()}",
            file=out,
        )
    return status


def _stream_query(service, text: str, out) -> int:
    """Answer one query against the live stream; returns exit status."""
    try:
        answer = service.execute(text)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    result = answer.result
    if hasattr(result, "by_sequence"):
        if hasattr(result, "value"):
            body = f"{result.value:.4f} (corpus-wide)"
        else:
            body = (
                f"{result.cardinality} frames across "
                f"{len(result.by_sequence)} sequences"
            )
    elif hasattr(result, "value"):
        body = f"{result.value:.4f}"
    else:
        body = f"{result.cardinality} frames"
    print(
        f"{text}\n  -> {body} "
        f"[t={answer.virtual_time:.2f}s, staleness "
        f"{answer.max_staleness}/{answer.max_lag_frames}]",
        file=out,
    )
    return 0


def _default_flow_frames(dataset: str, sequence_index: int) -> int:
    """The benchmark harness's scaled length (1000-frame floor)."""
    import os

    from repro.simulation import dataset_spec

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
    paper_length = dataset_spec(dataset).lengths[sequence_index]
    return max(1000, int(round(paper_length * scale)))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _flow_for_args(args):
    """Build the named flow (and its spec) from CLI arguments."""
    from repro.evalx import (
        CorpusFlowSpec,
        ExperimentFlowSpec,
        corpus_flow,
        experiment_flow,
    )

    methods = tuple(part for part in args.methods.split(",") if part.strip())
    if args.flow_name == "corpus":
        if not args.sequences:
            raise ValueError("the corpus flow requires --sequences")
        entries = []
        for text in args.sequences:
            spec = _parse_corpus_spec(text)
            entries.append(
                (
                    spec.dataset,
                    spec.index,
                    spec.resolved_length(),
                    f"{spec.dataset}-{spec.index:02d}",
                    (),
                )
            )
        budgets = _parse_floats(args.budgets) if args.budgets else (0.10,)
        if len(budgets) != 1:
            raise ValueError(
                f"the corpus flow takes one budget, got {len(budgets)}: "
                f"{args.budgets}"
            )
        spec = CorpusFlowSpec(
            sequences=tuple(entries),
            model=args.model,
            seed=args.seed,
            budget_fraction=budgets[0],
            policies=tuple(
                part for part in args.policies.split(",") if part.strip()
            ),
            n_retrieval=args.n_retrieval,
        )
        return corpus_flow(spec), spec

    if args.budgets:
        budgets = _parse_floats(args.budgets)
    elif args.flow_name == "fig9":
        budgets = (0.05, 0.10, 0.15, 0.20, 0.25)
    else:
        budgets = (0.10,)
    frames = args.frames
    if frames is None:
        frames = _default_flow_frames(args.dataset, args.sequence_index)
    spec = ExperimentFlowSpec(
        dataset=args.dataset,
        sequence_index=args.sequence_index,
        n_frames=frames,
        model=args.model,
        seed=args.seed,
        methods=methods,
        budgets=budgets,
    )
    return experiment_flow(spec), spec


def _cmd_flow(args, out) -> int:
    from pathlib import Path

    if args.action == "tail":
        from repro.flow import tail_events

        path = Path(args.events)
        if path.is_dir():
            path = path / "events.jsonl"
        if not path.is_file():
            print(f"error: no event log at {path}", file=out)
            return 2
        tail_events(path, out, follow=args.follow)
        return 0

    from repro.evalx import corpus_digest, experiment_digest
    from repro.evalx.flows import budget_label
    from repro.evalx.reporting import format_table
    from repro.flow import CheckpointCorrupted, FlowInterrupted, FlowRunner

    try:
        flow, spec = _flow_for_args(args)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    checkpoint_dir = Path(
        args.checkpoint_dir
        if args.checkpoint_dir
        else Path(".repro-flow") / args.flow_name
    )
    if args.action == "resume" and not (checkpoint_dir / "steps").is_dir():
        print(
            f"error: nothing to resume — no checkpoints under "
            f"{checkpoint_dir}",
            file=out,
        )
        return 2
    events_path = (
        Path(args.events) if args.events else checkpoint_dir / "events.jsonl"
    )
    runner = FlowRunner(
        flow,
        checkpoint_dir=checkpoint_dir,
        events_path=events_path,
        interrupt_after=args.interrupt_after,
    )
    try:
        result = runner.run()
    except FlowInterrupted as interrupted:
        print(f"{interrupted}", file=out)
        return 3
    except CheckpointCorrupted as error:
        print(f"error: {error}", file=out)
        return 2
    executed = [name for name in flow.order() if name not in result.cached]
    print(
        f"flow {flow.name}: {len(executed)} steps executed, "
        f"{len(result.cached)} replayed from checkpoints "
        f"({checkpoint_dir})",
        file=out,
    )

    if args.flow_name == "corpus":
        report = result["corpus-report"]
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
        return 0

    summary = result["summary"]
    print(
        format_table(
            ["budget", *summary["methods"]],
            summary["rows_f1"],
            title=f"{flow.name}: retrieval F1 vs sampling budget",
        ),
        file=out,
    )
    print(
        format_table(
            ["budget", *summary["methods"]],
            summary["rows_avg"],
            title=f"{flow.name}: Avg aggregate accuracy % vs budget",
        ),
        file=out,
    )
    for budget in spec.budgets:
        report = result[f"report:{budget_label(budget)}"]
        print(
            f"report digest [{budget_label(budget)}]: "
            f"{experiment_digest(report)}",
            file=out,
        )
    return 0


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
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    args_list = list(sys.argv[1:]) if argv is None else list(argv)
    if args_list[:1] == ["lint"]:
        # Fast path: the lint gate must not import numpy (or wait for
        # build_parser's model registry) just to parse its arguments.
        from repro.analysis.cli import run_lint

        return run_lint(args_list[1:], out=out)
    parser = build_parser()
    args = parser.parse_args(args_list)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

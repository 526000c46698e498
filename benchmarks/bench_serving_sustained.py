"""Sustained-load serving bench: process-sharded tier vs threaded baseline.

Batched thread serving topped out around 11k QPS when this bench was
written — the GIL ceiling called out in ROADMAP's "Serving tier
rearchitecture" item.  This bench measures the process-sharded serving
tier (``CorpusQueryService(backend="process")``: spawn workers + async
dispatcher with request coalescing and admission control) against the
threaded baseline under a **closed-loop load generator**:

* N client threads, each repeatedly submitting a *wave* of queries
  drawn zipf-ish from a fixed mixed scoped/fan-out pool over the
  standard heterogeneous three-sequence corpus (the worlds of
  ``tests/streaming/harness.py``), waiting for the full wave before
  submitting the next — classic closed-loop so offered load tracks
  service capacity.
* Per-wave latency is recorded raw; the report carries p50/p95/p99
  (nearest-rank, via :func:`benchmarks._harness.percentiles`) per wave
  and per query, plus sustained QPS, at 1/2/4/8 workers.
* Every configuration is spot-checked **bit-identical** against serial
  ``CorpusPipeline.query`` answers before any load is offered.

Writes machine-readable ``BENCH_serving_sustained.json`` at the
repository root so CI can gate on the ratio.  ``--smoke`` shrinks the
corpus, the sweep, and the measurement window for CI (identity checks
still run; the throughput-ratio assertion is full-run only, since a
2-core CI container is not the measurement environment).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import MASTConfig
from repro.corpus import (
    CorpusPipeline,
    CorpusQueryService,
    SequenceCatalog,
    SequenceSpec,
)
from repro.models import pv_rcnn
from repro.query.workload import generate_workload

RESULTS_PATH = Path(__file__).parent.parent / "BENCH_serving_sustained.json"
MODEL_SEED = 5
SEED = 1

#: The "standard 3-sequence corpus": a near-static drive, a volatile
#: drive, and a sparse urban log.
STATIC_WORLD = (
    ("base_spawn_rate", 0.15),
    ("intensity_amplitude", 0.05),
    ("mean_lifetime", 90.0),
    ("ego_speed_mean", 1.5),
    ("ego_speed_amplitude", 0.3),
    ("burst_rate", 0.0),
    ("yaw_rate_sigma", 0.005),
    ("speed_noise", 0.05),
)
VOLATILE_WORLD = (
    ("base_spawn_rate", 1.6),
    ("mean_lifetime", 10.0),
    ("intensity_period", 30.0),
    ("burst_rate", 0.15),
    ("ego_speed_mean", 12.0),
    ("yaw_rate_sigma", 0.1),
)


def _percentiles(samples: list[float]) -> dict[str, float]:
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks._harness import percentiles

    return percentiles(samples)


def build_catalog(*, smoke: bool) -> SequenceCatalog:
    long_n, short_n = (160, 120) if smoke else (360, 240)
    catalog = SequenceCatalog()
    catalog.register(
        SequenceSpec(
            "semantickitti", 0, n_frames=long_n,
            name="static-drive", world_overrides=STATIC_WORLD,
        )
    )
    catalog.register(
        SequenceSpec(
            "semantickitti", 1, n_frames=long_n,
            name="volatile-drive", world_overrides=VOLATILE_WORLD,
        )
    )
    catalog.register(SequenceSpec("once", 0, n_frames=short_n, name="sparse-urban"))
    return catalog


def mixed_workload(catalog: SequenceCatalog, *, n_queries: int) -> list[str]:
    """Scoped + fan-out query texts cycling over the catalog."""
    names = catalog.names()
    base = [q.describe() for q in generate_workload(rng=SEED).all_queries()]
    texts = []
    for position, text in enumerate(base[:n_queries]):
        which = position % (len(names) + 1)
        if which < len(names):
            texts.append(f"{text} IN SEQUENCE {names[which]}")
        else:
            texts.append(text)  # fan-out
    return texts


def check_identity(service: CorpusQueryService, reference: dict) -> None:
    """Every pool answer must be bit-identical to the serial path."""
    answers = service.execute_batch(list(reference))
    for text, got in zip(reference, answers):
        want = reference[text]
        if hasattr(want, "by_sequence"):
            assert got.id_set() == want.id_set(), text
        elif hasattr(want, "value"):
            assert got.value == want.value, text
        else:
            assert np.array_equal(got.frame_ids, want.frame_ids), text


def run_load(
    service: CorpusQueryService,
    pool_q: list[str],
    *,
    clients: int,
    duration: float,
    wave: int,
    seed: int,
) -> dict:
    """Closed-loop generator: each client submits waves back to back."""
    ranks = np.arange(len(pool_q))
    probs = 1.0 / (ranks + 1.5)  # zipf-ish popularity skew
    probs /= probs.sum()
    stop = time.perf_counter() + duration
    counts = [0] * clients
    lats: list[float] = []
    lock = threading.Lock()

    def client(i: int) -> None:
        rng = np.random.default_rng(seed + i)
        local = []
        while time.perf_counter() < stop:
            picks = rng.choice(len(pool_q), size=wave, p=probs)
            qs = [pool_q[j] for j in picks]
            t0 = time.perf_counter()
            service.execute_batch(qs)
            local.append(time.perf_counter() - t0)
            counts[i] += wave
        with lock:
            lats.extend(local)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"load-client-{i}")
        for i in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    total = sum(counts)
    return {
        "qps": round(total / elapsed, 1),
        "queries": total,
        "waves": len(lats),
        "wave_latency_ms": {
            k: round(v, 3) for k, v in _percentiles(lats).items()
        },
        "per_query_latency_ms": {
            k: round(v, 4)
            for k, v in _percentiles([lat / wave for lat in lats]).items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus + short windows for CI")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds of sustained load per configuration")
    parser.add_argument("--clients", type=int, default=None,
                        help="closed-loop client threads")
    parser.add_argument("--wave-size", type=int, default=None,
                        help="queries per client wave")
    args = parser.parse_args(argv)

    smoke = bool(args.smoke)
    duration = args.duration if args.duration else (0.6 if smoke else 3.0)
    clients = args.clients if args.clients else (4 if smoke else 8)
    wave = args.wave_size if args.wave_size else (16 if smoke else 32)
    worker_counts = (1, 2) if smoke else (1, 2, 4, 8)
    n_queries = 16 if smoke else 24

    catalog = build_catalog(smoke=smoke)
    config = MASTConfig(budget_fraction=0.10, seed=SEED)
    with CorpusPipeline(catalog, config, policy="ucb").fit(
        pv_rcnn(seed=MODEL_SEED)
    ) as corpus:
        pool_q = mixed_workload(catalog, n_queries=n_queries)
        # Serial reference answers: the bit-identity anchor.
        reference = {text: corpus.query(text) for text in dict.fromkeys(pool_q)}

        print(f"threaded baseline: {clients} clients, wave={wave}, "
              f"{duration:.1f}s window")
        with CorpusQueryService(corpus) as thread_service:
            check_identity(thread_service, reference)
            baseline = run_load(
                thread_service, pool_q,
                clients=clients, duration=duration, wave=wave, seed=SEED,
            )
        print(f"  {baseline['qps']:>9} qps  "
              f"wave p99 {baseline['wave_latency_ms']['p99']:.2f} ms")

        by_workers = {}
        for n_workers in worker_counts:
            print(f"process backend: {n_workers} worker(s)")
            with CorpusQueryService(
                corpus, backend="process", workers=n_workers
            ) as service:
                check_identity(service, reference)
                entry = run_load(
                    service, pool_q,
                    clients=clients, duration=duration, wave=wave, seed=SEED,
                )
                entry["dispatcher"] = service.dispatcher.counters()
                ready = [c.ready for c in service.pool.workers]
                entry["warmup"] = {
                    "disk_hits": sum(r.disk_hits for r in ready),
                    "model_invocations": sum(r.invocations for r in ready),
                }
            by_workers[str(n_workers)] = entry
            print(f"  {entry['qps']:>9} qps  "
                  f"wave p99 {entry['wave_latency_ms']['p99']:.2f} ms  "
                  f"coalesced {entry['dispatcher']['coalesced']}")

    top = by_workers[str(worker_counts[-1])]
    ratio = top["qps"] / baseline["qps"] if baseline["qps"] else float("inf")
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks._harness import run_manifest

    payload = {
        "bench": "serving_sustained",
        "smoke": smoke,
        "manifest": run_manifest(),
        "load": {
            "clients": clients,
            "wave_size": wave,
            "duration_s": duration,
            "pool_queries": len(pool_q),
            "generator": "closed-loop, zipf-skewed mixed scoped/fan-out",
        },
        "thread_baseline": baseline,
        "process": by_workers,
        "speedup_at_max_workers": round(ratio, 2),
        "identity": "all configurations bit-identical to serial CorpusPipeline.query",
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nprocess x{worker_counts[-1]}: {top['qps']} qps vs threaded "
          f"{baseline['qps']} qps -> {ratio:.2f}x")

    for n_workers, entry in by_workers.items():
        assert entry["warmup"]["model_invocations"] == 0, (
            f"worker warm-up must come from the detection store, but "
            f"{n_workers}-worker fleet billed "
            f"{entry['warmup']['model_invocations']} model invocations"
        )
        assert entry["dispatcher"]["coalesced"] > 0, (
            "a zipf-skewed closed loop must coalesce duplicate in-flight "
            "queries"
        )
    if not smoke:
        assert ratio >= 1.5, (
            f"process backend at {worker_counts[-1]} workers reached only "
            f"{ratio:.2f}x the threaded baseline (need >= 1.5x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spatial-index scaling: Fig. 8's axis pushed two orders of magnitude.

Fig. 8 scales the *frame* axis (SynLiDAR subsets at ~15 objects per
frame).  This bench scales the *object* axis instead: from the paper's
vehicle-scale worlds to the simulator's city-scale worlds (300 m sensor,
~1,000 live actors — 10-100x the actor count and BEV area), where a
single sequence indexes 10^5-10^6 object rows and spatially scoped
queries touch only a sliver of them.

At each scale point the bench times spatially filtered count-series
evaluation over two indexes of the *same* sampling run — one routing
through the quadtree tile index (built by its first region query), one
with tiling disabled (the flat brute-force scan) — across a ladder of
region selectivities, and asserts:

* answers are bit-identical in every configuration (retrieval frame
  ids, Med and Avg aggregate values);
* at the largest scale, low-selectivity region queries run >= 5x faster
  through the tile index;
* a streaming run queried while it ingests (first-use tile builds,
  incremental tile updates on every extend) drains to answers
  bit-identical to an identical run with the spatial index disabled.

Writes machine-readable ``BENCH_spatial.json`` at the repository root:
per-scale speedup-vs-selectivity curves plus tile-prune counters in the
shared ``SPATIAL_PRUNE_SCHEMA`` of :mod:`benchmarks._harness`.
``--smoke`` shrinks the scale points for CI (assertions still hold).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks._harness import (
    SPATIAL_PRUNE_SCHEMA,
    get_sequence,
    run_manifest,
    spatial_prune_record,
)
from repro.core import MASTConfig, MASTPipeline
from repro.corpus import SequenceSpec
from repro.models import pv_rcnn
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.query.spatial import RegionPredicate
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService

RESULTS_PATH = Path(__file__).parent.parent / "BENCH_spatial.json"
MODEL_SEED = 5
SEED = 1

#: Selectivity ladder, most selective first: ``(name, cx, cy, half)`` as
#: fractions of the world's sensor range.  ``corner`` is offset from the
#: ego (where actor density peaks), so it is the genuinely sparse case;
#: the centered boxes sweep selectivity up to the whole world.
REGIONS = (
    ("corner", 0.6, 0.6, 0.25),
    ("block", 0.0, 0.0, 0.05),
    ("district", 0.0, 0.0, 0.4),
    ("world", 0.0, 0.0, 1.0),
)
#: Minimum tiled-vs-brute speedup at the lowest selectivity of the
#: largest scale point (the acceptance bar).
MIN_SPEEDUP = 5.0


def scale_points(*, smoke: bool) -> list[dict]:
    """(name, dataset, frames) ladder spanning ~2 orders of object rows."""
    if smoke:
        return [
            {"name": "vehicle-75m", "dataset": "semantickitti", "n_frames": 300},
            {"name": "city-mid", "dataset": "city", "n_frames": 48},
            {"name": "city-large", "dataset": "city", "n_frames": 360},
        ]
    return [
        {"name": "vehicle-75m", "dataset": "semantickitti", "n_frames": 1000},
        {"name": "city-mid", "dataset": "city", "n_frames": 160},
        {"name": "city-large", "dataset": "city", "n_frames": 1400},
    ]


def world_sensor_range(dataset: str) -> float:
    return 75.0 if dataset == "semantickitti" else 300.0


def fit_point(point: dict) -> tuple[MASTPipeline, MASTPipeline]:
    """The fitted pipeline and a twin indexing the same sampling untiled."""
    sequence = get_sequence(point["dataset"], 0, n_frames=point["n_frames"])
    pipeline = MASTPipeline(MASTConfig(seed=SEED))
    model = pv_rcnn(
        seed=MODEL_SEED, sensor_range=world_sensor_range(point["dataset"])
    )
    pipeline.fit(sequence, model)
    flat = MASTPipeline(MASTConfig(seed=SEED, spatial_index=False))
    flat.fit_from_sampling(sequence, model, pipeline.sampling_result)
    return pipeline, flat


def time_count_series(index, object_filter: ObjectFilter, *, reps: int) -> float:
    """Best-of-``reps`` evaluation time (the index keeps no series)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        index.count_series(object_filter)
        best = min(best, time.perf_counter() - start)
    return best


def bench_point(point: dict, *, reps: int) -> dict:
    pipeline, flat_pipeline = fit_point(point)
    index, flat_index = pipeline.index, flat_pipeline.index
    world_range = world_sensor_range(point["dataset"])

    curve = []
    for region_name, cx, cy, half_frac in REGIONS:
        x0 = (cx - half_frac) * world_range
        y0 = (cy - half_frac) * world_range
        x1 = (cx + half_frac) * world_range
        y1 = (cy + half_frac) * world_range
        region = RegionPredicate(x0, y0, x1, y1)
        object_filter = ObjectFilter("Car", region)

        # Selectivity of the region over the indexed rows (diagnostics).
        matched = float(flat_index.count_series(object_filter).sum())
        total = float(flat_index.count_series(ObjectFilter("Car")).sum())

        brute = time_count_series(flat_index, object_filter, reps=reps)
        index.count_series(object_filter)  # the first region query builds the tiles
        spatial = index.spatial_index
        assert spatial is not None
        spatial.reset_stats()
        tiled = time_count_series(index, object_filter, reps=reps)

        # Bit-identity: retrieval + Med (tile-routed) + Avg (linear).
        box = f"{x0:g} {y0:g} {x1:g} {y1:g}"
        queries = [
            f"SELECT FRAMES WHERE COUNT(Car REGION {box}) >= 2",
            f"SELECT MED OF COUNT(* REGION {box})",
            f"SELECT AVG OF COUNT(Car REGION {box})",
        ]
        tiled_answers = [pipeline.query(parse_query(text)) for text in queries]
        brute_answers = [flat_pipeline.query(parse_query(text)) for text in queries]
        assert flat_index.spatial_index is None
        assert np.array_equal(
            tiled_answers[0].frame_ids, brute_answers[0].frame_ids
        ), f"retrieval diverged at {point['name']} region {region_name}"
        for tiled_answer, brute_answer in zip(tiled_answers[1:], brute_answers[1:]):
            assert tiled_answer.value == brute_answer.value, (
                f"aggregate diverged at {point['name']} region {region_name}: "
                f"{tiled_answer.value} != {brute_answer.value}"
            )

        curve.append(
            {
                "region": region_name,
                "region_box_m": [x0, y0, x1, y1],
                "selectivity": round(matched / total, 6) if total else 0.0,
                "brute_ms": round(brute * 1e3, 4),
                "tiled_ms": round(tiled * 1e3, 4),
                "speedup": round(brute / tiled, 2) if tiled > 0 else float("inf"),
                "prune": spatial_prune_record(spatial),
            }
        )

    record = {
        **point,
        "indexed_rows": index.n_indexed_objects,
        "leaf_tiles": spatial.n_leaves,
        "selectivity_curve": curve,
    }
    pipeline.close()
    flat_pipeline.close()
    return record


def bench_streaming_identity(*, smoke: bool) -> dict:
    """Post-drain streaming answers with vs without the spatial index.

    Two identical streaming runs (same source seeds, same arrival
    schedule, same model), both queried between arrivals — so one builds
    its tile indexes on first use and updates them incrementally on
    every extend, the other stays on the flat scan.  After both drain,
    every region-scoped answer must match exactly.
    """
    long_n, city_n = (72, 36) if smoke else (160, 80)

    def run(*, spatial_index: bool) -> dict[str, object]:
        sequences = [
            SequenceSpec("semantickitti", 0, n_frames=long_n, name="drive").build(),
            SequenceSpec("city", 0, n_frames=city_n, name="downtown").build(),
        ]
        source = ScheduledFrameSource(
            sequences,
            initial_frames=12,
            schedule={
                "drive": ArrivalSchedule(rate=20.0, batch_frames=1),
                "downtown": ArrivalSchedule(rate=10.0, batch_frames=2),
            },
            seed=SEED,
        )
        config = MASTConfig(seed=SEED, spatial_index=spatial_index)
        texts = [
            "SELECT FRAMES WHERE COUNT(Car) >= 2 WITHIN REGION (-30, -30, 30, 30)",
            "SELECT MED OF COUNT(*) WITHIN TILE 0",
            "SELECT AVG OF COUNT(Car) WITHIN REGION (-60, -20, 60, 20) "
            "IN SEQUENCE downtown",
        ]
        model = pv_rcnn(seed=MODEL_SEED, sensor_range=300.0)
        with StreamingCorpusService(
            source, model, config, policy="uniform", max_lag_frames=3,
        ) as service:
            while service.pump(max_events=8):
                for text in texts:
                    service.execute(text)
            service.quiesce()
            answers: dict[str, object] = {}
            for text in texts:
                result = service.execute(text).result
                if hasattr(result, "id_set"):
                    answers[text] = sorted(result.id_set())
                else:
                    answers[text] = result.value
        return answers

    tiled = run(spatial_index=True)
    flat = run(spatial_index=False)
    assert tiled == flat, (
        f"streaming post-drain answers diverged:\n{tiled}\nvs\n{flat}"
    )
    return {
        "queries": list(tiled),
        "post_drain_identical": True,
        "answers": {
            text: answer if not isinstance(answer, list) else len(answer)
            for text, answer in tiled.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale points for fast CI runs")
    args = parser.parse_args(argv)
    reps = 3 if args.smoke else 5

    points = [bench_point(point, reps=reps) for point in scale_points(smoke=args.smoke)]
    streaming = bench_streaming_identity(smoke=args.smoke)

    largest = points[-1]
    low_selectivity = largest["selectivity_curve"][0]
    assert low_selectivity["speedup"] >= MIN_SPEEDUP, (
        f"low-selectivity region speedup {low_selectivity['speedup']}x at "
        f"{largest['name']} is below the {MIN_SPEEDUP}x bar"
    )

    payload = {
        "bench": "spatial_scale",
        "smoke": bool(args.smoke),
        "manifest": run_manifest(),
        "min_speedup_bar": MIN_SPEEDUP,
        "scale_points": points,
        "streaming": streaming,
        "prune_schema": SPATIAL_PRUNE_SCHEMA,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(json.dumps(payload, indent=2))
    rows_span = points[-1]["indexed_rows"] / max(1, points[0]["indexed_rows"])
    print(
        f"\nscale span {points[0]['indexed_rows']:,} -> "
        f"{points[-1]['indexed_rows']:,} rows ({rows_span:.0f}x); "
        f"low-selectivity speedup at {largest['name']}: "
        f"{low_selectivity['speedup']}x (bar {MIN_SPEEDUP}x) "
        f"-> {RESULTS_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

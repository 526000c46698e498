#!/usr/bin/env python
"""Batched data arrival (Problem 1's periodic-upload setting).

Vehicles upload point-cloud batches periodically; the server must keep
query results fresh without reprocessing history.  This example feeds a
drive to the pipeline in four batches, extending the sampling and index
incrementally after each upload, and tracks how a standing risk query's
answer and the cumulative deep-model cost evolve.

Run:  python examples/streaming_ingest.py
"""

from repro import MASTConfig, MASTPipeline, SequenceCatalog
from repro.evalx import format_table
from repro.models import pv_rcnn
from repro.simulation import semantickitti_like

STANDING_QUERY = "SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3"
BATCHES = 4


def main() -> None:
    full = semantickitti_like(0, n_frames=1600, with_points=False)
    batch_size = len(full) // BATCHES
    model = pv_rcnn(seed=0)

    catalog = SequenceCatalog()
    catalog.register_sequence(full.head(batch_size, name=full.name))

    print(f"initial upload: {batch_size} frames; fitting MAST ...")
    pipeline = MASTPipeline(MASTConfig(budget_fraction=0.10, seed=0))
    pipeline.fit(catalog.sequence(full.name), model)

    rows = []

    def snapshot(batch_index: int) -> None:
        result = pipeline.query(STANDING_QUERY)
        sampling = pipeline.sampling_result
        rows.append(
            [
                batch_index,
                sampling.n_frames,
                len(sampling.sampled_ids),
                f"{100 * sampling.sampling_fraction:.1f}%",
                result.cardinality,
                f"{pipeline.ledger.total('deep_model'):.1f}s",
            ]
        )

    snapshot(1)
    for batch_index in range(1, BATCHES):
        start = batch_index * batch_size
        end = min(start + batch_size, len(full))
        batch = list(full[start:end])
        catalog.extend_sequence(full.name, batch)
        pipeline.extend(batch)
        snapshot(batch_index + 1)

    print()
    print(
        format_table(
            [
                "batch",
                "frames",
                "sampled",
                "fraction",
                "risk frames",
                "model time",
            ],
            rows,
            title=f"Standing query after each upload: {STANDING_QUERY}",
        )
    )
    print(
        "\nEach batch adds ~10 % of its frames to the deep-model budget; "
        "history is never reprocessed."
    )


if __name__ == "__main__":
    main()

"""Seeded input generation: corpora, query pools, pick sequences.

``--seed`` drives only what the load generator sends — which pool text a
wave picks, which regions a miss query asks about, where the streaming
rotation starts.  The corpora themselves are fixed (``MASTConfig`` seed 1,
detector seed 5, the dataset factories' own world seeds), so the paper's
currency — detector seconds, aggregate error, F1 — is the same number
for every seed and a change in it is a change in the program.

Picks are *stratified*: a window's multiset of picks is fixed by the
Zipf weights (or the miss grid) and the seed only shuffles it, so two
seeds offer the same mix of cheap scoped and costly fan-out queries and
throughput is comparable across seeds.
"""

from __future__ import annotations

import numpy as np

from . import api

__all__ = [
    "CONFIG_SEED",
    "MODEL_SEED",
    "city_catalog",
    "city_miss_texts",
    "drive_catalog",
    "drive_sequences",
    "evaluation_workload",
    "mixed_pool",
    "zipf_waves",
]

CONFIG_SEED = 1
MODEL_SEED = 5

#: A drive where almost nothing changes (``bench_corpus``'s override).
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
#: Dense, bursty, short-lived traffic (``bench_corpus``'s override).
VOLATILE_WORLD = (
    ("base_spawn_rate", 1.6),
    ("mean_lifetime", 10.0),
    ("intensity_period", 30.0),
    ("burst_rate", 0.15),
    ("ego_speed_mean", 12.0),
    ("yaw_rate_sigma", 0.1),
)

MISS_HALF_WIDTHS = (15.0, 40.0, 120.0)
MISS_LABELS = ("Car", "Pedestrian", "Cyclist")
MISS_KINDS = ("retrieval", "avg", "med")


def config() -> api.MASTConfig:
    return api.MASTConfig(budget_fraction=0.10, seed=CONFIG_SEED)


def model():
    return api.pv_rcnn(seed=MODEL_SEED)


def drive_specs(frames: tuple[int, int, int]) -> list[api.SequenceSpec]:
    """The standard heterogeneous 3-sequence vehicle-scale corpus."""
    static_n, volatile_n, sparse_n = frames
    return [
        api.SequenceSpec(
            "semantickitti", 0, n_frames=static_n,
            name="static-drive", world_overrides=STATIC_WORLD,
        ),
        api.SequenceSpec(
            "semantickitti", 1, n_frames=volatile_n,
            name="volatile-drive", world_overrides=VOLATILE_WORLD,
        ),
        api.SequenceSpec("once", 0, n_frames=sparse_n, name="sparse-urban"),
    ]


def _built_catalog(specs: list[api.SequenceSpec]) -> api.SequenceCatalog:
    catalog = api.SequenceCatalog()
    for spec in specs:
        catalog.register(spec)
    for name in catalog.names():
        catalog.sequence(name)  # simulate now: set-up, not fit, pays for it
    return catalog


def drive_catalog(frames: tuple[int, int, int]) -> api.SequenceCatalog:
    return _built_catalog(drive_specs(frames))


def drive_sequences(frames: tuple[int, int, int]) -> list:
    """The drive worlds as built sequences (the streaming source's input)."""
    return [spec.build() for spec in drive_specs(frames)]


def city_catalog(frames: int) -> api.SequenceCatalog:
    """Two 300 m-sensor city sequences (~900 live actors each)."""
    return _built_catalog(
        [
            api.SequenceSpec("city", 0, n_frames=frames, name="city-a"),
            api.SequenceSpec("city", 1, n_frames=frames, name="city-b"),
        ]
    )


def evaluation_workload():
    """The paper's RQ2 workload (100 retrieval + 30 aggregate queries)."""
    return api.generate_workload(rng=CONFIG_SEED)


def mixed_pool(names: tuple[str, ...], size: int = 24) -> list[str]:
    """Scoped + fan-out texts cycling over the catalog.

    Half retrieval, half aggregate templates of the evaluation workload,
    scope cycling ``names[0], names[1], …, fan-out`` as the older corpus
    and serving benches do.
    """
    workload = evaluation_workload()
    half = size // 2
    base = [q.describe() for q in workload.retrieval[:half]]
    base += [q.describe() for q in workload.aggregates[: size - half]]
    texts = []
    for position, text in enumerate(base):
        which = position % (len(names) + 1)
        texts.append(
            f"{text} IN SEQUENCE {names[which]}" if which < len(names) else text
        )
    return texts


def zipf_waves(
    pool: list[str], *, waves: int, wave_size: int, rng: np.random.Generator
) -> list[list[str]]:
    """``waves`` waves of ``wave_size`` pool texts, Zipf ``1/(rank+1.5)``.

    The pick multiset is the deterministic largest-remainder rounding of
    the Zipf weights; ``rng`` only orders it.
    """
    total = waves * wave_size
    weights = 1.0 / (np.arange(len(pool)) + 1.5)
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    remainder = total - int(counts.sum())
    for index in np.argsort(-(exact - counts), kind="stable")[:remainder]:
        counts[index] += 1
    picks = np.repeat(np.arange(len(pool)), counts)
    rng.shuffle(picks)
    return [
        [pool[int(j)] for j in picks[start : start + wave_size]]
        for start in range(0, total, wave_size)
    ]


def city_miss_texts(
    names: tuple[str, ...], count: int, rng: np.random.Generator, seen: set[str]
) -> list[str]:
    """``count`` distinct region queries never asked before in this run.

    Half-width x label x query kind x scope cycle through their full grid
    (so every block of 81 texts costs the same mix) in a seeded order;
    the region centre is uniform in +-250 m.  ``seen`` carries the texts
    already handed out, so no text repeats across windows or warm-ups and
    every lookup is a cache miss.
    """
    scopes = (*names, None)
    grid = [
        (half_width, label, kind, scope)
        for half_width in MISS_HALF_WIDTHS
        for label in MISS_LABELS
        for kind in MISS_KINDS
        for scope in scopes
    ]
    texts: list[str] = []
    while len(texts) < count:
        for cell in rng.permutation(len(grid)):
            half_width, label, kind, scope = grid[int(cell)]
            cx, cy = rng.uniform(-250.0, 250.0, size=2)
            region = (
                f"COUNT({label} REGION {cx - half_width:.2f} {cy - half_width:.2f} "
                f"{cx + half_width:.2f} {cy + half_width:.2f})"
            )
            if kind == "retrieval":
                text = f"SELECT FRAMES WHERE {region} >= 1"
            else:
                text = f"SELECT {kind.upper()} OF {region}"
            if scope is not None:
                text += f" IN SEQUENCE {scope}"
            if text in seen:
                continue
            seen.add(text)
            texts.append(text)
            if len(texts) == count:
                break
    return texts

"""Multi-sequence corpus layer: catalog, budget allocation, sharding.

The paper evaluates MAST one sequence at a time; a deployment holds a
*corpus* of sequences (SemanticKITTI drives, ONCE logs, ...) behind one
query surface.  This package generalizes the single-sequence stack:

* :mod:`repro.corpus.catalog` — :class:`SequenceCatalog`, named
  sequences built lazily from :mod:`repro.simulation.datasets` specs;
* :mod:`repro.corpus.allocator` — cross-sequence budget policies: a
  ``uniform`` per-sequence split and a root-level UCB agent that moves
  adaptive budget toward the sequences earning the highest ST-PC reward
  per sampled frame;
* :mod:`repro.corpus.pipeline` — :class:`CorpusPipeline`, per-sequence
  MAST shards sampled through shared
  :class:`~repro.core.sampler.AdaptiveSamplingSession` objects, one
  shared inference engine / detection store, scoped query routing;
* :mod:`repro.corpus.service` — :class:`CorpusQueryService`, the
  sharded serving path (per-shard caches, fan-out merge, corpus-level
  cost and cache rollups);
* :mod:`repro.corpus.results` — fan-out result types and the one
  exact merge every fan-out path calls (count concatenation for
  aggregates).

A one-sequence corpus is bit-identical to :class:`~repro.MASTPipeline`
on that sequence: same sampled frames, same index, same answers.
"""

from repro.corpus.allocator import (
    AllocationReport,
    BudgetAllocator,
    UCBAllocator,
    UniformAllocator,
    make_allocator,
)
from repro.corpus.catalog import SequenceCatalog, SequenceSpec
from repro.corpus.pipeline import CorpusPipeline
from repro.corpus.results import (
    CorpusAggregateResult,
    CorpusRetrievalResult,
    merge_aggregates,
    merge_retrievals,
)
from repro.corpus.service import CorpusQueryService

__all__ = [
    "AllocationReport",
    "BudgetAllocator",
    "CorpusAggregateResult",
    "CorpusPipeline",
    "CorpusQueryService",
    "CorpusRetrievalResult",
    "SequenceCatalog",
    "SequenceSpec",
    "UCBAllocator",
    "UniformAllocator",
    "make_allocator",
    "merge_aggregates",
    "merge_retrievals",
]

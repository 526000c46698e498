"""Corpus pipeline: per-sequence MAST shards under one budget policy.

:class:`CorpusPipeline` generalizes :class:`~repro.MASTPipeline` to a
:class:`~repro.corpus.catalog.SequenceCatalog`:

* **sampling** opens one resumable
  :class:`~repro.core.sampler.AdaptiveSamplingSession` per sequence and
  hands them to a :class:`~repro.corpus.allocator.BudgetAllocator`,
  so a root-level policy (uniform split or UCB) decides how the shared
  adaptive budget is spread across sequences.  Each shard keeps its
  session live: as its sequence grows the session grows with it, and
  :meth:`~CorpusPipeline.spend` runs the policy again over the live
  sessions to spend what the growth accrued;
* **inference** runs through one shared
  :class:`~repro.inference.InferenceEngine` — every shard uses the same
  cross-run :class:`~repro.inference.DetectionStore`;
* **indexing / querying** adopts each session's result into a
  per-sequence :class:`~repro.MASTPipeline` shard
  (:meth:`~repro.MASTPipeline.fit_from_sampling`), so everything
  downstream of sampling is exactly the single-sequence stack;
* **routing**: :meth:`query` accepts scoped query text
  (``... IN SEQUENCE <name>``) or :class:`~repro.query.ast.ScopedQuery`
  objects; a named scope routes to that shard, no scope fans out over
  the whole catalog and merges exactly
  (:func:`repro.corpus.results.merge`).  A scope naming no sequence
  fails :func:`require_sequence`, the one check every corpus entry
  point shares.

:meth:`query_many` stays a plain per-query loop: it is the serial
reference the served paths are tested against.  With a one-sequence catalog every answer is bit-identical to the
single-sequence pipeline on that sequence, for both budget policies.
"""

from __future__ import annotations

from collections.abc import Collection
from contextlib import ExitStack
from typing import Union

from repro.core.config import MASTConfig
from repro.core.pipeline import MASTPipeline
from repro.core.sampler import (
    AdaptiveSamplingSession,
    HierarchicalMultiAgentSampler,
)
from repro.corpus.allocator import AllocationReport, BudgetAllocator, make_allocator
from repro.corpus.catalog import SequenceCatalog
from repro.corpus.results import CorpusAggregateResult, CorpusRetrievalResult, merge
from repro.inference import DetectionStore, InferenceEngine
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    RetrievalResult,
    ScopedQuery,
)
from repro.query.parser import parse_scoped_query
from repro.utils.timing import CostLedger
from repro.utils.validation import require

__all__ = ["CorpusPipeline", "require_sequence"]

#: A single shard's answer.
ShardResult = Union[RetrievalResult, AggregateResult]
#: What :meth:`CorpusPipeline.query` can return.
CorpusResult = Union[
    RetrievalResult, AggregateResult, CorpusRetrievalResult, CorpusAggregateResult
]


def require_sequence(name: str | None, names: Collection[str]) -> None:
    """Reject a scope that names none of ``names`` (``None`` fans out)."""
    if name is not None and name not in names:
        raise ValueError(f"unknown sequence {name!r}; corpus has {sorted(names)}")


class CorpusPipeline:
    """Sampling + indexing + scoped querying over a sequence catalog."""

    def __init__(
        self,
        catalog: SequenceCatalog,
        config: MASTConfig | None = None,
        *,
        policy: str | BudgetAllocator = "uniform",
        round_size: int = 8,
        engine: InferenceEngine | None = None,
        detection_store: DetectionStore | None = None,
    ) -> None:
        require(len(catalog) >= 1, "catalog must register at least one sequence")
        self.catalog = catalog
        self.config = config or MASTConfig()
        if isinstance(policy, str):
            self.allocator: BudgetAllocator = make_allocator(
                policy, self.config, round_size=round_size
            )
        else:
            self.allocator = policy
        # Shards share one engine (one detection store, one motion memo).
        self.engine = engine or InferenceEngine(store=detection_store)
        #: Corpus-level ledger (costs not attributable to one shard).
        self.ledger = CostLedger()
        self._shards: dict[str, MASTPipeline] = {}
        self.allocation: AllocationReport | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _open(self, name: str, model: DetectionModel) -> AdaptiveSamplingSession:
        """A fresh session over ``name``, charged to its shard's ledger.

        An already-fitted shard's session *re-enters* with every
        detection its live session paid for (``known=``): each is the
        canonical detection of its frame, so none is billed again.
        """
        sequence = self.catalog.sequence(name)
        shard = self._shards.get(name)
        live = shard.session if shard is not None else None
        return HierarchicalMultiAgentSampler(self.config).session(
            sequence,
            model,
            engine=self.engine,
            ledger=shard.ledger if shard is not None else CostLedger(),
            budget=self.allocator.session_budget(len(sequence)),
            known=live.detections if live is not None else None,
        )

    def plan(
        self, model: DetectionModel
    ) -> tuple[dict[str, AdaptiveSamplingSession], AllocationReport]:
        """Run one full budget plan over the current catalog.

        One session opens per sequence and the allocator spends the
        shared adaptive pool across them, exactly as :meth:`fit` does.
        Sessions for already-fitted shards re-enter with every detection
        paid for so far and charge the shard's ledger, so a re-plan
        after catalog growth replays the same deterministic trajectory a
        from-scratch fit would take while only billing frames no epoch
        has detected yet.  Returns the sessions, which stay live.
        """
        sessions = {
            name: self._open(name, model) for name in self.catalog.names()
        }
        return sessions, self.allocator.run(list(sessions.values()))

    def spend(
        self, model: DetectionModel
    ) -> tuple[dict[str, AdaptiveSamplingSession], AllocationReport]:
        """Run the allocator over the shards' live sessions.

        Each live session has grown with its sequence
        (:meth:`MASTPipeline.extend` under this corpus's allocator), so
        the run spends only the adaptive budget accrued since the last
        one, and nothing already sampled is re-drawn.  A sequence
        registered since the last plan opens a fresh session.  If the
        detector raises, every session rolls back to its state before
        the run; each frame paid for stays paid for.
        """
        sessions: dict[str, AdaptiveSamplingSession] = {}
        for name in self.catalog.names():
            shard = self._shards.get(name)
            live = shard.session if shard is not None else None
            sessions[name] = live if live is not None else self._open(name, model)
        with ExitStack() as stack:
            for session in sessions.values():
                stack.enter_context(session.atomic())
            allocation = self.allocator.run(list(sessions.values()))
        return sessions, allocation

    def fit(self, model: DetectionModel) -> CorpusPipeline:
        """Sample every sequence under the budget policy; build shards.

        A :meth:`replan` over an empty shard map: every shard is opened
        fresh and nothing carries over.
        """
        self._shards = {}
        self.replan(model)
        return self

    def install(
        self, name: str, model: DetectionModel, session: AdaptiveSamplingSession
    ) -> MASTPipeline:
        """Adopt ``session``'s run as ``name``'s shard and return it.

        :meth:`MASTPipeline.fit_from_sampling` over the catalog's sequence;
        a new shard is opened on the run's ledger.
        """
        sampling = session.result()
        shard = self._shards.get(name)
        if shard is None:
            shard = MASTPipeline(self.config, engine=self.engine)
            # The shard's ledger is the session's, so each sequence's
            # sampling, indexing and query costs roll up in one place.
            shard.ledger = sampling.ledger
            self._shards[name] = shard
        return shard.fit_from_sampling(
            self.catalog.sequence(name), model, sampling, session=session
        )

    def replan(self, model: DetectionModel) -> AllocationReport:
        """Re-run the budget plan over the (possibly grown) catalog.

        Every shard adopts its fresh sampling (:meth:`install`), which
        makes the post-replan corpus bit-identical to a from-scratch :meth:`fit`
        on the same catalog state: sessions re-derive their RNG streams
        from ``(seed, sequence name)`` and the allocator re-derives its
        own from ``(seed, "corpus-allocator")``, so the plan is a pure
        function of the catalog — carried detections only remove the
        deep-model bill for frames an earlier epoch already paid for.
        Sequences registered since the last plan gain a shard.
        """
        sessions, allocation = self.plan(model)
        for name, session in sessions.items():
            self.install(name, model, session)
        self.allocation = allocation
        return allocation

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Sequence names, in catalog order."""
        return self.catalog.names()

    @property
    def shards(self) -> dict[str, MASTPipeline]:
        """Sequence name -> fitted per-sequence pipeline."""
        require(bool(self._shards), "fit() must be called before using shards")
        return dict(self._shards)

    def shard(self, name: str) -> MASTPipeline:
        """The fitted pipeline of one sequence."""
        require(bool(self._shards), "fit() must be called before using shards")
        require_sequence(name, self._shards)
        return self._shards[name]

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(query: object) -> ScopedQuery:
        """Any accepted query input as a :class:`ScopedQuery` (texts parse once)."""
        if isinstance(query, str):
            return parse_scoped_query(query)
        if isinstance(query, ScopedQuery):
            return query
        if isinstance(
            query, (RetrievalQuery, CompoundRetrievalQuery, AggregateQuery)
        ):
            return ScopedQuery(query)
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def query(self, query: object) -> CorpusResult:
        """Answer one (possibly scoped) query.

        A named scope returns the shard's plain result; an unscoped
        query fans out over every sequence in catalog order and returns
        the merged corpus result.
        """
        scoped = self._coerce(query)
        if scoped.sequence is not None:
            return self.shard(scoped.sequence).query(scoped.query)
        per_shard = {
            name: self.shard(name).query(scoped.query) for name in self.names
        }
        return merge(scoped.query, per_shard)

    def query_many(self, queries) -> list[CorpusResult]:
        """Answer a list of (possibly scoped) queries in order."""
        return [self.query(q) for q in queries]

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def merged_ledger(self) -> CostLedger:
        """The corpus ledger and every shard's, merged into a fresh one."""
        merged = CostLedger()
        merged.merge(self.ledger)
        for shard in self._shards.values():
            merged.merge(shard.ledger)
        return merged

    def cost_summary(self) -> dict[str, float]:
        """Stage -> seconds rolled up across every shard."""
        return self.merged_ledger().summary()

    def cost_summary_by_sequence(self) -> dict[str, dict[str, float]]:
        """Per-sequence stage -> seconds summaries."""
        return {
            name: shard.ledger.summary() for name, shard in self._shards.items()
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op: the corpus owns nothing to release.

        Kept with the ``with`` protocol for callers that scope a corpus
        to a block (``benchmarks/observatory`` calls it by name).
        """

    def __enter__(self) -> CorpusPipeline:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = sorted(self._shards) if self._shards else "unfitted"
        return (
            f"CorpusPipeline(sequences={list(self.names)}, "
            f"policy={self.allocator.name!r}, shards={fitted})"
        )

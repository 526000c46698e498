"""Differential pin: a sharded corpus service answers as the corpus does.

A corpus of one sequence is checked against the executable spec of the
paper (``tests/spec/test_differential.py``); this file keeps the
multi-sequence case, where scoped and fanned-out answers from
``CorpusQueryService`` must equal ``CorpusPipeline.query``.
"""

from __future__ import annotations

import numpy as np

from repro.corpus import CorpusPipeline
from repro.query.ast import AggregateResult, RetrievalResult
from repro.query.workload import generate_workload


def _assert_same_answer(got, want, text):
    if isinstance(want, AggregateResult):
        assert got.value == want.value, text
        assert np.array_equal(got.counts, want.counts), text
    else:
        assert isinstance(want, RetrievalResult)
        assert np.array_equal(got.frame_ids, want.frame_ids), text


class TestShardedServingEquivalence:
    def test_service_matches_direct_queries(self, catalog, config, model):
        from repro.corpus import CorpusQueryService

        workload = generate_workload(rng=config.seed)
        names = None
        with CorpusPipeline(catalog, config, policy="ucb") as corpus:
            corpus.fit(model)
            names = corpus.names
            texts = []
            for position, query in enumerate(workload.all_queries()):
                text = query.describe()
                which = position % (len(names) + 1)
                if which < len(names):
                    text = f"{text} IN SEQUENCE {names[which]}"
                texts.append(text)
            direct = [corpus.query(text) for text in texts]
            with CorpusQueryService(corpus) as service:
                batched = service.execute_batch(texts)
                singles = [service.execute(text) for text in texts]
        for text, got in zip(texts, batched):
            want = direct[texts.index(text)]
            if hasattr(want, "by_sequence"):  # corpus fan-out results
                if hasattr(want, "value"):
                    assert got.value == want.value, text
                else:
                    assert got.id_set() == want.id_set(), text
            else:
                _assert_same_answer(got, want, text)
        for got, want, text in zip(singles, batched, texts):
            if hasattr(want, "by_sequence") and not hasattr(want, "value"):
                assert got.id_set() == want.id_set(), text
            elif hasattr(want, "value"):
                assert got.value == want.value, text
            else:
                _assert_same_answer(got, want, text)

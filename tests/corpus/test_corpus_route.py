"""One route for every corpus request (thread backend).

``CorpusQueryService.execute`` / ``execute_many`` regroup a mixed
scoped/fan-out list into per-shard sub-batches; each shard must still
see exactly the lookups, in the order, a per-query loop over the shard
services makes.  And a scope naming no sequence fails the same way, and
changes nothing, through every entry point that takes a scoped query.
"""

from __future__ import annotations

import pytest

from repro.core.config import MASTConfig
from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
from repro.corpus.results import merge
from repro.models import pv_rcnn
from repro.query.parser import parse_scoped_query
from repro.simulation import semantickitti_like
from repro.streaming import ScheduledFrameSource, StreamingCorpusService
from repro.utils.timing import STAGE_QUERY
from tests.streaming.harness import assert_same_corpus_answer

LEDGER_FIELDS = ("counts", "simulated")


def _texts(names: tuple[str, ...]) -> list[str]:
    """Scoped and fan-out texts interleaved; filters repeat across them."""
    bodies = [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car)",
        "SELECT MED OF COUNT(Car DIST <= 20)",
        "SELECT FRAMES WHERE COUNT(Car) >= 2 AND COUNT(Pedestrian) >= 1",
    ]
    texts = []
    for index, body in enumerate(bodies):
        texts += [f"{body} IN SEQUENCE {names[index % len(names)]}", body]
        texts.append(f"{body} IN SEQUENCE {names[(index + 1) % len(names)]}")
    return texts


def _state(service: CorpusQueryService) -> tuple[dict, dict]:
    """Per-shard query-ledger fields and cache counters."""
    ledgers = {
        name: {
            field: getattr(service.service(name).ledger, field)[STAGE_QUERY]
            for field in LEDGER_FIELDS
        }
        for name in service.names
    }
    return ledgers, {name: service.service(name).cache_stats() for name in service.names}


def _per_query_loop(service: CorpusQueryService, texts: list[str]) -> list:
    """The reference: each query in turn, shard by shard in catalog order."""
    answers = []
    for text in texts:
        scoped = parse_scoped_query(text)
        if scoped.sequence is not None:
            answers.append(service.service(scoped.sequence).execute(scoped.query))
        else:
            per_shard = {
                name: service.service(name).execute(scoped.query)
                for name in service.names
            }
            answers.append(merge(scoped.query, per_shard))
    return answers


def test_serial_calls_match_a_per_query_loop(catalog, config, model):
    """Three fits of one catalog are the same corpus: fresh ledgers and caches."""
    runs = {
        "execute_many": lambda service, texts: service.execute_many(texts),
        "execute": lambda service, texts: [service.execute(t) for t in texts],
        "reference": _per_query_loop,
    }
    answers, states = {}, {}
    for label, run in runs.items():
        with CorpusPipeline(catalog, config, policy="uniform") as corpus:
            service = CorpusQueryService(corpus.fit(model))
            texts = _texts(service.names)
            answers[label] = run(service, texts)
            states[label] = _state(service)
    for label in ("execute_many", "execute"):
        for text, got, want in zip(texts, answers[label], answers["reference"]):
            assert_same_corpus_answer(got, want, f"{label}: {text}")
        assert states[label] == states["reference"], label


FAN_OUT = "SELECT AVG OF COUNT(Car)"

#: Every entry point that takes a scoped query, as
#: ``call(corpus, service, stream, text)``; ``text`` names no sequence,
#: and the list-taking calls get a valid query before it.
ENTRY_POINTS = {
    "CorpusPipeline.query": lambda corpus, service, stream, text: corpus.query(text),
    "CorpusQueryService.execute": lambda corpus, service, stream, text: service.execute(text),
    "CorpusQueryService.execute_many": (
        lambda corpus, service, stream, text: service.execute_many([FAN_OUT, text])
    ),
    "CorpusQueryService.execute_batch": (
        lambda corpus, service, stream, text: service.execute_batch([FAN_OUT, text])
    ),
    "StreamingCorpusService.execute": lambda corpus, service, stream, text: stream.execute(text),
    "StreamingCorpusService.execute_batch": (
        lambda corpus, service, stream, text: stream.execute_batch([FAN_OUT, text])
    ),
}


@pytest.fixture(scope="module")
def stack():
    """One batch corpus + service and one stream over the same two drives."""
    config, model = MASTConfig(budget_fraction=0.15, seed=7), pv_rcnn(seed=5)
    drives = [semantickitti_like(index, n_frames=24, with_points=False) for index in (0, 1)]
    catalog = SequenceCatalog()
    for drive in drives:
        catalog.register_sequence(drive)
    source = ScheduledFrameSource(drives, initial_frames=12)
    with CorpusPipeline(catalog, config, policy="uniform") as corpus:
        with CorpusQueryService(corpus.fit(model)) as service:
            with StreamingCorpusService(source, model, config, replan_every=4) as stream:
                stream.pump(max_events=6)
                yield corpus, service, stream


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_scope_fails_alike_and_changes_nothing(stack, entry):
    corpus, service, stream = stack
    names = sorted(corpus.names)
    assert sorted(stream.names) == names

    def counters():
        return (
            corpus.merged_ledger().deterministic_state(),
            [service.service(name).cache_stats() for name in names],
            stream.cost_ledger().deterministic_state(),
            stream.cache_stats(),
        )

    before = counters()
    text = "SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE nope"
    with pytest.raises(ValueError) as raised:
        ENTRY_POINTS[entry](corpus, service, stream, text)
    assert str(raised.value) == f"unknown sequence 'nope'; corpus has {names}"
    assert counters() == before

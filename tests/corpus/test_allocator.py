"""Budget allocators: equal-total-spend invariant and reports."""

from __future__ import annotations

import pytest

from repro.core.config import MASTConfig
from repro.core.sampler import HierarchicalMultiAgentSampler
from repro.corpus import SequenceCatalog, make_allocator
from repro.corpus.allocator import UCBAllocator, UniformAllocator
from repro.evalx import run_corpus_experiment
from repro.inference import InferenceEngine
from repro.models import pv_rcnn
from tests.streaming.harness import heterogeneous_specs


def _open_sessions(catalog, config, model, allocator, engine):
    sampler = HierarchicalMultiAgentSampler(config)
    return [
        sampler.session(
            catalog.sequence(name),
            model,
            engine=engine,
            budget=allocator.session_budget(len(catalog.sequence(name))),
        )
        for name in catalog.names()
    ]


@pytest.fixture()
def engine(config):
    with InferenceEngine.from_config(config) as engine:
        yield engine


class TestUniformAllocator:
    def test_each_sequence_spends_its_paper_budget(
        self, catalog, config, model, engine
    ):
        allocator = UniformAllocator()
        sessions = _open_sessions(catalog, config, model, allocator, engine)
        report = allocator.run(sessions)
        for name in catalog.names():
            expected = config.budget_for(catalog.n_frames(name))
            assert report.frames_by_sequence[name] == expected
        assert report.policy == "uniform"

    def test_session_budget_defaults_to_paper_budget(self):
        assert UniformAllocator().session_budget(100) is None


class TestUCBAllocator:
    def test_total_spend_equals_uniform_total(
        self, catalog, config, model, engine
    ):
        uniform_total = sum(
            config.budget_for(catalog.n_frames(name))
            for name in catalog.names()
        )
        allocator = UCBAllocator(config, round_size=4)
        sessions = _open_sessions(catalog, config, model, allocator, engine)
        report = allocator.run(sessions)
        assert report.total_frames == uniform_total

    def test_a_session_over_its_budget_shrinks_the_pool(
        self, catalog, config, model, engine
    ):
        """A live session an earlier run gave more than its paper budget
        counts its surplus against the shared pool, so the corpus never
        spends past its budget."""
        allocator = UCBAllocator(config, round_size=4)
        over, *rest = _open_sessions(catalog, config, model, allocator, engine)
        surplus = 3
        over.step(over.base_budget - over.frames_sampled + surplus)
        assert over.frames_sampled == over.base_budget + surplus
        owed = sum(s.base_budget - s.frames_sampled for s in rest)
        assert owed > surplus

        report = allocator.run([over, *rest])
        assert sum(report.adaptive_by_sequence.values()) == owed - surplus
        assert report.total_frames == sum(
            config.budget_for(catalog.n_frames(name)) for name in catalog.names()
        )

    def test_sessions_open_at_capacity(self, config):
        allocator = UCBAllocator(config)
        assert allocator.session_budget(100) == 100
        # Tiny sequences still satisfy the session's minimum budget.
        assert allocator.session_budget(1) == 2

    def test_round_size_validated(self, config):
        with pytest.raises(ValueError, match="round_size"):
            UCBAllocator(config, round_size=0)

    def test_runs_are_deterministic(self, catalog, config, model, engine):
        def run_once():
            allocator = UCBAllocator(config, round_size=4)
            sessions = _open_sessions(
                catalog, config, model, allocator, engine
            )
            return allocator.run(sessions).frames_by_sequence

        assert run_once() == run_once()


class TestAllocationReport:
    def test_report_is_internally_consistent(
        self, catalog, config, model, engine
    ):
        allocator = UCBAllocator(config, round_size=4)
        sessions = _open_sessions(catalog, config, model, allocator, engine)
        report = allocator.run(sessions)
        for name in catalog.names():
            assert report.frames_by_sequence[name] == (
                report.uniform_by_sequence[name]
                + report.adaptive_by_sequence[name]
            )
            assert report.adaptive_by_sequence[name] >= 0
        assert report.total_frames == sum(
            report.frames_by_sequence.values()
        )
        assert report.rounds >= 1

    def test_as_dict_and_describe(self, catalog, config, model, engine):
        allocator = UniformAllocator()
        sessions = _open_sessions(catalog, config, model, allocator, engine)
        report = allocator.run(sessions)
        payload = report.as_dict()
        assert payload["policy"] == "uniform"
        assert payload["total_frames"] == report.total_frames
        assert set(payload["frames_by_sequence"]) == set(catalog.names())
        text = report.describe()
        for name in catalog.names():
            assert name in text


class TestMakeAllocator:
    def test_builds_by_name(self, config):
        assert isinstance(
            make_allocator("uniform", config), UniformAllocator
        )
        ucb = make_allocator("ucb", config, round_size=3)
        assert isinstance(ucb, UCBAllocator)
        assert ucb.round_size == 3

    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ValueError, match="policy"):
            make_allocator("greedy", config)


def test_ucb_error_no_worse_than_uniform_at_equal_spend():
    """Why the root-level agent exists: where sequences differ in what
    an adaptive frame earns, pooling the budget answers corpus-wide
    aggregates no worse than the per-sequence split, at the same
    detector spend (measured 0.0607 vs 0.0733)."""
    catalog = SequenceCatalog()
    for spec in heterogeneous_specs(360, 240):
        catalog.register(spec)
    report = run_corpus_experiment(
        catalog,
        pv_rcnn(seed=5),
        config=MASTConfig(budget_fraction=0.10, seed=1),
        retrieval_queries=(),
    )
    ucb, uniform = report["ucb"], report["uniform"]
    assert ucb.total_frames == uniform.total_frames == 96
    assert ucb.aggregate_error <= uniform.aggregate_error

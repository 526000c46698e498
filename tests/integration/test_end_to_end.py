"""Integration tests: the full pipeline against the Oracle reference.

These exercise the paper's headline claims at small scale: approximate
answers close to the Oracle's, adaptive methods beating trivial
sampling, and the cost structure (deep model ~ budget fraction of the
Oracle's cost).
"""

import numpy as np
import pytest

from repro.baselines import MAST, OracleCountProvider, available_methods, get_method
from repro.core import (
    LinearCountProvider,
    MASTConfig,
    MASTIndex,
    MASTPipeline,
)
from repro.evalx import MethodExecutor, f1_score
from repro.models import pv_rcnn
from repro.query import (
    AGGREGATE_OPERATORS,
    AggregateQuery,
    QueryEngine,
    RetrievalResult,
    generate_workload,
    register_aggregate,
)
from repro.query.engine import evaluate_query
from repro.simulation import semantickitti_like


@pytest.fixture(scope="module")
def sequence():
    return semantickitti_like(0, n_frames=800, with_points=False)


@pytest.fixture(scope="module")
def model():
    return pv_rcnn(seed=5)


@pytest.fixture(scope="module")
def oracle(sequence, model):
    return OracleCountProvider(sequence, model)


@pytest.fixture(scope="module")
def pipeline(sequence, model):
    return MASTPipeline(MASTConfig(seed=7)).fit(sequence, model)


class TestAccuracyAgainstOracle:
    def test_retrieval_f1_reasonable(self, pipeline, oracle):
        engine = QueryEngine(oracle)
        scores = []
        for text in [
            "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
            "SELECT FRAMES WHERE COUNT(Car DIST <= 15) >= 2",
            "SELECT FRAMES WHERE COUNT(Car DIST >= 10) >= 3",
        ]:
            truth = engine.execute(text)
            predicted = pipeline.query(text)
            if truth.cardinality:
                scores.append(f1_score(predicted.id_set(), truth.id_set()))
        assert np.mean(scores) > 0.7

    def test_avg_accuracy(self, pipeline, oracle):
        engine = QueryEngine(oracle)
        text = "SELECT AVG OF COUNT(Car DIST <= 20)"
        truth = engine.execute(text).value
        predicted = pipeline.query(text).value
        assert predicted == pytest.approx(truth, rel=0.15)

    def test_med_accuracy(self, pipeline, oracle):
        engine = QueryEngine(oracle)
        text = "SELECT MED OF COUNT(Car DIST >= 5)"
        truth = engine.execute(text).value
        predicted = pipeline.query(text).value
        assert abs(predicted - truth) <= max(1.5, 0.3 * truth)

    def test_count_accuracy(self, pipeline, oracle):
        engine = QueryEngine(oracle)
        text = "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 1"
        truth = engine.execute(text).value
        predicted = pipeline.query(text).value
        assert predicted == pytest.approx(truth, rel=0.25)


class TestCostStructure:
    def test_sampling_cost_is_budget_fraction_of_oracle(self, pipeline, oracle):
        """Paper Fig. 5: methods save ~90 % of Oracle model time at 10 %."""
        method_model_time = pipeline.ledger.total("deep_model")
        oracle_model_time = oracle.ledger.total("deep_model")
        assert method_model_time == pytest.approx(0.1 * oracle_model_time, rel=0.05)

    def test_overall_speedup_order_of_magnitude(self, pipeline, oracle):
        method_total = pipeline.ledger.grand_total
        oracle_total = oracle.ledger.grand_total
        assert oracle_total / method_total > 5.0


def _hand_wired_engines(spec, sequence, model, config):
    """query -> answer with no pipeline and no cache: providers -> ``evaluate_query``.

    The floored-linear retrieval series is floored here, by hand.
    """
    if spec.is_oracle:
        oracle = OracleCountProvider(sequence, model)
        return lambda query: evaluate_query(query, oracle.count_series, len(sequence))
    sampling = spec.make_sampler(config).sample(sequence, model)
    linear = LinearCountProvider(sampling)
    series = {
        "linear": linear.count_series,
        "linear_floor": lambda object_filter: np.floor(linear.count_series(object_filter)),
    }
    if "st" in (spec.retrieval_predictor, *spec.predictor_by_operator.values()):
        series["st"] = MASTIndex.build(sampling, config).count_series
    retrieval = "st" if spec.retrieval_predictor == "st" else "linear_floor"
    unnamed = "st" if "st" in series else "linear"  # the pre-PR-23 executor's rule
    return lambda query: evaluate_query(
        query,
        series[
            spec.predictor_by_operator.get(query.operator, unnamed)
            if isinstance(query, AggregateQuery) else retrieval
        ],
        len(sequence),
    )


@pytest.fixture
def range_operator():
    """An aggregate operator no method spec's assignment names."""
    register_aggregate(
        "Range", lambda counts, _pred: float(np.ptp(counts)), overwrite=True
    )
    yield "Range"
    del AGGREGATE_OPERATORS["Range"]


class TestMethodExecutor:
    @pytest.mark.parametrize("name", available_methods())
    def test_matches_hand_wired_reference(self, name, model, range_operator):
        spec = get_method(name)
        sequence = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=7)
        workload = generate_workload(rng=7)
        queries = workload.all_queries() + [
            AggregateQuery(workload.aggregates[0].object_filter, range_operator)
        ]
        executor = MethodExecutor(spec, sequence, model, config)
        reference = _hand_wired_engines(spec, sequence, model, config)
        for query in queries:
            got, want = executor.execute(query), reference(query)
            if isinstance(want, RetrievalResult):
                assert np.array_equal(got.frame_ids, want.frame_ids), query.describe()
            else:
                assert got.value == want.value, query.describe()
                assert np.array_equal(got.counts, want.counts), query.describe()
        if "st" not in (spec.retrieval_predictor, *spec.predictor_by_operator.values()):
            assert executor.ledger.total("indexing") == 0.0
        elif not spec.is_oracle:
            assert executor.ledger.total("indexing") > 0.0


class TestAdaptiveBeatsNaive:
    def test_mast_beats_random_on_retrieval(self, sequence, model, oracle):
        """Averaged over a workload, adaptive sampling should not lose to
        random sampling with the same budget."""
        from repro.baselines import RANDOM_LINEAR

        engine = QueryEngine(oracle)
        workload = generate_workload(rng=0)
        queries = [
            q for q in workload.retrieval
            if engine.execute(q).cardinality > 0
        ][::4]  # subsample for speed

        def mean_f1(spec, seed):
            executor = MethodExecutor(spec, sequence, model, MASTConfig(seed=seed))
            scores = []
            for query in queries:
                truth = engine.execute(query)
                predicted = executor.execute(query)
                scores.append(f1_score(predicted.id_set(), truth.id_set()))
            return float(np.mean(scores))

        mast = np.mean([mean_f1(MAST, s) for s in (1, 2, 3)])
        random_baseline = np.mean([mean_f1(RANDOM_LINEAR, s) for s in (1, 2, 3)])
        assert mast > random_baseline - 0.02

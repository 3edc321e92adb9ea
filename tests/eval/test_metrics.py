"""Tests for the alignment metrics (H@k, MRR) and the evaluator."""

import numpy as np
import pytest

from repro.eval import (
    AlignmentMetrics,
    Evaluator,
    evaluate_alignment,
    hits_at_k,
    mean_reciprocal_rank,
    ranks_from_similarity,
    time_callable,
)


@pytest.fixture
def perfect_similarity():
    """Similarity where gold pairs (i, i) always score highest."""
    similarity = np.full((5, 5), -1.0)
    np.fill_diagonal(similarity, 1.0)
    return similarity


@pytest.fixture
def identity_test_pairs():
    return np.array([[i, i] for i in range(5)])


class TestRanks:
    def test_perfect_similarity_gives_rank_one(self, perfect_similarity, identity_test_pairs):
        ranks = ranks_from_similarity(perfect_similarity, identity_test_pairs)
        assert np.all(ranks == 1)

    def test_worst_case_rank(self, identity_test_pairs):
        similarity = np.eye(5) * -1.0 + 0.5
        ranks = ranks_from_similarity(similarity, identity_test_pairs)
        assert np.all(ranks == 5)

    def test_candidates_restricted_to_test_targets(self):
        similarity = np.zeros((4, 4))
        similarity[0, 3] = 1.0   # a non-test target with a huge score
        similarity[0, 1] = 0.5
        similarity[0, 2] = 0.1
        test_pairs = np.array([[0, 1], [2, 2]])
        ranks = ranks_from_similarity(similarity, test_pairs, restrict_candidates=True)
        # Entity 3 is not a candidate, so the gold target (1) ranks first.
        assert ranks[0] == 1

    def test_unrestricted_candidates_include_all_targets(self):
        similarity = np.zeros((4, 4))
        similarity[0, 3] = 1.0
        similarity[0, 1] = 0.5
        test_pairs = np.array([[0, 1]])
        ranks = ranks_from_similarity(similarity, test_pairs, restrict_candidates=False)
        assert ranks[0] == 2

    def test_tie_handling_is_deterministic(self):
        similarity = np.zeros((2, 2))
        test_pairs = np.array([[0, 0], [1, 1]])
        ranks = ranks_from_similarity(similarity, test_pairs)
        assert ranks[0] == 1       # gold candidate is the first among ties
        assert ranks[1] == 2

    def test_rejects_malformed_pairs(self):
        with pytest.raises(ValueError):
            ranks_from_similarity(np.zeros((3, 3)), np.array([1, 2, 3]))


class TestMetricValues:
    def test_hits_at_k(self):
        ranks = np.array([1, 2, 3, 11, 30])
        assert hits_at_k(ranks, 1) == pytest.approx(0.2)
        assert hits_at_k(ranks, 10) == pytest.approx(0.6)
        assert hits_at_k(ranks, 100) == pytest.approx(1.0)

    def test_mrr(self):
        ranks = np.array([1, 2, 4])
        assert mean_reciprocal_rank(ranks) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_empty_inputs(self):
        assert hits_at_k(np.array([]), 1) == 0.0
        assert mean_reciprocal_rank(np.array([])) == 0.0

    def test_metric_ordering_invariant(self):
        ranks = np.random.default_rng(0).integers(1, 50, size=100)
        h1, h10 = hits_at_k(ranks, 1), hits_at_k(ranks, 10)
        mrr = mean_reciprocal_rank(ranks)
        assert 0.0 <= h1 <= h10 <= 1.0
        assert h1 <= mrr <= 1.0


class TestEvaluateAlignment:
    def test_perfect_alignment(self, perfect_similarity, identity_test_pairs):
        metrics = evaluate_alignment(perfect_similarity, identity_test_pairs)
        assert metrics.hits_at_1 == 1.0
        assert metrics.hits_at_10 == 1.0
        assert metrics.mrr == 1.0
        assert metrics.num_queries == 5

    def test_empty_test_pairs(self):
        metrics = evaluate_alignment(np.zeros((3, 3)), np.empty((0, 2)))
        assert metrics == AlignmentMetrics(0.0, 0.0, 0.0, 0)

    def test_as_dict_and_str(self, perfect_similarity, identity_test_pairs):
        metrics = evaluate_alignment(perfect_similarity, identity_test_pairs)
        assert metrics.as_dict() == {"H@1": 1.0, "H@10": 1.0, "MRR": 1.0}
        assert "H@1=100.0" in str(metrics)


class TestEvaluatorAndTiming:
    def test_evaluator_on_prepared_task(self, tiny_task):
        evaluator = Evaluator(tiny_task)
        num_source = tiny_task.source.num_entities
        num_target = tiny_task.target.num_entities
        # Oracle similarity: put 1.0 exactly at gold test positions.
        similarity = np.zeros((num_source, num_target))
        for source_id, target_id in tiny_task.test_pairs:
            similarity[source_id, target_id] = 1.0
        metrics = evaluator.evaluate_similarity(similarity)
        assert metrics.hits_at_1 == 1.0

    def test_evaluator_accepts_models_without_propagation_kwarg(self, tiny_task):
        class DummyModel:
            """No propagation decoder: ``use_propagation`` is ignored."""

            def decode_states(self, use_propagation=False, encode="full",
                              encode_batch_size=None):
                rng = np.random.default_rng(0)
                return ([rng.normal(size=(tiny_task.source.num_entities, 4))],
                        [rng.normal(size=(tiny_task.target.num_entities, 4))])

        metrics = Evaluator(tiny_task).evaluate_model(DummyModel())
        assert 0.0 <= metrics.mrr <= 1.0

    def test_time_callable_returns_result_and_duration(self):
        timing, value = time_callable("square", lambda x: x * x, 7)
        assert value == 49
        assert timing.seconds >= 0.0
        assert timing.label == "square"
        assert "total_seconds" in timing.as_dict()

"""Unit tests for the blockwise top-k similarity decoding engine."""

import numpy as np
import pytest

from oracles import reference_csls, reference_mutual_pairs, reference_topk
from repro.core import DESAlign, DESAlignConfig
from repro.core.alignment import (
    cosine_similarity,
    csls_similarity,
    greedy_one_to_one,
    mutual_nearest_pairs,
)
from repro.core.similarity import (
    DENSE_DECODE_CELL_LIMIT,
    TopKSimilarity,
    blockwise_topk,
    decode_similarity,
    resolve_decode,
)
from repro.eval.evaluator import Evaluator
from repro.eval.metrics import evaluate_alignment, ranks_from_similarity


@pytest.fixture
def embeddings():
    rng = np.random.default_rng(5)
    return rng.normal(size=(23, 6)), rng.normal(size=(17, 6))


class TestResolveDecode:
    def test_explicit_modes_pass_through(self):
        assert resolve_decode("dense", (10**6, 10**6)) == "dense"
        assert resolve_decode("blockwise", (2, 2)) == "blockwise"

    def test_auto_switches_on_cell_count(self):
        assert resolve_decode("auto", (100, 100)) == "dense"
        big = int(np.sqrt(DENSE_DECODE_CELL_LIMIT)) + 1
        assert resolve_decode("auto", (big, big)) == "blockwise"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            resolve_decode("streamed", (2, 2))


class TestBlockwiseTopK:
    def test_shapes_and_ordering(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=5, block_size=4, csls_k=3)
        assert topk.shape == (23, 17)
        assert topk.indices.shape == topk.scores.shape == (23, topk.k)
        # Scores descend; ties (none here) would break by ascending id.
        assert np.all(np.diff(topk.scores, axis=1) <= 1e-15)

    def test_matches_dense_cosine(self, embeddings):
        source, target = embeddings
        dense = cosine_similarity(source, target)
        for block_size in (1, 4, 23, 100):
            topk = blockwise_topk(source, target, k=6, block_size=block_size)
            _, expected_scores = reference_topk(dense, topk.k)
            assert np.allclose(topk.scores, expected_scores, atol=1e-12)
            assert np.array_equal(topk.col_argmax, dense.argmax(axis=0))
            assert np.allclose(topk.col_max, dense.max(axis=0), atol=1e-12)

    def test_k_larger_than_targets_stores_full_rows(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=99, block_size=7)
        assert topk.k == 17
        assert topk.is_exhaustive()
        dense = cosine_similarity(source, target)
        assert np.allclose(topk.dense(), dense, atol=1e-12)

    def test_row_scores_fallback_matches_dense(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=3, block_size=6)
        dense = cosine_similarity(source, target)
        for row in (0, 11, 22):
            assert np.allclose(topk.row_scores(row), dense[row], atol=1e-12)

    def test_round_averaging_matches_dense_mean(self):
        rng = np.random.default_rng(9)
        sources = [rng.normal(size=(12, 4)) for _ in range(3)]
        targets = [rng.normal(size=(10, 4)) for _ in range(3)]
        dense = np.mean([cosine_similarity(s, t) for s, t in zip(sources, targets)],
                        axis=0)
        topk = blockwise_topk(sources, targets, k=10, block_size=5)
        assert np.allclose(topk.dense(), dense, atol=1e-12)

    def test_mismatched_round_counts_rejected(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError):
            blockwise_topk([source, source], [target], k=3)

    def test_float32_option_is_close_and_compact(self, embeddings):
        source, target = embeddings
        exact = blockwise_topk(source, target, k=5, block_size=8)
        fast = blockwise_topk(source, target, k=5, block_size=8, dtype=np.float32)
        assert fast._source_norm[0].dtype == np.float32
        assert np.abs(exact.scores - fast.scores).max() < 1e-5

    def test_columns_restriction(self, embeddings):
        source, target = embeddings
        columns = np.array([0, 2, 5, 11, 16])
        topk = blockwise_topk(source, target, k=3, block_size=4, columns=columns)
        dense = cosine_similarity(source, target)[:, columns]
        _, expected_scores = reference_topk(dense, topk.k)
        assert np.allclose(topk.scores, expected_scores, atol=1e-12)
        for row in range(23):
            assert set(topk.indices[row]) <= set(columns.tolist())
        assert topk.shape == (23, 17)

    def test_unsorted_columns_rejected(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=3, columns=np.array([4, 1]))

    def test_invalid_parameters_rejected(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=0)
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=2, block_size=0)
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=2, csls_k=0)


class TestTopKReductions:
    def test_csls_scores_match_dense_kept_entries(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=4, block_size=6, csls_k=5)
        dense_csls = reference_csls(cosine_similarity(source, target), k=5)
        rows = np.arange(topk.shape[0])[:, None]
        assert np.allclose(topk.csls_scores(), dense_csls[rows, topk.indices],
                           atol=1e-12)

    def test_mutual_pairs_match_dense(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        dense = cosine_similarity(source, target)
        for threshold in (-1.0, 0.0, 0.25):
            assert topk.mutual_nearest_pairs(threshold) == \
                reference_mutual_pairs(dense, threshold)
        assert topk.mutual_nearest_pairs(0.0, exclude_source={0, 3},
                                         exclude_target={1}) == \
            reference_mutual_pairs(dense, 0.0, exclude_source={0, 3},
                                   exclude_target={1})

    def test_dispatch_through_alignment_helper(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        dense = cosine_similarity(source, target)
        assert mutual_nearest_pairs(topk) == reference_mutual_pairs(dense)

    def test_full_matrix_helpers_reject_topk_with_guidance(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        with pytest.raises(TypeError, match="csls_scores"):
            csls_similarity(topk)
        with pytest.raises(TypeError, match="dense"):
            greedy_one_to_one(topk)

    def test_decode_similarity_helper_matches_both_paths(self, embeddings):
        source, target = embeddings
        dense = decode_similarity(source, target, decode="dense")
        assert np.allclose(dense, cosine_similarity(source, target), atol=1e-12)
        topk = decode_similarity(source, target, decode="blockwise", k=4,
                                 block_size=6)
        assert isinstance(topk, TopKSimilarity)
        assert np.allclose(topk.dense(), dense, atol=1e-12)
        # Auto follows the cell threshold.
        assert isinstance(decode_similarity(source, target), np.ndarray)


class TestTopKRanks:
    def test_ranks_match_dense_with_fallback(self, embeddings):
        source, target = embeddings
        rng = np.random.default_rng(3)
        pairs = np.stack([rng.choice(23, size=9, replace=False),
                          rng.choice(17, size=9, replace=False)], axis=1)
        dense = cosine_similarity(source, target)
        # k=1 forces the gold outside the stored top-k for most rows, so the
        # exactness fallback carries the ranking.
        for k in (1, 3, 50):
            topk = blockwise_topk(source, target, k=k, block_size=4)
            for restrict in (True, False):
                assert np.array_equal(
                    ranks_from_similarity(topk, pairs, restrict),
                    ranks_from_similarity(dense, pairs, restrict)), (k, restrict)

    def test_metrics_match_dense(self, embeddings):
        source, target = embeddings
        pairs = np.array([[0, 1], [5, 5], [9, 12], [20, 16]])
        dense = cosine_similarity(source, target)
        topk = blockwise_topk(source, target, k=10, block_size=6)
        assert evaluate_alignment(topk, pairs) == evaluate_alignment(dense, pairs)

    def test_restricted_decode_serves_restricted_evaluation(self, embeddings):
        source, target = embeddings
        pairs = np.array([[1, 2], [4, 7], [8, 13]])
        candidates = np.unique(pairs[:, 1])
        topk = blockwise_topk(source, target, k=2, block_size=4, columns=candidates)
        dense = cosine_similarity(source, target)
        assert np.array_equal(ranks_from_similarity(topk, pairs, True),
                              ranks_from_similarity(dense, pairs, True))

    def test_restricted_decode_rejects_uncovered_candidates(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, columns=np.array([1, 2]))
        with pytest.raises(ValueError):
            ranks_from_similarity(topk, np.array([[0, 5]]), True)
        with pytest.raises(ValueError):
            ranks_from_similarity(topk, np.array([[0, 1]]), False)


class TestModelDecode:
    def test_similarity_decode_switch(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        states = model.decode_states()
        dense = decode_similarity(*states, decode="dense")
        assert isinstance(dense, np.ndarray)
        topk = decode_similarity(*states, decode="blockwise", k=10, block_size=7)
        assert isinstance(topk, TopKSimilarity)
        # Auto stays dense below the cell threshold on this tiny task.
        assert isinstance(decode_similarity(*states), np.ndarray)
        metrics_dense = evaluate_alignment(dense, tiny_task.test_pairs)
        metrics_topk = evaluate_alignment(topk, tiny_task.test_pairs)
        assert abs(metrics_dense.mrr - metrics_topk.mrr) < 1e-9
        assert np.abs(topk.dense() - dense).max() < 1e-9

    def test_decode_topk_without_propagation(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        states = model.decode_states(use_propagation=False)
        dense = decode_similarity(*states, decode="dense")
        topk = decode_similarity(*states, decode="blockwise", k=5, block_size=9)
        assert np.abs(topk.dense() - dense).max() < 1e-9

    def test_decode_topk_respects_last_round_rule(self, tiny_task):
        config = DESAlignConfig(hidden_dim=16, seed=0, propagation_average=False)
        model = DESAlign(tiny_task, config)
        states = model.decode_states()
        dense = decode_similarity(*states, decode="dense")
        topk = decode_similarity(*states, decode="blockwise", k=5, block_size=9)
        assert np.abs(topk.dense() - dense).max() < 1e-9


class TestOneDecodeRouter:
    """Oracle: ``decode_similarity`` over ``decode_states()`` is the one
    decode every model goes through."""

    @pytest.mark.parametrize("average", [True, False])
    @pytest.mark.parametrize("use_propagation", [True, False])
    def test_dense_branch_is_bitwise_the_propagation_decoder(
            self, tiny_task, use_propagation, average):
        model = DESAlign(tiny_task, DESAlignConfig(
            hidden_dim=16, seed=0, propagation_average=average))
        routed = decode_similarity(*model.decode_states(use_propagation),
                                   decode="dense")
        oracle = model.decode(use_propagation).final_similarity(average)
        assert routed.dtype == oracle.dtype
        assert routed.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("name", ["TransE", "GCN-align", "PoE", "EVA",
                                      "MCLEA", "MEAformer", "DESAlign"])
    def test_every_model_scores_alike_dense_and_blockwise(self, tiny_task, name):
        from repro.baselines import build_model

        model = build_model(name, tiny_task)
        dense = Evaluator(tiny_task, decode="dense").evaluate_model(model)
        blockwise = Evaluator(tiny_task, decode="blockwise").evaluate_model(model)
        for key, value in dense.as_dict().items():
            assert abs(blockwise.as_dict()[key] - value) < 1e-9, key

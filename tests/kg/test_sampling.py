"""Unit tests for layer-wise neighbour sampling (repro.kg.sampling)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.kg.sampling import NeighbourSampler, SubgraphView, attention_pattern
from repro.kg.laplacian import normalized_adjacency
from repro.kg.sparse import edge_index


def _random_adjacency(n: int, density: float = 0.15, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    dense = np.triu(dense, k=1)
    dense = dense + dense.T
    matrix = sp.csr_matrix(dense)
    matrix.sort_indices()
    return matrix


class TestAttentionPattern:
    def test_matches_edge_index_with_self_loops(self):
        adjacency = _random_adjacency(25, seed=3)
        pattern = attention_pattern(adjacency)
        coo = pattern.tocoo()
        rows, cols = edge_index(adjacency, add_self_loops=True)
        assert np.array_equal(coo.row, rows)
        assert np.array_equal(coo.col, cols)
        assert np.all(pattern.data == 1.0)

    def test_accepts_dense_input(self):
        adjacency = _random_adjacency(12, seed=5)
        assert (attention_pattern(adjacency.toarray()) != attention_pattern(adjacency)).nnz == 0


class TestFullNeighbourhood:
    def test_view_structure_and_nesting(self):
        matrix = normalized_adjacency(_random_adjacency(30, seed=1))
        sampler = NeighbourSampler(matrix, (None, None))
        assert sampler.is_full_neighbourhood()
        seeds = np.array([3, 7, 7, 1])  # duplicates + unsorted on purpose
        view = sampler.sample(seeds)
        assert np.array_equal(view.seed_nodes, [1, 3, 7])
        assert view.num_layers == 2
        # node sets nest: seeds ⊆ layer-1 inputs ⊆ layer-0 inputs
        for outer, inner in zip(view.node_layers, view.node_layers[1:]):
            assert np.all(np.isin(inner, outer))
            assert np.array_equal(outer, np.unique(outer))

    def test_blocks_equal_matrix_slices(self):
        matrix = normalized_adjacency(_random_adjacency(30, seed=2))
        view = NeighbourSampler(matrix, (None, None)).sample(np.arange(5))
        dense = matrix.toarray()
        for layer_index, layer in enumerate(view.layers):
            src = view.node_layers[layer_index]
            dst = view.node_layers[layer_index + 1]
            block = layer.csr_block().toarray()
            assert np.array_equal(block, dense[np.ix_(dst, src)])
            # every output node is present in the input set
            assert np.array_equal(src[layer.dst_in_src], dst)

    def test_edges_sorted_by_dst_then_src(self):
        matrix = normalized_adjacency(_random_adjacency(40, seed=4))
        view = NeighbourSampler(matrix, (None,)).sample(np.arange(0, 40, 3))
        layer = view.layers[0]
        order = np.lexsort((layer.edge_src, layer.edge_dst))
        assert np.array_equal(order, np.arange(layer.num_edges))


class TestSampledFanout:
    def test_fanout_budget_and_self_loop_kept(self):
        pattern = attention_pattern(_random_adjacency(50, density=0.4, seed=6))
        sampler = NeighbourSampler(pattern, (3,), seed=0, rescale=False)
        view = sampler.sample(np.arange(50))
        layer = view.layers[0]
        for local, node in enumerate(view.seed_nodes):
            edge_mask = layer.edge_dst == local
            sources = view.node_layers[0][layer.edge_src[edge_mask]]
            # the self-loop survives and the budget binds the rest
            assert node in sources
            assert np.sum(sources != node) <= 3

    def test_rescaled_weights_are_unbiased(self):
        matrix = normalized_adjacency(_random_adjacency(40, density=0.5, seed=7))
        fanout = 4
        sampler = NeighbourSampler(matrix, (fanout,), seed=1, rescale=True)
        view = sampler.sample(np.arange(40))
        layer = view.layers[0]
        dense = matrix.toarray()
        for local, node in enumerate(view.seed_nodes):
            edge_mask = layer.edge_dst == local
            sources = view.node_layers[0][layer.edge_src[edge_mask]]
            weights = layer.edge_weight[edge_mask]
            off = sources != node
            degree = int((dense[node] != 0).sum()) - 1  # off-diagonal degree
            if degree > fanout:
                expected_scale = degree / fanout
                original = dense[node, sources[off]]
                assert np.allclose(weights[off], original * expected_scale)
            else:
                assert np.allclose(weights[off], dense[node, sources[off]])

    def test_deterministic_given_seed(self):
        pattern = attention_pattern(_random_adjacency(40, density=0.4, seed=8))
        first = NeighbourSampler(pattern, (2, 2), seed=5).sample(np.arange(10))
        second = NeighbourSampler(pattern, (2, 2), seed=5).sample(np.arange(10))
        different = NeighbourSampler(pattern, (2, 2), seed=6).sample(np.arange(10))
        for a, b in zip(first.node_layers, second.node_layers):
            assert np.array_equal(a, b)
        for a, b in zip(first.layers, second.layers):
            assert np.array_equal(a.edge_src, b.edge_src)
            assert np.array_equal(a.edge_dst, b.edge_dst)
        assert any(not np.array_equal(a.edge_src, b.edge_src)
                   or len(a.edge_src) != len(b.edge_src)
                   for a, b in zip(first.layers, different.layers)) or any(
            not np.array_equal(a, b)
            for a, b in zip(first.node_layers, different.node_layers))

    def test_minus_one_means_full_neighbourhood(self):
        matrix = normalized_adjacency(_random_adjacency(20, seed=9))
        assert NeighbourSampler(matrix, (-1, None)).is_full_neighbourhood()


class TestIdMaps:
    def test_round_trip_identity(self):
        matrix = normalized_adjacency(_random_adjacency(30, seed=10))
        view = NeighbourSampler(matrix, (2, 2), seed=0).sample(np.array([0, 4, 9]))
        for layer in range(len(view.node_layers)):
            locals_ = np.arange(len(view.node_layers[layer]))
            round_trip = view.global_to_local(
                view.local_to_global(locals_, layer=layer), layer=layer)
            assert np.array_equal(round_trip, locals_)

    def test_global_to_local_rejects_absent_ids(self):
        matrix = normalized_adjacency(_random_adjacency(30, seed=11))
        view = NeighbourSampler(matrix, (None,)).sample(np.array([1, 2]))
        with pytest.raises(KeyError):
            view.global_to_local(np.array([29]))

    def test_scatter_rows(self):
        matrix = normalized_adjacency(_random_adjacency(10, seed=12))
        view = NeighbourSampler(matrix, (None,)).sample(np.array([2, 5]))
        out = np.zeros((10, 3))
        values = np.ones((view.num_seeds, 3))
        view.scatter_rows(values, out)
        assert out[view.seed_nodes].sum() == view.num_seeds * 3
        assert out.sum() == view.num_seeds * 3


class TestValidation:
    def test_rejects_bad_fanouts_and_seeds(self):
        matrix = normalized_adjacency(_random_adjacency(10, seed=13))
        with pytest.raises(ValueError):
            NeighbourSampler(matrix, ())
        with pytest.raises(ValueError):
            NeighbourSampler(matrix, (0,))
        sampler = NeighbourSampler(matrix, (None,))
        with pytest.raises(ValueError):
            sampler.sample(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            sampler.sample(np.array([99]))
        with pytest.raises(ValueError):
            NeighbourSampler(sp.csr_matrix((3, 4)), (None,))

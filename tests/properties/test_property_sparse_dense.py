"""Property-based tests: the CSR operators match the dense oracles.

For random graphs and features, the CSR operators must reproduce the dense
reference implementations of ``tests/oracles.py`` — normalisation,
Laplacian, both Dirichlet-energy forms, Semantic Propagation states and GCN
forward/backward — to numerical tolerance.  This is the contract that lets
CSR replace the ``O(n²)`` formulation wholesale.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_dirichlet_energy,
    reference_dirichlet_energy_pairwise,
    reference_graph_laplacian,
    reference_normalized_adjacency,
    reference_spmm,
)
from repro.autograd import Tensor
from repro.core.propagation import SemanticPropagation
from repro.kg.laplacian import (
    dirichlet_energy,
    dirichlet_energy_pairwise,
    graph_laplacian,
    largest_laplacian_eigenvalue,
    normalized_adjacency,
)
from repro.kg.sparse import largest_eigenvalue
from repro.nn import GCN

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def random_graph_and_features(draw, max_nodes=14, max_dim=5):
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    features = rng.normal(size=(num_nodes, dim))
    return adjacency, features


class TestSpectralEquivalence:
    @SETTINGS
    @given(random_graph_and_features())
    def test_normalized_adjacency(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense = reference_normalized_adjacency(adjacency)
        sparse = normalized_adjacency(sp.csr_matrix(adjacency))
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)

    @SETTINGS
    @given(random_graph_and_features())
    def test_laplacian(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense = reference_graph_laplacian(adjacency)
        sparse = graph_laplacian(sp.csr_matrix(adjacency))
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)

    @SETTINGS
    @given(random_graph_and_features())
    def test_largest_eigenvalue(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense_lap = reference_graph_laplacian(adjacency)
        sparse_lap = graph_laplacian(sp.csr_matrix(adjacency))
        assert np.isclose(np.linalg.eigvalsh(dense_lap)[-1],
                          largest_eigenvalue(sparse_lap), atol=1e-9)
        assert np.isclose(largest_laplacian_eigenvalue(dense_lap),
                          largest_eigenvalue(sparse_lap), atol=1e-9)


class TestEnergyEquivalence:
    @SETTINGS
    @given(random_graph_and_features())
    def test_edgewise_matches_trace_form(self, graph_and_features):
        adjacency, features = graph_and_features
        trace_form = reference_dirichlet_energy(features, reference_graph_laplacian(adjacency))
        edge_form = dirichlet_energy_pairwise(features, sp.csr_matrix(adjacency))
        assert np.isclose(trace_form, edge_form, rtol=1e-7, atol=1e-8)

    @SETTINGS
    @given(random_graph_and_features())
    def test_edgewise_matches_dense_pairwise(self, graph_and_features):
        adjacency, features = graph_and_features
        dense_form = reference_dirichlet_energy_pairwise(features, adjacency)
        edge_form = dirichlet_energy_pairwise(features, sp.csr_matrix(adjacency))
        assert np.isclose(dense_form, edge_form, rtol=1e-7, atol=1e-8)

    @SETTINGS
    @given(random_graph_and_features())
    def test_sparse_trace_form_matches_dense(self, graph_and_features):
        adjacency, features = graph_and_features
        dense = reference_dirichlet_energy(features, reference_graph_laplacian(adjacency))
        sparse = dirichlet_energy(features, graph_laplacian(sp.csr_matrix(adjacency)))
        assert np.isclose(dense, sparse, rtol=1e-9, atol=1e-10)


class TestPropagationEquivalence:
    @SETTINGS
    @given(random_graph_and_features(), st.integers(min_value=0, max_value=4))
    def test_states_match(self, graph_and_features, iterations):
        adjacency, features = graph_and_features
        known = np.random.default_rng(0).random(len(adjacency)) < 0.5
        propagation = SemanticPropagation(iterations=iterations)
        propagation_matrix = reference_normalized_adjacency(adjacency)
        dense_states = [features.copy()]
        for _ in range(iterations):
            state = propagation_matrix @ dense_states[-1]
            state[known] = features[known]
            dense_states.append(state)
        sparse_states = propagation.propagate_features(
            features, sp.csr_matrix(adjacency), known)
        assert len(dense_states) == len(sparse_states)
        for dense_state, sparse_state in zip(dense_states, sparse_states):
            assert np.allclose(dense_state, sparse_state, atol=1e-10)


class TestGCNEquivalence:
    @SETTINGS
    @given(random_graph_and_features(max_dim=4))
    def test_forward_and_backward_match(self, graph_and_features):
        adjacency, features = graph_and_features
        dim = features.shape[1]
        gcn = GCN(dim, 2, np.random.default_rng(0))
        sparse_norm = normalized_adjacency(sp.csr_matrix(adjacency))

        with mock.patch("repro.nn.gcn.spmm", reference_spmm):
            dense_out = gcn(Tensor(features), sparse_norm)
            (dense_out ** 2.0).sum().backward()
        dense_grads = [p.grad.copy() for p in gcn.parameters()]
        for parameter in gcn.parameters():
            parameter.zero_grad()

        sparse_out = gcn(Tensor(features), sparse_norm)
        (sparse_out ** 2.0).sum().backward()
        assert np.allclose(dense_out.numpy(), sparse_out.numpy(), atol=1e-10)
        for dense_grad, parameter in zip(dense_grads, gcn.parameters()):
            assert np.allclose(dense_grad, parameter.grad, atol=1e-8)

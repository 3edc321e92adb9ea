"""CSR graph tests: task preparation, propagation and model parity against
the dense oracles of ``tests/oracles.py``."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    reference_closed_form_interpolation,
    reference_gat_layer_forward,
    reference_graph_laplacian,
    reference_normalized_adjacency,
)
from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.losses import dirichlet_energy_tensor
from repro.core.model import DESAlign
from repro.core.propagation import SemanticPropagation, closed_form_interpolation
from repro.core.similarity import decode_similarity
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.autograd import Tensor
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.nn.gat import GATLayer
from repro.pipeline import AlignmentPipeline, DataSpec, ModelSpec, PipelineSpec


@pytest.fixture(scope="module")
def pair():
    return generate_pair(SyntheticPairConfig(num_entities=40, seed=11))


@pytest.fixture(scope="module")
def sparse_task(pair):
    return prepare_task(pair, structure_dim=16, seed=0)


def _spec_task(pair, backend):
    spec = PipelineSpec(data=DataSpec(dataset="custom", backend=backend),
                        model=ModelSpec(hidden_dim=16))
    return AlignmentPipeline.from_spec(spec).build_task(pair)


class TestPreparedTaskBackend:
    def test_sparse_task_holds_csr(self, sparse_task):
        for side in (sparse_task.source, sparse_task.target):
            assert sp.issparse(side.adjacency)
            assert sp.issparse(side.normalized_adjacency)
            assert sp.issparse(side.laplacian)

    def test_matrices_match_dense(self, sparse_task):
        for side in (sparse_task.source, sparse_task.target):
            adjacency = side.adjacency.toarray()
            assert np.allclose(reference_normalized_adjacency(adjacency),
                               side.normalized_adjacency.toarray(), atol=1e-15)
            assert np.allclose(reference_graph_laplacian(adjacency),
                               side.laplacian.toarray(), atol=1e-15)

    def test_features_and_splits_identical(self, pair):
        dense_task = _spec_task(pair, "dense")
        sparse_task = _spec_task(pair, "sparse")
        assert np.array_equal(dense_task.train_pairs, sparse_task.train_pairs)
        assert np.array_equal(dense_task.test_pairs, sparse_task.test_pairs)
        for modality, matrix in dense_task.source.features.features.items():
            assert np.array_equal(matrix, sparse_task.source.features.features[modality])
        for dense_side, sparse_side in ((dense_task.source, sparse_task.source),
                                        (dense_task.target, sparse_task.target)):
            assert sp.issparse(dense_side.laplacian)
            assert (dense_side.laplacian != sparse_side.laplacian).nnz == 0

    def test_with_backend_round_trip(self, sparse_task):
        # Both spec values name the one CSR task.
        assert sparse_task.with_backend("dense") is sparse_task
        assert sparse_task.with_backend("sparse") is sparse_task

    def test_rejects_unknown_backend(self, pair, sparse_task):
        with pytest.raises(TypeError):
            prepare_task(pair, backend="sparse")
        with pytest.raises(ValueError):
            sparse_task.with_backend("blocked")


class TestPropagationSparse:
    def test_states_match_dense(self, sparse_task):
        rng = np.random.default_rng(0)
        num_entities = sparse_task.source.num_entities
        features = rng.normal(size=(num_entities, 6))
        known = rng.random(num_entities) < 0.5
        propagation = SemanticPropagation(iterations=3)
        sparse_states = propagation.propagate_features(
            features, sparse_task.source.adjacency, known)
        propagation_matrix = reference_normalized_adjacency(sparse_task.source.adjacency)
        dense_states = [features.copy()]
        for _ in range(3):
            state = propagation_matrix @ dense_states[-1]
            state[known] = features[known]
            dense_states.append(state)
        assert len(dense_states) == len(sparse_states)
        for dense_state, sparse_state in zip(dense_states, sparse_states):
            assert np.allclose(dense_state, sparse_state, atol=1e-12)

    def test_closed_form_matches_dense(self, sparse_task):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(sparse_task.source.num_entities, 4))
        known = np.zeros(sparse_task.source.num_entities, dtype=bool)
        known[:: 2] = True
        dense_solution = reference_closed_form_interpolation(
            features, sparse_task.source.adjacency, known)
        sparse_solution = closed_form_interpolation(
            features, sparse_task.source.adjacency, known)
        assert np.allclose(dense_solution, sparse_solution, atol=1e-8)

    def test_closed_form_all_known_short_circuits(self, sparse_task):
        features = np.ones((sparse_task.source.num_entities, 2))
        known = np.ones(sparse_task.source.num_entities, dtype=bool)
        assert np.array_equal(
            closed_form_interpolation(features, sparse_task.source.adjacency, known),
            features)


class TestDifferentiableEnergySparse:
    def test_energy_tensor_matches_dense(self, sparse_task):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(sparse_task.source.num_entities, 5))
        sparse_in = Tensor(data, requires_grad=True)
        sparse_energy = dirichlet_energy_tensor(sparse_in, sparse_task.source.laplacian)
        dense_laplacian = reference_graph_laplacian(sparse_task.source.adjacency)
        # tr(Xᵀ Δ X) and its gradient (Δ + Δᵀ) X on the dense oracle.
        assert np.trace(data.T @ dense_laplacian @ data) == pytest.approx(
            sparse_energy.item(), rel=1e-10)
        sparse_energy.backward()
        assert np.allclose((dense_laplacian + dense_laplacian.T) @ data,
                           sparse_in.grad, atol=1e-10)


class TestDESAlignBackendSwitch:
    def test_config_backend_converts_task(self, pair):
        # The spec's data.backend selects nothing: "dense" still yields CSR.
        task = _spec_task(pair, "dense")
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, gat_layers=1))
        assert sp.issparse(model.task.source.adjacency)

    def test_auto_backend_follows_task(self, sparse_task):
        sparse_model = DESAlign(sparse_task, DESAlignConfig(hidden_dim=16, gat_layers=1))
        assert sparse_model.task is sparse_task
        assert sp.issparse(sparse_model.task.source.adjacency)

    def test_rejects_unknown_backend(self, sparse_task):
        with pytest.raises(TypeError):
            DESAlignConfig(backend="sparse")
        spec = PipelineSpec(data=DataSpec(dataset="custom"),
                            model=ModelSpec(hidden_dim=16,
                                            options={"backend": "sparse"}))
        with pytest.raises(TypeError, match="backend"):
            AlignmentPipeline.from_spec(spec).build_model(sparse_task)

    def test_training_metrics_match_dense(self, sparse_task, monkeypatch):
        training = TrainingConfig(epochs=4, eval_every=0, seed=0)
        config = DESAlignConfig(hidden_dim=16, gat_layers=1, seed=0)
        sparse_model = DESAlign(sparse_task, config)
        sparse_result = Trainer(sparse_model, sparse_task, training).fit()

        # The same fit with every GAT layer on the masked-dense oracle.
        monkeypatch.setattr(GATLayer, "forward", reference_gat_layer_forward)
        dense_model = DESAlign(sparse_task, config)
        dense_result = Trainer(dense_model, sparse_task, training).fit()
        for key, value in dense_result.metrics.as_dict().items():
            assert sparse_result.metrics.as_dict()[key] == pytest.approx(value, abs=1e-6)
        assert np.allclose(decode_similarity(*dense_model.decode_states()),
                           decode_similarity(*sparse_model.decode_states()),
                           atol=1e-6)

"""Backend switch tests: sparse task preparation, propagation, model parity."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.losses import dirichlet_energy_tensor
from repro.core.model import DESAlign
from repro.core.propagation import SemanticPropagation, closed_form_interpolation
from repro.core.similarity import decode_similarity
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.autograd import Tensor
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.kg.laplacian import graph_laplacian
from repro.kg.sparse import graph_laplacian_sparse


@pytest.fixture(scope="module")
def pair():
    return generate_pair(SyntheticPairConfig(num_entities=40, seed=11))


@pytest.fixture(scope="module")
def dense_task(pair):
    return prepare_task(pair, structure_dim=16, seed=0, backend="dense")


@pytest.fixture(scope="module")
def sparse_task(pair):
    return prepare_task(pair, structure_dim=16, seed=0, backend="sparse")


class TestPreparedTaskBackend:
    def test_sparse_task_holds_csr(self, sparse_task):
        assert sparse_task.backend == "sparse"
        for side in (sparse_task.source, sparse_task.target):
            assert sp.issparse(side.adjacency)
            assert sp.issparse(side.normalized_adjacency)
            assert sp.issparse(side.laplacian)

    def test_matrices_match_dense(self, dense_task, sparse_task):
        for dense_side, sparse_side in ((dense_task.source, sparse_task.source),
                                        (dense_task.target, sparse_task.target)):
            assert np.allclose(dense_side.adjacency, sparse_side.adjacency.toarray())
            assert np.allclose(dense_side.normalized_adjacency,
                               sparse_side.normalized_adjacency.toarray(), atol=1e-15)
            assert np.allclose(dense_side.laplacian,
                               sparse_side.laplacian.toarray(), atol=1e-15)

    def test_features_and_splits_identical(self, dense_task, sparse_task):
        assert np.array_equal(dense_task.train_pairs, sparse_task.train_pairs)
        assert np.array_equal(dense_task.test_pairs, sparse_task.test_pairs)
        for modality, matrix in dense_task.source.features.features.items():
            assert np.array_equal(matrix, sparse_task.source.features.features[modality])

    def test_with_backend_round_trip(self, dense_task, sparse_task):
        round_trip = sparse_task.with_backend("dense")
        assert round_trip.backend == "dense"
        assert np.array_equal(round_trip.source.adjacency, dense_task.source.adjacency)
        assert sparse_task.with_backend("sparse") is sparse_task

    def test_rejects_unknown_backend(self, pair, dense_task):
        with pytest.raises(ValueError):
            prepare_task(pair, backend="blocked")
        with pytest.raises(ValueError):
            dense_task.with_backend("blocked")


class TestPropagationSparse:
    def test_states_match_dense(self, dense_task, sparse_task):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(dense_task.source.num_entities, 6))
        known = rng.random(dense_task.source.num_entities) < 0.5
        propagation = SemanticPropagation(iterations=3)
        dense_states = propagation.propagate_features(
            features, dense_task.source.adjacency, known)
        sparse_states = propagation.propagate_features(
            features, sparse_task.source.adjacency, known)
        assert len(dense_states) == len(sparse_states)
        for dense_state, sparse_state in zip(dense_states, sparse_states):
            assert np.allclose(dense_state, sparse_state, atol=1e-12)

    def test_closed_form_matches_dense(self, dense_task, sparse_task):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(dense_task.source.num_entities, 4))
        known = np.zeros(dense_task.source.num_entities, dtype=bool)
        known[:: 2] = True
        dense_solution = closed_form_interpolation(
            features, dense_task.source.adjacency, known)
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
    def test_energy_tensor_matches_dense(self, dense_task, sparse_task):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(dense_task.source.num_entities, 5))
        dense_in = Tensor(data, requires_grad=True)
        sparse_in = Tensor(data, requires_grad=True)
        dense_energy = dirichlet_energy_tensor(dense_in, dense_task.source.laplacian)
        sparse_energy = dirichlet_energy_tensor(sparse_in, sparse_task.source.laplacian)
        assert dense_energy.item() == pytest.approx(sparse_energy.item(), rel=1e-10)
        dense_energy.backward()
        sparse_energy.backward()
        assert np.allclose(dense_in.grad, sparse_in.grad, atol=1e-10)


class TestDESAlignBackendSwitch:
    def test_config_backend_converts_task(self, dense_task):
        model = DESAlign(dense_task, DESAlignConfig(
            hidden_dim=16, gat_layers=1, backend="sparse"))
        assert model.task.backend == "sparse"
        assert sp.issparse(model.task.source.adjacency)

    def test_auto_backend_follows_task(self, dense_task, sparse_task):
        dense_model = DESAlign(dense_task, DESAlignConfig(hidden_dim=16, gat_layers=1))
        sparse_model = DESAlign(sparse_task, DESAlignConfig(hidden_dim=16, gat_layers=1))
        assert dense_model.task is dense_task
        assert sparse_model.task is sparse_task
        assert sp.issparse(sparse_model.task.source.adjacency)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            DESAlignConfig(backend="blocked")

    def test_training_metrics_match_dense(self, dense_task, sparse_task):
        training = TrainingConfig(epochs=4, eval_every=0, seed=0)
        dense_model = DESAlign(dense_task, DESAlignConfig(
            hidden_dim=16, gat_layers=1, seed=0, backend="dense"))
        sparse_model = DESAlign(sparse_task, DESAlignConfig(
            hidden_dim=16, gat_layers=1, seed=0, backend="sparse"))
        dense_result = Trainer(dense_model, dense_task, training).fit()
        sparse_result = Trainer(sparse_model, sparse_task, training).fit()
        for key, value in dense_result.metrics.as_dict().items():
            assert sparse_result.metrics.as_dict()[key] == pytest.approx(value, abs=1e-6)
        assert np.allclose(decode_similarity(*dense_model.decode_states()),
                           decode_similarity(*sparse_model.decode_states()),
                           atol=1e-6)

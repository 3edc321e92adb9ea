"""Engine/facade parity and the consolidated legality rules: the Trainer
engine and ``decode_similarity`` over ``decode_states()`` agree with the
facade, and every legality rule rejects from every entry surface with its
single-source message."""

import warnings

import numpy as np
import pytest

from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.model import DESAlign
from repro.core.similarity import decode_similarity
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.data.benchmarks import load_benchmark
from repro.eval.evaluator import Evaluator
from repro.pipeline import (
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PipelineSpec,
)


@pytest.fixture(scope="module")
def tiny_task():
    pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=36)
    return prepare_task(pair, structure_dim=16, seed=0)


@pytest.fixture(scope="module")
def tiny_model(tiny_task):
    return DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))


class TestTrainerShim:
    """The Trainer engine, driven directly, matches the facade."""

    def test_trainer_result_equals_facade_result(self, tiny_task):
        config = TrainingConfig(epochs=2, eval_every=0, seed=0)
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        legacy = Trainer(model, tiny_task, config).fit()

        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=36, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16, seed=0),
            training=config,
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(tiny_task)
        assert legacy.metrics == aligner.metrics


class TestSimilarityShim:
    """``decode_similarity`` over ``decode_states()`` is warning-free and
    matches the facade's decode."""

    def test_default_similarity_call_does_not_warn(self, tiny_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            decode_similarity(*tiny_model.decode_states())

    def test_evaluator_path_does_not_warn(self, tiny_task, tiny_model):
        evaluator = Evaluator(tiny_task, decode="blockwise")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            evaluator.evaluate_model(tiny_model)

    def test_legacy_similarity_equals_facade_decode(self, tiny_task):
        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=36, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16, seed=0),
            training=TrainingConfig(epochs=1, eval_every=0, seed=0),
            decode=DecodeSpec(decode="blockwise", k=5),
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(tiny_task)
        legacy = decode_similarity(*aligner.model.decode_states(),
                                   decode="blockwise", k=5)
        facade = aligner.topk()
        assert np.array_equal(legacy.indices, facade.indices)
        assert np.array_equal(legacy.scores, facade.scores)


class TestConsolidatedRules:
    """Each rejected combination, regression-tested on every entry surface."""

    def test_training_config_rejects_iterative_lsh(self):
        with pytest.raises(ValueError, match="LSH"):
            TrainingConfig(iterative=True, candidates="lsh")

    def test_training_config_rejects_patience_without_cadence(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainingConfig(early_stopping_patience=1, eval_every=0)

    def test_training_config_rejects_unknown_candidates(self):
        with pytest.raises(ValueError, match="candidate"):
            TrainingConfig(candidates="faiss")

    def test_training_config_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            TrainingConfig(sampling="layerwise")

    def test_evaluator_rejects_csls_on_approximate_candidates(self, tiny_task):
        with pytest.raises(ValueError, match="CSLS"):
            Evaluator(tiny_task, ranking="csls", candidates="ivf")

    def test_evaluator_rejects_dense_decode_with_candidates(self, tiny_task):
        with pytest.raises(ValueError, match="incompatible with decode='dense'"):
            Evaluator(tiny_task, decode="dense", candidates="lsh")

    def test_model_similarity_rejects_dense_with_candidates(self, tiny_model):
        with pytest.raises(ValueError, match="incompatible with decode='dense'"):
            decode_similarity(*tiny_model.decode_states(), decode="dense",
                              candidates="ivf")

    def test_messages_are_identical_across_surfaces(self, tiny_task, tiny_model):
        """The same rule produces byte-identical messages on every surface."""
        def capture(callable_):
            with pytest.raises(ValueError) as info:
                callable_()
            return str(info.value)

        spec_csls = capture(lambda: PipelineSpec(
            decode=DecodeSpec(ranking="csls", candidates="ivf")).validate())
        evaluator_csls = capture(lambda: Evaluator(tiny_task, ranking="csls",
                                                   candidates="ivf"))
        assert spec_csls == evaluator_csls

        spec_dense = capture(lambda: PipelineSpec(
            decode=DecodeSpec(decode="dense", candidates="ivf")).validate())
        evaluator_dense = capture(lambda: Evaluator(tiny_task, decode="dense",
                                                    candidates="ivf"))
        model_dense = capture(lambda: decode_similarity(
            *tiny_model.decode_states(), decode="dense", candidates="ivf"))
        assert spec_dense == evaluator_dense == model_dense

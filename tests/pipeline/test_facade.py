"""AlignmentPipeline facade: lifecycle, caching, persistence, legacy parity."""

import warnings

import numpy as np
import pytest

from repro.core import ann as ann_module
from repro.core.ann import AnnConfig
from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.model import DESAlign
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.data.benchmarks import load_benchmark
from repro.kg import AlignmentPair, KGPair
from repro.pipeline import (
    Aligner,
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PipelineSpec,
)


def small_spec(**decode_kwargs) -> PipelineSpec:
    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=40, seed_ratio=0.3, seed=0),
        model=ModelSpec(name="DESAlign", hidden_dim=16,
                        options={"propagation_iters": 2}),
        training=TrainingConfig(epochs=2, eval_every=0, seed=0),
        decode=DecodeSpec(k=5, **decode_kwargs),
    )


@pytest.fixture(scope="module")
def fitted():
    return AlignmentPipeline.from_spec(small_spec()).fit()


class TestLifecycle:
    def test_fit_returns_populated_aligner(self, fitted):
        assert fitted.metrics is not None
        assert fitted.model is not None
        assert fitted.task is not None
        assert 0.0 <= fitted.metrics.hits_at_1 <= 1.0

    def test_align_shapes_and_ordering(self, fitted):
        table = fitted.align()
        n_source = fitted.task.source.num_entities
        assert table.target_ids.shape == (n_source, 5)
        assert table.scores.shape == (n_source, 5)
        # descending scores per row
        assert np.all(np.diff(table.scores, axis=1) <= 0)
        assert not table.approximate

    def test_align_k_override(self, fitted):
        assert fitted.align(k=3).target_ids.shape[1] == 3
        assert fitted.align(k=3).k == 3

    def test_rank_matches_align_rows(self, fitted):
        table = fitted.align()
        ranked = fitted.rank([2, 7, 11])
        assert np.array_equal(ranked.target_ids, table.target_ids[[2, 7, 11]])
        assert np.array_equal(ranked.source_ids, [2, 7, 11])

    def test_rank_rejects_out_of_range_ids(self, fitted):
        with pytest.raises(ValueError, match="entity ids must lie in"):
            fitted.rank([10_000])

    def test_evaluate_matches_fit_metrics(self, fitted):
        # fit() evaluated through the same decode spec; a repeated
        # evaluation of the unchanged model must agree.
        assert fitted.evaluate() == fitted.metrics

    def test_pairs_and_records_and_tsv(self, fitted):
        table = fitted.rank([0, 1], k=2)
        assert len(table.pairs()) == 2
        records = table.to_records()
        assert records[0]["source"] == 0 and len(records[0]["targets"]) == 2
        tsv = table.to_tsv()
        assert tsv.startswith("source\trank\ttarget\tscore")
        assert len(tsv.strip().splitlines()) == 1 + 2 * 2

    def test_with_decode_shares_model_but_not_caches(self, fitted):
        sibling = fitted.with_decode(DecodeSpec(k=5, use_propagation=False))
        assert sibling.model is fitted.model
        # different decode pipelines disagree somewhere
        assert sibling.spec.decode.use_propagation is False
        assert sibling.evaluate() is not None

    def test_fit_accepts_prepared_task(self):
        spec = small_spec()
        task = AlignmentPipeline.from_spec(spec).build_task()
        aligner = AlignmentPipeline.from_spec(spec).fit(task)
        assert aligner.task is task


class TestCaching:
    def test_topk_cached_per_k(self, fitted):
        assert fitted.topk(5) is fitted.topk(5)
        assert fitted.topk(5) is not fitted.topk(3)

    def test_decode_states_computed_once(self, fitted):
        first = fitted.decode_states()
        assert fitted.decode_states() is first

    def test_candidate_generation_runs_once_across_ks(self, monkeypatch):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        aligner = AlignmentPipeline.from_spec(spec).fit()
        calls = []
        original = ann_module.generate_candidates

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.pipeline.facade.generate_candidates", counting)
        aligner.align(3)
        aligner.align(5)
        aligner.rank([0], k=2)
        assert len(calls) == 1  # the quantiser is fitted once and reused
        assert aligner.align(3).approximate

    def test_repeated_rank_reuses_candidate_slices(self, tmp_path):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        AlignmentPipeline.from_spec(spec).fit().save(tmp_path / "artifact")
        aligner = Aligner.load(tmp_path / "artifact")
        ids = [3, 9, 14]
        first = aligner.rank(ids, k=4)
        misses = aligner.candidate_slice_misses
        assert misses == len(ids)
        second = aligner.rank(ids, k=4)
        # the second identical call regenerated nothing: every padded
        # per-row candidate slice came from the cache
        assert aligner.candidate_slice_misses == misses
        assert aligner.candidate_slice_hits >= len(ids)
        assert np.array_equal(first.target_ids, second.target_ids)
        assert np.array_equal(first.scores, second.scores)
        # partial overlap only misses on the genuinely new rows
        aligner.rank([3, 9, 21], k=4)
        assert aligner.candidate_slice_misses == misses + 1

    def test_rank_rows_matches_full_align_on_restricted_artifact(self, tmp_path):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        AlignmentPipeline.from_spec(spec).fit().save(tmp_path / "artifact")
        aligner = Aligner.load(tmp_path / "artifact")
        ids = np.array([1, 17, 30])
        subset = aligner.rank(ids, k=5)   # decodes only the requested rows
        full = aligner.align(k=5)         # whole-corpus decode
        assert np.array_equal(subset.target_ids, full.target_ids[ids])
        assert np.array_equal(subset.scores, full.scores[ids])
        assert subset.approximate


class TestLegacyParity:
    def test_facade_metrics_equal_legacy_trainer_path(self):
        spec = small_spec()
        aligner = AlignmentPipeline.from_spec(spec).fit()

        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=40)
        task = prepare_task(pair, structure_dim=16, seed=0, backend="dense")
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0,
                                              propagation_iters=2))
        result = Trainer(model, task, spec.training).fit()
        assert result.metrics == aligner.metrics

    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            aligner = AlignmentPipeline.from_spec(small_spec()).fit()
            aligner.align()
            aligner.evaluate()


class TestPersistence:
    def test_save_load_decode_is_bit_identical(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        original = fitted.align()
        restored = loaded.align()
        assert np.array_equal(original.target_ids, restored.target_ids)
        assert np.array_equal(original.scores, restored.scores)
        # at a different k as well — states are the persisted quantity
        assert np.array_equal(fitted.align(k=3).scores, loaded.align(k=3).scores)

    def test_load_is_lazy_for_pure_serving(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        # align/rank serve from the persisted decode payloads without
        # regenerating the benchmark or building a model...
        loaded.align()
        assert loaded.model is None and loaded.task is None
        # ...and the model materialises on the first operation needing it.
        loaded.evaluate()
        assert loaded.model is not None

    def test_save_load_restores_model_parameters(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert loaded._ensure_model()
        original_state = fitted.model.state_dict()
        restored_state = loaded.model.state_dict()
        assert set(original_state) == set(restored_state)
        for key, values in original_state.items():
            assert np.array_equal(values, restored_state[key]), key

    def test_load_rejects_artifact_with_missing_params(self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        (directory / "params.npz").unlink()
        with pytest.raises(FileNotFoundError, match="incomplete"):
            Aligner.load(directory)

    def test_resave_of_unmaterialised_load_keeps_params(self, fitted, tmp_path):
        fitted.save(tmp_path / "first")
        loaded = Aligner.load(tmp_path / "first")
        loaded.save(tmp_path / "second")  # model never materialised
        again = Aligner.load(tmp_path / "second")
        assert again.evaluate() == fitted.metrics

    def test_loaded_aligner_evaluates(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert loaded.evaluate() == fitted.metrics

    def test_ivf_artifact_round_trips_candidates(self, tmp_path):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        aligner = AlignmentPipeline.from_spec(spec).fit()
        aligner.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert np.array_equal(aligner.align().scores, loaded.align().scores)
        assert loaded.align().approximate

    def test_custom_data_artifact_serves_without_model(self, tmp_path):
        rng = np.random.default_rng(0)
        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=32)
        custom = KGPair(source=pair.source, target=pair.target,
                        alignments=[AlignmentPair(p.source, p.target)
                                    for p in pair.alignments],
                        seed_ratio=0.3, name="custom-demo")
        del rng
        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=32, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16),
            training=TrainingConfig(epochs=1, eval_every=0, seed=0),
            decode=DecodeSpec(k=5),
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(custom)
        aligner.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert not loaded._ensure_model()  # custom data cannot be regenerated
        assert np.array_equal(loaded.align().scores, aligner.align().scores)
        metrics = loaded.evaluate()  # served from the cached decode
        assert 0.0 <= metrics.hits_at_1 <= 1.0
        # with_decode keeps the cached states when only ranking/k change,
        # so a model-less artifact still supports decode ablations.
        sibling = loaded.with_decode(DecodeSpec(k=3))
        assert np.array_equal(sibling.align().target_ids,
                              loaded.align(k=3).target_ids)

    def test_mmap_load_is_bit_identical_and_reuses_extraction(
            self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        mapped = Aligner.load(directory, mmap=True)
        # decode states are served from read-only memory maps ...
        states = mapped.decode_states()
        assert all(isinstance(state, np.memmap)
                   for side in states for state in side)
        assert all(not state.flags.writeable
                   for side in states for state in side)
        # ... and every decode agrees bit for bit with the in-memory load
        plain = Aligner.load(directory)
        assert np.array_equal(mapped.align().scores, plain.align().scores)
        assert np.array_equal(mapped.rank([0, 5]).scores,
                              plain.rank([0, 5]).scores)
        # v2 maps the store's .npy files natively — no extraction cache
        assert not (directory / ".mmap_cache").exists()
        # v1 artifacts unpack decode.npz once and reuse the extraction
        # (stamp unchanged on the second mapped load)
        legacy = fitted.save(tmp_path / "legacy", format_version=1)
        legacy_mapped = Aligner.load(legacy, mmap=True)
        assert np.array_equal(legacy_mapped.align().scores,
                              plain.align().scores)
        stamp = legacy / ".mmap_cache" / "source.stamp"
        token = stamp.read_text()
        again = Aligner.load(legacy, mmap=True)
        assert stamp.read_text() == token
        assert np.array_equal(again.align().scores, plain.align().scores)

    def test_decode_fingerprint_tracks_the_spec(self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(directory)
        assert loaded.decode_fingerprint() == fitted.decode_fingerprint()
        sibling = fitted.with_decode(DecodeSpec(k=5, use_propagation=False))
        assert sibling.decode_fingerprint() != fitted.decode_fingerprint()

    def test_load_rejects_missing_and_foreign_directories(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="spec.json"):
            Aligner.load(tmp_path / "missing")

    def test_load_rejects_unknown_format_version(self, fitted, tmp_path):
        import json
        directory = fitted.save(tmp_path / "artifact")
        payload = json.loads((directory / "spec.json").read_text())
        payload["format_version"] = 99
        (directory / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            Aligner.load(directory)


class TestRegistryExtension:
    def test_registered_model_plugs_into_the_facade(self):
        from repro.core.registries import MODEL_REGISTRY, _MODEL_INFO, register_model
        from repro.baselines import EVA, BaselineConfig

        @register_model("TestEVA")
        class _TestEVA(EVA):
            def __init__(self, task, hidden_dim=32, seed=0):
                super().__init__(task, BaselineConfig(hidden_dim=hidden_dim,
                                                      seed=seed))

        try:
            spec = PipelineSpec(
                data=DataSpec(dataset="FBDB15K", num_entities=32, seed_ratio=0.3),
                model=ModelSpec(name="TestEVA", hidden_dim=16),
                training=TrainingConfig(epochs=1, eval_every=0),
                decode=DecodeSpec(k=3, use_propagation=False),
            )
            aligner = AlignmentPipeline.from_spec(spec).fit()
            assert isinstance(aligner.model, _TestEVA)
            assert aligner.align().target_ids.shape[1] == 3
        finally:
            MODEL_REGISTRY.pop("TestEVA", None)
            _MODEL_INFO.pop("TestEVA", None)

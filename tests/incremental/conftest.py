"""Shared fixtures: one fitted IVF artifact the ingestion tests warm-start.

Every mutating test loads its own :class:`IncrementalAligner` from the
persisted artifact, so ingests never leak extended models or tasks across
tests.
"""

import pytest

from repro.core.ann import AnnConfig
from repro.core.config import TrainingConfig
from repro.pipeline import (AlignmentPipeline, DataSpec, DecodeSpec,
                            ModelSpec, PipelineSpec)


def incremental_spec(**decode_kwargs) -> PipelineSpec:
    decode_kwargs.setdefault("candidates", "ivf")
    decode_kwargs.setdefault("ann", AnnConfig(n_clusters=4, nprobe=2))
    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=80, seed=1),
        model=ModelSpec(name="DESAlign", hidden_dim=16, seed=2,
                        options={"propagation_iters": 2}),
        training=TrainingConfig(epochs=2, eval_every=0, seed=3),
        decode=DecodeSpec(k=5, **decode_kwargs),
    )


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A fitted DESAlign + IVF artifact directory."""
    root = tmp_path_factory.mktemp("incremental-artifact")
    aligner = AlignmentPipeline.from_spec(incremental_spec()).fit()
    aligner.save(root / "base")
    return root / "base"

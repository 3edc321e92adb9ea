"""The fitted artifact shared by the ``align`` and ``serve`` workloads.

DESAlign is fitted with neighbour sampling on the FBDB15K synthetic preset
(a fixed graph; the workload seed drives task preparation, initialisation
and batch order) for a fixed, small number of epochs: these workloads
measure decoding and serving, so the fit only has to produce embeddings of
the right shape.  The fit is saved twice, as an
exhaustive artifact and as an IVF artifact (``n_clusters`` = round(sqrt n),
``nprobe`` = 4).
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

ENTITIES = 3000
EPOCHS = 1
FANOUTS = (5, 5)
BATCH_SIZE = 256
NPROBE = 4
K = 10


def spec(seed: int):
    from repro.core.config import TrainingConfig
    from repro.pipeline import DataSpec, DecodeSpec, ModelSpec, PipelineSpec

    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=ENTITIES,
                      seed_ratio=0.3, backend="sparse", seed=seed),
        model=ModelSpec(name="DESAlign", hidden_dim=32, seed=seed),
        training=TrainingConfig(epochs=EPOCHS, eval_every=0, seed=seed,
                                sampling="neighbour", fanouts=FANOUTS,
                                batch_size=BATCH_SIZE),
        decode=DecodeSpec(k=K, encode="sampled"))


def ivf_decode(decode):
    from repro.core.ann import AnnConfig

    return replace(decode, candidates="ivf", ann=AnnConfig(
        n_clusters=int(round(math.sqrt(ENTITIES))), nprobe=NPROBE))


def fit_and_save(seed: int, directory: Path) -> tuple[Path, Path]:
    """Fit once; save both artifacts under ``directory``."""
    from repro.pipeline import AlignmentPipeline

    aligner = AlignmentPipeline.from_spec(spec(seed)).fit()
    exhaustive = aligner.save(directory / "exhaustive")
    ivf = aligner.with_decode(ivf_decode(aligner.spec.decode))
    return exhaustive, ivf.save(directory / "ivf")

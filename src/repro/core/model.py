"""The DESAlign model: encoder + MMSL objective + Semantic Propagation decoder.

This is the public entry point of the core library.  A :class:`DESAlign`
instance owns the shared multi-modal encoder, computes the training loss on
seed alignments and decodes test-time similarities with Semantic
Propagation, as laid out in Algorithm 1 of the paper.
"""

from __future__ import annotations

import numpy as np

from ..autograd import no_grad
from ..kg.sampling import NeighbourSampler, SubgraphView, attention_pattern
from ..nn import Module
from .config import DEFAULT_ENCODE_BATCH, DESAlignConfig
from .encoder import EncoderOutput, MultiModalEncoder
from .losses import LossBreakdown, MultiModalSemanticLoss
from .propagation import PropagationResult, SemanticPropagation
# Unused here; kept because lifebench/layers.py wraps this module attribute.
from .similarity import blockwise_topk  # noqa: F401
from .task import PreparedTask

__all__ = ["DESAlign"]


class DESAlign(Module):
    """Dirichlet Energy driven Semantic-consistent multi-modal entity Alignment.

    Parameters
    ----------
    task:
        The prepared alignment task (feature matrices, adjacencies, splits).
    config:
        Model hyper-parameters; defaults follow the paper with reduced
        dimensionality for CPU execution.
    """

    def __init__(self, task: PreparedTask, config: DESAlignConfig | None = None):
        super().__init__()
        self.config = config or DESAlignConfig()
        # Honour the configured graph backend: converting here means a task
        # prepared under either backend can serve a model under either;
        # "auto" keeps whatever the task was prepared with.
        if self.config.backend != "auto":
            task = task.with_backend(self.config.backend)
        self.task = task
        rng = np.random.default_rng(self.config.seed)
        self.encoder = MultiModalEncoder(
            config=self.config,
            feature_dims=task.feature_dims,
            num_entities={
                "source": task.source.num_entities,
                "target": task.target.num_entities,
            },
            rng=rng,
        )
        self.objective = MultiModalSemanticLoss(self.config)
        # Full-neighbourhood samplers for batched inference, built lazily
        # once per side: the graph is immutable, so the O(|E|) pattern
        # construction must not repeat on every evaluation.
        self._eval_samplers: dict[str, NeighbourSampler] = {}
        self.propagation = SemanticPropagation(
            iterations=self.config.propagation_iters,
            reset_known=self.config.propagation_reset_known,
            average_similarities=self.config.propagation_average,
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, side: str) -> EncoderOutput:
        """Encode one side (``"source"`` or ``"target"``) of the task."""
        prepared = self.task.source if side == "source" else self.task.target
        return self.encoder(side, prepared.features.features, prepared.adjacency)

    def encode_both(self) -> tuple[EncoderOutput, EncoderOutput]:
        """Encode the source and the target graphs with the shared encoder."""
        return self.encode("source"), self.encode("target")

    # ------------------------------------------------------------------
    # Neighbour-sampled encoding
    # ------------------------------------------------------------------
    def neighbour_sampler(self, side: str, fanouts=None, seed: int = 0) -> NeighbourSampler:
        """Layer-wise neighbour sampler over one side's attention pattern.

        The pattern (self-looped binary adjacency) matches the edge set the
        structural GAT attends over, so a full-neighbourhood sample
        (``fanouts=None`` or all-``None`` entries) reproduces the full-graph
        forward exactly on the sampled seed rows.
        """
        prepared = self.task.source if side == "source" else self.task.target
        if fanouts is None:
            fanouts = (None,) * self.config.gat_layers
        if len(fanouts) != self.config.gat_layers:
            raise ValueError(f"need one fanout per GAT layer "
                             f"({self.config.gat_layers}), got {len(fanouts)}")
        # GAT attention ignores edge weights, so estimator rescaling is moot.
        return NeighbourSampler(attention_pattern(prepared.adjacency), fanouts,
                                seed=seed, rescale=False)

    def encode_subgraph(self, side: str, view: SubgraphView) -> EncoderOutput:
        """Encode only the sampled subgraph of one side (seed rows out)."""
        prepared = self.task.source if side == "source" else self.task.target
        return self.encoder(side, prepared.features.features, prepared.adjacency,
                            subgraph=view)

    def encode_entities_sampled(self, side: str, kind: str | None = None,
                                batch_size: int = DEFAULT_ENCODE_BATCH) -> np.ndarray:
        """Joint embeddings of *all* entities via batched subgraph forwards.

        Walks the entity set in seed batches, encodes each batch's
        full-neighbourhood subgraph and scatters the output rows back into
        a global ``(N, D)`` array — so no single forward pass ever touches
        the whole graph, which is what lets inference run under the same
        memory envelope as neighbour-sampled training.
        """
        kind = kind or self.config.evaluation_embedding
        prepared = self.task.source if side == "source" else self.task.target
        sampler = self._eval_samplers.get(side)
        if sampler is None:
            sampler = self.neighbour_sampler(side)
            self._eval_samplers[side] = sampler
        num_entities = prepared.num_entities
        embeddings: np.ndarray | None = None
        with no_grad():
            for start in range(0, num_entities, batch_size):
                seeds = np.arange(start, min(start + batch_size, num_entities))
                view = sampler.sample(seeds)
                values = self.encode_subgraph(side, view).joint(kind).numpy()
                if embeddings is None:
                    embeddings = np.empty((num_entities, values.shape[1]))
                view.scatter_rows(values, embeddings)
        return embeddings

    # ------------------------------------------------------------------
    # Training loss
    # ------------------------------------------------------------------
    def loss(self, source_index: np.ndarray | None = None,
             target_index: np.ndarray | None = None) -> LossBreakdown:
        """MMSL loss over the given seed pairs (all seeds by default)."""
        if source_index is None or target_index is None:
            source_index, target_index = self.task.seed_arrays()
        source_output, target_output = self.encode_both()
        return self.objective(
            source_output, target_output, source_index, target_index,
            source_laplacian=self.task.source.laplacian,
        )

    def subgraph_loss(self, source_view: SubgraphView, target_view: SubgraphView,
                      source_index: np.ndarray, target_index: np.ndarray,
                      source_local: np.ndarray | None = None,
                      target_local: np.ndarray | None = None) -> LossBreakdown:
        """MMSL loss over seed pairs, encoded through sampled subgraphs.

        ``source_index`` / ``target_index`` are *global* entity ids; they
        must be part of the views' seed sets.  Callers that already hold
        the local positions (e.g. a :class:`~repro.data.loader.SeedPairBatch`)
        can pass them via ``source_local`` / ``target_local`` to skip the
        lookup.  The Dirichlet-energy penalty needs the full Laplacian, so
        it cannot be computed on a subgraph — configs with
        ``energy_weight > 0`` are rejected rather than silently training a
        different objective; with the default ``energy_weight=0`` this is
        numerically identical to :meth:`loss` on full-neighbourhood views.
        """
        if self.config.energy_weight > 0:
            raise ValueError(
                "the Dirichlet-energy penalty (energy_weight > 0) requires "
                "full-graph training; use sampling='full' or set energy_weight=0")
        source_output = self.encode_subgraph("source", source_view)
        target_output = self.encode_subgraph("target", target_view)
        if source_local is None:
            source_local = source_view.global_to_local(source_index)
        if target_local is None:
            target_local = target_view.global_to_local(target_index)
        return self.objective(source_output, target_output,
                              source_local, target_local, source_laplacian=None)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _evaluation_embeddings(self, encode: str = "full",
                               encode_batch_size: int | None = None
                               ) -> tuple[np.ndarray, np.ndarray]:
        if encode not in {"full", "sampled"}:
            raise ValueError("encode must be 'full' or 'sampled'")
        if encode == "sampled":
            batch = encode_batch_size or DEFAULT_ENCODE_BATCH
            return (self.encode_entities_sampled("source", batch_size=batch),
                    self.encode_entities_sampled("target", batch_size=batch))
        kind = self.config.evaluation_embedding
        with no_grad():
            source_output, target_output = self.encode_both()
        return source_output.joint(kind).numpy(), target_output.joint(kind).numpy()

    def propagation_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Semantically consistent entities (``E_c``) of each graph.

        They act as the boundary condition of the propagation: their
        features are reset to the encoder output after every Euler step.
        """
        consistent_source, _, _ = self.task.source.features.consistency_partition()
        consistent_target, _, _ = self.task.target.features.consistency_partition()
        source_mask = np.zeros(self.task.source.num_entities, dtype=bool)
        target_mask = np.zeros(self.task.target.num_entities, dtype=bool)
        source_mask[consistent_source] = True
        target_mask[consistent_target] = True
        return source_mask, target_mask

    def decode(self, use_propagation: bool = True, encode: str = "full",
               encode_batch_size: int | None = None) -> PropagationResult:
        """Produce the pairwise similarity matrix ``Ω`` (Algorithm 1, line 15)."""
        source_embeddings, target_embeddings = self._evaluation_embeddings(
            encode=encode, encode_batch_size=encode_batch_size)
        source_known, target_known = self.propagation_masks()
        decoder = self.propagation if use_propagation else SemanticPropagation(iterations=0)
        return decoder(
            source_embeddings, target_embeddings,
            self.task.source.adjacency, self.task.target.adjacency,
            source_known=source_known, target_known=target_known,
        )

    def decode_states(self, use_propagation: bool = True, encode: str = "full",
                      encode_batch_size: int | None = None
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-round evaluation states feeding the streaming decode.

        One entry per Semantic Propagation round (a single entry without
        propagation, or when the config decodes from the last round only);
        the cosine similarities of the per-round states, averaged, are
        exactly what :meth:`decode` materialises densely.  This is the
        cacheable artefact the :class:`~repro.pipeline.Aligner` persists —
        decoding any ``k`` from the same states is bit-reproducible.
        """
        source_embeddings, target_embeddings = self._evaluation_embeddings(
            encode=encode, encode_batch_size=encode_batch_size)
        if use_propagation and self.config.propagation_iters > 0:
            source_known, target_known = self.propagation_masks()
            source_states = self.propagation.propagate_features(
                source_embeddings, self.task.source.adjacency, source_known)
            target_states = self.propagation.propagate_features(
                target_embeddings, self.task.target.adjacency, target_known)
            if not self.config.propagation_average:
                source_states = [source_states[-1]]
                target_states = [target_states[-1]]
        else:
            source_states = [source_embeddings]
            target_states = [target_embeddings]
        return source_states, target_states

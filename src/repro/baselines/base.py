"""Shared infrastructure for the baseline entity-alignment models.

Every baseline implements the same minimal aligner interface used by
:class:`repro.core.trainer.Trainer`:

* ``loss(source_index, target_index)`` — training loss over seed pairs,
* ``decode_states()`` — the evaluation embeddings that
  :func:`repro.core.similarity.decode_similarity` decodes,
* ``parameters()`` / ``num_parameters()`` — inherited from ``Module``.

:class:`ModalBaselineModel` factors the plumbing common to the multi-modal
baselines (EVA, MCLEA, MEAformer, PoE): per-modality FC projections,
optional structural GNN channel and the contrastive loss helper.  The
specific fusion and objective of each published method live in their own
modules.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.config import DEFAULT_ENCODE_BATCH, MODALITY_ORDER
from ..core.losses import bidirectional_contrastive_loss
from ..core.task import PreparedTask
from ..kg.sampling import NeighbourSampler, SubgraphView, attention_pattern
from ..nn import GAT, GCN, Linear, Module, ModuleDict, Parameter, init

__all__ = ["BaselineConfig", "ModalBaselineModel"]


class BaselineConfig:
    """Light-weight hyper-parameter bundle shared by the baselines."""

    def __init__(self, hidden_dim: int = 32, temperature: float = 0.1,
                 gnn: str = "gcn", gnn_layers: int = 2, gnn_heads: int = 2,
                 modalities: tuple[str, ...] = MODALITY_ORDER, seed: int = 0,
                 backend: str | None = None):
        if hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        if gnn not in {"gcn", "gat", "none"}:
            raise ValueError("gnn must be one of 'gcn', 'gat', 'none'")
        if backend not in {None, "dense", "sparse"}:
            raise ValueError("backend must be None (follow the task), 'dense' or 'sparse'")
        unknown = set(modalities) - set(MODALITY_ORDER)
        if unknown:
            raise ValueError(f"unknown modalities: {sorted(unknown)}")
        self.hidden_dim = hidden_dim
        self.temperature = temperature
        self.gnn = gnn
        self.gnn_layers = gnn_layers
        self.gnn_heads = gnn_heads
        self.modalities = tuple(modalities)
        self.seed = seed
        #: ``None`` keeps whatever backend the prepared task uses; setting it
        #: converts the task on model construction (GCN/GAT dispatch on the
        #: matrix type, so both backends share the code path below).
        self.backend = backend


class ModalBaselineModel(Module):
    """Base class providing modality encoders and decoding for baselines."""

    name = "baseline"

    def __init__(self, task: PreparedTask, config: BaselineConfig | None = None):
        super().__init__()
        self.config = config or BaselineConfig()
        if self.config.backend is not None:
            task = task.with_backend(self.config.backend)
        self.task = task
        rng = np.random.default_rng(self.config.seed)
        hidden = self.config.hidden_dim

        self._structure_keys: dict[str, str] = {}
        for side, prepared in (("source", task.source), ("target", task.target)):
            key = f"structure_{side}"
            self._parameters[key] = Parameter(
                init.normal(rng, (prepared.num_entities, hidden), std=0.3))
            self._structure_keys[side] = key

        if "graph" in self.config.modalities and self.config.gnn == "gat":
            self.gnn = GAT(hidden, self.config.gnn_layers, self.config.gnn_heads, rng)
        elif "graph" in self.config.modalities and self.config.gnn == "gcn":
            self.gnn = GCN(hidden, self.config.gnn_layers, rng)
        else:
            self.gnn = None

        self.projections = ModuleDict()
        for modality in self.config.modalities:
            if modality == "graph":
                continue
            self.projections[modality] = Linear(task.feature_dims[modality], hidden, rng)
        self._rng = rng
        # Full-neighbourhood samplers for batched inference, built lazily
        # once per side (cf. DESAlign._eval_samplers).
        self._eval_samplers: dict[str, NeighbourSampler] = {}

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def _prepared(self, side: str):
        return self.task.source if side == "source" else self.task.target

    def modal_embeddings(self, side: str) -> dict[str, Tensor]:
        """Per-modality hidden embeddings for one graph."""
        prepared = self._prepared(side)
        embeddings: dict[str, Tensor] = {}
        for modality in self.config.modalities:
            if modality == "graph":
                structure = self._parameters[self._structure_keys[side]]
                if isinstance(self.gnn, GCN):
                    embeddings["graph"] = self.gnn(structure, prepared.normalized_adjacency)
                elif isinstance(self.gnn, GAT):
                    embeddings["graph"] = self.gnn(structure, prepared.adjacency)
                else:
                    embeddings["graph"] = structure
            else:
                embeddings[modality] = self.projections[modality](
                    Tensor(prepared.features.features[modality]))
        return embeddings

    def joint_from_modal(self, modal: dict[str, Tensor]) -> Tensor:
        """Row-independent fusion of per-modality embeddings into the joint.

        Baselines whose fusion treats entities independently (GCN-Align's
        identity on the structure channel, EVA's globally-weighted
        concatenation) implement the fusion here; :meth:`joint_embedding`
        and the subgraph encoding path both route through it, which is what
        makes ``sampling="neighbour"`` / ``encode="sampled"`` numerically
        exact for them.  Baselines with entity-coupled objectives keep
        overriding :meth:`joint_embedding` instead and stay full-graph.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a row-independent "
            f"fusion (joint_from_modal); neighbour-sampled encoding is "
            f"unavailable for it")

    def joint_embedding(self, side: str) -> Tensor:
        """Joint entity embedding used for decoding.

        Defaults to :meth:`joint_from_modal` over the full-graph modal
        embeddings; baselines with entity-coupled fusions override this
        directly.
        """
        return self.joint_from_modal(self.modal_embeddings(side))

    # ------------------------------------------------------------------
    # Neighbour-sampled encoding
    # ------------------------------------------------------------------
    def neighbour_sampler(self, side: str, fanouts=None, seed: int = 0) -> NeighbourSampler:
        """Layer-wise neighbour sampler over one side's GNN operator.

        A GCN channel samples the *normalised adjacency* with unbiased
        ``degree / fanout`` rescaling, so a sampled ``spmm`` aggregation
        estimates the full one; a GAT channel samples the binary
        :func:`~repro.kg.sampling.attention_pattern` (attention ignores
        edge weights, so rescaling is moot).  In both cases
        full-neighbourhood fanouts reproduce the full-graph forward
        bit-for-bit on the seed rows.
        """
        prepared = self._prepared(side)
        if self.gnn is None:
            raise ValueError(
                f"{type(self).__name__} has no structural GNN channel "
                f"(gnn={self.config.gnn!r}); neighbour sampling requires "
                f"gnn='gcn' or gnn='gat'")
        if fanouts is None:
            fanouts = (None,) * self.config.gnn_layers
        if len(fanouts) != self.config.gnn_layers:
            raise ValueError(f"need one fanout per GNN layer "
                             f"({self.config.gnn_layers}), got {len(fanouts)}")
        if isinstance(self.gnn, GCN):
            return NeighbourSampler(prepared.normalized_adjacency, fanouts,
                                    seed=seed, rescale=True)
        return NeighbourSampler(attention_pattern(prepared.adjacency), fanouts,
                                seed=seed, rescale=False)

    def modal_embeddings_subgraph(self, side: str,
                                  view: SubgraphView) -> dict[str, Tensor]:
        """Per-modality embeddings restricted to a sampled subgraph.

        The structural channel runs the GNN on the renumbered blocks (only
        ``view.input_nodes`` rows of the embedding table participate); the
        FC channels are row-independent and simply slice the seed rows.
        """
        prepared = self._prepared(side)
        node_ids = view.seed_nodes
        embeddings: dict[str, Tensor] = {}
        for modality in self.config.modalities:
            if modality == "graph":
                table = self._parameters[self._structure_keys[side]].index_select(
                    view.input_nodes)
                embeddings["graph"] = self.gnn(table, view)
            else:
                embeddings[modality] = self.projections[modality](
                    Tensor(prepared.features.features[modality][node_ids]))
        return embeddings

    def encode_subgraph(self, side: str, view: SubgraphView) -> Tensor:
        """Joint embeddings of the view's seed rows (sampled forward)."""
        return self.joint_from_modal(self.modal_embeddings_subgraph(side, view))

    def subgraph_loss(self, source_view: SubgraphView, target_view: SubgraphView,
                      source_index: np.ndarray, target_index: np.ndarray,
                      source_local: np.ndarray | None = None,
                      target_local: np.ndarray | None = None) -> Tensor:
        """Contrastive loss over seed pairs encoded through sampled subgraphs.

        Mirrors :meth:`repro.core.model.DESAlign.subgraph_loss` so the
        neighbour-sampled training loop drives any baseline implementing
        :meth:`joint_from_modal` unchanged; on full-neighbourhood views it
        is numerically identical to :meth:`loss`.
        """
        source = self.encode_subgraph("source", source_view)
        target = self.encode_subgraph("target", target_view)
        if source_local is None:
            source_local = source_view.global_to_local(source_index)
        if target_local is None:
            target_local = target_view.global_to_local(target_index)
        return self.contrastive(source, target, source_local, target_local)

    def encode_entities_sampled(self, side: str,
                                batch_size: int = DEFAULT_ENCODE_BATCH) -> np.ndarray:
        """Joint embeddings of *all* entities via batched subgraph forwards."""
        prepared = self._prepared(side)
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
                values = self.encode_subgraph(side, view).numpy()
                if embeddings is None:
                    embeddings = np.empty((num_entities, values.shape[1]))
                view.scatter_rows(values, embeddings)
        return embeddings

    # ------------------------------------------------------------------
    # Aligner interface
    # ------------------------------------------------------------------
    def contrastive(self, source_embeddings: Tensor, target_embeddings: Tensor,
                    source_index: np.ndarray, target_index: np.ndarray,
                    pair_weights=None) -> Tensor:
        """Bi-directional in-batch contrastive loss at this baseline's temperature."""
        return bidirectional_contrastive_loss(
            source_embeddings, target_embeddings, source_index, target_index,
            self.config.temperature, pair_weights=pair_weights)

    def loss(self, source_index: np.ndarray, target_index: np.ndarray):
        raise NotImplementedError

    def decode_states(self, use_propagation: bool = False, encode: str = "full",
                      encode_batch_size: int | None = None
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Evaluation states feeding the decode (single round: no propagation).

        Mirrors :meth:`repro.core.model.DESAlign.decode_states` so the
        pipeline facade can cache and persist any registered aligner's
        decode inputs uniformly.  ``use_propagation`` means "use the
        propagation decoder if you have one" and is ignored here.
        ``encode="sampled"`` computes the joints through batched subgraph
        forwards — available to baselines implementing
        :meth:`joint_from_modal` with a GNN channel (GCN-Align, EVA);
        entity-coupled baselines raise from that hook instead.
        """
        del use_propagation  # no propagation decoder: single-state decode
        if encode not in {"full", "sampled"}:
            raise ValueError("encode must be 'full' or 'sampled'")
        if encode == "sampled":
            batch = encode_batch_size or DEFAULT_ENCODE_BATCH
            return ([self.encode_entities_sampled("source", batch_size=batch)],
                    [self.encode_entities_sampled("target", batch_size=batch)])
        with no_grad():
            source = self.joint_embedding("source").numpy()
            target = self.joint_embedding("target").numpy()
        return [source], [target]

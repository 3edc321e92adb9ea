"""Multi-modal knowledge graph representation (Sec. IV-A of the paper).

The encoder maps every entity of one MMKG to:

* per-modality hidden embeddings ``h_m`` (GAT for the structure, one FC per
  non-structural modality, Eq. 7-8);
* cross-modally attended embeddings ``ĥ_m`` and modality confidences
  ``w̃_m`` from the CAW block (Eq. 9-13);
* the early-fusion joint embedding ``h_Ori`` and late-fusion ``h_Fus``
  (Eq. 14), produced by concatenating confidence-weighted modal embeddings.

The same encoder (same parameters) is applied to the source and target
graphs; only the input features and the adjacency differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, l2_normalize
from ..nn import (
    CrossModalAttentionBlock,
    GAT,
    Linear,
    Module,
    ModuleDict,
    Parameter,
    init,
)
from .ann import count_dot_products
from .config import DESAlignConfig

__all__ = ["EncoderOutput", "MultiModalEncoder"]


@dataclass
class EncoderOutput:
    """All embeddings produced by one encoder pass over one graph.

    ``node_ids`` is ``None`` for a full-graph pass (row ``i`` is entity
    ``i``); for a subgraph pass it holds the global entity id of every row,
    so outputs can be scattered back into global embedding arrays.
    """

    modal: dict[str, Tensor]          # h_m, shape (N, d) per modality
    attended: dict[str, Tensor]       # ĥ_m after the CAW block
    confidences: Tensor               # (N, num_modalities), Eq. 13
    original: Tensor                  # h_Ori, early fusion (N, M*d)
    fused: Tensor                     # h_Fus, late fusion (N, M*d)
    node_ids: np.ndarray | None = None  # global entity id per row (subgraph pass)

    @property
    def modalities(self) -> list[str]:
        return list(self.modal)

    def confidence_for(self, modality: str) -> Tensor:
        """Column of the confidence matrix for ``modality``."""
        index = self.modalities.index(modality)
        return self.confidences[:, index]

    def joint(self, kind: str) -> Tensor:
        """Return the requested joint embedding (``"original"`` or ``"fused"``)."""
        if kind == "original":
            return self.original
        if kind == "fused":
            return self.fused
        raise ValueError("kind must be 'original' or 'fused'")


class MultiModalEncoder(Module):
    """Shared multi-modal entity encoder used by DESAlign.

    Parameters
    ----------
    config:
        Model hyper-parameters; ``config.modalities`` controls which
        channels are instantiated (modality ablations simply omit one).
    feature_dims:
        Raw input dimensionality per modality (from the prepared task).
    num_entities:
        Entity counts per side, keyed ``"source"`` / ``"target"``; each side
        owns its trainable structural embedding table ``x^g``.
    """

    def __init__(self, config: DESAlignConfig, feature_dims: dict[str, int],
                 num_entities: dict[str, int], rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.modalities = tuple(config.modalities)
        hidden = config.hidden_dim

        # Trainable structural embeddings, one table per graph (Eq. 7 input).
        self._structure_keys: dict[str, str] = {}
        for side, count in num_entities.items():
            key = f"structure_{side}"
            self._parameters[key] = Parameter(init.normal(rng, (count, hidden), std=0.3))
            self._structure_keys[side] = key

        if "graph" in self.modalities:
            self.gat = GAT(hidden, config.gat_layers, config.gat_heads, rng)
        self.projections = ModuleDict()
        for modality in self.modalities:
            if modality == "graph":
                continue
            self.projections[modality] = Linear(feature_dims[modality], hidden, rng)
        self.cross_modal = CrossModalAttentionBlock(
            hidden, config.attention_heads, config.feed_forward_dim, rng,
            dropout_rate=config.dropout)

    # ------------------------------------------------------------------
    def structural_embedding(self, side: str) -> Parameter:
        """The trainable ``x^g`` table of one side."""
        return self._parameters[self._structure_keys[side]]

    def _meter_forward(self, num_rows: int, num_edges: int) -> None:
        """Report the forward pass to the active FLOPs meter.

        Shape-derived dot-product counts (the same unit the decode paths
        meter): per GAT layer one hidden-dim transform cell per (row,
        hidden) pair plus one attention logit per (edge, head) and one
        aggregation op per edge; per FC modality its projection cells; and
        for the CAW block the QKV projections, the M×M attention logits /
        weighted sums per head, and the position-wise feed-forward.  With
        this, ``flops_counter()`` spans encode + decode end to end.
        """
        config = self.config
        hidden = config.hidden_dim
        cells = 0
        for modality in self.modalities:
            if modality == "graph":
                cells += config.gat_layers * (
                    num_rows * hidden
                    + num_edges * (config.gat_heads + 1))
            else:
                cells += num_rows * hidden
        num_modal = len(self.modalities)
        cells += num_rows * num_modal * 3 * hidden
        cells += num_rows * num_modal * num_modal * 2 * config.attention_heads
        cells += num_rows * num_modal * (config.feed_forward_dim + hidden)
        count_dot_products(cells)

    def forward(self, side: str, features: dict[str, np.ndarray],
                adjacency, subgraph=None) -> EncoderOutput:
        """Encode one graph, fully or restricted to a sampled subgraph.

        Parameters
        ----------
        side:
            ``"source"`` or ``"target"`` — selects the structural table.
        features:
            Raw modal feature matrices for this graph.
        adjacency:
            Adjacency matrix of this graph — dense ``np.ndarray`` or CSR;
            the structural GAT dispatches to masked-dense or edge-list
            attention accordingly.  Ignored when ``subgraph`` is given.
        subgraph:
            Optional :class:`~repro.kg.sampling.SubgraphView` (sampled over
            this graph's attention pattern).  The structural GAT then runs
            on the renumbered local blocks — only ``subgraph.input_nodes``
            rows of the embedding table enter the computation — and every
            output covers exactly the ``subgraph.seed_nodes`` rows, with
            the ids recorded in ``EncoderOutput.node_ids``.
        """
        if subgraph is not None:
            node_ids = subgraph.seed_nodes
            self._meter_forward(
                len(node_ids),
                sum(layer.num_edges for layer in subgraph.layers)
                if "graph" in self.modalities else 0)
            modal: dict[str, Tensor] = {}
            for modality in self.modalities:
                if modality == "graph":
                    table = self.structural_embedding(side).index_select(
                        subgraph.input_nodes)
                    modal["graph"] = self.gat(table, subgraph)
                else:
                    modal[modality] = self.projections[modality](
                        Tensor(features[modality][node_ids]))
            return self._fuse(modal, node_ids=node_ids)

        modal = {}
        edges = int(adjacency.nnz) if "graph" in self.modalities else 0
        self._meter_forward(self.structural_embedding(side).data.shape[0], edges)
        for modality in self.modalities:
            if modality == "graph":
                modal["graph"] = self.gat(self.structural_embedding(side), adjacency)
            else:
                modal[modality] = self.projections[modality](Tensor(features[modality]))
        return self._fuse(modal)

    def _fuse(self, modal: dict[str, Tensor],
              node_ids: np.ndarray | None = None) -> EncoderOutput:
        """CAW attention + confidence-weighted fusion (rows are independent)."""
        stacked = Tensor.stack([modal[m] for m in self.modalities], axis=1)
        attended_stack, confidences = self.cross_modal(stacked)
        attended = {m: attended_stack[:, i, :] for i, m in enumerate(self.modalities)}

        # Each modality is L2-normalised before weighting so that no single
        # channel dominates the concatenated joint embedding purely through
        # its feature scale; the confidences then control the contribution.
        weighted_original = []
        weighted_fused = []
        for index, modality in enumerate(self.modalities):
            weight = confidences[:, index].reshape(-1, 1)
            weighted_original.append(l2_normalize(modal[modality]) * weight)
            weighted_fused.append(l2_normalize(attended[modality]) * weight)
        original = Tensor.concat(weighted_original, axis=-1)
        fused = Tensor.concat(weighted_fused, axis=-1)
        return EncoderOutput(
            modal=modal,
            attended=attended,
            confidences=confidences,
            original=original,
            fused=fused,
            node_ids=node_ids,
        )

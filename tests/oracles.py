"""Shared brute-force oracles for the decode stack's test suites.

Every optimised decode path in the library — vectorised ranking, partial-
selection CSLS, streaming blockwise top-k, approximate candidate decodes —
is validated against the straightforward formulations collected here.  The
oracles deliberately trade speed for obviousness: per-test-pair Python
loops, full ``np.sort`` reductions and quadratic scans, exactly as the
historical implementations computed them, so a test failure localises the
bug in the optimised path rather than the reference.

The helpers accept plain dense similarity matrices (oracles never consume
streaming decodes; producing the dense matrix is the caller's job).

The graph operators have oracles of the same kind: the library computes
``Ã``, ``Δ``, the Dirichlet energies, the Proposition 4 closed form and the
GAT attention on CSR matrices only, and the dense ``n x n`` formulations
below are what the property suites compare them against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, softmax
from repro.kg.sparse import _inverse_sqrt_degrees

__all__ = [
    "reference_ranks",
    "reference_csls",
    "reference_mutual_pairs",
    "reference_topk",
    "reference_adjacency",
    "reference_normalized_adjacency",
    "reference_graph_laplacian",
    "reference_dirichlet_energy",
    "reference_dirichlet_energy_pairwise",
    "reference_closed_form_interpolation",
    "reference_gat_layer_forward",
    "reference_spmm",
]


def reference_ranks(similarity, test_pairs, restrict_candidates: bool = True) -> np.ndarray:
    """The historical per-test-pair Python loop, kept as a semantics oracle.

    Rank = 1 + strictly-better candidates + equal-scoring candidates whose
    column precedes the gold's (the deterministic index-order tie break of
    the evaluation protocol).
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    test_pairs = np.asarray(test_pairs, dtype=np.int64)
    if restrict_candidates:
        candidates = np.unique(test_pairs[:, 1])
    else:
        candidates = np.arange(similarity.shape[1])
    candidate_position = {int(t): i for i, t in enumerate(candidates)}
    scores = similarity[:, candidates]
    ranks = np.zeros(len(test_pairs), dtype=np.int64)
    for row, (source_id, target_id) in enumerate(test_pairs):
        gold_column = candidate_position[int(target_id)]
        row_scores = scores[source_id]
        gold_score = row_scores[gold_column]
        better = np.sum(row_scores > gold_score)
        ties_before = np.sum((row_scores == gold_score)[:gold_column])
        ranks[row] = 1 + better + ties_before
    return ranks


def reference_csls(similarity, k: int = 10) -> np.ndarray:
    """CSLS via the historical full-sort formulation.

    ``CSLS(i, j) = 2 s(i, j) - r_T(i) - r_S(j)`` with the k-NN means taken
    over ascending-sorted slices, which fixes the summation order the
    optimised partition-based implementation must reproduce bit for bit.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    k_row = min(k, similarity.shape[1])
    k_col = min(k, similarity.shape[0])
    row_mean = np.sort(similarity, axis=1)[:, -k_row:].mean(axis=1, keepdims=True)
    col_mean = np.sort(similarity, axis=0)[-k_col:, :].mean(axis=0, keepdims=True)
    return 2.0 * similarity - row_mean - col_mean


def reference_mutual_pairs(similarity, threshold: float = 0.0,
                           exclude_source=None,
                           exclude_target=None) -> list[tuple[int, int]]:
    """Mutual nearest neighbours by an explicit per-row/per-column scan.

    ``np.argmax`` first-index tie semantics in both directions, then the
    threshold and the exclusion sets — the selection rule of the iterative
    strategy, spelled out one pair at a time.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    exclude_source = exclude_source or set()
    exclude_target = exclude_target or set()
    pairs: list[tuple[int, int]] = []
    for source_id in range(similarity.shape[0]):
        target_id = int(np.argmax(similarity[source_id]))
        if int(np.argmax(similarity[:, target_id])) != source_id:
            continue
        if similarity[source_id, target_id] < threshold:
            continue
        if source_id in exclude_source or target_id in exclude_target:
            continue
        pairs.append((source_id, target_id))
    return pairs


def reference_topk(similarity, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` (indices, scores) by full argsort.

    Sorted by descending score with ties broken by ascending column id —
    the deterministic order the streaming engine stores.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    k = min(k, similarity.shape[1])
    indices = np.empty((similarity.shape[0], k), dtype=np.int64)
    scores = np.empty((similarity.shape[0], k), dtype=np.float64)
    columns = np.arange(similarity.shape[1])
    for row in range(similarity.shape[0]):
        order = np.lexsort((columns, -similarity[row]))[:k]
        indices[row] = order
        scores[row] = similarity[row][order]
    return indices, scores


# ---------------------------------------------------------------------------
# Dense graph-operator oracles
# ---------------------------------------------------------------------------
def _dense(matrix) -> np.ndarray:
    if sp.issparse(matrix):
        return matrix.toarray().astype(np.float64)
    return np.asarray(matrix, dtype=np.float64)


def reference_adjacency(graph, weighted: bool = False) -> np.ndarray:
    """Dense symmetric adjacency of a ``MultiModalKG``, triple by triple."""
    adjacency = np.zeros((graph.num_entities, graph.num_entities))
    for triple in graph.relation_triples:
        if triple.head == triple.tail:
            continue
        adjacency[triple.head, triple.tail] += 1.0
        adjacency[triple.tail, triple.head] += 1.0
    if not weighted:
        adjacency = (adjacency > 0).astype(np.float64)
    return adjacency


def reference_normalized_adjacency(adjacency, add_self_loops: bool = True) -> np.ndarray:
    """Dense ``D^{-1/2} (A [+ I]) D^{-1/2}``."""
    dense = _dense(adjacency)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("adjacency must be square")
    if add_self_loops:
        dense = dense + np.eye(dense.shape[0])
    # The library's degree guard, so isolated nodes agree bit for bit.
    inv_sqrt = _inverse_sqrt_degrees(dense.sum(axis=1))
    return dense * inv_sqrt[:, None] * inv_sqrt[None, :]


def reference_graph_laplacian(adjacency, add_self_loops: bool = True) -> np.ndarray:
    """Dense normalised Laplacian ``Δ = I - Ã``."""
    normalised = reference_normalized_adjacency(adjacency, add_self_loops=add_self_loops)
    return np.eye(normalised.shape[0]) - normalised


def reference_dirichlet_energy(features, laplacian) -> float:
    """Dense trace form ``tr(Xᵀ Δ X)``."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return float(np.trace(features.T @ _dense(laplacian) @ features))


def reference_dirichlet_energy_pairwise(features, adjacency,
                                        add_self_loops: bool = True) -> float:
    """Pairwise form of Definition 3 over all ``n²`` pairs."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    dense = _dense(adjacency)
    if add_self_loops:
        dense = dense + np.eye(dense.shape[0])
    inv_sqrt = _inverse_sqrt_degrees(dense.sum(axis=1))
    scaled = features * inv_sqrt[:, None]
    # ||s_i - s_j||^2 = ||s_i||^2 + ||s_j||^2 - 2 s_i.s_j, summed with weights a_ij.
    squared_norms = np.sum(scaled ** 2, axis=1)
    pairwise = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (scaled @ scaled.T)
    return float(0.5 * np.sum(dense * pairwise))


def reference_closed_form_interpolation(features, adjacency, known) -> np.ndarray:
    """Proposition 4 with ``np.linalg.solve`` on the dense Laplacian blocks."""
    features = np.asarray(features, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    solution = features.copy()
    if known.all():
        return solution
    unknown = ~known
    laplacian = reference_graph_laplacian(adjacency)
    lap_oo = laplacian[np.ix_(unknown, unknown)]
    lap_oc = laplacian[np.ix_(unknown, known)]
    solution[unknown] = np.linalg.solve(lap_oo, -lap_oc @ features[known])
    return solution


def reference_gat_layer_forward(layer, features: Tensor, adjacency) -> Tensor:
    """Masked-dense forward of a ``GATLayer``: all ``n²`` logits, non-edges masked.

    Differentiable, so gradients can be compared as well as values.
    """
    dense = _dense(adjacency)
    mask = (dense > 0) | np.eye(dense.shape[0], dtype=bool)
    bias = Tensor(np.where(mask, 0.0, -1e9))
    outputs = []
    for head in range(layer.num_heads):
        transformed = features @ layer._head_weight(head)
        logits_src = transformed @ layer._attn_src[head]          # (N, 1)
        logits_dst = transformed @ layer._attn_dst[head]          # (N, 1)
        logits = (logits_src + logits_dst.T).leaky_relu(layer.negative_slope)
        attention = softmax(logits + bias, axis=-1)
        outputs.append(attention @ transformed)
    return Tensor.concat(outputs, axis=-1)


def reference_spmm(matrix, x: Tensor) -> Tensor:
    """Dense ``matrix @ x`` through the autograd matmul (``matrix`` constant)."""
    return Tensor(_dense(matrix)) @ Tensor.ensure(x)

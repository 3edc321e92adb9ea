"""Semantic Propagation (Sec. IV-C, Algorithm 1 of the paper).

Missing modal semantics are interpolated by running the gradient flow of the
Dirichlet energy, discretised with the explicit Euler scheme of Eq. 20-22:

``x^{(k+1)} ← Ã x^{(k)}``, then reset the semantically consistent rows to
their original values.  Pairwise similarities are computed after every
round and averaged (Algorithm 1, line 15), which both exploits the varying
semantic content of each round and protects the consistent entities from
over-smoothing.

The closed-form solution of Proposition 4 (solving the linear system on the
missing block) is also provided; it is used as a ground truth in tests and
as an alternative decoder for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..kg.laplacian import graph_laplacian, normalized_adjacency
from ..kg.sparse import graph_laplacian_sparse, normalized_adjacency_sparse
from .ann import _normalize_rows

__all__ = ["SemanticPropagation", "PropagationResult", "closed_form_interpolation"]


@dataclass
class PropagationResult:
    """Artefacts of one propagation run over a pair of embedding matrices."""

    source_states: list[np.ndarray]
    target_states: list[np.ndarray]
    similarities: list[np.ndarray]
    averaged_similarity: np.ndarray

    @property
    def num_rounds(self) -> int:
        return len(self.similarities) - 1

    def final_similarity(self, average: bool = True) -> np.ndarray:
        """The decoding similarity: averaged over rounds or last round only."""
        return self.averaged_similarity if average else self.similarities[-1]


def _cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    return _normalize_rows(source) @ _normalize_rows(target).T


def closed_form_interpolation(features: np.ndarray, adjacency,
                              known: np.ndarray) -> np.ndarray:
    """Closed-form minimiser of the Dirichlet energy with boundary conditions.

    Proposition 4: with ``Δ`` partitioned into known/unknown blocks, the
    energy minimiser for the unknown rows solves ``Δ_oo x_o = -Δ_oc x_c``.
    A dense adjacency is solved with ``np.linalg.solve`` (cubic, small
    graphs only); a sparse one with a sparse LU factorisation
    (``scipy.sparse.linalg.splu``), which scales to large graphs.
    """
    features = np.asarray(features, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    if known.all():
        return features.copy()
    unknown = ~known
    solution = features.copy()
    if sp.issparse(adjacency):
        laplacian = graph_laplacian_sparse(adjacency).tocsr()
        unknown_idx = np.flatnonzero(unknown)
        known_idx = np.flatnonzero(known)
        lap_oo = laplacian[unknown_idx][:, unknown_idx].tocsc()
        lap_oc = laplacian[unknown_idx][:, known_idx]
        rhs = -np.asarray(lap_oc @ features[known_idx])
        solution[unknown_idx] = splu(lap_oo).solve(rhs)
        return solution
    laplacian = graph_laplacian(adjacency)
    lap_oo = laplacian[np.ix_(unknown, unknown)]
    lap_oc = laplacian[np.ix_(unknown, known)]
    solution[unknown] = np.linalg.solve(lap_oo, -lap_oc @ features[known])
    return solution


class SemanticPropagation:
    """Explicit-Euler semantic propagation decoder (Algorithm 1, lines 11-15).

    Parameters
    ----------
    iterations:
        Number of propagation rounds ``n_p``; 0 disables propagation and the
        decoder reduces to plain cosine similarity on the input embeddings.
    reset_known:
        Reset rows of semantically consistent entities to their original
        values after every round (Eq. 22).  Disabling this reproduces the
        simplified variant of Algorithm 1 where consistent features also
        join the propagation.
    average_similarities:
        Average pairwise similarities over all rounds (paper's rule) rather
        than returning only the final round.
    """

    def __init__(self, iterations: int = 2, reset_known: bool = True,
                 average_similarities: bool = True):
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        self.iterations = iterations
        self.reset_known = reset_known
        self.average_similarities = average_similarities

    # ------------------------------------------------------------------
    def propagate_features(self, features: np.ndarray, adjacency,
                           known: np.ndarray | None = None) -> list[np.ndarray]:
        """Run the Euler scheme on one graph, returning every intermediate state.

        A sparse adjacency keeps the propagation matrix in CSR form, so each
        Euler step costs ``O(|E| d)`` instead of ``O(n² d)``.
        """
        features = np.asarray(features, dtype=np.float64)
        if sp.issparse(adjacency):
            propagation_matrix = normalized_adjacency_sparse(adjacency)
        else:
            propagation_matrix = normalized_adjacency(adjacency)
        states = [features.copy()]
        current = features.copy()
        known_mask = None
        if known is not None:
            known_mask = np.asarray(known, dtype=bool)
        for _ in range(self.iterations):
            current = np.asarray(propagation_matrix @ current)
            if self.reset_known and known_mask is not None and known_mask.any():
                current[known_mask] = features[known_mask]
            states.append(current.copy())
        return states

    def __call__(self, source_features: np.ndarray, target_features: np.ndarray,
                 source_adjacency, target_adjacency,
                 source_known: np.ndarray | None = None,
                 target_known: np.ndarray | None = None) -> PropagationResult:
        """Propagate both sides and compute per-round / averaged similarities."""
        source_states = self.propagate_features(source_features, source_adjacency, source_known)
        target_states = self.propagate_features(target_features, target_adjacency, target_known)
        similarities = [
            _cosine_similarity(source_state, target_state)
            for source_state, target_state in zip(source_states, target_states)
        ]
        averaged = np.mean(similarities, axis=0) if self.average_similarities else similarities[-1]
        return PropagationResult(
            source_states=source_states,
            target_states=target_states,
            similarities=similarities,
            averaged_similarity=averaged,
        )

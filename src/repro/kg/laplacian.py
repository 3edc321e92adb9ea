"""Spectral graph utilities: normalised adjacency, Laplacian and Dirichlet energy.

These implement the quantities of the paper's preliminaries (Sec. II):
``Ã = D^{-1/2} A D^{-1/2}``, ``Δ = I - Ã`` and the Dirichlet energy
``E(X) = tr(Xᵀ Δ X)`` of Definition 3, together with the partitioned views
(consistent / count-inconsistent / modality-missing entities, Eq. 2) used by
Semantic Propagation.

Every operator is CSR: a dense adjacency or Laplacian passed in is converted
once with ``scipy.sparse.csr_matrix``, so memory stays ``O(|E|)`` and
time ``O(|E| d)``.  The dense ``n x n`` formulations are test oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .sparse import _as_csr, _inverse_sqrt_degrees, largest_eigenvalue

__all__ = [
    "normalized_adjacency",
    "graph_laplacian",
    "dirichlet_energy",
    "dirichlet_energy_pairwise",
    "energy_gap_bounds",
    "layer_energy_bounds",
    "partition_laplacian",
    "largest_laplacian_eigenvalue",
]


def normalized_adjacency(adjacency, add_self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric normalisation ``D^{-1/2} (A [+ I]) D^{-1/2}`` as a CSR matrix.

    Adding self-loops (the default) matches the ``D + 1`` degree shift in
    the paper's Definition 3 and keeps isolated entities well defined — such
    entities are common in the high-missing-modality splits.  The result
    keeps ``O(|E|)`` non-zeros.
    """
    matrix = _as_csr(adjacency)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency must be square")
    if add_self_loops:
        matrix = (matrix + sp.identity(matrix.shape[0], format="csr")).tocsr()
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = _inverse_sqrt_degrees(degrees)
    scaling = sp.diags(inv_sqrt)
    return (scaling @ matrix @ scaling).tocsr()


def graph_laplacian(adjacency, add_self_loops: bool = True) -> sp.csr_matrix:
    """Normalised graph Laplacian ``Δ = I - Ã`` (CSR, positive semi-definite)."""
    normalised = normalized_adjacency(adjacency, add_self_loops=add_self_loops)
    return (sp.identity(normalised.shape[0], format="csr") - normalised).tocsr()


def dirichlet_energy(features: np.ndarray, laplacian) -> float:
    """Dirichlet energy ``tr(Xᵀ Δ X)`` of Definition 3 (trace form).

    Evaluated as ``Σ_ij x_ij (Δ x)_ij`` in ``O(|E| d)`` on the CSR form of
    ``laplacian``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return float(np.sum(features * np.asarray(_as_csr(laplacian) @ features)))


def dirichlet_energy_pairwise(features: np.ndarray, adjacency,
                              add_self_loops: bool = True) -> float:
    """Dirichlet energy in the pairwise form of Definition 3, summed over edges.

    ``1/2 Σ_ij a_ij || x_i / sqrt(d_i) - x_j / sqrt(d_j) ||²`` with degrees
    taken after the optional self-loop shift; equals the trace form for the
    same Laplacian (verified by property-based tests).  Self-loop terms
    vanish, so only the off-diagonal edges are visited in ``O(|E| d)``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    matrix = _as_csr(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    if add_self_loops:
        degrees = degrees + 1.0
    scaled = features * _inverse_sqrt_degrees(degrees)[:, None]
    coo = matrix.tocoo()
    off_diagonal = coo.row != coo.col
    rows, cols = coo.row[off_diagonal], coo.col[off_diagonal]
    weights = coo.data[off_diagonal]
    difference = scaled[rows] - scaled[cols]
    return float(0.5 * np.sum(weights * np.sum(difference * difference, axis=1)))


def largest_laplacian_eigenvalue(laplacian) -> float:
    """Largest eigenvalue of the (symmetric) Laplacian; lies in ``[0, 2)``.

    Tiny graphs use exact ``eigvalsh``; anything larger uses Lanczos
    ``eigsh(k=1)`` (with a power-iteration fallback), which avoids the
    ``O(n³)`` full eigendecomposition.
    """
    return largest_eigenvalue(laplacian)


def energy_gap_bounds(original: np.ndarray, modified: np.ndarray,
                      laplacian) -> tuple[float, float, float]:
    """Bounds of Corollary 1 on ``||X̂ - X||₂`` from the Dirichlet-energy gap.

    Returns ``(lower, distance, upper)`` where ``distance`` is the Frobenius
    norm of the perturbation and ``lower <= distance`` always holds (the
    upper bound requires the minimum-norm condition of the corollary and is
    reported for inspection).
    """
    original = np.asarray(original, dtype=np.float64)
    modified = np.asarray(modified, dtype=np.float64)
    gap = abs(dirichlet_energy(modified, laplacian) - dirichlet_energy(original, laplacian))
    lam = max(largest_laplacian_eigenvalue(laplacian), 1e-12)
    norm_max = max(np.linalg.norm(original), np.linalg.norm(modified), 1e-12)
    norm_min = max(min(np.linalg.norm(original), np.linalg.norm(modified)), 1e-12)
    distance = float(np.linalg.norm(modified - original))
    lower = gap / (2.0 * lam * norm_max)
    upper = gap / (2.0 * lam * norm_min)
    return lower, distance, upper


def layer_energy_bounds(weight: np.ndarray, previous_energy: float) -> tuple[float, float]:
    """Proposition 2 bounds on the energy after a linear layer ``X W``.

    The energy of ``X^{(k)} = X^{(k-1)} W`` is bounded by the squared
    minimum / maximum singular values of ``W`` times the previous energy.
    """
    singular_values = np.linalg.svd(np.asarray(weight, dtype=np.float64), compute_uv=False)
    p_min = float(singular_values.min() ** 2)
    p_max = float(singular_values.max() ** 2)
    return p_min * previous_energy, p_max * previous_energy


def partition_laplacian(laplacian,
                        consistent: np.ndarray,
                        count_inconsistent: np.ndarray,
                        missing: np.ndarray) -> dict[str, sp.csr_matrix]:
    """Partition ``Δ`` into the CSR blocks of Eq. 2 / Eq. 18.

    ``consistent``, ``count_inconsistent`` and ``missing`` are index arrays
    for ``E_c``, ``E_{o1}`` and ``E_{o2}``; they must be disjoint and cover
    all nodes.  The returned dict holds every block needed by the
    closed-form solution of Proposition 4 and the Euler scheme.
    """
    consistent = np.asarray(consistent, dtype=np.int64)
    count_inconsistent = np.asarray(count_inconsistent, dtype=np.int64)
    missing = np.asarray(missing, dtype=np.int64)
    union = np.concatenate([consistent, count_inconsistent, missing])
    if len(np.unique(union)) != laplacian.shape[0] or len(union) != laplacian.shape[0]:
        raise ValueError("partition must be disjoint and cover every node")
    laplacian = _as_csr(laplacian)
    index = {"c": consistent, "o1": count_inconsistent, "o2": missing}
    return {f"{row_key}{col_key}": laplacian[rows][:, cols]
            for row_key, rows in index.items()
            for col_key, cols in index.items()}

"""Blockwise (streaming) top-k similarity decoding.

Every decode path of this repository — evaluation (H@k / MRR), CSLS hubness
correction and the mutual-nearest-neighbour bootstrapping of the iterative
training strategy — only ever needs each entity's ``k`` nearest cross-graph
neighbours, never the full ``n_s x n_t`` similarity matrix.  This module
provides a block-partitioned matmul engine that walks source rows in
configurable chunks and, per block, reduces immediately to

* the exact top-``k`` neighbours and scores of every source row
  (``np.argpartition`` + a deterministic (score desc, index asc) sort),
* the running column max / argmax needed for mutual-NN selection, and
* the row/column k-NN mean similarities needed for CSLS,

so peak memory is ``O(block · n_t)`` instead of ``O(n_s · n_t)``.  The
normalised embeddings are kept (``O((n_s + n_t) · d)``) so any single row
can be re-materialised exactly — the evaluation fallback when a gold target
falls outside the stored top-``k``.

Semantic Propagation decoding averages per-round cosine similarities
(Algorithm 1, line 15); the engine therefore accepts *lists* of embedding
states and streams the round-averaged similarity block by block, which is
exactly the quantity the dense decoder materialises.

With ``dtype=np.float64`` (the default) the streamed values are the same
BLAS products the dense path computes, so metrics agree to ~1e-12;
``dtype=np.float32`` halves memory and roughly doubles throughput for large
decodes at a small accuracy cost (normalisation always happens in float64,
once, up front).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rules
from .ann import (
    AnnConfig,
    RowCandidates,
    _normalize_rows,
    count_dot_products,
    generate_candidates,
)
from .propagation import _cosine_similarity

__all__ = [
    "TopKSimilarity",
    "PartialTopK",
    "blockwise_topk",
    "compute_partial_topk",
    "compute_partial_topk_candidates",
    "merge_partials",
    "merge_partial_topk",
    "decode_similarity",
    "resolve_decode",
    "resolve_candidates",
    "DEFAULT_BLOCK_SIZE",
    "DENSE_DECODE_CELL_LIMIT",
]

#: Source rows per streamed block.
DEFAULT_BLOCK_SIZE = 1024

#: ``decode="auto"`` stays dense up to this many similarity-matrix cells
#: (4M float64 cells = 32 MB); larger decodes switch to blockwise top-k.
DENSE_DECODE_CELL_LIMIT = 4_000_000


def resolve_decode(decode: str, shape: tuple[int, int],
                   cell_limit: int = DENSE_DECODE_CELL_LIMIT) -> str:
    """Resolve a ``"dense" | "blockwise" | "auto"`` switch for a decode shape."""
    rules.check_decode_method(decode)
    if decode != "auto":
        return decode
    return "dense" if shape[0] * shape[1] <= cell_limit else "blockwise"


def resolve_candidates(candidates: str, decode: str) -> None:
    """Validate a ``candidates``/``decode`` switch combination.

    Candidate generation only exists on the streaming path; pairing it with
    an explicit dense decode is a contradiction and is rejected rather than
    silently ignored (``decode="auto"`` routes to blockwise instead).  Both
    rules live in :mod:`repro.core.rules` (shared with the spec validator).
    """
    rules.check_candidates_method(candidates)
    rules.check_candidates_decode(candidates, decode)


def decode_similarity(source, target, decode: str = "auto", k: int = 10,
                      block_size: int | None = None, dtype=np.float64,
                      candidates: str = "exhaustive",
                      ann: AnnConfig | None = None, warm_start=None):
    """The decode router: every model-level decode goes through here.

    ``source`` / ``target`` are the per-round state lists a model's
    ``decode_states()`` returns (a bare matrix is one round).  The decode
    averages the per-round cosine similarities (Algorithm 1, line 15):

    * ``decode="dense"`` materialises that average, bit-identical to
      :meth:`repro.core.propagation.SemanticPropagation.__call__`;
    * ``decode="blockwise"`` streams it through :func:`blockwise_topk`;
    * ``candidates="ivf" | "lsh"`` first generates approximate candidate
      sets (see :mod:`repro.core.ann`), forcing the blockwise path.
      ``warm_start`` carries an :class:`~repro.core.ann.IVFWarmStart`
      across repeated decodes so the IVF quantiser re-fits from the
      previous centroids.

    ``"auto"`` stays dense up to :data:`DENSE_DECODE_CELL_LIMIT` cells.
    An ``ann`` config without a seed uses seed 0; callers that own a seed
    resolve it first (:func:`repro.core.ann.resolve_ann`).
    """
    resolve_candidates(candidates, decode)
    source_states = _as_state_list(source)
    target_states = _as_state_list(target)
    row_candidates = None
    if candidates != "exhaustive":
        row_candidates = generate_candidates(candidates, source_states,
                                             target_states, ann,
                                             warm_start=warm_start)
    elif resolve_decode(decode, (len(source_states[0]),
                                 len(target_states[0]))) == "dense":
        return np.mean([_cosine_similarity(source_state, target_state)
                        for source_state, target_state
                        in zip(source_states, target_states)], axis=0)
    return blockwise_topk(source_states, target_states, k=k,
                          block_size=block_size, dtype=dtype,
                          row_candidates=row_candidates)


def _as_state_list(states) -> list[np.ndarray]:
    if isinstance(states, np.ndarray):
        return [states]
    return [np.asarray(state) for state in states]


@dataclass
class TopKSimilarity:
    """Streaming decode artefacts: exact top-k rows plus global reductions.

    ``indices`` / ``scores`` hold, per source row, the ``k`` best target
    entities sorted by descending score with ties broken by ascending
    target id (matching ``np.argmax`` semantics in position 0).  When the
    decode was restricted to a candidate subset, ``columns`` holds the
    (sorted) original target ids and ``indices`` refers to those original
    ids; the column-wise arrays are positional within ``columns``.

    ``approximate`` marks a decode restricted to per-row candidate sets
    (``row_candidates``): uncomputed cells are unknown, so the exact-row
    fallbacks and the CSLS statistics are unavailable — consumers that
    would be silently lossy raise instead.  ``computed_cells`` counts the
    dot products the decode actually performed (the FLOPs proxy recorded
    by the efficiency experiment and enforced by the scaling benchmark).

    ``worker_rss_mb`` is the *sum* of the forked workers' peak RSS when the
    decode ran sharded (``num_workers > 1``), zero otherwise.  The parent's
    ``getrusage`` cannot provide this figure — ``RUSAGE_CHILDREN`` tracks
    only the single largest terminated child — so the efficiency experiment
    adds it to the parent's own peak to report true multi-process memory.
    """

    shape: tuple[int, int]
    k: int
    csls_k: int
    indices: np.ndarray            # (n_s, k) original target ids
    scores: np.ndarray             # (n_s, k) descending
    col_max: np.ndarray            # (n_cols,)
    col_argmax: np.ndarray         # (n_cols,) source ids (first max wins)
    row_knn_mean: np.ndarray       # (n_s,)  CSLS r_T
    col_knn_mean: np.ndarray       # (n_cols,) CSLS r_S
    columns: np.ndarray | None = None
    dtype: np.dtype = np.dtype(np.float64)
    approximate: bool = False
    computed_cells: int = 0
    worker_rss_mb: float = 0.0
    _source_norm: list[np.ndarray] = field(default_factory=list, repr=False)
    _target_norm: list[np.ndarray] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_source(self) -> int:
        return self.shape[0]

    @property
    def num_columns(self) -> int:
        """Number of target columns actually decoded (candidate-restricted)."""
        return len(self.col_max)

    def is_exhaustive(self) -> bool:
        """True when every decoded column is stored, i.e. top-k is the full row."""
        return not self.approximate and self.k >= self.num_columns

    def _require_exact(self, operation: str) -> None:
        if self.approximate:
            raise ValueError(
                f"{operation} needs every similarity cell, but this decode was "
                "restricted to approximate candidate sets; decode with "
                "candidates='exhaustive' (or, for mutual-NN pseudo-seeding, "
                "an exact-escalation IVF decode)")

    # ------------------------------------------------------------------
    def row_scores(self, source_id: int) -> np.ndarray:
        """Exact full similarity row (over the decoded columns).

        This is the ``O(n_t)`` exactness fallback used when a gold target
        falls outside the stored top-``k``: the same round-averaged product
        the streaming pass computed, re-materialised for one row.
        """
        self._require_exact("row_scores")
        row = np.zeros(self.num_columns, dtype=np.float64)
        for source_state, target_state in zip(self._source_norm, self._target_norm):
            row += np.asarray(source_state[source_id] @ target_state.T, dtype=np.float64)
        return row / len(self._source_norm)

    def dense(self) -> np.ndarray:
        """Materialise the full similarity matrix (tests / tiny decodes only)."""
        blocks = [self.row_scores(row) for row in range(self.num_source)]
        return np.stack(blocks, axis=0)

    # ------------------------------------------------------------------
    def best_target(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-source best target id and score (``argmax`` row semantics)."""
        return self.indices[:, 0], self.scores[:, 0]

    def csls_scores(self, rows: np.ndarray | None = None) -> np.ndarray:
        """CSLS values of the kept (top-k) entries: ``2 s - r_T(i) - r_S(j)``.

        Matches ``csls_similarity(dense)[i, indices[i, j]]`` entry for entry
        (identical arithmetic order, hence bit-identical given the streamed
        means).  ``rows`` restricts the computation to a subset of source
        rows — the CSLS-ranked evaluation path only needs the test rows.
        """
        self._require_exact("csls_scores")
        indices = self.indices if rows is None else self.indices[rows]
        scores = self.scores if rows is None else self.scores[rows]
        row_means = self.row_knn_mean if rows is None else self.row_knn_mean[rows]
        col_positions = self.column_positions(indices)
        return (2.0 * scores
                - row_means[:, None]
                - self.col_knn_mean[col_positions])

    def csls_row(self, source_id: int) -> np.ndarray:
        """Exact full CSLS row over the decoded columns (``O(n_cols)``).

        The CSLS counterpart of :meth:`row_scores`, used as the evaluation
        fallback when a gold rank cannot be proven from the stored top-k.
        """
        self._require_exact("csls_row")
        return (2.0 * self.row_scores(source_id)
                - self.row_knn_mean[source_id]
                - self.col_knn_mean)

    def column_positions(self, target_ids: np.ndarray) -> np.ndarray:
        """Map original target ids to positions within the decoded columns.

        The ids must be among the decoded columns (always true without a
        candidate restriction); the column-wise arrays (``col_max``,
        ``col_knn_mean``…) are indexed by these positions.
        """
        if self.columns is None:
            return target_ids
        positions = np.searchsorted(self.columns, target_ids)
        return positions

    # ------------------------------------------------------------------
    def mutual_nearest_pairs(self, threshold: float = 0.0,
                             exclude_source: set[int] | None = None,
                             exclude_target: set[int] | None = None) -> list[tuple[int, int]]:
        """Mutual nearest-neighbour pairs, identical to the dense selection.

        Row bests come from position 0 of the stored top-k (first-index tie
        break); column bests from the running column argmax, whose
        strictly-greater update rule preserves the dense ``argmax``
        first-row-wins tie semantics across blocks.
        """
        exclude_source = exclude_source or set()
        exclude_target = exclude_target or set()
        best_ids, best_scores = self.best_target()
        source_ids = np.arange(self.num_source)
        col_positions = self.column_positions(best_ids)
        keep = self.col_argmax[col_positions] == source_ids
        keep &= best_scores >= threshold
        if exclude_source:
            keep &= ~np.isin(source_ids, np.fromiter(exclude_source, dtype=np.int64))
        if exclude_target:
            keep &= ~np.isin(best_ids, np.fromiter(exclude_target, dtype=np.int64))
        return [(int(s), int(t)) for s, t in zip(source_ids[keep], best_ids[keep])]


@dataclass
class PartialTopK:
    """One row shard's decode reductions, mergeable across shards.

    The unit of the multi-process sharded decode: a worker that owns the
    source rows ``rows`` (disjoint from every other shard) reduces its
    share of the streamed similarity to exactly these arrays, and
    :func:`merge_partials` combines any two shards into one — the
    column-max reduction is the lexicographic maximum by
    ``(value, -source row)``, which is associative and commutative, so the
    merged result is independent of worker completion order and of how the
    rows were partitioned (the property the sharded property tests pin).

    ``col_top`` carries the running per-column top-``csls_k`` values the
    CSLS column means are computed from; it is ``None`` on the
    candidate-restricted path (no CSLS statistics there).
    ``worker_rss_mb`` is the producing process's peak RSS — summed by the
    merge so the efficiency experiment can report true multi-process
    memory instead of the parent's RSS alone.
    """

    rows: np.ndarray               # (m,) global source row ids, ascending
    indices: np.ndarray            # (m, k_keep) column ids (local to decode)
    scores: np.ndarray             # (m, k_keep) descending
    col_max: np.ndarray            # (n_cols,)
    col_argmax: np.ndarray         # (n_cols,) global source ids
    col_top: np.ndarray | None     # (<= csls_k_col, n_cols) or None
    csls_k_col: int
    computed_cells: int
    worker_rss_mb: float = 0.0

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def merge_partials(a: PartialTopK, b: PartialTopK) -> PartialTopK:
    """Merge two disjoint row shards' reductions into one.

    Associative and commutative:

    * row top-k lists concatenate (shards own disjoint rows) and are kept
      sorted by global row id;
    * the column max/argmax merge takes, per column, the lexicographically
      larger ``(value, -source row)`` — on exact value ties the lower
      source row wins, exactly the dense ``np.argmax(axis=0)``
      first-row-wins semantics the single-process engine maintains with
      its strictly-greater running update;
    * the column top-``csls_k`` values merge as a multiset top-k (the
      top-k of a union is the top-k of the partial top-ks), which keeps
      the final ascending-sorted CSLS column means bit-identical to the
      single-process accumulation.
    """
    if a.csls_k_col != b.csls_k_col:
        raise ValueError("partials disagree on csls_k_col")
    rows = np.concatenate([a.rows, b.rows])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    indices = np.concatenate([a.indices, b.indices], axis=0)[order]
    scores = np.concatenate([a.scores, b.scores], axis=0)[order]

    take_b = (b.col_max > a.col_max) | ((b.col_max == a.col_max)
                                        & (b.col_argmax < a.col_argmax))
    col_max = np.where(take_b, b.col_max, a.col_max)
    col_argmax = np.where(take_b, b.col_argmax, a.col_argmax)

    col_top: np.ndarray | None = None
    if a.col_top is not None and b.col_top is not None:
        stacked = np.concatenate([a.col_top, b.col_top], axis=0)
        if stacked.shape[0] > a.csls_k_col:
            stacked = np.partition(stacked, stacked.shape[0] - a.csls_k_col,
                                   axis=0)[stacked.shape[0] - a.csls_k_col:]
        col_top = stacked

    return PartialTopK(
        rows=rows, indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=col_top,
        csls_k_col=a.csls_k_col,
        computed_cells=a.computed_cells + b.computed_cells,
        worker_rss_mb=a.worker_rss_mb + b.worker_rss_mb,
    )


def merge_partial_topk(partials) -> PartialTopK:
    """Reduce any number of disjoint shards; invariant to their order."""
    partials = list(partials)
    if not partials:
        raise ValueError("no partials to merge")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merge_partials(merged, partial)
    return merged


def compute_partial_topk(source_norm: list[np.ndarray],
                         target_norm: list[np.ndarray],
                         row_start: int, row_stop: int,
                         k_keep: int, csls_k_col: int,
                         block_size: int) -> PartialTopK:
    """Exhaustive streamed reduction of the source rows [row_start, row_stop).

    The states must already be the engine's normalised tables (the caller
    — :func:`blockwise_topk` or a sharded worker — performs the one
    up-front normalisation pass).  ``row_start`` should be a multiple of
    ``block_size`` so a sharded scan issues the very same block GEMMs as
    the single-process one, making the merged decode bit-identical.
    """
    num_rows = row_stop - row_start
    num_cols = target_norm[0].shape[0]
    num_rounds = len(source_norm)

    indices = np.empty((num_rows, k_keep), dtype=np.int64)
    scores = np.empty((num_rows, k_keep), dtype=np.float64)
    col_max = np.full(num_cols, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(num_cols, dtype=np.int64)
    # Running top-(csls_k) values per column, merged block by block.
    col_top = np.empty((0, num_cols), dtype=np.float64)

    for start in range(row_start, row_stop, block_size):
        stop = min(start + block_size, row_stop)
        local = start - row_start
        count_dot_products((stop - start) * num_cols * num_rounds)
        block = source_norm[0][start:stop] @ target_norm[0].T
        for round_index in range(1, num_rounds):
            block = block + source_norm[round_index][start:stop] @ target_norm[round_index].T
        block = np.asarray(block, dtype=np.float64)
        if num_rounds > 1:
            block = block / num_rounds

        # (a) exact row top-k: partial selection then a deterministic
        # (score desc, target id asc) sort so position 0 matches argmax.
        if k_keep < num_cols:
            part = np.argpartition(block, num_cols - k_keep, axis=1)[:, num_cols - k_keep:]
        else:
            part = np.broadcast_to(np.arange(num_cols), block.shape).copy()
        part_scores = np.take_along_axis(block, part, axis=1)
        order = np.lexsort((part, -part_scores))
        indices[local:local + (stop - start)] = np.take_along_axis(part, order, axis=1)
        scores[local:local + (stop - start)] = np.take_along_axis(part_scores, order, axis=1)
        # When the maximum is tied across more than k columns, argpartition
        # may omit the first-index maximiser; position 0 must nevertheless
        # carry exact np.argmax(axis=1) semantics for mutual-NN selection.
        indices[local:local + (stop - start), 0] = block.argmax(axis=1)

        # (b) running column max / argmax; strictly-greater update keeps the
        # first (lowest source id) maximiser, matching np.argmax(axis=0).
        block_max = block.max(axis=0)
        block_argmax = block.argmax(axis=0)
        improved = block_max > col_max
        col_max[improved] = block_max[improved]
        col_argmax[improved] = start + block_argmax[improved]

        # (c) running per-column top-k for the CSLS column means.
        stacked = np.concatenate([col_top, block], axis=0)
        if stacked.shape[0] > csls_k_col:
            stacked = np.partition(stacked, stacked.shape[0] - csls_k_col,
                                   axis=0)[stacked.shape[0] - csls_k_col:]
        col_top = stacked

    return PartialTopK(
        rows=np.arange(row_start, row_stop, dtype=np.int64),
        indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=col_top,
        csls_k_col=csls_k_col,
        computed_cells=num_rows * num_cols * num_rounds,
    )


def blockwise_topk(source, target, k: int = 10,
                   block_size: int | None = None,
                   dtype=np.float64,
                   csls_k: int = 10,
                   columns: np.ndarray | None = None,
                   row_candidates: RowCandidates | None = None,
                   pre_normalized: bool = False,
                   num_workers: int | None = None) -> TopKSimilarity:
    """Stream the (round-averaged) cosine similarity and reduce to top-k.

    Parameters
    ----------
    source, target:
        Embedding matrices, or lists of per-propagation-round states whose
        cosine similarities are averaged (the paper's decoding rule).  Rows
        are L2-normalised once up front, in float64.
    k:
        Neighbours kept per source row (exact, via ``np.argpartition``).
    block_size:
        Source rows per streamed block; peak transient memory is
        ``O(block_size · n_t)``.
    dtype:
        Compute dtype of the streamed products (float64 default; float32
        halves memory traffic for large decodes).
    csls_k:
        ``k`` of the CSLS local-scaling means (10 in the literature).
    columns:
        Optional sorted array of target ids restricting the decode to a
        candidate subset (the restricted evaluation protocol).
    row_candidates:
        Optional per-row candidate sets from :mod:`repro.core.ann`; the
        block loop then gathers only the candidate cells (a sparse gather
        instead of full block matmuls), dropping decode FLOPs below
        ``O(n_s · n_t)``.  A *complete* candidate set (every row holds
        every column — e.g. IVF with ``nprobe == n_clusters``) dispatches
        to the exhaustive GEMM path, reproducing it bit for bit.
    pre_normalized:
        Declare that every state is already the output of the engine's own
        row normalisation at ``dtype`` (``_normalize_rows(...).astype``),
        skipping the per-call normalisation pass.  The serving path caches
        the normalised tables once per artifact and decodes row subsets
        against them — bit-identically, because the very same normalised
        values enter the products.
    num_workers:
        ``> 1`` shards the source rows across that many forked worker
        processes (see :mod:`repro.core.sharded`): each worker owns a
        block-aligned row shard and streams it exactly as the
        single-process engine would, and the partial reductions are merged
        by the associative :func:`merge_partials` reducer — bit-identical
        to ``num_workers=None`` on complete candidate sets.  Falls back to
        the in-process scan when forking is unavailable.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if csls_k <= 0:
        raise ValueError("csls_k must be positive")
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ValueError("block_size must be positive")

    source_states = _as_state_list(source)
    target_states = _as_state_list(target)
    if len(source_states) != len(target_states):
        raise ValueError("source and target must have the same number of rounds")

    if row_candidates is not None:
        if columns is not None:
            raise ValueError(
                "columns= and row_candidates= are mutually exclusive decode "
                "restrictions")
        if row_candidates.num_rows != np.asarray(source_states[0]).shape[0]:
            raise ValueError("row_candidates row count must match the source rows")
        if row_candidates.num_columns != np.asarray(target_states[0]).shape[0]:
            raise ValueError("row_candidates column count must match the targets")
        if row_candidates.is_complete():
            # Probing everything is the exhaustive decode; take the identical
            # GEMM path so the results match bit for bit.
            row_candidates = None

    if row_candidates is not None:
        return _blockwise_topk_candidates(source_states, target_states,
                                          row_candidates, k=k,
                                          block_size=block_size, dtype=dtype,
                                          csls_k=csls_k,
                                          pre_normalized=pre_normalized,
                                          num_workers=num_workers)

    if columns is not None:
        columns = np.asarray(columns, dtype=np.int64)
        if len(columns) and np.any(np.diff(columns) < 0):
            raise ValueError("columns must be sorted ascending")

    dtype = np.dtype(dtype)
    if pre_normalized:
        source_norm = [np.asarray(state) for state in source_states]
    else:
        source_norm = [_normalize_rows(state).astype(dtype, copy=False)
                       for state in source_states]
    num_target = np.asarray(target_states[0]).shape[0]
    target_norm = []
    for state in target_states:
        normalized = (np.asarray(state) if pre_normalized
                      else _normalize_rows(state))
        if columns is not None:
            normalized = normalized[columns]
        target_norm.append(normalized.astype(dtype, copy=False))

    num_source = source_norm[0].shape[0]
    num_cols = target_norm[0].shape[0]
    num_rounds = len(source_norm)
    k_eff = min(k, num_cols)
    csls_k_row = min(csls_k, num_cols)
    csls_k_col = min(csls_k, num_source)
    # One row selection serves both the decode top-k and the CSLS row mean.
    k_keep = min(max(k_eff, csls_k_row), num_cols)

    if num_workers is not None and num_workers > 1 and num_source > 1:
        from .sharded import scan_partials_parallel
        partial = merge_partial_topk(scan_partials_parallel(
            source_norm, target_norm, kind="exhaustive",
            num_workers=num_workers, block_size=block_size,
            k_keep=k_keep, csls_k_col=csls_k_col))
        count_dot_products(partial.computed_cells)
    else:
        partial = compute_partial_topk(source_norm, target_norm, 0, num_source,
                                       k_keep=k_keep, csls_k_col=csls_k_col,
                                       block_size=block_size)

    indices = partial.indices
    if columns is not None:
        indices = columns[indices]

    # Means are taken over ascending-sorted values so they are bit-identical
    # to the dense ``np.sort(...)[-k:].mean()`` formulation.
    row_knn_mean = np.sort(partial.scores[:, :csls_k_row], axis=1).mean(axis=1)
    col_knn_mean = np.sort(partial.col_top, axis=0).mean(axis=0)

    return TopKSimilarity(
        shape=(num_source, num_target),
        k=k_keep,
        csls_k=csls_k,
        indices=indices,
        scores=partial.scores,
        col_max=partial.col_max,
        col_argmax=partial.col_argmax,
        row_knn_mean=row_knn_mean,
        col_knn_mean=col_knn_mean,
        columns=columns,
        dtype=dtype,
        computed_cells=num_source * num_cols * num_rounds,
        worker_rss_mb=partial.worker_rss_mb,
        _source_norm=source_norm,
        _target_norm=target_norm,
    )


def compute_partial_topk_candidates(source_norm: list[np.ndarray],
                                    target_norm: list[np.ndarray],
                                    row_candidates: RowCandidates,
                                    row_start: int, row_stop: int,
                                    k_keep: int, block_size: int,
                                    dtype) -> PartialTopK:
    """Candidate-restricted streamed reduction of rows [row_start, row_stop).

    ``row_candidates`` must already be padded to ``k_keep`` (row-local, so
    padding before or after sharding is equivalent).  Per-cell values come
    from :meth:`RowCandidates.gather_values` — the per-edge ``einsum`` by
    default, one dense matmul per (query group, IVF bucket) on a
    :class:`~repro.core.ann.GroupedRowCandidates` — and every cell's dot
    product is row-local, so shard membership never changes a value.
    """
    dtype = np.dtype(dtype)
    indptr, cand_indices = row_candidates.indptr, row_candidates.indices
    num_cols = row_candidates.num_columns
    num_rounds = len(source_norm)
    total_rows = row_stop - row_start

    indices = np.empty((total_rows, k_keep), dtype=np.int64)
    scores = np.empty((total_rows, k_keep), dtype=np.float64)
    col_max = np.full(num_cols, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(num_cols, dtype=np.int64)
    computed = 0

    for start in range(row_start, row_stop, block_size):
        stop = min(start + block_size, row_stop)
        num_rows = stop - start
        local = start - row_start
        lo, hi = indptr[start], indptr[stop]
        cols = cand_indices[lo:hi]
        counts = np.diff(indptr[start:stop + 1])
        rows_local = np.repeat(np.arange(num_rows), counts)
        computed += len(cols) * num_rounds
        values = row_candidates.gather_values(source_norm, target_norm,
                                              start, stop, rows_local, cols,
                                              dtype)

        # (a) per-row top-k over the candidate cells.  Rows are padded into
        # a (num_rows, width) matrix with -inf sentinels; every row holds at
        # least k_keep real candidates, so sentinels are never selected.
        width = int(counts.max()) if num_rows else 0
        block = np.full((num_rows, width), -np.inf, dtype=np.float64)
        cand_ids = np.zeros((num_rows, width), dtype=np.int64)
        pos_in_row = np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts,
                                                      counts)
        block[rows_local, pos_in_row] = values
        cand_ids[rows_local, pos_in_row] = cols
        if k_keep < width:
            part = np.argpartition(block, width - k_keep, axis=1)[:, width - k_keep:]
        else:
            part = np.broadcast_to(np.arange(width), block.shape).copy()
        part_scores = np.take_along_axis(block, part, axis=1)
        part_ids = np.take_along_axis(cand_ids, part, axis=1)
        order = np.lexsort((part_ids, -part_scores))
        indices[local:local + num_rows] = np.take_along_axis(part_ids, order, axis=1)
        scores[local:local + num_rows] = np.take_along_axis(part_scores, order, axis=1)
        # Candidates ascend within a row, so the padded matrix's argmax is
        # the first-index maximiser over the computed cells — the same
        # position-0 contract the exhaustive engine keeps for mutual-NN.
        first = block.argmax(axis=1)
        indices[local:local + num_rows, 0] = cand_ids[np.arange(num_rows), first]

        # (b) running column max/argmax over the computed cells only.  Per
        # column pick the block's best value with the lowest source row,
        # then apply the strictly-greater cross-block update.
        if len(cols):
            group = np.lexsort((rows_local, -values, cols))
            grouped_cols = cols[group]
            leaders = np.ones(len(group), dtype=bool)
            leaders[1:] = grouped_cols[1:] != grouped_cols[:-1]
            lead = group[leaders]
            lead_cols = cols[lead]
            improved = values[lead] > col_max[lead_cols]
            col_max[lead_cols[improved]] = values[lead][improved]
            col_argmax[lead_cols[improved]] = start + rows_local[lead][improved]

    return PartialTopK(
        rows=np.arange(row_start, row_stop, dtype=np.int64),
        indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=None,
        csls_k_col=0,
        computed_cells=computed,
    )


def _blockwise_topk_candidates(source_states: list[np.ndarray],
                               target_states: list[np.ndarray],
                               row_candidates: RowCandidates,
                               k: int, block_size: int, dtype,
                               csls_k: int,
                               pre_normalized: bool = False,
                               num_workers: int | None = None) -> TopKSimilarity:
    """Candidate-restricted streaming decode (sparse gather per block).

    Only the cells named by ``row_candidates`` are computed — a gathered
    ``einsum`` per block (or one dense matmul per probed IVF bucket for
    grouped candidate structures) instead of full block matmuls — so FLOPs
    are ``O(Σ_i |C_i| · d)``.  Row top-k and the running column max/argmax
    keep the exhaustive engine's deterministic tie semantics *restricted to
    the computed cells*; the result is flagged ``approximate`` and carries
    no CSLS statistics (consumers refuse rather than degrade).
    """
    dtype = np.dtype(dtype)
    if pre_normalized:
        source_norm = [np.asarray(state) for state in source_states]
        target_norm = [np.asarray(state) for state in target_states]
    else:
        source_norm = [_normalize_rows(state).astype(dtype, copy=False)
                       for state in source_states]
        target_norm = [_normalize_rows(state).astype(dtype, copy=False)
                       for state in target_states]
    num_source = source_norm[0].shape[0]
    num_cols = target_norm[0].shape[0]
    num_rounds = len(source_norm)
    # No CSLS statistics exist on the candidate path, so only the requested
    # k rows are kept (the exhaustive engine widens to csls_k).
    k_keep = min(k, num_cols)
    # Guarantee every row can fill its k_keep slots: deficient rows get the
    # smallest missing column ids appended (a few exact extra dot products),
    # so stored rows never contain padding sentinels.
    row_candidates = row_candidates.padded(k_keep)

    if num_workers is not None and num_workers > 1 and num_source > 1:
        from .sharded import scan_partials_parallel
        partial = merge_partial_topk(scan_partials_parallel(
            source_norm, target_norm, kind="candidates",
            num_workers=num_workers, block_size=block_size,
            k_keep=k_keep, row_candidates=row_candidates, dtype=dtype))
        count_dot_products(partial.computed_cells)
    else:
        partial = compute_partial_topk_candidates(
            source_norm, target_norm, row_candidates, 0, num_source,
            k_keep=k_keep, block_size=block_size, dtype=dtype)

    return TopKSimilarity(
        shape=(num_source, num_cols),
        k=k_keep,
        csls_k=csls_k,
        indices=partial.indices,
        scores=partial.scores,
        col_max=partial.col_max,
        col_argmax=partial.col_argmax,
        row_knn_mean=np.full(num_source, np.nan),
        col_knn_mean=np.full(num_cols, np.nan),
        columns=None,
        dtype=dtype,
        approximate=True,
        computed_cells=row_candidates.total * num_rounds,
        worker_rss_mb=partial.worker_rss_mb,
        _source_norm=source_norm,
        _target_norm=target_norm,
    )

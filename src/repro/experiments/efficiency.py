"""Efficiency analysis (Sec. V-E) — training time, propagation and decode cost.

The paper reports that DESAlign adds only a small overhead over MEAformer
and that Semantic Propagation itself takes seconds (linear in the number of
entities, no learning).  This runner measures, per model, the wall-clock
training time, the decoding time and the model size, plus the isolated cost
of the propagation step on the trained DESAlign embeddings.

It additionally profiles the two similarity-decoding paths — the dense
``n x n`` pipeline (cosine matrix → CSLS → mutual-NN) against the streaming
blockwise top-k engine — at several entity scales, recording wall-clock,
tracemalloc peak allocation and the resident-set-size high-water mark, so
``results/efficiency.json`` captures the memory win of blockwise decoding.
At the same scales it compares exhaustive streaming against the IVF / LSH
candidate-generation layer, recording the FLOPs proxy (metered dot
products as a fraction of ``n_s · n_t``) and the measured recall@1 /
recall@10 of each approximate path against the exact decode.

Finally it profiles the two *training* strategies — full-graph encoding on
every step (``sampling="full"``) against neighbour-sampled mini-batches
(``sampling="neighbour"``) — on a larger sparse synthetic pair, recording
train/decode wall-clock and peak memory per path.  The sampled path is
already faster and leaner at this scale (per-step cost tracks the batch's
receptive field, not the graph), and the gap widens with graph size;
full-graph remains the numerically exact reference.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

import numpy as np

from ..core.alignment import cosine_similarity, csls_similarity, mutual_nearest_pairs
from ..core.ann import AnnConfig, flops_counter, recall_at_k
from ..core.config import DESAlignConfig, TrainingConfig
from ..core.model import DESAlign
from ..core.propagation import SemanticPropagation
from ..core.similarity import blockwise_topk, decode_similarity
from ..core.task import prepare_task
from ..core.trainer import Trainer
from ..data.synthetic import SyntheticPairConfig, generate_pair
from .reporting import ExperimentResult
from .runner import ExperimentScale, PROMINENT_MODELS, QUICK_SCALE, build_task, train_model

__all__ = ["run_efficiency", "measure_peak_memory", "max_rss_mb"]

#: Entity scales at which the decode-path comparison is profiled (on top of
#: the training-task scale itself).
DECODE_SCALES = (1000, 3000)

#: Entity count of the sparse synthetic pair used for the training-path
#: (full-graph vs neighbour-sampled) comparison.
TRAIN_SCALE_ENTITIES = 800

#: Worker counts profiled by the sharded-decode comparison (the serial
#: engine is always profiled first as the baseline).
SHARDED_WORKER_COUNTS = (2, 4)


def _rusage_mb(who: int) -> float:
    usage = resource.getrusage(who).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB on Linux and the other BSDs.
    if sys.platform == "darwin":
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def max_rss_mb(worker_rss_mb: float = 0.0) -> float:
    """Resident-set high-water mark of this process *and* its workers (MB).

    The parent figure alone (``RUSAGE_SELF``) silently under-reports any
    multi-process stage: a forked decode worker's tables live in the child,
    not the parent.  ``RUSAGE_CHILDREN`` does not fix that — POSIX defines
    it as the high-water mark of the single largest *terminated* child, not
    a sum over a pool — so it is folded in only as a floor, and callers
    profiling sharded decodes pass the exact per-worker sum the workers
    self-reported (``TopKSimilarity.worker_rss_mb``), which takes precedence
    when it is larger.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return float("nan")
    children = max(_rusage_mb(resource.RUSAGE_CHILDREN), worker_rss_mb)
    return _rusage_mb(resource.RUSAGE_SELF) + children


def _worker_rss_of(result) -> float:
    """The summed worker RSS a profiled result self-reports, if any.

    Sharded decodes return a :class:`~repro.core.similarity.TopKSimilarity`
    (possibly inside a tuple) whose ``worker_rss_mb`` carries the exact sum
    of the forked workers' peaks — the figure ``RUSAGE_CHILDREN`` cannot
    provide for a pool.
    """
    items = result if isinstance(result, tuple) else (result,)
    return max((float(getattr(item, "worker_rss_mb", 0.0)) for item in items),
               default=0.0)


def measure_peak_memory(fn, *args, **kwargs):
    """Profile ``fn``; return (result, seconds, peak_mb, rss_mb).

    Wall-clock comes from an untraced run (tracemalloc adds per-allocation
    overhead that would skew comparison with the untraced rows of the same
    table); ``peak_mb`` is the tracemalloc high-water mark of a second,
    traced run (numpy registers its buffers with tracemalloc, so transient
    similarity matrices are captured); ``rss_mb`` is the resident-set
    high-water mark afterwards — parent plus child processes (see
    :func:`max_rss_mb`), monotone across calls, reported so the JSON also
    carries an OS-level figure.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, seconds, peak / 1e6, max_rss_mb(_worker_rss_of(result))


def _dense_decode_pipeline(source: np.ndarray, target: np.ndarray) -> int:
    """The historical decode: full matrix, full CSLS, dense mutual-NN."""
    similarity = cosine_similarity(source, target)
    csls_similarity(similarity, k=10)
    return len(mutual_nearest_pairs(similarity))


def _blockwise_decode_pipeline(source: np.ndarray, target: np.ndarray) -> int:
    """The streaming decode: top-k + CSLS means + mutual-NN, O(block · n)."""
    topk = blockwise_topk(source, target, k=10, block_size=512)
    topk.csls_scores()
    return len(topk.mutual_nearest_pairs())


def _profile_decode_paths(result: ExperimentResult, dataset: str,
                          source: np.ndarray, target: np.ndarray,
                          num_entities: int) -> None:
    for label, pipeline in (("decode-dense", _dense_decode_pipeline),
                            ("decode-blockwise", _blockwise_decode_pipeline)):
        pairs, seconds, peak_mb, rss_mb = measure_peak_memory(pipeline, source, target)
        result.add_row(
            dataset=dataset,
            model=label,
            entities=num_entities,
            train_seconds=0.0,
            decode_seconds=round(seconds, 4),
            peak_mb=round(peak_mb, 2),
            rss_mb=round(rss_mb, 1),
            mutual_pairs=pairs,
        )


def _profile_end_to_end_flops(result: ExperimentResult, dataset: str,
                              model, num_entities: int) -> None:
    """Encoder forward + streaming decode, metered in one dot-product unit.

    The multi-modal encoder meters its forward pass through the same
    :func:`flops_counter` the decode engines use, so the encode and decode
    figures are directly comparable and their sum is the full inference
    cost of one alignment pass — the quantity a serving deployment pays.
    """
    with flops_counter() as encode_counter:
        source, target = model._evaluation_embeddings()
    with flops_counter() as decode_counter:
        blockwise_topk(source, target, k=10, block_size=512)
    encode_cells = int(encode_counter.cells)
    decode_cells = int(decode_counter.cells)
    result.add_row(
        dataset=dataset,
        model="flops-encode-decode",
        entities=num_entities,
        train_seconds=0.0,
        decode_seconds=0.0,
        encode_cells=encode_cells,
        decode_cells=decode_cells,
        total_cells=encode_cells + decode_cells,
    )


def _topk_decode(source: np.ndarray, target: np.ndarray, candidates: str):
    """One streamed top-k decode, exhaustive or candidate-restricted.

    Returns ``(topk, metered_cells)`` with every dot product of the run —
    index construction included — counted via :func:`flops_counter`.
    """
    with flops_counter() as counter:
        topk = decode_similarity(source, target, decode="blockwise", k=10,
                                 block_size=512, candidates=candidates,
                                 ann=AnnConfig(seed=0))
    return topk, counter.cells


def _profile_ann_decode_paths(result: ExperimentResult, dataset: str,
                              source: np.ndarray, target: np.ndarray,
                              num_entities: int) -> None:
    """Exhaustive vs approximate candidate generation on one embedding pair.

    Records, per path, the decode wall-clock, tracemalloc peak, the FLOPs
    proxy (metered dot products as a fraction of ``n_s · n_t``) and the
    measured recall@1 / recall@10 against the exhaustive decode — the
    honesty figures of the approximate layer.
    """
    total_cells = len(source) * len(target)
    exact_topk: np.ndarray | None = None
    for label, candidates in (("decode-topk-exhaustive", "exhaustive"),
                              ("decode-topk-ivf", "ivf"),
                              ("decode-topk-lsh", "lsh")):
        (topk, cells), seconds, peak_mb, rss_mb = measure_peak_memory(
            _topk_decode, source, target, candidates)
        if exact_topk is None:
            exact_topk = topk.indices
            recall1 = recall10 = 1.0
        else:
            recall1 = recall_at_k(topk.indices, exact_topk, k=1)
            recall10 = recall_at_k(topk.indices, exact_topk, k=10)
        result.add_row(
            dataset=dataset,
            model=label,
            entities=num_entities,
            train_seconds=0.0,
            decode_seconds=round(seconds, 4),
            peak_mb=round(peak_mb, 2),
            rss_mb=round(rss_mb, 1),
            flops_fraction=round(cells / total_cells, 4),
            recall1=round(recall1, 4),
            recall10=round(recall10, 4),
        )


def _sharded_decode(source: np.ndarray, target: np.ndarray,
                    num_workers: int | None):
    """One exhaustive streamed decode, serial or forked-sharded."""
    with flops_counter() as counter:
        topk = blockwise_topk(source, target, k=10, block_size=512,
                              num_workers=num_workers)
    return topk, counter.cells


def _profile_sharded_decode_paths(result: ExperimentResult, dataset: str,
                                  source: np.ndarray, target: np.ndarray,
                                  num_entities: int,
                                  worker_counts=SHARDED_WORKER_COUNTS) -> None:
    """Serial vs multi-process sharded decode on one embedding pair.

    The sharded rows report the *true* multi-process memory: the parent's
    peak plus the sum of every forked worker's self-reported peak
    (``rss_mb`` via :func:`max_rss_mb`; the per-worker sum alone is also
    recorded as ``worker_rss_mb``).  ``identical`` pins the sharded
    bit-identity guarantee — merged results match the serial engine's
    arrays exactly, not approximately.
    """
    serial: tuple | None = None
    for num_workers in (None, *worker_counts):
        (topk, cells), seconds, peak_mb, rss_mb = measure_peak_memory(
            _sharded_decode, source, target, num_workers)
        if serial is None:
            serial = (topk, seconds)
            label, workers, speedup = "decode-sharded-serial", 1, 1.0
            identical = True
        else:
            label, workers = f"decode-sharded-w{num_workers}", num_workers
            speedup = serial[1] / seconds if seconds > 0 else float("inf")
            identical = (np.array_equal(topk.indices, serial[0].indices)
                         and np.array_equal(topk.scores, serial[0].scores))
        result.add_row(
            dataset=dataset,
            model=label,
            entities=num_entities,
            train_seconds=0.0,
            decode_seconds=round(seconds, 4),
            peak_mb=round(peak_mb, 2),
            rss_mb=round(rss_mb, 1),
            worker_rss_mb=round(topk.worker_rss_mb, 1),
            workers=workers,
            flops_fraction=round(cells / (len(source) * len(target)), 4),
            speedup=round(speedup, 2),
            identical=identical,
        )


def _training_pipeline(task, sampling: str, fanouts):
    """Train a fresh DESAlign on ``task`` with one training strategy.

    Uses the Trainer engine directly: the profiler wants no facade layers
    between the timer and the loop.
    """
    model = DESAlign(task, DESAlignConfig(hidden_dim=16, gat_layers=2,
                                          seed=0, backend="sparse"))
    config = TrainingConfig(epochs=2, eval_every=0, seed=0, batch_size=256,
                            sampling=sampling, fanouts=fanouts)
    return Trainer(model, task, config).fit()


def _profile_training_paths(result: ExperimentResult,
                            num_entities: int) -> None:
    """Full-graph vs neighbour-sampled training cost on a sparse pair."""
    pair = generate_pair(SyntheticPairConfig(
        num_entities=num_entities, avg_degree=5.0, seed_ratio=0.2,
        seed=5, name="train-scaling"))
    task = prepare_task(pair, structure_dim=16, relation_dim=24,
                        attribute_dim=24, backend="sparse")
    for label, sampling, fanouts in (("train-full", "full", None),
                                     ("train-neighbour", "neighbour", (4, 4))):
        inner, seconds, peak_mb, rss_mb = measure_peak_memory(
            _training_pipeline, task, sampling, fanouts)
        result.add_row(
            dataset="synthetic",
            model=label,
            entities=num_entities,
            train_seconds=round(inner.train_seconds, 3),
            decode_seconds=round(inner.decode_seconds, 3),
            peak_mb=round(peak_mb, 2),
            rss_mb=round(rss_mb, 1),
            h1=round(100.0 * inner.metrics.hits_at_1, 1),
        )


def run_efficiency(scale: ExperimentScale = QUICK_SCALE,
                   dataset: str = "FBDB15K",
                   models: tuple[str, ...] = PROMINENT_MODELS,
                   decode_scales: tuple[int, ...] = DECODE_SCALES,
                   train_entities: int = TRAIN_SCALE_ENTITIES) -> ExperimentResult:
    """Regenerate the efficiency comparison of Sec. V-E."""
    result = ExperimentResult(
        experiment="efficiency",
        description="Training / decoding wall-clock, propagation and decode-path cost (Sec. V-E)",
        parameters={"scale": scale.__dict__, "dataset": dataset, "models": list(models),
                    "decode_scales": list(decode_scales),
                    "train_entities": train_entities},
    )
    task = build_task(dataset, scale, seed_ratio=0.2)
    desalign_model = None
    for model_name in models:
        model, cell = train_model(model_name, task, scale)
        if model_name == "DESAlign":
            desalign_model = model
        result.add_row(
            dataset=dataset,
            model=model_name,
            train_seconds=round(cell.train_seconds, 3),
            decode_seconds=round(cell.decode_seconds, 3),
            parameters=cell.num_parameters,
            h1=round(100.0 * cell.metrics.hits_at_1, 1),
            mrr=round(100.0 * cell.metrics.mrr, 1),
        )

    if desalign_model is not None:
        source_embeddings, target_embeddings = desalign_model._evaluation_embeddings()
        source_known, target_known = desalign_model.propagation_masks()
        start = time.perf_counter()
        SemanticPropagation(iterations=2)(
            source_embeddings, target_embeddings,
            task.source.adjacency, task.target.adjacency,
            source_known=source_known, target_known=target_known,
        )
        propagation_seconds = time.perf_counter() - start
        result.add_row(
            dataset=dataset,
            model="SemanticPropagation (decode only)",
            train_seconds=0.0,
            decode_seconds=round(propagation_seconds, 4),
            parameters=0,
            h1=float("nan"),
            mrr=float("nan"),
        )
        # Dense vs blockwise decode on the trained embeddings ...
        _profile_decode_paths(result, dataset, source_embeddings,
                              target_embeddings, task.source.num_entities)
        # ... plus the end-to-end encode+decode FLOPs of one inference pass.
        _profile_end_to_end_flops(result, dataset, desalign_model,
                                  task.source.num_entities)

    # ... and at larger synthetic scales, where the dense n x n pipeline's
    # O(n²) peak dwarfs the O(block · n) streaming engine, and where the
    # approximate candidate layer starts cutting FLOPs on top of memory.
    hidden = scale.hidden_dim
    rng = np.random.default_rng(scale.seed)
    for num_entities in decode_scales:
        source = rng.normal(size=(num_entities, hidden))
        target = source + 0.1 * rng.normal(size=(num_entities, hidden))
        _profile_decode_paths(result, "synthetic", source, target, num_entities)
        _profile_ann_decode_paths(result, "synthetic", source, target,
                                  num_entities)
    # Serial vs forked-sharded decode at the last profiled scale: the
    # sharded rows carry the parent+workers RSS sum and the bit-identity pin.
    if decode_scales:
        _profile_sharded_decode_paths(result, "synthetic", source, target,
                                      num_entities)

    # Training-path comparison: full-graph vs neighbour-sampled mini-batches
    # on a sparse pair beyond the dense backend's comfort zone.
    _profile_training_paths(result, train_entities)
    return result

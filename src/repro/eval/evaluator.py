"""Task-level evaluation and timing harnesses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core import rules
from ..core.similarity import decode_similarity
from ..core.task import PreparedTask
from .metrics import AlignmentMetrics, evaluate_alignment

__all__ = ["Evaluator", "TimingResult", "time_callable"]


@dataclass
class Evaluator:
    """Evaluate similarities against a prepared task's test split.

    Accepts both full similarity matrices and streaming
    :class:`~repro.core.similarity.TopKSimilarity` decodes.  A model is
    scored by decoding its ``decode_states()`` through
    :func:`~repro.core.similarity.decode_similarity`: ``encode`` and
    ``encode_batch_size`` go to ``decode_states()``, ``decode``,
    ``candidates`` and ``ann`` to the decode, so large tasks evaluate
    without ever materialising the ``n_s x n_t`` matrix
    (``decode="blockwise"``) or a full-graph encoder pass
    (``encode="sampled"``, the neighbour-sampled training pipeline's
    inference path).  ``ranking="csls"`` ranks on CSLS-rescaled
    similarities — exactly, for dense and streaming decodes alike.
    ``candidates="ivf" | "lsh"`` (with an optional
    :class:`~repro.core.ann.AnnConfig`) further restricts streaming decodes
    to approximate candidate sets; such decodes are scored with honest
    recall-style ranks and refuse CSLS ranking rather than degrade
    silently.
    """

    task: PreparedTask
    restrict_candidates: bool = True
    decode: str = "auto"
    encode: str = "full"
    encode_batch_size: int | None = None
    ranking: str = "cosine"
    candidates: str = "exhaustive"
    ann: object | None = None

    def __post_init__(self) -> None:
        # Legality delegated to repro.core.rules (the spec validator uses
        # the same functions), so an incoherent evaluator is rejected at
        # construction with the same message everywhere.
        rules.check_decode_method(self.decode)
        rules.check_encode_method(self.encode)
        rules.check_ranking_method(self.ranking)
        rules.check_candidates_method(self.candidates)
        rules.check_candidates_decode(self.candidates, self.decode)
        rules.check_ranking_candidates(self.ranking, self.candidates)

    def evaluate_similarity(self, similarity) -> AlignmentMetrics:
        """Score a similarity matrix or top-k decode on the test pairs."""
        return evaluate_alignment(similarity, self.task.test_pairs,
                                  restrict_candidates=self.restrict_candidates,
                                  ranking=self.ranking)

    def evaluate_model(self, model, use_propagation: bool = True) -> AlignmentMetrics:
        """Score any model exposing ``decode_states()``."""
        similarity = decode_similarity(
            *model.decode_states(use_propagation, encode=self.encode,
                                 encode_batch_size=self.encode_batch_size),
            decode=self.decode, candidates=self.candidates, ann=self.ann)
        return self.evaluate_similarity(similarity)


@dataclass
class TimingResult:
    """Wall-clock measurement of a callable, with optional per-phase detail."""

    label: str
    seconds: float
    phases: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        summary = {"total_seconds": self.seconds}
        summary.update(self.phases)
        return summary


def time_callable(label: str, fn, *args, **kwargs) -> tuple[TimingResult, object]:
    """Run ``fn`` and return its wall-clock time alongside its result."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return TimingResult(label=label, seconds=elapsed), result

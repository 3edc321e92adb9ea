"""Which public calls the traced run wraps, and the per-layer metrics.

Every wrapper names the layer (a ``repro`` module) that does the work.
Names imported into another module with ``from ... import`` are wrapped
where they are looked up as well, so calls through either name are seen.
"""

from __future__ import annotations

from collections import defaultdict

from .trace import Span, Tracer, self_times

#: (module path, attribute, span name).  A dotted attribute is a method of
#: a class in that module.
WRAPPED_CALLS = [
    # data / kg
    ("repro.pipeline.facade", "load_benchmark", "data.generate"),
    ("repro.pipeline.facade", "prepare_task", "kg.prepare"),
    ("repro.core.task", "PreparedTask.with_backend", "kg.prepare"),
    # pipeline facade
    ("repro.pipeline.facade", "AlignmentPipeline.fit", "pipeline.fit"),
    ("repro.pipeline.facade", "AlignmentPipeline.build_model",
     "pipeline.build_model"),
    ("repro.pipeline.facade", "Aligner.align", "pipeline.align"),
    ("repro.pipeline.facade", "Aligner.with_decode", "pipeline.with_decode"),
    ("repro.pipeline.facade", "Aligner.evaluate", "pipeline.evaluate"),
    ("repro.pipeline.facade", "Aligner.load", "store.load"),
    # core.trainer / autograd / nn / eval
    ("repro.core.trainer", "Trainer.__init__", "trainer.init"),
    ("repro.core.trainer", "FullGraphLoop.batch_loss", "trainer.forward"),
    ("repro.core.trainer", "NeighbourSampledLoop.batch_loss",
     "trainer.forward"),
    ("repro.autograd.tensor", "Tensor.backward", "autograd.backward"),
    ("repro.nn.optim", "AdamW.step", "nn.optim"),
    ("repro.nn.optim", "Optimizer.zero_grad", "nn.zero_grad"),
    ("repro.nn.optim", "GradientClipper.clip", "nn.clip"),
    ("repro.eval.evaluator", "Evaluator.evaluate_model", "eval.evaluate"),
    # core.similarity / core.sharded
    ("repro.core.similarity", "blockwise_topk", "similarity.scan"),
    ("repro.pipeline.facade", "blockwise_topk", "similarity.scan"),
    ("repro.core.model", "blockwise_topk", "similarity.scan"),
    ("repro.core.similarity", "compute_partial_topk", "similarity.partial"),
    ("repro.core.similarity", "compute_partial_topk_candidates",
     "similarity.candidate_partial"),
    ("repro.incremental.aligner", "compute_partial_topk_candidates",
     "similarity.candidate_partial"),
    ("repro.core.similarity", "merge_partials", "similarity.merge"),
    ("repro.incremental.aligner", "merge_partials", "similarity.merge"),
    ("repro.core.sharded", "scan_partials_parallel", "sharded.scan"),
    # core.ann
    ("repro.core.ann", "IVFIndex.insert", "ann.insert"),
    ("repro.core.ann", "IVFIndex.refit", "ann.insert"),
    ("repro.incremental.aligner", "IVFIndex", "ann.insert"),
    ("repro.core.ann", "IVFIndex.candidates", "ann.candidates"),
    ("repro.core.ann", "RowCandidates.padded", "ann.candidates"),
    ("repro.core.ann", "RowCandidates.select_rows", "ann.candidates"),
    ("repro.core.ann", "GroupedRowCandidates.from_candidates",
     "ann.candidates"),
    # core propagation (Semantic Propagation ahead of a decode)
    ("repro.core.propagation", "SemanticPropagation.propagate_features",
     "propagation.propagate"),
    # serve
    ("repro.serve.engine", "ServingEngine.submit", "serve.submit"),
    ("repro.serve.engine", "PendingRequest.complete", "serve.complete"),
    ("repro.serve.engine", "PendingRequest.fail", "serve.complete"),
    ("repro.serve.batching", "MicroBatcher.submit", "serve.enqueue"),
    ("repro.serve.cache", "ResultCache.get", "serve.cache"),
    ("repro.serve.cache", "ResultCache.put", "serve.cache"),
    ("repro.serve.cache", "ResultCache.clear", "serve.cache"),
    ("repro.serve.engine", "ServingEngine.swap", "serve.swap"),
    ("repro.serve.engine", "ServingEngine.ingest", "serve.ingest"),
    ("repro.pipeline.facade", "Aligner.rank_rows", "serve.decode"),
    # incremental
    ("repro.incremental.aligner", "IncrementalAligner.ingest",
     "incremental.ingest"),
    ("repro.incremental.aligner", "apply_delta", "incremental.apply_delta"),
    ("repro.core.model", "DESAlign.encode_subgraph", "incremental.encode"),
    ("repro.kg.sampling", "NeighbourSampler.sample", "incremental.encode"),
    ("repro.core.model", "DESAlign.neighbour_sampler", "incremental.encode"),
    ("repro.pipeline.spec", "PipelineSpec.with_overrides", "pipeline.spec"),
]

#: Wrappers that record only the outermost of nested calls on a thread.
OUTERMOST = {"autograd.backward", "similarity.scan", "ann.insert",
             "ann.candidates", "incremental.encode", "propagation.propagate"}


def install(tracer: Tracer) -> None:
    """Wrap every call of :data:`WRAPPED_CALLS`."""
    import importlib

    for module_path, attribute, name in WRAPPED_CALLS:
        owner = importlib.import_module(module_path)
        *classes, attr = attribute.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, outermost=name in OUTERMOST)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Per-layer metric -> (unit, span names summed).  Time metrics are the
#: mean seconds per unit of work of the workload (one fit, one align
#: iteration, one ingest batch); layers a workload never calls read 0.
SPAN_METRICS = {
    "data.generate_s": ("s", ("data.generate",)),
    "kg.prepare_s": ("s", ("kg.prepare",)),
    "trainer.forward_s": ("s", ("trainer.forward",)),
    "autograd.backward_s": ("s", ("autograd.backward",)),
    "nn.optim_s": ("s", ("nn.optim",)),
    "eval.evaluate_s": ("s", ("eval.evaluate",)),
    "store.load_s": ("s", ("store.load",)),
    "similarity.scan_s": ("s", ("similarity.scan",)),
    "similarity.partial_s": ("s", ("similarity.partial",)),
    "similarity.candidate_partial_s": ("s", ("similarity.candidate_partial",)),
    "sharded.scan_s": ("s", ("sharded.scan",)),
    "similarity.merge_s": ("s", ("similarity.merge",)),
    "incremental.ingest_s": ("s", ("incremental.ingest",)),
    "incremental.apply_delta_s": ("s", ("incremental.apply_delta",)),
    "incremental.encode_s": ("s", ("incremental.encode",)),
    "ann.insert_s": ("s", ("ann.insert",)),
    "serve.swap_s": ("s", ("serve.swap",)),
}

#: Counts and ratios read from public counters, plus request-path medians.
OTHER_METRICS = {
    "trainer.steps": "count",
    "autograd.backward_calls": "count",
    "ann.computed_cells": "count",
    "ann.flops_fraction": "fraction",
    "incremental.redecode_s": "s",
    "incremental.rows_encoded": "count",
    "incremental.rows_decoded": "count",
    "incremental.refits": "count",
    "serve.evicted": "count",
    "serve.submit_ms": "ms",
    "serve.cache_hit_ratio": "fraction",
    "serve.cache_rejects": "count",
    "serve.batch_wait_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.batch_rows": "count",
    "serve.decoded_rows": "count",
    "serve.candidate_slice_hit_ratio": "fraction",
    "serve.gen_lag_ms": "ms",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in SPAN_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


def span_metrics(spans: list[Span], units_of_work: int) -> dict[str, float]:
    """Mean inclusive seconds per unit of work, for every span metric."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration
    per = max(1, units_of_work)
    return {metric: sum(totals.get(name, 0.0) for name in names) / per
            for metric, (_, names) in SPAN_METRICS.items()}


def under(spans: list[Span], names: tuple, ancestor: str) -> float:
    """Seconds of spans named in ``names`` nested in an ``ancestor`` span."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        if parent is not None:
            total += span.duration
    return total


def self_time_table(spans: list[Span]) -> dict[str, float]:
    """Self seconds per span name (where the time actually went)."""
    own = self_times(spans)
    table: dict[str, float] = defaultdict(float)
    for span in spans:
        table[span.name] += own[span.id]
    return dict(sorted(table.items(), key=lambda item: -item[1]))

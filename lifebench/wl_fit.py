"""``fit``: repeated ``AlignmentPipeline.fit()`` of DESAlign, full-graph loop.

The FBDB15K synthetic preset at 300 entities is a fixed dataset (its graph
and train/test split do not depend on the workload seed); the seed drives
the model initialisation and the batch order.  Each round fits its own
model seed (:meth:`Run.round_seed`), so the run's H@1 is a mean over three
models rather than one draw.  Forward, backward and the optimiser do
nearly all the work; the decode is one 300 x 300 evaluation.
"""

from __future__ import annotations

import math
import time

from . import layers
from .common import median
from .harness import Run, deadline_loop
from .trace import coverage

ENTITIES = 300
EPOCHS = 30
LEARNING_RATE = 0.02
EVALUATE_REPEATS = 5


def _spec(seed: int, epochs: int):
    from repro.core.config import TrainingConfig
    from repro.pipeline import DataSpec, ModelSpec, PipelineSpec

    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=ENTITIES,
                      seed_ratio=0.3, backend="sparse"),
        model=ModelSpec(name="DESAlign", hidden_dim=32, seed=seed),
        training=TrainingConfig(epochs=epochs, eval_every=0, seed=seed,
                                learning_rate=LEARNING_RATE,
                                sampling="full"))


def _fit_once(spec):
    from repro.pipeline import AlignmentPipeline

    start = time.perf_counter()
    aligner = AlignmentPipeline.from_spec(spec).fit()
    return aligner, time.perf_counter() - start


def run(ctx: Run) -> dict:
    def build(index: int):
        # One short fit pays first-call costs (lazy imports, allocator
        # growth) before the timed fits of the round's seed.
        seed = ctx.round_seed(index)
        _fit_once(_spec(seed, 1))
        return _spec(seed, EPOCHS)

    def measure(spec, seconds, _index) -> dict:
        samples = {"fit": [], "traced": [], "evaluate": [], "scores": []}
        # At least two fits, so the round can check they agree.
        for index in deadline_loop(seconds, minimum=2):
            traced = ctx.trace and index % 2 == 1
            if traced:
                ctx.trace_on()
                aligner, fit_seconds = _fit_once(spec)
                ctx.trace_off()
                samples["traced"].append(fit_seconds)
            else:
                aligner, fit_seconds = _fit_once(spec)
                samples["fit"].append(fit_seconds)
            ctx.operation(aligner.metrics is not None,
                          "fit returned no metrics")
            fitted = (aligner.metrics.hits_at_1, aligner.metrics.mrr)
            samples["scores"].append(fitted)
            if traced:
                continue
            for _ in range(EVALUATE_REPEATS):
                start = time.perf_counter()
                metrics = aligner.evaluate()
                samples["evaluate"].append(time.perf_counter() - start)
                ctx.check((metrics.hits_at_1, metrics.mrr) == fitted,
                          "Aligner.evaluate() disagrees with the fit metrics")
        samples["steps"] = EPOCHS * max(1, math.ceil(
            len(aligner.task.train_pairs) / spec.training.batch_size))
        return samples

    rounds = ctx.rounds(build, measure)
    fit_times = [value for r in rounds for value in r["fit"]]
    traced_times = [value for r in rounds for value in r["traced"]]
    evaluate_times = [value for r in rounds for value in r["evaluate"]]
    steps_per_fit = rounds[0]["steps"]

    # Correctness: a fit at a fixed seed is deterministic.
    for r in rounds:
        scores = r["scores"]
        for other in scores[1:]:
            ctx.check(other == scores[0], "fit H@1/MRR changed across fits "
                      f"of one seed: {scores[0]} vs {other}")
    firsts = [r["scores"][0] for r in rounds]

    peak = ctx.peak_rss_mb
    fit_s = median(fit_times)
    hits1 = 100.0 * sum(hits for hits, _ in firsts) / len(firsts)
    result = {
        "named": {
            "setup_s": (ctx.setup_s, "s"),
            "peak_rss_mb": (peak, "MB"),
            "fit_s": (fit_s, "s"),
            "fit_hits1": (hits1, "%"),
            "fit_mrr": (100.0 * sum(mrr for _, mrr in firsts) / len(firsts),
                        "%"),
            "evaluate_ms": (1e3 * median(evaluate_times), "ms"),
        },
        "end_to_end": {
            "setup_s": ctx.setup_s,
            "peak_rss_mb": peak,
            "primary_ms": 1e3 * fit_s,
            "secondary_ms": 1e3 * median(evaluate_times),
            "rate_per_s": steps_per_fit / fit_s,
            "quality_pct": hits1,
        },
        "samples": {"fits": len(fit_times), "evaluates": len(evaluate_times),
                    "traced_fits": len(traced_times),
                    "steps_per_fit": steps_per_fit},
    }
    if ctx.trace:
        spans = ctx.tracer.spans()
        units = len(traced_times)
        per_layer = layers.span_metrics(spans, units)
        per_layer["trainer.steps"] = sum(
            1 for span in spans if span.name == "trainer.forward") / units
        per_layer["autograd.backward_calls"] = sum(
            1 for span in spans if span.name == "autograd.backward") / units
        cover = coverage(spans, "pipeline.fit")
        ctx.check_coverage(cover)
        per_layer["trace.coverage_pct"] = 100.0 * cover["covered"]
        per_layer["trace.overhead_pct"] = 100.0 * (
            median(traced_times) / fit_s - 1.0)
        result["per_layer"] = per_layer
        result["trace"] = {"coverage": cover,
                           "self_s": layers.self_time_table(spans)}
    return result

"""``align``: fresh memory-mapped load plus ``align(k=10)``, three ways.

Each round fits its own artifact (its own seed).  Each iteration loads the
exhaustive artifact and aligns serially, loads it and aligns through
``with_decode(num_workers=2)``, then loads the IVF artifact and aligns.
The IVF decode costs several times more than the other two, so one of
each per iteration gives it two or three samples per round.  The scan,
the candidate gather and the mmap store do all the work; nothing trains
and no serving thread runs.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import replace

import numpy as np

from . import artifacts, layers
from .common import median
from .harness import Run, deadline_loop
from .trace import coverage


def _serial(directory):
    from repro.pipeline import Aligner

    aligner = Aligner.load(directory, mmap=True)
    return aligner, aligner.align(k=artifacts.K)


def _sharded(directory):
    from repro.pipeline import Aligner

    loaded = Aligner.load(directory, mmap=True)
    aligner = loaded.with_decode(replace(loaded.spec.decode, num_workers=2))
    return aligner, aligner.align(k=artifacts.K)


def _timed(function, directory):
    start = time.perf_counter()
    aligner, table = function(directory)
    return time.perf_counter() - start, aligner, table


def run(ctx: Run) -> dict:
    from repro.pipeline import Aligner

    def build(index):
        directory = ctx.scratch / "artifacts"
        shutil.rmtree(directory, ignore_errors=True)
        paths = artifacts.fit_and_save(ctx.round_seed(index), directory)
        # The first load and align pay lazy imports.
        Aligner.load(paths[0], mmap=True).align(k=artifacts.K)
        return paths

    def measure(paths, seconds, _index) -> dict:
        exhaustive_dir, ivf_dir = paths
        samples = {"serial": [], "sharded": [], "ivf": [], "round": [],
                   "traced_round": [], "cells": {}}
        reference = {}

        def record(kind, seconds, aligner, table):
            """Keep the time; check the table against the round's first one
            of its kind and the sharded decode against the serial one."""
            samples[kind].append(seconds)
            samples["cells"][kind] = aligner.topk(artifacts.K).computed_cells
            ctx.operation(True, f"{kind} load and align")
            first = reference.setdefault(kind, table)
            ctx.check(np.array_equal(table.target_ids, first.target_ids)
                      and np.array_equal(table.scores, first.scores),
                      f"a reloaded {kind} decode differs from the first one")
            if kind == "sharded":
                serial = reference["serial"]
                ctx.check(np.array_equal(table.target_ids, serial.target_ids)
                          and np.array_equal(table.scores, serial.scores),
                          "num_workers=2 decode differs from the serial "
                          "decode")

        for index in deadline_loop(seconds,
                                   minimum=2 if ctx.trace else 1):
            if ctx.trace and index % 2 == 1:
                tracer = ctx.trace_on()
                with tracer.span("bench.align"):
                    start = time.perf_counter()
                    _serial(exhaustive_dir)
                    _sharded(exhaustive_dir)
                    _serial(ivf_dir)
                    samples["traced_round"].append(
                        time.perf_counter() - start)
                ctx.trace_off()
                continue
            elapsed = 0.0
            for kind, function, directory in (
                    ("serial", _serial, exhaustive_dir),
                    ("sharded", _sharded, exhaustive_dir),
                    ("ivf", _serial, ivf_dir)):
                took, aligner, table = _timed(function, directory)
                elapsed += took
                record(kind, took, aligner, table)
            samples["round"].append(elapsed)
        samples["rows"] = reference["serial"].target_ids.shape[0]
        samples["recall"] = float(np.mean(
            reference["ivf"].target_ids[:, 0]
            == reference["serial"].target_ids[:, 0]))
        return samples

    rounds = ctx.rounds(build, measure)
    times = {kind: [value for r in rounds for value in r[kind]]
             for kind in ("serial", "sharded", "ivf", "round",
                          "traced_round")}
    recalls = [r["recall"] for r in rounds]

    peak = ctx.peak_rss_mb
    rows = rounds[0]["rows"]
    recall = median(recalls)
    rates = {f"align{suffix}_rows_per_s": rows / median(times[kind])
             for kind, suffix in (("serial", ""), ("sharded", "_sharded"),
                                  ("ivf", "_ivf"))}
    result = {
        "named": {
            "setup_s": (ctx.setup_s, "s"),
            "peak_rss_mb": (peak, "MB"),
            **{name: (value, "rows/s") for name, value in rates.items()},
            "ivf_recall1": (recall, "fraction"),
        },
        "end_to_end": {
            "setup_s": ctx.setup_s,
            "peak_rss_mb": peak,
            "primary_ms": 1e3 * median(times["serial"]),
            "secondary_ms": 1e3 * median(times["ivf"]),
            "rate_per_s": rates["align_sharded_rows_per_s"],
            "quality_pct": 100.0 * recall,
        },
        "samples": {"rows": rows, **{kind: len(values)
                                     for kind, values in times.items()}},
    }
    if ctx.trace:
        spans = ctx.tracer.spans()
        cells = [r["cells"] for r in rounds]
        per_layer = layers.span_metrics(spans, len(times["traced_round"]))
        per_layer["ann.computed_cells"] = median(
            [entry["ivf"] for entry in cells])
        per_layer["ann.flops_fraction"] = median(
            [entry["ivf"] / entry["serial"] for entry in cells])
        cover = coverage(spans, "bench.align", containers=("pipeline.align",))
        ctx.check_coverage(cover)
        per_layer["trace.coverage_pct"] = 100.0 * cover["covered"]
        per_layer["trace.overhead_pct"] = 100.0 * (
            median(times["traced_round"]) / median(times["round"]) - 1.0)
        result["per_layer"] = per_layer
        result["trace"] = {"coverage": cover,
                           "self_s": layers.self_time_table(spans)}
    return result

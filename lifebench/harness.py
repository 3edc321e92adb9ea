"""Run context shared by the workloads: set-up timing, checks, tracing."""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from pathlib import Path

from . import layers
from .common import median, peak_rss_mb, reset_peak_rss
from .trace import Tracer

#: Set-up and measurement rounds per run; ``setup_s`` is the median set-up.
ROUNDS = 3
#: Share of the root spans' wall time the wrapped layer calls must cover,
#: where a root only sequences layer calls (``fit``, ``align``).
COVERAGE_MIN = 0.97
#: The same for the serving roots, whose own code does work no public call
#: wraps: a batch task groups requests, assembles responses and takes the
#: engine's locks among four threads (about 93-94% covered), and an ingest
#: runs IncrementalAligner's private steps (about 95%).
COVERAGE_MIN_SERVING = 0.90


class Run:
    """One benchmark process: its seed, time budget, checks and tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path):
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.failed_checks = 0
        self.setup_times: list[float] = []
        self.peaks: list[float] = []
        self.tracer: Tracer | None = None
        out_dir.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                             dir=out_dir))

    # -- operations and checks ------------------------------------------
    def operation(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A correctness check: an operation whose failure makes the run
        incorrect."""
        if not self.operation(ok, what):
            self.failed_checks += 1
        return ok

    # -- set-up and measurement -----------------------------------------
    def rounds(self, build, measure, *, prepare=None, finish=None,
               close=None) -> list:
        """:data:`ROUNDS` rounds of a timed set-up and its measured phase.

        ``build(index)`` makes the round's state and is what ``setup_s``
        times.  ``prepare(state)`` (untimed: warm-ups, reference decodes)
        runs next; ``measure(state, seconds, index)`` then measures for an
        equal share of the run's seconds and returns the round's samples;
        ``finish(state, samples)`` runs the round's untimed checks and
        ``close(state)`` releases it.  Measuring on several set-ups lets a
        figure that depends on one process state (memory layout, thread
        timing) come out as a median across states instead of one draw.
        The RSS high-water mark covers the measured phases only.
        """
        share = self.seconds / ROUNDS
        results = []
        for index in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            state = build(index)
            self.setup_times.append(time.perf_counter() - start)
            try:
                if prepare is not None:
                    prepare(state)
                gc.collect()
                reset_peak_rss()
                samples = measure(state, share, index)
                self.peaks.append(peak_rss_mb())
                if finish is not None:
                    finish(state, samples)
                results.append(samples)
            finally:
                if close is not None:
                    close(state)
        return results

    def round_seed(self, index: int) -> int:
        """Seed of round ``index``: rounds draw different inputs, so a run's
        medians do not rest on one draw."""
        return self.seed * ROUNDS + index

    @property
    def setup_s(self) -> float:
        return median(self.setup_times)

    @property
    def peak_rss_mb(self) -> float:
        return max(self.peaks)

    # -- tracing --------------------------------------------------------
    def check_coverage(self, cover: dict,
                       minimum: float = COVERAGE_MIN) -> None:
        """The traced layers must account for the root spans' wall time."""
        self.operation(
            cover["roots"] > 0 and cover["covered"] >= minimum,
            f"trace coverage of {cover['root']} is "
            f"{100.0 * cover['covered']:.1f}% (< {100.0 * minimum:g}%): "
            "a layer's public call is not wrapped")

    def trace_on(self) -> Tracer:
        """Install the wrappers; spans accumulate in one tracer per run."""
        if self.tracer is None:
            self.tracer = Tracer()
        layers.install(self.tracer)
        return self.tracer

    def trace_off(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def close(self) -> None:
        self.trace_off()
        shutil.rmtree(self.scratch, ignore_errors=True)


def deadline_loop(seconds: float, minimum: int = 1):
    """Yield iteration indices for about ``seconds`` (at least ``minimum``).

    Another iteration starts while the time left exceeds half the mean
    iteration so far, so a run overshoots its budget by at most half an
    iteration.
    """
    start = time.perf_counter()
    end = start + seconds
    index = 0
    while True:
        now = time.perf_counter()
        mean = (now - start) / index if index else 0.0
        if index >= minimum and end - now <= 0.5 * mean:
            return
        yield index
        index += 1

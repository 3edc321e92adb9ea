"""Open-loop read traffic against a :class:`~repro.serve.ServingEngine`.

One generator thread sends single-entity ``submit(k=5)`` requests on a
fixed schedule whatever the engine does; entity popularity is Zipf(s=1)
over a seeded permutation of the source rows.  Each request is timed from
the moment it was due, so a stall also delays the requests behind it.
Completion is stamped by wrapping ``PendingRequest.complete`` / ``fail``.

With a tracer, the worker-pool side is stamped too: ``WorkerPool.submit``
is wrapped so each batch task records when it was queued and when it
started, and runs inside a ``serve.execute`` span, the root under which the
wrapped serve-layer calls (cache, decode, completion) nest.  Every request
also gets a ``request`` span from its due time to completion, split into
generator lag, submit, batch wait, queue wait and execution.  Those request
spans are intervals the harness builds from its own stamps, not layer
calls: they give each request its id and breakdown, and the coverage check
does not use them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .common import median, quantile, tail

K = 5
#: A request not completed this long after its due time has failed.
REQUEST_TIMEOUT_S = 5.0


class Popularity:
    """Zipf(s=1) entity sampler over ``num_rows`` rows.

    Which entity holds which popularity rank is a fixed permutation, so the
    hot set (and with it the cache hit ratio) is a property of the
    workload; ``seed`` draws the request sequence.
    """

    def __init__(self, num_rows: int, seed: int):
        weights = 1.0 / np.arange(1, num_rows + 1)
        self._probabilities = weights / weights.sum()
        self._entities = np.random.default_rng(0).permutation(num_rows)
        self._rng = np.random.default_rng([seed, 5])

    def draw(self, count: int) -> np.ndarray:
        ranks = self._rng.choice(len(self._entities), size=count,
                                 p=self._probabilities)
        return self._entities[ranks]


@dataclass
class Phase:
    """What one constant-rate phase sent and how it went."""

    label: str
    rate: float
    latencies_ms: list = field(default_factory=list)
    submit_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    batch_wait_ms: list = field(default_factory=list)
    queue_wait_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    backlog_at_end: int = 0
    duration_s: float = 0.0
    #: When the first request was due and the last one completed.
    first_due: float = 0.0
    last_done: float = 0.0
    #: Responses the phase's ``verify`` callback rejected.
    mismatches: int = 0

    def summary(self) -> dict:
        out = {"label": self.label, "rate": self.rate,
               "attempted": self.attempted, "failed": self.failed,
               "errors": self.errors, "backlog_at_end": self.backlog_at_end,
               "duration_s": self.duration_s, "mismatches": self.mismatches}
        if self.latencies_ms:
            out["p50_ms"] = median(self.latencies_ms)
            out["tail"] = tail(self.latencies_ms)
            out["lag_p50_ms"] = median(self.lag_ms)
            out["lag_max_ms"] = max(self.lag_ms)
        return out

    def throughput(self) -> float:
        """Completed requests per second, first due time to last completion."""
        completed = len(self.latencies_ms)
        span = self.last_done - self.first_due
        return completed / span if completed and span > 0 else 0.0

    def share_within(self, limit_ms: float) -> float:
        """Share of the requests sent that completed within ``limit_ms``."""
        sent = len(self.latencies_ms) + self.failed
        within = sum(1 for value in self.latencies_ms if value <= limit_ms)
        return within / sent if sent else 0.0

    def p99_with_failures(self) -> float:
        """p99 latency where a failed request counts as missing any limit."""
        values = self.latencies_ms + [float("inf")] * self.failed
        return quantile(values, 0.99)


class Traffic:
    """The generator plus the completion stamps it reads."""

    def __init__(self, popularity: Popularity):
        from repro.serve.engine import PendingRequest

        self.popularity = popularity
        self.tracer = None
        self._done: dict = {}
        self._local = threading.local()
        self._patched = []
        done = self._done
        local = self._local

        def stamp(original):
            def wrapper(request, value):
                done[request] = (time.perf_counter(),
                                 getattr(local, "batch", None))
                original(request, value)
            return wrapper

        for name in ("complete", "fail"):
            self._patch(PendingRequest, name,
                        stamp(PendingRequest.__dict__[name]))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def enable_tracing(self, tracer) -> None:
        """Stamp the worker-pool side and record request spans from now on."""
        from repro.serve.workers import WorkerPool

        self.tracer = tracer
        original_submit = WorkerPool.__dict__["submit"]
        local = self._local

        def pool_submit(pool, task):
            queued = time.perf_counter()

            def timed():
                local.batch = (queued, time.perf_counter())
                try:
                    with tracer.span("serve.execute"):
                        task()
                finally:
                    local.batch = None
            return original_submit(pool, timed)

        self._patch(WorkerPool, "submit", pool_submit)

    def close(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def run_phase(self, engine, rate: float, duration: float, label: str,
                  verify=None) -> Phase:
        """Send ``rate`` requests per second for ``duration`` seconds.

        Runs on a thread of its own and returns when every request has
        completed, failed or timed out.  ``verify(entity, result)``, when
        given, checks each response after the phase's schedule has ended.
        """
        thread, holder = self.start_phase(engine, rate, duration, label,
                                          verify=verify)
        thread.join()
        if "phase" not in holder:
            raise RuntimeError("the traffic generator died")
        return holder["phase"]

    def start_phase(self, engine, rate: float, duration: float, label: str,
                    stop=None, verify=None) -> tuple[threading.Thread, dict]:
        """Like :meth:`run_phase`, in the background: join the thread, then
        read ``holder["phase"]``.  ``stop`` (an event) ends the schedule
        early."""
        holder: dict = {}
        thread = threading.Thread(
            target=lambda: holder.setdefault(
                "phase", self._phase(engine, rate, duration, label, stop,
                                     verify)),
            name="lifebench-generator")
        thread.start()
        return thread, holder

    def _phase(self, engine, rate, duration, label, stop, verify) -> Phase:
        from repro.serve.engine import ServingError

        count = max(1, int(round(rate * duration)))
        entities = self.popularity.draw(count)
        phase = Phase(label=label, rate=rate)
        sent = []
        interval = 1.0 / rate
        origin = time.perf_counter() + 0.002
        for index in range(count):
            due = origin + index * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            if stop is not None and stop.is_set():
                break
            before = time.perf_counter()
            try:
                request = engine.submit([int(entities[index])], k=K)
            except ServingError as error:
                phase.attempted += 1
                phase.failed += 1
                phase.errors[error.code] = phase.errors.get(error.code, 0) + 1
                continue
            after = time.perf_counter()
            sent.append((request, due, before, after, int(entities[index])))
        last_due = sent[-1][1] if sent else origin
        phase.backlog_at_end = sum(1 for request, *_ in sent
                                   if not request.event.is_set())
        for request, due, *_ in sent:
            remaining = due + REQUEST_TIMEOUT_S - time.perf_counter()
            if not request.event.wait(max(0.0, remaining)):
                request.abandoned = True
        phase.duration_s = last_due - origin
        phase.first_due = origin
        self._collect(phase, sent, verify)
        return phase

    def _collect(self, phase: Phase, sent: list, verify) -> None:
        tracer = self.tracer
        for request, due, before, after, entity in sent:
            phase.attempted += 1
            stamped = self._done.pop(request, None)
            if stamped is None or request.error is not None:
                phase.failed += 1
                code = (request.error.code if request.error is not None
                        else "timeout")
                phase.errors[code] = phase.errors.get(code, 0) + 1
                continue
            done, batch = stamped
            phase.last_done = max(phase.last_done, done)
            phase.latencies_ms.append(1e3 * (done - due))
            phase.lag_ms.append(1e3 * (before - due))
            phase.submit_ms.append(1e3 * (after - before))
            if verify is not None and not verify(entity, request.result):
                phase.mismatches += 1
            if batch is not None:
                queued, started = batch
                phase.batch_wait_ms.append(1e3 * max(0.0, queued - after))
                phase.queue_wait_ms.append(1e3 * (started - queued))
            if tracer is not None:
                self._record_request(tracer, due, before, after, done, batch)

    @staticmethod
    def _record_request(tracer, due, before, after, done, batch) -> None:
        request_id = tracer.next_id()
        root = tracer.record("request", due, done, request=request_id)
        marks = [("request.gen_lag", due), ("request.submit", before)]
        if batch is not None:
            marks += [("request.batch_wait", after),
                      ("request.queue_wait", batch[0]),
                      ("request.execute", batch[1])]
        # Stamps from different threads can interleave by a few
        # microseconds; clamp them into order inside the request.
        bounds = []
        cursor = due
        for name, mark in marks:
            cursor = min(max(cursor, mark), done)
            bounds.append((name, cursor))
        for index, (name, start) in enumerate(bounds):
            end = bounds[index + 1][1] if index + 1 < len(bounds) else done
            tracer.record(name, start, end, parent=root, request=request_id)

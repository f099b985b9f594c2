"""Threaded dynamic-batching inference server with fault recovery.

The deployment story of the paper is a saturation problem: the TX2
keeps its DNN stage busy by overlapping four system stages, the Ultra96
by processing several images per accelerator call (Sec. 5).  Under a
*stream of concurrent requests* the same lever is dynamic batching:
requests park in a bounded queue, a worker coalesces them into a batch
— flushing when the batch is full (``max_batch_size``) or the oldest
request has waited long enough (``max_wait_ms``), whichever comes first
— and one forward serves the whole batch.

Overload policy is explicit and non-blocking:

* a full queue **sheds** new requests immediately (503-style result) —
  ``submit`` never blocks the caller;
* a request whose **deadline** passes while queued resolves with a
  timeout result (504-style) instead of occupying a worker;
* ``stop()`` resolves everything still queued with shutdown results, so
  no future is ever left dangling.

Failures get *recovery*, not just error results (the DAC-SDC stream
must survive, and ``repro.resilience`` injects the faults that prove
it):

* a failed batch is **retried** with exponential backoff + jitter
  (``max_retries``), so a transient fault costs a pause, not a 500;
* a batch that keeps failing is **bisected**: split in half and re-run,
  so one poison request errors alone instead of failing its batchmates;
* a :class:`~repro.resilience.CircuitBreaker` counts consecutive
  primary-runner failures and, once tripped, routes batches to the
  **fallback runner** (the eager forward behind a compiled plan),
  half-opening after a cooldown to probe recovery;
* a **watchdog** respawns dead worker threads and requeues whatever
  batch the corpse held, so a worker crash loses zero accepted
  requests;
* :meth:`InferenceServer.health` reports readiness (worker liveness,
  queue, breaker state) for the CLI and load balancers.

Each worker owns its runners (for compiled plans: a
:meth:`~repro.nn.engine.CompiledNet.clone_for_thread` clone), so buffer
arenas are never shared across threads.

Every event the server counts lives in one always-on
:class:`~repro.obs.CounterSet`, ``InferenceServer.stats``.
:meth:`~InferenceServer.health` reads it, and a recorder installed when
the server starts exports each key as ``serve/<key>``:
``serve/submitted``, ``serve/completed``, ``serve/shed``,
``serve/timeouts``, ``serve/errors``, ``serve/batches``,
``serve/batched_requests``, ``serve/retries``, ``serve/bisections``,
``serve/respawns``, ``serve/requeued`` and ``serve/fallback_batches``.
The rest of the telemetry goes through :mod:`repro.obs` while
recording: the ``serve/queue_depth`` gauge, the ``serve/batch_size``
histogram, the circuit breaker's ``serve/breaker_*`` counters, a
``serve/queue_wait`` span per dequeued request, a ``serve/batch`` span
per forward, and a ``serve/worker_respawn`` instant event per watchdog
revival.  Every request is minted a
:class:`~repro.obs.RequestContext` in :meth:`InferenceServer.submit`;
the context rides the queue and is re-entered around the batch forward,
so queue-wait, batch, and engine kernel spans all carry the request id
(comma-joined for coalesced batches) and results expose it as
``ServeResult.request_id``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.breaker import OPEN, CircuitBreaker
from ..resilience.retry import RetryPolicy
from ..runtime.config import ServeConfig
from .result import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTDOWN,
    STATUS_TIMEOUT,
    ServeResult,
)

__all__ = ["InferenceServer"]

#: Every event a server counts.  ``submitted`` counts every submit()
#: call, shed and shutdown included; ``batched_requests`` sums the sizes
#: of resolved batches (for ``mean_batch_size``).
_SERVE_COUNTERS = (
    "submitted", "completed", "shed", "timeouts", "errors", "batches",
    "batched_requests", "retries", "bisections", "respawns", "requeued",
    "fallback_batches",
)


def _mean_batch_size(counts: dict) -> dict:
    batches = counts["batches"]
    return {"mean_batch_size": (counts["batched_requests"] / batches
                                if batches else 0.0)}


def _server_counters() -> obs.CounterSet:
    return obs.CounterSet(*_SERVE_COUNTERS, derive=_mean_batch_size)


class _Request:
    __slots__ = ("image", "future", "submitted_at", "deadline_at", "ctx")

    def __init__(self, image, future, submitted_at, deadline_at,
                 ctx=None) -> None:
        self.image = image
        self.future = future
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        # RequestContext minted in submit(); rides the queue so worker
        # threads can attribute their spans to this request.
        self.ctx = ctx

    @property
    def request_id(self) -> str | None:
        return None if self.ctx is None else self.ctx.request_id

    def resolve(self, status: str, done: float | None = None,
                **fields) -> None:
        """Resolve with a ``status`` result; ``done`` (a perf_counter
        stamp) sets its latency since submit."""
        if done is not None:
            fields["latency_ms"] = (done - self.submitted_at) * 1e3
        _resolve(self.future,
                 ServeResult(status, request_id=self.request_id, **fields))


class InferenceServer:
    """Bounded queue + dynamic batcher + self-healing worker pool.

    Parameters
    ----------
    runner_factory:
        Zero-argument callable returning a *batch runner*: a callable
        mapping an ``(N, C, H, W)`` ndarray to an output array with a
        leading batch dimension.  Called once per worker thread so every
        worker owns its runner (see
        :meth:`repro.runtime.Session.runner_for_thread`).
    config:
        The :class:`~repro.runtime.ServeConfig` scheduling + recovery
        policy.
    name:
        Label used in spans and the repr.
    fallback_factory:
        Optional second runner factory functionally equivalent to the
        primary (a Session passes the eager forward behind a compiled
        plan).  Enables the circuit breaker: after
        ``config.breaker_threshold`` consecutive primary failures,
        batches run on the fallback until a half-open probe finds the
        primary healthy again.
    """

    def __init__(
        self,
        runner_factory,
        config: ServeConfig | None = None,
        name: str = "model",
        fallback_factory=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.name = name
        self.stats = _server_counters()
        obs.attach_counters("serve", self.stats)
        self._runner_factory = runner_factory
        self._fallback_factory = fallback_factory
        self.breaker: CircuitBreaker | None = None
        if fallback_factory is not None and self.config.breaker_threshold:
            self.breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_ms / 1e3,
                name=name,
            )
        self._retry = RetryPolicy(
            max_retries=self.config.max_retries,
            backoff_ms=self.config.retry_backoff_ms,
        )
        self._queue: queue.Queue[_Request] = queue.Queue(
            maxsize=self.config.queue_depth
        )
        #: Runtime override of ``config.max_batch_size`` (overload
        #: brownout shrinks batches without rebuilding the server).
        self._batch_cap: int | None = None
        self._stopping = threading.Event()
        self._inflight: list[list[_Request] | None] = (
            [None] * self.config.num_workers
        )
        self._workers = [self._spawn(i) for i in range(self.config.num_workers)]
        self._watchdog_thread = None
        if self.config.watchdog:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog, daemon=True,
                name=f"serve-{name}-watchdog",
            )
            self._watchdog_thread.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def submit(
        self, image: np.ndarray, deadline_ms: float | None = None
    ) -> Future:
        """Queue one ``(C, H, W)`` or ``(1, C, H, W)`` image.

        Returns a future resolving to a :class:`ServeResult`.  Never
        blocks: if the queue is full the request is shed right here with
        a 503-style result, and after :meth:`stop` every submission
        resolves as shutdown.
        """
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 3:
            image = image[None]
        if image.ndim != 4 or image.shape[0] != 1:
            raise ValueError(
                "submit takes one image per request: (C, H, W) or "
                f"(1, C, H, W), got shape {image.shape}"
            )
        future: Future = Future()
        now = time.perf_counter()
        self.stats.add("submitted")
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        ctx = obs.RequestContext.new(
            prefix=self.name, deadline_ms=deadline_ms
        )
        if self._stopping.is_set():
            future.set_result(
                ServeResult(STATUS_SHUTDOWN, request_id=ctx.request_id)
            )
            return future
        deadline_at = None if deadline_ms is None else now + deadline_ms / 1e3
        request = _Request(image, future, now, deadline_at, ctx)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.stats.add("shed")
            future.set_result(
                ServeResult(STATUS_SHED, request_id=ctx.request_id)
            )
            return future
        obs.set_gauge("serve/queue_depth", self._queue.qsize())
        return future

    def set_batch_cap(self, cap: int | None) -> None:
        """Cap dynamic batches below ``config.max_batch_size`` at
        runtime (``None`` restores the configured limit).

        Used by the streaming brownout ladder: smaller batches cut
        per-batch latency and arena footprint under overload, without
        touching queued requests or restarting workers.  Takes effect
        on the next coalesce; batches already filled are unaffected.
        """
        if cap is not None and cap < 1:
            raise ValueError("batch cap must be >= 1 or None")
        self._batch_cap = cap
        obs.set_gauge(
            "serve/batch_cap",
            self.config.max_batch_size if cap is None else cap,
        )

    def health(self) -> dict:
        """Readiness snapshot: worker liveness, queue, breaker, stats.

        ``status`` is ``"ok"`` when every worker is alive and the
        breaker (if any) is not open, ``"degraded"`` when some workers
        are dead or traffic is running on the fallback, ``"down"`` when
        no worker is alive, and ``"stopped"`` after :meth:`stop`.
        """
        alive = sum(1 for t in self._workers if t.is_alive())
        breaker = None if self.breaker is None else self.breaker.snapshot()
        if self._stopping.is_set():
            status = "stopped"
        elif alive == 0:
            status = "down"
        elif alive < len(self._workers) or (
            breaker is not None and breaker["state"] == OPEN
        ):
            status = "degraded"
        else:
            status = "ok"
        obs.set_gauge("serve/workers_alive", alive)
        return {
            "status": status,
            "workers_alive": alive,
            "workers_total": len(self._workers),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "breaker": breaker,
            "stats": self.stats.snapshot(),
        }

    def stop(self) -> None:
        """Stop the workers and fail queued requests fast (idempotent).

        Requests already inside a worker's batch finish normally; the
        rest — queued, or stranded in a crashed worker's in-flight slot
        — resolve with shutdown results so no caller ever hangs on a
        dangling future.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join()
        for t in self._workers:
            t.join()
        stranded = [r for batch in self._inflight for r in batch or ()]
        self._inflight[:] = [None] * len(self._inflight)
        while True:
            try:
                stranded.append(self._queue.get_nowait())
            except queue.Empty:
                break
        for request in stranded:
            request.resolve(STATUS_SHUTDOWN)

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InferenceServer({self.name}, "
                f"workers={self.config.num_workers}, "
                f"queued={self._queue.qsize()})")

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker, args=(index,), daemon=True,
            name=f"serve-{self.name}-{index}",
        )
        thread.start()
        return thread

    def _worker(self, index: int) -> None:
        runners: dict[bool, object] = {}  # keyed by "is fallback"
        rng = np.random.default_rng(1000 + index)  # retry jitter
        while not self._stopping.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            batch = self._fill_batch(first, index)
            self._inflight[index] = batch
            spec = faults.trigger("serve.worker")
            if spec is not None and spec.kind == "crash":
                # The thread dies with its batch still in the in-flight
                # slot; the watchdog requeues it and respawns us.
                raise faults.WorkerCrash(
                    f"injected worker crash (worker {index})"
                )
            self._run_batch(runners, batch, index, rng)
            self._inflight[index] = None

    def _watchdog(self) -> None:
        """Respawn dead workers and requeue the batches they dropped."""
        interval = self.config.watchdog_interval_ms / 1e3
        while not self._stopping.wait(interval):
            for i, thread in enumerate(self._workers):
                if thread.is_alive():
                    continue
                batch, self._inflight[i] = self._inflight[i], None
                requeued = 0
                for request in batch or ():
                    if request.future.done():
                        continue
                    try:
                        self._queue.put_nowait(request)
                        requeued += 1
                    except queue.Full:
                        self.stats.add("shed")
                        request.resolve(STATUS_SHED)
                self.stats.add_many(respawns=1, requeued=requeued)
                obs.event("serve/worker_respawn", server=self.name,
                          worker=i, requeued=requeued)
                self._workers[i] = self._spawn(i)

    def _fill_batch(self, first: _Request, index: int) -> list[_Request]:
        """Coalesce requests: flush on ``max_batch_size`` or on the
        ``max_wait_ms`` window from the first dequeue, whichever first.

        A *lone* request — empty queue and no other worker holding a
        batch — flushes immediately instead of burning the full wait
        window: there is nothing to coalesce with, so waiting would buy
        batch size 1 at ``max_wait_ms`` extra latency (the
        ``concurrency1`` closed-loop penalty)."""
        batch = [first]
        cap = self._batch_cap
        limit = (self.config.max_batch_size if cap is None
                 else min(cap, self.config.max_batch_size))
        flush_at = time.perf_counter() + self.config.max_wait_ms / 1e3
        while len(batch) < limit:
            try:
                batch.append(self._queue.get_nowait())
                continue
            except queue.Empty:
                pass
            if all(
                inflight is None or i == index
                for i, inflight in enumerate(self._inflight)
            ):
                break
            remaining = flush_at - time.perf_counter()
            if remaining <= 0 or self._stopping.is_set():
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _run_batch(
        self, runners: dict, batch: list[_Request], worker: int,
        rng: np.random.Generator,
    ) -> None:
        now = time.perf_counter()
        recording = obs.enabled()
        live: list[_Request] = []
        for request in batch:
            if recording:
                # The queue wait started on the submit thread and ended
                # here; reconstruct it from the timestamps, attributed
                # to the request that waited.
                with obs.use_context(request.ctx):
                    obs.record_span(
                        "serve/queue_wait", request.submitted_at, now,
                        server=self.name, worker=worker,
                    )
            if request.deadline_at is not None and now > request.deadline_at:
                self.stats.add("timeouts")
                request.resolve(STATUS_TIMEOUT, now)
            else:
                live.append(request)
        obs.set_gauge("serve/queue_depth", self._queue.qsize())
        if not live:
            return
        self._execute(runners, live, worker, rng)

    def _execute(
        self, runners: dict, live: list[_Request], worker: int,
        rng: np.random.Generator,
    ) -> None:
        """Run ``live`` with the full recovery ladder: retry with
        backoff, trip the breaker to the fallback runner, and bisect a
        batch whose retries are exhausted so a poison request fails
        alone."""
        x = (live[0].image if len(live) == 1
             else np.concatenate([r.image for r in live], axis=0))
        attempt = 0
        last_error = "unknown error"
        while True:
            on_fallback = (self.breaker is not None
                           and not self.breaker.allow_primary())
            try:
                # Built on first use, so a respawned worker rebuilds
                # its own engine clone.
                runner = runners.get(on_fallback)
                if runner is None:
                    runner = runners[on_fallback] = (
                        self._fallback_factory if on_fallback
                        else self._runner_factory)()
                spec = faults.trigger("serve.runner")
                if spec is not None and spec.kind == "crash":
                    raise faults.InjectedFault("injected runner crash")
                if spec is not None and spec.kind == "stall":
                    time.sleep(spec.delay_s)
                batch_ctx = obs.merged_context(
                    [r.ctx for r in live],
                    backend="fallback" if on_fallback else "primary",
                )
                with obs.use_context(batch_ctx), obs.span(
                    "serve/batch", server=self.name, worker=worker,
                    batch=len(live),
                    backend="fallback" if on_fallback else "primary",
                ):
                    out = runner(x)
                if spec is not None and spec.kind in ("nan", "inf"):
                    out = faults.apply_array_fault(out, spec)
                if (self.config.reject_nonfinite
                        and not np.all(np.isfinite(out))):
                    raise ValueError("runner produced non-finite outputs")
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if not on_fallback and self.breaker is not None:
                    self.breaker.record_failure()
                if attempt < self.config.max_retries:
                    delay = self._retry.delay_ms(attempt, rng)
                    attempt += 1
                    self.stats.add("retries")
                    if delay:
                        time.sleep(delay / 1e3)
                    continue
                break
            if not on_fallback and self.breaker is not None:
                self.breaker.record_success()
            if on_fallback:
                self.stats.add("fallback_batches")
            self._resolve_ok(live, out)
            return

        # Retries exhausted.  A multi-request batch may be failing
        # because of one poison request: split and re-run each half so
        # the healthy batchmates still get answers.
        if len(live) > 1 and self.config.bisect_failed_batches:
            self.stats.add("bisections")
            mid = len(live) // 2
            self._execute(runners, live[:mid], worker, rng)
            self._execute(runners, live[mid:], worker, rng)
            return
        self.stats.add("errors", len(live))
        done = time.perf_counter()
        for request in live:
            request.resolve(STATUS_ERROR, done, error=last_error,
                            batch_size=len(live))

    def _resolve_ok(self, live: list[_Request], out: np.ndarray) -> None:
        done = time.perf_counter()
        # One atomic bump: a concurrent snapshot() must never see
        # completed move while batches lags (torn mean batch size).
        self.stats.add_many(
            completed=len(live), batches=1, batched_requests=len(live),
        )
        obs.observe("serve/batch_size", len(live))
        for i, request in enumerate(live):
            request.resolve(STATUS_OK, done, value=out[i],
                            batch_size=len(live))


def _resolve(future: Future, result: ServeResult) -> None:
    """Resolve a future exactly once (stop() or the watchdog can race a
    live worker)."""
    try:
        future.set_result(result)
    except InvalidStateError:  # benign shutdown/watchdog race
        pass

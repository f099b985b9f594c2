"""Process-pool worker backend for :class:`~repro.serve.InferenceServer`.

The thread backend keeps every worker inside one interpreter, so the
Python portions of concurrent forwards serialize on the GIL: adding
workers past one buys fault isolation, not throughput.  This module
breaks that ceiling the way FastMOT's multi-process analytics pipeline
does — each worker is a *child process* owning its own interpreter,
engine, and buffer arena:

* **Worker spec, not runner pickling.**  The parent ships a
  :class:`WorkerSpec` — the pickled model, its
  :class:`~repro.runtime.SessionConfig`, and optional calibration — and
  each child rebuilds its runner with ``Session.load``.  Closures (a
  Detector's box-decoding postprocess) never cross the process boundary.
* **Shared-memory tensor transport.**  Request and response tensors move
  through ``multiprocessing.shared_memory`` blocks; the control pipe
  carries only tiny pickled headers (shape, dtype, block name).  Image
  batches are never pickled on the hot path; the child runs directly on
  the shared-memory view (the protocol is synchronous per worker, so the
  parent never overwrites an in-flight request).
* **Crash = retry, not loss.**  A killed worker process surfaces as a
  :class:`ProcWorkerDied` from the runner; the server's retry ladder
  re-runs the batch, and the runner respawns its child on the next call
  — zero accepted requests lost, mirroring the thread watchdog's
  respawn-and-requeue contract.
* **Telemetry crosses the boundary.**  Children time their forwards with
  ``time.perf_counter`` (CLOCK_MONOTONIC — system-wide on Linux) and
  return span timestamps in the response header; the parent replays them
  into the ambient request context, so per-request traces show child
  execution alongside queue waits.

Select it with ``ServeConfig(worker_backend="process")`` or
``repro serve --worker-backend process``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory

import numpy as np

from .. import obs
from ..resilience import faults

__all__ = [
    "ProcessPool",
    "ProcWorkerDied",
    "ProcWorkerError",
    "WorkerSpec",
]

_READY_TIMEOUT_S = 120.0
_MIN_BLOCK_BYTES = 1 << 20


class ProcWorkerDied(RuntimeError):
    """The worker process died (crash/kill) with a request in flight."""


class ProcWorkerError(RuntimeError):
    """The worker process reported a runner failure (process survives)."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a child process needs to rebuild its runner.

    Only picklable leaves: the model rides as bytes, and the child calls
    ``Session.load`` itself, so the fallback ladder, microbatch tiling,
    and postprocess resolution behave exactly as in the parent.
    """

    model_blob: bytes
    session_config: object = None  # SessionConfig | None
    calibration: np.ndarray | None = None
    warmup_shape: tuple[int, ...] | None = None
    intra_op_threads: int = 1
    name: str = "model"

    @classmethod
    def for_model(cls, model, config=None, calibration=None,
                  warmup_shape=None, intra_op_threads=1,
                  name=None) -> "WorkerSpec":
        return cls(
            model_blob=pickle.dumps(model),
            session_config=config,
            calibration=calibration,
            warmup_shape=(None if warmup_shape is None
                          else tuple(warmup_shape)),
            intra_op_threads=intra_op_threads,
            name=name if name is not None else type(model).__name__,
        )


# --------------------------------------------------------------------- #
# shared-memory helpers
# --------------------------------------------------------------------- #
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block.

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker; because spawn children share the parent's tracker
    process (its fd rides the spawn command line), that registration is
    a set-dedupe no-op — do NOT "defensively" unregister here, or the
    creator's own registration disappears and its eventual ``unlink``
    trips a KeyError inside the tracker.
    """
    return shared_memory.SharedMemory(name=name)


def _destroy(shm: shared_memory.SharedMemory | None, unlink: bool) -> None:
    if shm is None:
        return
    try:
        shm.close()
    except OSError:  # pragma: no cover - already gone
        pass
    if unlink:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _Block:
    """A growable shared-memory block owned by one side of the pipe."""

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None

    def reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        """Ensure capacity; growth allocates a fresh (renamed) block."""
        if self.shm is None or self.shm.size < nbytes:
            _destroy(self.shm, unlink=True)
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(nbytes, _MIN_BLOCK_BYTES))
        return self.shm

    def close(self) -> None:
        _destroy(self.shm, unlink=True)
        self.shm = None


# --------------------------------------------------------------------- #
# child process
# --------------------------------------------------------------------- #
def _child_main(conn, spec_blob: bytes) -> None:
    """Worker-process entry: build the runner, answer run requests."""
    spec: WorkerSpec = pickle.loads(spec_blob)
    from ..nn.engine.threads import set_intra_op_threads
    from ..runtime.session import Session

    set_intra_op_threads(spec.intra_op_threads)
    out_block = _Block()
    in_shm: shared_memory.SharedMemory | None = None
    in_name = None
    try:
        model = pickle.loads(spec.model_blob)
        session = Session.load(model, spec.session_config,
                               calibration=spec.calibration)
        runner = session.runner_for_thread()
        if spec.warmup_shape is not None:
            runner(np.zeros(spec.warmup_shape, np.float32))
        conn.send(("ready", os.getpid(), session.backend))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            if msg[0] == "ping":
                conn.send(("pong",))
                continue
            # ("run", shape, dtype, input-block name)
            _, shape, dtype, name = msg
            try:
                if name != in_name:
                    if in_shm is not None:
                        in_shm.close()
                    in_shm = _attach(name)
                    in_name = name
                x = np.ndarray(shape, dtype=np.dtype(dtype),
                               buffer=in_shm.buf)
                t0 = time.perf_counter()
                y = np.ascontiguousarray(runner(x))
                t1 = time.perf_counter()
                shm = out_block.reserve(y.nbytes)
                np.ndarray(y.shape, dtype=y.dtype,
                           buffer=shm.buf)[...] = y
                conn.send((
                    "ok", y.shape, str(y.dtype), shm.name,
                    [("serve/proc_run", t0, t1,
                      {"pid": os.getpid(), "batch": shape[0]})],
                ))
            except Exception as exc:  # runner failure: report, survive
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        out_block.close()
        if in_shm is not None:
            in_shm.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class _ProcWorker:
    """Parent-side handle of one worker process."""

    def __init__(self, spec_blob: bytes, name: str, index: int) -> None:
        self.name = name
        self.index = index
        ctx = get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_child_main, args=(child_conn, spec_blob),
            name=f"serve-{name}-proc-{index}", daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._in_block = _Block()
        self._out_shm: shared_memory.SharedMemory | None = None
        self._out_name: str | None = None
        self.backend = None
        self.dead = False
        if not self._conn.poll(_READY_TIMEOUT_S):
            self.close(kill=True)
            raise ProcWorkerDied(
                f"worker process {index} never became ready")
        msg = self._recv()
        if msg[0] != "ready":  # pragma: no cover - protocol guard
            self.close(kill=True)
            raise ProcWorkerDied(f"unexpected handshake {msg[0]!r}")
        self.pid = msg[1]
        self.backend = msg[2]

    @property
    def alive(self) -> bool:
        # ``is_alive()`` alone is not enough: right after a SIGKILL the
        # pipe EOF surfaces *before* the child is reapable, so for a few
        # milliseconds ``is_alive()`` still says True.  Any observed
        # death pins ``self.dead`` so the runner respawns immediately.
        return not self.dead and self._proc.is_alive()

    def _recv(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            self.dead = True
            raise ProcWorkerDied(
                f"worker process {self.index} (pid {self.pid if hasattr(self, 'pid') else '?'}) "
                f"died mid-request") from exc

    def run(self, x: np.ndarray) -> np.ndarray:
        # Parent-side fault site: plans armed in this process cannot
        # reach into the spawned child, so "crash" SIGKILLs the real
        # child instead — the pipe EOF then drives the genuine
        # ProcWorkerDied -> retry -> respawn path, not a simulation.
        spec = faults.trigger("serve.procworker")
        if spec is not None and spec.kind == "crash" and self.alive:
            os.kill(self.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)
        elif spec is not None and spec.kind == "stall":
            time.sleep(spec.delay_s)
        if not self.alive:
            raise ProcWorkerDied(
                f"worker process {self.index} is not alive")
        x = np.ascontiguousarray(x, dtype=np.float32)
        shm = self._in_block.reserve(x.nbytes)
        np.ndarray(x.shape, dtype=x.dtype, buffer=shm.buf)[...] = x
        try:
            self._conn.send(("run", x.shape, str(x.dtype), shm.name))
        except (BrokenPipeError, OSError) as exc:
            self.dead = True
            raise ProcWorkerDied(
                f"worker process {self.index} pipe closed") from exc
        msg = self._recv()
        if msg[0] == "err":
            raise ProcWorkerError(msg[1])
        _, shape, dtype, out_name, spans = msg
        if out_name != self._out_name:
            if self._out_shm is not None:
                self._out_shm.close()
            self._out_shm = _attach(out_name)
            self._out_name = out_name
        y = np.array(np.ndarray(shape, dtype=np.dtype(dtype),
                                buffer=self._out_shm.buf))
        if obs.enabled():
            for span_name, t0, t1, attrs in spans:
                obs.record_span(span_name, t0, t1, worker=self.index,
                                **attrs)
        return y

    def close(self, kill: bool = False) -> None:
        if self._proc.is_alive() and not kill:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._in_block.close()
        # The child owns (and normally unlinks) the output block; if it
        # was killed, reap the leftover segment from here.
        if self._out_shm is not None:
            _destroy(self._out_shm, unlink=True)
            self._out_shm = None


class _ProcRunner:
    """The per-server-worker runner callable (one child process each).

    Lives on the parent's worker thread; lazily spawns its child on the
    first batch and transparently respawns it after a crash — the raise
    still propagates so the server's retry ladder accounts the failure
    and re-runs the batch.
    """

    def __init__(self, pool: "ProcessPool") -> None:
        self._pool = pool
        self._worker: _ProcWorker | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        worker = self._worker
        if worker is None or not worker.alive:
            worker = self._pool._replace(self, worker)
        return worker.run(x)

    def close(self) -> None:
        if self._worker is not None:
            self._worker.close()
            self._worker = None


class ProcessPool:
    """Factory + lifecycle owner for process-backend serve runners.

    Hand :meth:`runner_factory` to an
    :class:`~repro.serve.InferenceServer` (``Session.submit`` does this
    when ``ServeConfig.worker_backend == "process"``); every server
    worker thread then drives its own child process.  Close the pool
    after ``server.stop()`` — it terminates every child and releases
    the shared-memory blocks.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self._spec_blob = pickle.dumps(spec)
        self._lock = threading.Lock()
        self._runners: list[_ProcRunner] = []
        self._next_index = 0
        self._closed = False
        self.counters = obs.CounterSet("spawned", "respawns")
        obs.attach_counters("procpool", self.counters)

    def runner_factory(self) -> _ProcRunner:
        """One runner per server worker thread (child spawns lazily)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            runner = _ProcRunner(self)
            self._runners.append(runner)
            return runner

    def _replace(self, runner: _ProcRunner,
                 dead: _ProcWorker | None) -> _ProcWorker:
        """Spawn (or respawn) the child behind ``runner``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            index = self._next_index
            self._next_index += 1
        if dead is not None:
            dead.close(kill=True)
            self.counters.add("respawns")
            obs.event("serve/proc_respawn", pool=self.spec.name,
                      worker=dead.index)
        worker = _ProcWorker(self._spec_blob, self.spec.name, index)
        self.counters.add("spawned")
        self._worker_of(runner, worker)
        return worker

    @staticmethod
    def _worker_of(runner: _ProcRunner, worker: _ProcWorker) -> None:
        runner._worker = worker

    def stats(self) -> dict:
        """Worker liveness plus the pool's ``spawned``/``respawns``
        counts (exported as ``procpool/<name>``)."""
        with self._lock:
            alive = sum(
                1 for r in self._runners
                if r._worker is not None and r._worker.alive
            )
            workers = len(self._runners)
        return {"workers": workers, "alive": alive,
                **self.counters.counts()}

    def close(self) -> None:
        with self._lock:
            self._closed = True
            runners, self._runners = self._runners, []
        for runner in runners:
            runner.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

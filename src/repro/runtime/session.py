"""The :class:`Session` facade — the one way to run inference.

``Detector.predict``, ``SiamFCTracker``, the CLI and the servers all
run their forwards through a Session::

    session = Session.load(detector)            # compiles, or falls
    boxes = session.run(images)                 # back to eager
    future = session.submit(image)              # dynamic-batching server
    result = future.result(timeout=1.0)

``Session.load`` accepts a :class:`~repro.detection.model.Detector`
(results are decoded boxes), a Siamese model exposing ``extract``
(results are feature maps), a plain :class:`~repro.nn.module.Module`, or
an already-compiled :class:`~repro.nn.engine.CompiledNet`.  The
``engine`` backend compiles through :func:`repro.nn.engine.compile_net`;
when compilation is impossible the session degrades to the eager
``no_grad`` path (``SessionConfig.fallback``) so a served model never
hard-fails at load time for want of a compilation rule.

Sessions are cheap façades over shared immutable state (compiled plans
share kernels across thread clones), so every worker thread of an
:class:`~repro.serve.InferenceServer` gets its own runner via
:meth:`Session.runner_for_thread` — buffer arenas are never shared
across threads.  Every runner a session hands out (``run``, server
workers, worker processes, the eager fallback, the pipeline's DNN
stage) is composed by one method, ``Session._compose``.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager

import numpy as np

from .. import obs
from .config import ServeConfig, SessionConfig

__all__ = ["Session", "eager_forced", "eager_inference"]

_EAGER_PIN = threading.local()


@contextmanager
def eager_inference():
    """Pin sessions loaded in this thread/block to the eager backend.

    For code that temporarily perturbs live model state — the
    fixed-point quantization contexts mutate weights in place and hook
    eager activation outputs (:mod:`repro.nn.quant_hooks`).  A compiled
    plan would snapshot the mutated weights (outliving the context
    through session caches) and bypass the feature-map hook entirely;
    the eager path reads live state, so it is the only honest backend
    while such a context is active.  Nestable.
    """
    _EAGER_PIN.depth = getattr(_EAGER_PIN, "depth", 0) + 1
    try:
        yield
    finally:
        _EAGER_PIN.depth -= 1


def eager_forced() -> bool:
    """Is an :func:`eager_inference` block active on this thread?"""
    return getattr(_EAGER_PIN, "depth", 0) > 0


class Session:
    """A loaded model plus a resolved execution backend.

    Construct through :meth:`load`; the constructor is an implementation
    detail.  ``run`` is the synchronous path, ``submit`` the asynchronous
    dynamic-batching path (lazily starting an
    :class:`~repro.serve.InferenceServer`).
    """

    def __init__(
        self,
        model,
        config: SessionConfig,
        backend: str,
        forward,
        postprocess,
        name: str,
    ) -> None:
        self.model = model
        self.config = config
        #: The backend actually in use — ``"eager"`` when the engine
        #: backend was requested but compilation fell back.
        self.backend = backend
        self.name = name
        self.last_pipeline = None
        self._forward = forward
        self._postprocess = postprocess
        #: ``_forward`` composed by :meth:`_compose`; what :meth:`run`
        #: calls.
        self._runner = None
        #: Eager forward kept alongside a compiled plan; the serving
        #: circuit breaker fails over to it when the engine misbehaves.
        self._eager_forward = None
        self._server = None
        self._serve_config = ServeConfig()
        self._server_lock = threading.Lock()
        self._calibration = None
        self._warmup_shape: tuple[int, ...] | None = None
        self._procpool = None
        self._streams: list = []
        #: Tiled-inference front-end (``SessionConfig.tiles``): splits
        #: frames into one batched tile fan-out and merges detections
        #: through a global cross-tile NMS.  ``None`` = whole frames.
        self._tiler = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def load(
        cls,
        model,
        config: SessionConfig | None = None,
        serve: ServeConfig | None = None,
        calibration=None,
        warmup: tuple[int, ...] | None = None,
    ) -> "Session":
        """Resolve ``model`` into a runnable session.

        Parameters
        ----------
        model:
            A ``Detector`` (run/submit return decoded cxcywh boxes), a
            Siamese model with an ``extract`` method (results are
            adjusted feature maps), any compilable ``Module`` (raw
            outputs), or a pre-built ``CompiledNet``.
        config:
            Execution config; defaults to ``SessionConfig()`` (compiled
            engine, eager fallback on :class:`CompileError`).
        serve:
            Scheduling config for :meth:`submit`; defaults to
            ``ServeConfig()``.
        calibration:
            Sample inputs ``(N, C, H, W)`` for the ``"quant"`` backend's
            scale calibration (see
            :func:`repro.nn.engine.compile_net`); required by that
            backend and ignored by the others.
        warmup:
            Steady-state input shape — ``(C, H, W)`` per image or a full
            ``(N, C, H, W)`` batch shape — to dry-run at load time.  One
            zeros pass pools every arena buffer
            (:meth:`CompiledNet.warmup <repro.nn.engine.CompiledNet.warmup>`),
            so the first real request pays no allocation spike; server
            worker runners (thread clones and worker processes alike)
            warm the same shape at the serving batch size.
        """
        from ..nn.engine import CompiledNet, CompileError, QuantConfig
        from ..nn.module import Module

        config = config if config is not None else SessionConfig()
        postprocess = None
        name = type(model).__name__

        tiler = None
        if config.tiles is not None:
            from ..detection.model import Detector
            from ..detection.tiling import FrameTiler

            if not isinstance(model, Detector):
                raise ValueError(
                    f"SessionConfig.tiles requires a Detector (the tiler "
                    f"decodes and merges the head's grid predictions); "
                    f"got {type(model).__name__}"
                )
            rows, cols = config.tiles
            tiler = FrameTiler(
                model.head.anchors, rows, cols,
                overlap=config.tile_overlap,
                max_detections=config.tile_max_detections,
            )

        if isinstance(model, CompiledNet):
            session = cls(
                model, config,
                "quant" if model.quant is not None else "engine",
                forward=model,
                postprocess=None,
                name=model.name,
            )
        else:
            if not isinstance(model, Module):
                raise TypeError(
                    f"Session.load expects a Module or CompiledNet, got "
                    f"{type(model).__name__}"
                )
            if model.training:
                model.eval()
            target, postprocess, compile_target = cls._resolve(model)
            backend = config.backend
            if backend in ("engine", "quant") and eager_forced():
                obs.inc("runtime/eager_pinned")
                backend = "eager"
            # The fallback ladder quant -> engine -> eager, one warning
            # per step down: rung -> (verb, next rung, its label, counter).
            ladder = {
                "quant": ("quantize", "engine", "the fp32 engine",
                          "runtime/quant_fallback"),
                "engine": ("compile", "eager", "the eager backend",
                           "runtime/eager_fallback"),
            }
            net = None
            while net is None and backend in ladder:
                verb, lower, label, counter = ladder[backend]
                try:
                    net = compile_target(
                        quant=(QuantConfig(*config.quant_bits)
                               if backend == "quant" else None),
                        calibration=calibration,
                    )
                except CompileError as exc:
                    if not config.fallback:
                        raise
                    warnings.warn(
                        f"Session: cannot {verb} {name} ({exc}); "
                        f"falling back to {label}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    obs.inc(counter)
                    backend = lower
            compiled = backend in ("engine", "quant")
            session = cls(model, config, backend,
                          net if compiled else target, postprocess, name)
            if compiled:
                session._eager_forward = target
        if tiler is not None:
            # The tiler's merge step replaces the single-box decode:
            # split -> one batched forward -> remap -> global NMS.
            session._tiler = tiler
            session._postprocess = None
        session._runner = session._compose(session._forward)
        if serve is not None:
            session._serve_config = serve
        session._calibration = calibration
        if warmup is not None:
            shape = tuple(warmup)
            if len(shape) == 3:
                shape = (1,) + shape
            if len(shape) != 4:
                raise ValueError(
                    f"warmup shape must be (C, H, W) or (N, C, H, W), "
                    f"got {warmup!r}"
                )
            session._warmup_shape = shape
            session._runner(np.zeros(shape, np.float32))
            arena = getattr(session._forward, "arena", None)
            if arena is not None and obs.enabled():
                obs.set_gauge("engine/arena/pooled_bytes", arena.nbytes())
        obs.inc(f"runtime/sessions/{session.backend}")
        return session

    @staticmethod
    def _resolve(model):
        """Pick the forward target for ``model``: (eager_fn,
        postprocess, compile_fn).  The compile fn accepts the optional
        ``quant``/``calibration`` pair of the quantized backend."""
        from functools import partial

        from ..detection.head import best_box
        from ..detection.model import Detector
        from ..nn import Tensor, no_grad
        from ..nn.engine import compile_net

        postprocess = None
        if isinstance(model, Detector):
            entry = model.forward

            def postprocess(raw: np.ndarray) -> np.ndarray:
                return best_box(raw, model.head.anchors)

            compile_target = partial(compile_net, model,
                                     name=type(model.backbone).__name__)
        elif hasattr(model, "extract"):  # Siamese trackers
            from ..tracking.siamese import compile_extractor

            entry = model.extract
            compile_target = partial(compile_extractor, model)
        else:
            entry = model
            compile_target = partial(compile_net, model)

        def eager(x: np.ndarray) -> np.ndarray:
            with no_grad():
                return entry(Tensor(x)).data

        return eager, postprocess, compile_target

    # ------------------------------------------------------------------ #
    # synchronous path
    # ------------------------------------------------------------------ #
    def _compose(self, forward, decode: bool = True):
        """Compose ``forward`` into a batch runner: the one place the
        execution shape of :meth:`run`, :meth:`stream`, server workers
        (thread clones and worker processes alike) and the breaker's
        eager fallback is decided.  A tiled session splits frames, runs
        every tile as one ``forward`` call and merges the detections;
        otherwise the postprocess (a Detector's box decode) follows the
        forward, unless ``decode=False`` (the pipeline decodes in its own
        stage).  Batches above ``config.microbatch`` run in slices.

        The runner must not reference itself: that closure cycle would
        keep a closed session's plan and arena alive until a GC pass.
        """
        if self._tiler is not None:
            forward = self._tiler.wrap(forward)
        post = self._postprocess if decode else None
        microbatch = self.config.microbatch

        def run_slice(x: np.ndarray) -> np.ndarray:
            raw = forward(x)
            return raw if post is None else post(raw)

        def runner(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            if microbatch and n > microbatch:
                return np.concatenate([
                    run_slice(x[i : i + microbatch])
                    for i in range(0, n, microbatch)
                ], axis=0)
            return run_slice(x)

        return runner

    def run(self, batch: np.ndarray) -> np.ndarray:
        """Synchronous inference on ``(N, C, H, W)`` images (a single
        ``(C, H, W)`` image is auto-promoted and the result unwrapped).
        """
        x = np.asarray(batch, dtype=np.float32)
        single = x.ndim == 3
        if single:
            x = x[None]
        # A bare run() becomes its own request; a run issued under a
        # server batch keeps the batch's attribution (request_scope
        # reuses any ambient context).
        with obs.request_scope(prefix="run", backend=self.backend), \
                obs.span("runtime/run", session=self.name,
                         backend=self.backend, batch=x.shape[0]):
            out = self._runner(x)
        return out[0] if single else out

    def stream(self, frames, preprocess=None) -> list:
        """Run an ordered stream of single frames.

        With ``config.pipeline`` the stream goes through the 4-stage
        :class:`~repro.nn.engine.ThreadedPipeline` (fetch, pre-process,
        DNN, post-process) — the TX2 schedule; the pipeline object is
        kept on :attr:`last_pipeline` for stage timings.  Otherwise the
        frames run serially through :meth:`run`.
        """
        if not self.config.pipeline:
            return [self.run(f) for f in frames]

        from ..nn.engine import ThreadedPipeline

        dnn = self._compose(self._forward, decode=False)
        post = self._postprocess
        pipe = ThreadedPipeline([
            ("fetch", lambda f: np.asarray(f, dtype=np.float32)),
            ("pre-process",
             preprocess if preprocess is not None else (lambda f: f)),
            ("dnn", lambda f: dnn(f if f.ndim == 4 else f[None])),
            ("post-process", post if post is not None else (lambda r: r)),
        ])
        outputs = pipe.run(frames)
        self.last_pipeline = pipe
        return outputs

    # ------------------------------------------------------------------ #
    # asynchronous (serving) path
    # ------------------------------------------------------------------ #
    def runner_for_thread(self):
        """A batch-runner callable safe to own by one worker thread."""
        forward = self._forward
        if self.backend != "eager":
            forward = forward.clone_for_thread()
        runner = self._compose(forward)
        if self._warmup_shape is not None:
            # Pool the fresh clone's arena at the steady-state serving
            # batch shape before any real request reaches it.
            n = max(self._warmup_shape[0],
                    self._serve_config.max_batch_size)
            runner(np.zeros((n,) + self._warmup_shape[1:], np.float32))
        return runner

    def fallback_runner_for_thread(self):
        """An eager batch runner functionally equivalent to
        :meth:`runner_for_thread` (the circuit breaker's failover
        target), or ``None`` when this session has no separate eager
        path (eager backend, or a directly-loaded ``CompiledNet``)."""
        if self._eager_forward is None:
            return None
        return self._compose(self._eager_forward)

    @property
    def server(self):
        """The lazily-started :class:`~repro.serve.InferenceServer`
        behind :meth:`submit` (``None`` until the first submit)."""
        return self._server

    def ensure_server(self):
        """Start (or return) the dynamic-batching server behind
        :meth:`submit` — the shared engine pool that per-stream
        sessions attach to."""
        if self._server is None:
            with self._server_lock:
                if self._server is None:
                    from ..serve import InferenceServer

                    fallback = (self.fallback_runner_for_thread
                                if self._eager_forward is not None
                                else None)
                    if self._serve_config.worker_backend == "process":
                        factory = self._process_pool().runner_factory
                    else:
                        factory = self.runner_for_thread
                    self._server = InferenceServer(
                        factory, self._serve_config,
                        name=self.name, fallback_factory=fallback,
                    )
        return self._server

    def submit(self, image: np.ndarray, deadline_ms: float | None = None):
        """Queue one image on the dynamic-batching server; returns a
        :class:`concurrent.futures.Future` resolving to a
        :class:`~repro.serve.ServeResult`.  Never blocks: a full queue
        sheds the request with an immediate 503-style result.
        """
        return self.ensure_server().submit(image, deadline_ms=deadline_ms)

    def open_streams(self, sources, sink=None, config=None, ids=None):
        """Attach N per-stream sessions to this session's engine pool.

        Builds (and starts) a :class:`~repro.serve.StreamManager` whose
        streams share this session's dynamic-batching server; the
        manager is owned by the session, so :meth:`close` stops it.
        See :mod:`repro.serve.stream` for sources, sinks, and the
        overload-brownout policy.
        """
        from ..serve.stream import StreamManager

        manager = StreamManager(self, sources, sink=sink, config=config,
                                ids=ids, name=self.name)
        self._streams.append(manager)
        return manager.start()

    def _process_pool(self):
        """Build the worker-process pool for the ``"process"`` backend."""
        from ..serve.procpool import ProcessPool, WorkerSpec

        if self._procpool is None:
            warmup = None
            if self._warmup_shape is not None:
                warmup = ((self._serve_config.max_batch_size,)
                          + self._warmup_shape[1:])
            self._procpool = ProcessPool(WorkerSpec.for_model(
                self.model, config=self.config,
                calibration=self._calibration,
                warmup_shape=warmup, name=self.name,
            ))
        return self._procpool

    def health(self) -> dict:
        """Server readiness snapshot (see
        :meth:`repro.serve.InferenceServer.health`); an ``"idle"``
        status before the first :meth:`submit` starts the server."""
        if self._server is None:
            return {"status": "idle", "backend": self.backend}
        health = self._server.health()
        health["backend"] = self.backend
        if self._procpool is not None:
            health["procpool"] = self._procpool.stats()
        return health

    def close(self) -> None:
        """Stop the serving threads and any worker processes
        (idempotent); ``run`` keeps working."""
        for manager in self._streams:
            manager.stop()
        if self._server is not None:
            self._server.stop()
        if self._procpool is not None:
            self._procpool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({self.name}, backend={self.backend!r}, "
                f"serving={self._server is not None})")

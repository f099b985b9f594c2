"""``repro.serve`` — dynamic-batching inference serving.

Turns the single-stream engine of :mod:`repro.nn.engine` into a traffic
component: a bounded request queue, a dynamic batcher (flush on batch
size or wait window), a worker pool with per-thread engine clones, and
explicit overload behaviour (shed, deadline timeout, graceful
shutdown).  The front door is :meth:`repro.runtime.Session.submit`;
this package is the machinery behind it::

    from repro.runtime import ServeConfig, Session

    with Session.load(detector, serve=ServeConfig(max_batch_size=8)) as s:
        futures = [s.submit(img) for img in images]
        results = [f.result(timeout=5.0) for f in futures]
        boxes = [r.value for r in results if r.ok]
"""

from .procpool import ProcessPool, ProcWorkerDied, ProcWorkerError, WorkerSpec
from .result import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTDOWN,
    STATUS_TIMEOUT,
    ServeResult,
)
from .server import InferenceServer
from .stream import (
    BrownoutController,
    CallbackSink,
    EventSink,
    FrameQueue,
    JsonlSink,
    NullSink,
    Stream,
    StreamManager,
    SyntheticSource,
    TrackState,
)

__all__ = [
    "BrownoutController",
    "CallbackSink",
    "EventSink",
    "FrameQueue",
    "InferenceServer",
    "JsonlSink",
    "NullSink",
    "ProcessPool",
    "ProcWorkerDied",
    "ProcWorkerError",
    "ServeResult",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_SHUTDOWN",
    "STATUS_TIMEOUT",
    "Stream",
    "StreamManager",
    "SyntheticSource",
    "TrackState",
    "WorkerSpec",
]

"""``repro.runtime`` — the unified inference runtime.

One facade (:class:`Session`) and two frozen config objects
(:class:`SessionConfig`, :class:`ServeConfig`) replace the per-class
keyword sprawl that inference options used to live in.  Every inference
consumer — :class:`~repro.detection.model.Detector`,
:class:`~repro.tracking.siamfc.SiamFCTracker`, the CLI and the
benchmarks — routes through here.

Quick start::

    from repro.runtime import ServeConfig, Session, SessionConfig

    session = Session.load(detector, SessionConfig(backend="engine"),
                           serve=ServeConfig(max_batch_size=8))
    boxes = session.run(images)                  # synchronous
    future = session.submit(images[0])           # dynamic batching
    print(future.result(timeout=1.0).value)
"""

from .config import BACKENDS, ServeConfig, SessionConfig, StreamConfig
from .session import Session, eager_forced, eager_inference

__all__ = ["BACKENDS", "ServeConfig", "Session", "SessionConfig",
           "StreamConfig", "eager_forced", "eager_inference"]

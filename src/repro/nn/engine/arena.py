"""Shape-keyed buffer arena for the compiled inference engine.

On the embedded deployments the input resolution is fixed (160x320 on
both TX2 and Ultra96), so every intermediate array of the forward path —
im2col column matrices, activation maps, padded inputs — has a static
shape from frame to frame.  The arena exploits that: each kernel asks
for its scratch/output buffers by a stable key and gets the *same*
ndarray back on every call, so steady-state inference allocates nothing.

Keys include the requested shape *and dtype*, so an engine serving two
input geometries (e.g. a Siamese tracker's exemplar and search crops)
keeps one buffer per geometry instead of thrashing a single slot, and
the quantized backend's int8/int16/float buffers never alias the fp32
ones.

The arena also owns the *bound plans* built on its buffers (see
:class:`repro.nn.engine.compiler.BoundPlan`): a plan holds direct
references to pooled arrays, so it lives exactly as long as they stay
pooled.  Evicting any buffer, or clearing the arena, drops every plan.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ... import obs
from ...resilience import faults

__all__ = ["BufferArena"]


class BufferArena:
    """Pool of reusable ndarrays keyed by ``(owner, tag, shape, dtype)``.

    Buffers are created on first request (a *miss*) and returned
    unchanged afterwards (a *hit*).  Contents are undefined on hits —
    callers must fully overwrite what they read — except for buffers
    requested with ``zero=True``, which are zero-filled once at
    allocation (used for padded inputs whose border must stay zero).

    ``max_buffers`` bounds the pool for long-lived servers that see many
    input geometries: when set, the least-recently-used buffer is
    evicted once the pool exceeds the cap (``None``, the default, keeps
    the historical unbounded behaviour).  A steady-state workload that
    fits in the cap is unaffected — every request refreshes its buffer's
    recency, so only cold geometries age out.  An eviction also drops
    every bound plan (:meth:`plan`), so the next forward rebinds against
    the buffers the arena actually holds.
    """

    def __init__(self, max_buffers: int | None = None) -> None:
        if max_buffers is not None and max_buffers < 1:
            raise ValueError("max_buffers must be >= 1 (or None, unbounded)")
        self.max_buffers = max_buffers
        self._buffers: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._spares: dict[tuple, list[np.ndarray]] = {}
        self._plans: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        owner: object,
        tag: str,
        shape: tuple[int, ...],
        dtype=np.float32,
        zero: bool = False,
    ) -> np.ndarray:
        """Return the pooled buffer for ``(owner, tag)`` at this shape."""
        key = (owner, tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            spec = faults.trigger("arena.alloc")
            if spec is not None and spec.kind == "alloc":
                raise MemoryError(
                    f"injected allocation failure: {tag} {shape} "
                    f"({int(np.prod(shape)) * np.dtype(dtype).itemsize} "
                    f"bytes)"
                )
            spares = self._spares.get((shape, np.dtype(dtype)))
            if spares:
                buf = spares.pop()
                if zero:
                    buf.fill(0)
            else:
                buf = (np.zeros(shape, dtype) if zero
                       else np.empty(shape, dtype))
            self._buffers[key] = buf
            self.misses += 1
            if self.max_buffers is not None:
                while len(self._buffers) > self.max_buffers:
                    self._buffers.popitem(last=False)
                    self.evictions += 1
                    self._plans.clear()
            if obs.enabled():
                obs.set_gauge("engine/arena/pooled_bytes", self.nbytes())
        else:
            self.hits += 1
            self._buffers.move_to_end(key)
        return buf

    def plan(self, key: tuple):
        """The bound plan stored under ``key``, or ``None``."""
        return self._plans.get(key)

    def reuse(self, keys) -> None:
        """Record a bound plan's replay, which reuses the buffers under
        ``keys`` without asking for them: each counts as a hit and, in a
        capped arena, has its LRU recency refreshed as a ``get`` would."""
        self.hits += len(keys)
        if self.max_buffers is not None:
            buffers = self._buffers
            for key in keys:
                if key in buffers:
                    buffers.move_to_end(key)

    def keep_plan(self, key: tuple, plan, evictions: int) -> None:
        """Store ``plan`` under ``key`` unless a buffer was evicted since
        the arena's eviction count read ``evictions`` (i.e. while the
        plan was being bound): such a plan references arrays the arena
        no longer pools, so it is used once and never replayed."""
        if self.evictions == evictions:
            self._plans[key] = plan

    def prewarm(self, shapes, dtype=np.float32) -> int:
        """Pre-allocate (and page-fault) buffers for the given shapes.

        ``shapes`` is an iterable of shape tuples, or of ``(shape,
        dtype)`` pairs to mix precisions.  The arrays land in a spare
        pool; the first ``get`` miss for a matching ``(shape, dtype)``
        adopts one instead of allocating, so a server that prewarm's the
        steady-state batch geometry pays neither ``np.empty`` nor the
        first-touch page faults on its first request.  Returns the
        number of bytes prewarmed.
        """
        total = 0
        for spec in shapes:
            if (len(spec) == 2 and isinstance(spec[0], tuple)):
                shape, dt = spec
            else:
                shape, dt = tuple(spec), dtype
            buf = np.zeros(shape, dt)  # zeros touches every page
            self._spares.setdefault((shape, np.dtype(dt)), []).append(buf)
            total += buf.nbytes
        if obs.enabled():
            obs.set_gauge("engine/arena/pooled_bytes", self.nbytes())
        return total

    def shapes(self) -> list[tuple[tuple[int, ...], np.dtype]]:
        """``(shape, dtype)`` of every pooled buffer (for prewarm replay)."""
        return [(key[2], key[3]) for key in self._buffers]

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        pooled = sum(b.nbytes for b in self._buffers.values())
        spare = sum(b.nbytes for bufs in self._spares.values() for b in bufs)
        return pooled + spare

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every pooled buffer and bound plan (and reset the
        hit/miss counters)."""
        self._buffers.clear()
        self._plans.clear()
        self._spares.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if obs.enabled():
            obs.set_gauge("engine/arena/pooled_bytes", 0)

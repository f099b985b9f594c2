"""Engine kernel profiler: per-step timing of a compiled plan.

``BENCH_quant.json`` says w8/f8 is 1.31x faster than the fp32 engine —
but *which kernels* bought that?  The one-shot benches time whole
forwards; this module times every step of a
:class:`~repro.nn.engine.CompiledNet` (fp32 or integer-domain) and
reports, per kernel: wall time over repetitions, dtype (storage and
matmul carrier for quant plans), an analytic FLOP estimate, achieved
GFLOP/s, and output-buffer bytes.  :func:`render_profile` prints the
flamegraph-style table — steps sorted by total time with cumulative
percentages — and :func:`render_comparison` lines two profiles up so a
speedup claim decomposes per kernel (``repro profile <net> --engine
--quant-bits 8,8``).

The profiler replays the net's own bound plan
(:meth:`CompiledNet.bind`) step by step on the net's own arena, so what
it times is exactly what :meth:`CompiledNet.__call__` runs — minus the
per-step span bookkeeping, which stays out of the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StepProfile",
    "KernelProfile",
    "profile_net",
    "render_profile",
    "render_comparison",
]


@dataclass
class StepProfile:
    """Aggregated measurements for one plan step."""

    index: int
    label: str
    kind: str
    dtype: str
    flops: int
    out_bytes: int
    best_ms: float
    mean_ms: float
    total_ms: float
    calls: int

    @property
    def gflops_per_s(self) -> float:
        if self.best_ms <= 0 or not self.flops:
            return 0.0
        return self.flops / (self.best_ms * 1e-3) / 1e9

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "dtype": self.dtype,
            "flops": self.flops,
            "out_bytes": self.out_bytes,
            "best_ms": self.best_ms,
            "mean_ms": self.mean_ms,
            "total_ms": self.total_ms,
            "calls": self.calls,
            "gflops_per_s": self.gflops_per_s,
        }


@dataclass
class KernelProfile:
    """A profiled plan: header facts plus one :class:`StepProfile` per step."""

    name: str
    scheme: str  # "fp32" or the quant label (e.g. "w8/f8")
    input_shape: tuple
    reps: int
    steps: list[StepProfile] = field(default_factory=list)
    arena_bytes: int = 0

    @property
    def best_ms(self) -> float:
        """Sum of per-step best times — the plan's best-case forward."""
        return sum(s.best_ms for s in self.steps)

    @property
    def mean_ms(self) -> float:
        return sum(s.mean_ms for s in self.steps)

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.steps)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "scheme": self.scheme,
            "input_shape": list(self.input_shape),
            "reps": self.reps,
            "best_ms": self.best_ms,
            "mean_ms": self.mean_ms,
            "total_flops": self.total_flops,
            "arena_bytes": self.arena_bytes,
            "steps": [s.as_dict() for s in self.steps],
        }

    def render(self) -> str:
        return render_profile(self)


# --------------------------------------------------------------------- #
# FLOP estimation
# --------------------------------------------------------------------- #
def _conv_flops(w_shape: tuple, out_shape: tuple, depthwise: bool) -> int:
    """2 * MACs of a conv given its weight and output shapes."""
    n = out_shape[0]
    oh, ow = out_shape[-2], out_shape[-1]
    if depthwise:
        c, _, kh, kw = w_shape
        return 2 * n * c * kh * kw * oh * ow
    cout, cin, kh, kw = w_shape
    return 2 * n * cout * cin * kh * kw * oh * ow


def _step_flops(kern, out: np.ndarray) -> int:
    """Analytic FLOP estimate for one kernel given its produced output.

    Matmul-backed kernels get exact 2*MAC counts from their weight
    shapes; element-wise/data-movement kernels are counted as one op per
    output element (honest about being ~free next to the GEMMs).
    """
    from ..nn.engine import kernels as K

    try:
        from ..nn.engine import quant as Q
    except ImportError:  # pragma: no cover - quant always ships
        Q = None

    if isinstance(kern, K.FusedBundleKernel):
        # dw output spatial == pw output spatial (pw is 1x1/s1/p0)
        return (_conv_flops(kern.dw.weight.shape, out.shape, True)
                + _conv_flops(kern.pw.weight.shape, out.shape, False))
    if isinstance(kern, K.DWConvKernel):
        return _conv_flops(kern.weight.shape, out.shape, True)
    if isinstance(kern, K.ConvKernel):
        return _conv_flops(kern.weight.shape, out.shape, False)
    if isinstance(kern, K.LinearKernel):
        din, dout = kern._wt.shape
        return 2 * out.shape[0] * din * dout
    if Q is not None:
        if isinstance(kern, Q.QuantBundleKernel):
            return (_conv_flops(kern.dw.q_weight.shape, out.shape, True)
                    + _conv_flops(kern.pw.q_weight.shape, out.shape, False))
        if isinstance(kern, Q.QuantDWConvKernel):
            return _conv_flops(kern.q_weight.shape, out.shape, True)
        if isinstance(kern, Q.QuantConvKernel):
            return _conv_flops(kern.q_weight.shape, out.shape, False)
    return int(out.size)


def _step_dtype(kern, out: np.ndarray) -> str:
    """Kernel dtype tag: ``storage/carrier`` for quant kernels, else the
    produced dtype."""
    try:
        from ..nn.engine.quant import _kernel_dtypes
    except ImportError:  # pragma: no cover - quant always ships
        return out.dtype.name
    rec = _kernel_dtypes(kern)
    if rec["storage"] == "passthrough":
        return out.dtype.name
    return f"{rec['storage']}/{rec['carrier']}"


# --------------------------------------------------------------------- #
# the profiler
# --------------------------------------------------------------------- #
def profile_net(net, x: np.ndarray, reps: int = 10,
                warmup: int = 2) -> KernelProfile:
    """Time every step of a compiled plan over ``reps`` forwards.

    ``warmup`` untimed forwards populate the arena and BLAS caches
    first.  Per step, ``best_ms`` (minimum over reps — the noise-robust
    statistic the benches use) and ``mean_ms`` are reported.
    """
    if reps < 1 or warmup < 0:
        raise ValueError("reps must be >= 1 and warmup >= 0")
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float32)
    if x.ndim == 3:
        x = x[None]

    steps = net.steps
    times = [[] for _ in steps]
    meta: list[tuple[str, int, int] | None] = [None] * len(steps)

    for rep in range(warmup + reps):
        timed = rep >= warmup
        plan = net.bind(x)
        for i, (kern, _, _) in enumerate(steps):
            t0 = time.perf_counter()
            out = plan.run_step(i)
            t1 = time.perf_counter()
            if timed:
                times[i].append((t1 - t0) * 1e3)
            if meta[i] is None:
                meta[i] = (_step_dtype(kern, out), _step_flops(kern, out),
                           int(out.nbytes))
        plan.release()

    profile = KernelProfile(
        name=net.name,
        scheme="fp32" if net.quant is None else net.quant.label,
        input_shape=tuple(x.shape),
        reps=reps,
        arena_bytes=int(net.arena.nbytes()),
    )
    for i, (kern, _, _) in enumerate(steps):
        dtype, flops, out_bytes = meta[i]
        durs = times[i]
        profile.steps.append(StepProfile(
            index=i,
            label=kern.label,
            kind=type(kern).__name__,
            dtype=dtype,
            flops=flops,
            out_bytes=out_bytes,
            best_ms=min(durs),
            mean_ms=sum(durs) / len(durs),
            total_ms=sum(durs),
            calls=len(durs),
        ))
    return profile


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #
def render_profile(profile: KernelProfile) -> str:
    """Flamegraph-style table: steps by total time, cumulative %."""
    from ..utils.tables import format_table

    total = sum(s.total_ms for s in profile.steps) or 1.0
    rows = []
    cum = 0.0
    for s in sorted(profile.steps, key=lambda s: -s.total_ms):
        pct = 100.0 * s.total_ms / total
        cum += pct
        rows.append([
            s.index, s.label, s.dtype,
            f"{s.best_ms:.3f}", f"{s.mean_ms:.3f}",
            f"{pct:5.1f}", f"{cum:5.1f}",
            f"{s.flops / 1e6:.1f}", f"{s.gflops_per_s:.2f}",
            f"{s.out_bytes / 1024:.0f}",
        ])
    title = (f"kernel profile: {profile.name} [{profile.scheme}] "
             f"input {profile.input_shape}, {profile.reps} reps — "
             f"best {profile.best_ms:.2f} ms/forward, "
             f"arena {profile.arena_bytes / 1e6:.2f} MB")
    return format_table(
        ["step", "kernel", "dtype", "best ms", "mean ms", "%", "cum %",
         "MFLOP", "GFLOP/s", "out KB"],
        rows, title=title,
    )


def render_comparison(a: KernelProfile, b: KernelProfile) -> str:
    """Two profiles side by side plus the end-to-end ratio — the
    per-kernel decomposition of an A-vs-B (e.g. fp32 vs w8/f8) speedup.

    Plans with different step structure (the quant lowering fuses pools
    into conv tails) are aligned by matmul-bearing steps in plan order;
    leftover steps of either side are listed unpaired.
    """
    from ..utils.tables import format_table

    def heavy(p: KernelProfile) -> list[StepProfile]:
        return [s for s in p.steps
                if any(t in s.kind for t in ("Conv", "Bundle", "Linear"))]

    rows = []
    ha, hb = heavy(a), heavy(b)
    for i in range(max(len(ha), len(hb))):
        sa = ha[i] if i < len(ha) else None
        sb = hb[i] if i < len(hb) else None
        ratio = ("" if sa is None or sb is None or sb.best_ms <= 0
                 else f"{sa.best_ms / sb.best_ms:.2f}x")
        rows.append([
            sa.label if sa else "—",
            f"{sa.best_ms:.3f}" if sa else "—",
            sb.label if sb else "—",
            f"{sb.best_ms:.3f}" if sb else "—",
            ratio,
        ])
    ratio = a.best_ms / b.best_ms if b.best_ms > 0 else float("inf")
    rows.append(["TOTAL (all steps)", f"{a.best_ms:.3f}",
                 "", f"{b.best_ms:.3f}", f"{ratio:.2f}x"])
    return format_table(
        [f"{a.scheme} kernel", "ms", f"{b.scheme} kernel", "ms",
         f"{a.scheme}/{b.scheme}"],
        rows,
        title=f"per-kernel comparison: {a.name} {a.scheme} vs {b.scheme}",
    )

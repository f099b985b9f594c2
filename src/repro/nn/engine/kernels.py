"""Inference kernels for the compiled engine.

Each kernel is a plain-ndarray operation: no :class:`~repro.nn.tensor.Tensor`
wrappers, no autograd closures, no graph bookkeeping.  A kernel runs in
two phases.  :meth:`Kernel.bind` resolves everything that depends only on
the input *shapes*: it draws every scratch and output array from a
:class:`~repro.nn.engine.arena.BufferArena` keyed by the kernel's own
identity, builds the window/reshape/transpose views, picks the code path
(strips, batched GEMM, ...), and returns the output buffer together with
a flat list of zero-argument numpy calls that fill it.  Executing that
list is the whole per-frame cost; :class:`~repro.nn.engine.CompiledNet`
binds each step once per input shape and replays the calls on every
later frame.  Activations and (folded) biases are applied in place on
the output buffer.

The convolution kernels mirror the im2col formulation of
:mod:`repro.nn.functional` exactly — including the 1x1 fast path that
skips im2col — so compiled outputs match the eager eval path bit-for-bit
up to float32 rounding.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..im2col import conv_out_size
from .threads import MIN_TILED_MACS, intra_op_matmul

try:  # the ufunc behind np.clip, without the Python-level wrapper
    from numpy._core.umath import clip as clip_ufunc
except ImportError:  # pragma: no cover - numpy < 2
    from numpy.core.umath import clip as clip_ufunc

__all__ = [
    "Kernel",
    "ConvKernel",
    "DWConvKernel",
    "FusedBundleKernel",
    "AffineKernel",
    "ActKernel",
    "MaxPoolKernel",
    "AvgPoolKernel",
    "GlobalAvgPoolKernel",
    "ReorgKernel",
    "UpsampleKernel",
    "ConcatKernel",
    "SliceChannelsKernel",
    "LinearKernel",
    "FlattenKernel",
    "IdentityKernel",
    "activation_ops",
    "clip_ufunc",
]


def _leaky_relu(out: np.ndarray, slope: float) -> None:
    np.multiply(out, slope, out=out, where=out < 0)


def activation_ops(out: np.ndarray, act: tuple | None) -> list:
    """In-place activation calls on ``out``; ``act`` is ``None`` or a
    tuple ``('relu',) | ('relu6',) | ('leaky_relu', slope) |
    ('sigmoid',) | ('tanh',)``."""
    if act is None:
        return []
    kind = act[0]
    if kind == "relu":
        return [partial(np.maximum, out, 0.0, out=out)]
    if kind == "relu6":
        return [partial(clip_ufunc, out, 0.0, 6.0, out)]
    if kind == "leaky_relu":
        return [partial(_leaky_relu, out, act[1])]
    if kind == "sigmoid":
        return [partial(np.negative, out, out), partial(np.exp, out, out),
                partial(np.add, out, 1.0, out),
                partial(np.reciprocal, out, out)]
    if kind == "tanh":
        return [partial(np.tanh, out, out)]
    # pragma: no cover - compiler validates
    raise ValueError(f"unknown activation {act!r}")


def matmul_op(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """``a @ b -> out`` as one call: a plain ``np.matmul`` when the GEMM
    is too small to ever be tiled, else :func:`intra_op_matmul` (which
    reads the thread setting at call time)."""
    macs = a.shape[-2] * a.shape[-1] * b.shape[-1] * (
        b.shape[0] if b.ndim == 3 else 1)
    if macs < MIN_TILED_MACS:
        return partial(np.matmul, a, b, out)
    return partial(intra_op_matmul, a, b, out)


def reshaped(a: np.ndarray, shape: tuple, arena, owner, tag: str,
             ops: list) -> np.ndarray:
    """``a`` reshaped as a view.  When ``a``'s layout needs a copy, the
    copy goes to an arena buffer and a copy call is appended to ``ops``
    so every replay refreshes it."""
    view = a.reshape(shape)
    if a.size == 0 or np.may_share_memory(view, a):
        return view
    buf = arena.get(owner, tag, a.shape, a.dtype)
    ops.append(partial(np.copyto, buf, a))
    return buf.reshape(shape)


def windows(x: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """``(N, C, OH, OW, kh, kw)`` strided window view of ``(N, C, H, W)``
    ``x`` (``sliding_window_view`` without its validation overhead)."""
    n, c, h, w = x.shape
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw),
        (sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)


def bind_im2col(
    arena,
    owner,
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    cols_dtype=None,
    batched: bool = False,
) -> tuple[np.ndarray, int, int, list]:
    """Arena-backed im2col: returns (cols, OH, OW, ops).

    ``cols`` is ``(N, C*kh*kw, OH*OW)``, or channel-major ``(C*kh*kw,
    N*OH*OW)`` with ``batched`` so the whole microbatch feeds *one*
    ``(COUT, K) @ (K, N*OH*OW)`` GEMM instead of N stacked GEMMs — the
    layout change rides the copy im2col performs anyway.
    ``cols_dtype`` lets the column matrix land in a different dtype than
    the input (the quantized backend gathers int8 windows straight into
    float32 columns — the cast rides the copy, no extra pass)."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    ops = []
    if pad > 0:
        # The zero border is written once at allocation, never again.
        xp = arena.get(
            owner, "pad", (n, c, h + 2 * pad, w + 2 * pad), x.dtype, zero=True
        )
        ops.append(partial(np.copyto, xp[:, :, pad : pad + h, pad : pad + w],
                           x))
        x = xp
    win = windows(x, kh, kw, stride)
    if batched:
        cols = arena.get(owner, "colsb", (c * kh * kw, n * oh * ow),
                         np.float32)
        ops.append(partial(np.copyto, cols.reshape(c, kh, kw, n, oh, ow),
                           win.transpose(1, 4, 5, 0, 2, 3)))
    else:
        cols = arena.get(owner, "cols", (n, c * kh * kw, oh * ow),
                         cols_dtype or x.dtype)
        ops.append(partial(np.copyto, cols.reshape(n, c, kh, kw, oh, ow),
                           win.transpose(0, 1, 4, 5, 2, 3)))
    return cols, oh, ow, ops


class Kernel:
    """Base class: a compiled step with a stable arena identity."""

    label = "kernel"

    def __init__(self, key: int) -> None:
        self.key = key

    def bind(self, inputs: list[np.ndarray], arena) -> tuple[np.ndarray, list]:
        """Resolve this step against ``inputs``' shapes: returns the
        output buffer and the calls that fill it from ``inputs``."""
        raise NotImplementedError

    def run(self, inputs: list[np.ndarray], arena) -> np.ndarray:
        """Bind, then execute once."""
        out, ops = self.bind(inputs, arena)
        for op in ops:
            op()
        return out


class ConvKernel(Kernel):
    """Dense convolution (+ folded bias + fused activation).

    1x1/stride-1/pad-0 convolutions (half of every SkyNet Bundle) skip
    im2col entirely and run as a single reshape + matmul.
    """

    def __init__(
        self,
        key: int,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        pad: int = 0,
        act: tuple | None = None,
    ) -> None:
        super().__init__(key)
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.stride = stride
        self.pad = pad
        self.act = act
        cout, cin, kh, kw = self.weight.shape
        self.kh, self.kw = kh, kw
        self._wmat = self.weight.reshape(cout, cin * kh * kw)
        suffix = f"+{act[0]}" if act else ""
        self.label = f"conv{kh}x{kw} {cin}->{cout}{suffix}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, cin, h, w = x.shape
        cout = self._wmat.shape[0]
        if self.kh == 1 and self.kw == 1 and self.stride == 1 and self.pad == 0:
            ops = []
            cols, oh, ow = reshaped(x, (n, cin, h * w), arena, self.key,
                                    "xin", ops), h, w
        elif n > 1:
            # Batched path: one (COUT, K) @ (K, N*OH*OW) GEMM for the
            # whole microbatch, then a transpose-scatter back to NCHW.
            cols, oh, ow, ops = bind_im2col(
                arena, self.key, x, self.kh, self.kw, self.stride, self.pad,
                batched=True,
            )
            outb = arena.get(self.key, "outb", (cout, n * oh * ow), np.float32)
            ops.append(matmul_op(self._wmat, cols, outb))
            if self.bias is not None:
                ops.append(partial(np.add, outb, self.bias.reshape(cout, 1),
                                   outb))
            ops += activation_ops(outb, self.act)
            out = arena.get(self.key, "out", (n, cout, oh * ow), np.float32)
            ops.append(partial(
                np.copyto, out,
                outb.reshape(cout, n, oh * ow).transpose(1, 0, 2)))
            return out.reshape(n, cout, oh, ow), ops
        else:
            cols, oh, ow, ops = bind_im2col(
                arena, self.key, x, self.kh, self.kw, self.stride, self.pad
            )
        out = arena.get(self.key, "out", (n, cout, oh * ow), np.float32)
        ops.append(matmul_op(self._wmat, cols, out))
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias.reshape(1, cout, 1),
                               out))
        ops += activation_ops(out, self.act)
        return out.reshape(n, cout, oh, ow), ops


class DWConvKernel(Kernel):
    """Depthwise convolution (+ folded bias + fused activation)."""

    def __init__(
        self,
        key: int,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        pad: int = 0,
        act: tuple | None = None,
    ) -> None:
        super().__init__(key)
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.stride = stride
        self.pad = pad
        self.act = act
        c, _, kh, kw = self.weight.shape
        self.kh, self.kw = kh, kw
        self._wmat = self.weight.reshape(c, 1, kh * kw)
        suffix = f"+{act[0]}" if act else ""
        self.label = f"dwconv{kh}x{kw} c{c}{suffix}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        cols, oh, ow, ops = bind_im2col(
            arena, self.key, x, self.kh, self.kw, self.stride, self.pad
        )
        cols = cols.reshape(n, c, self.kh * self.kw, oh * ow)
        out = arena.get(self.key, "out", (n, c, 1, oh * ow), np.float32)
        ops.append(partial(np.matmul, self._wmat, cols, out))
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias.reshape(1, c, 1, 1),
                               out))
        ops += activation_ops(out, self.act)
        return out.reshape(n, c, oh, ow), ops


class FusedBundleKernel(Kernel):
    """One SkyNet Bundle as a single step: DWConv3x3 -> act -> PWConv1x1 -> act.

    Both BatchNorms are already folded into the two weight tensors, so
    the whole Bundle runs as two matmuls with in-place bias/activation —
    the TensorRT-style fusion the TX2 deployment relies on.
    """

    # Strip tuning: target per-strip working set (bytes) and the minimum
    # full-size working set below which stripping cannot pay.  At the
    # paper's 160x320 deployment resolution a microbatch-8 bundle's
    # column matrix alone is tens of MB — far past any cache — while the
    # late 20x40 stages fit entirely and run faster unstripped.
    STRIP_TARGET_BYTES = 8 << 20
    STRIP_MIN_BYTES = 6 << 20

    def __init__(
        self,
        key: int,
        dw: DWConvKernel,
        pw: ConvKernel,
        pool: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(key)
        self.dw = dw
        self.pw = pw
        self.pool = pool  # (kernel, stride); compiler only fuses (2, 2)
        self._pool_kernel = (
            None if pool is None
            else MaxPoolKernel((key, "pool"), pool[0], pool[1])
        )
        self._strippable = (
            dw.kh == 3 and dw.kw == 3 and dw.stride == 1 and dw.pad == 1
            and pw.kh == 1 and pw.kw == 1 and pw.stride == 1 and pw.pad == 0
        )
        suffix = "" if pool is None else f"+maxpool{pool[0]}/s{pool[1]}"
        self.label = f"bundle[{dw.label} | {pw.label}]{suffix}"

    def bind(self, inputs, arena):
        x = inputs[0]
        if self._strippable and x.dtype == np.float32:
            n, cin, h, w = x.shape
            cout = self.pw._wmat.shape[0]
            # Bytes touched per output row: im2col columns + dw output +
            # pw output + padded input, all at width w and batch n.
            row_bytes = 4 * n * w * (9 * cin + cin + cout + cin)
            if row_bytes * h >= self.STRIP_MIN_BYTES and (
                self.pool is None or (h % 2 == 0 and w % 2 == 0)
            ):
                return self._bind_strips(x, arena, row_bytes)
        mid, ops = self.dw.bind(inputs, arena)
        out, pw_ops = self.pw.bind([mid], arena)
        ops += pw_ops
        if self._pool_kernel is not None:
            out, pool_ops = self._pool_kernel.bind([out], arena)
            ops += pool_ops
        return out, ops

    def _strip_scratch(self, arena, n: int, cin: int, cout: int, nr: int,
                       w: int) -> tuple:
        """One scratch set (and its views) for strips of ``nr`` rows."""
        m = n * nr * w
        # Padded strip: rows 1..nr are data, rows 0/nr+1 are halo;
        # columns 0/w+1 are never written and stay zero from alloc.
        p = arena.get(self.key, "spad", (cin, n, nr + 2, w + 2),
                      np.float32, zero=True)
        win = windows(p, 3, 3)  # (cin, n, nr, w, 3, 3)
        cols = arena.get(self.key, "scols", (cin, 9, m), np.float32)
        mid = arena.get(self.key, "smid", (cin, 1, m), np.float32)
        pwout = arena.get(self.key, "spw", (cout, m), np.float32)
        ops = [partial(np.copyto, cols.reshape(cin, 3, 3, n, nr, w),
                       win.transpose(0, 4, 5, 1, 2, 3)),
               partial(np.matmul, self.dw._wmat, cols, mid)]
        if self.dw.bias is not None:
            ops.append(partial(np.add, mid, self.dw.bias.reshape(cin, 1, 1),
                               mid))
        ops += activation_ops(mid, self.dw.act)
        ops.append(matmul_op(self.pw._wmat, mid.reshape(cin, m), pwout))
        if self.pw.bias is not None:
            ops.append(partial(np.add, pwout, self.pw.bias.reshape(cout, 1),
                               pwout))
        ops += activation_ops(pwout, self.pw.act)
        v = pwout.reshape(cout, n, nr, w)
        if self.pool is None:
            return p, ops, v.transpose(1, 0, 2, 3)
        # 2x2/s2 max over the post-activation strip: identical values
        # to a standalone MaxPoolKernel on the full map.
        pl = arena.get(self.key, "spool", (cout, n, nr // 2, w // 2),
                       np.float32)
        ops += [partial(np.maximum, v[:, :, ::2, ::2], v[:, :, ::2, 1::2],
                        out=pl),
                partial(np.maximum, pl, v[:, :, 1::2, ::2], out=pl),
                partial(np.maximum, pl, v[:, :, 1::2, 1::2], out=pl)]
        return p, ops, pl.transpose(1, 0, 2, 3)

    def _bind_strips(self, x: np.ndarray, arena, row_bytes: int):
        """Row-strip fused dw3x3 -> act -> pw1x1 -> act over the batch.

        The strip works in channel-major ``(c, n, rows, w)`` layout so
        each stage is one GEMM across the *whole* microbatch, and the
        strip height is chosen so every intermediate stays cache-resident
        between stages — the per-kernel DRAM round trips that make naive
        batch-8 *slower* than 8x batch-1 never happen.  Every strip of
        one height reuses one scratch set.  Identical taps and reduction
        order as the unfused path, so outputs agree with
        ``DWConvKernel`` + ``ConvKernel`` to float rounding.
        """
        n, cin, h, w = x.shape
        cout = self.pw._wmat.shape[0]
        rows = max(1, min(h, self.STRIP_TARGET_BYTES // max(1, row_bytes)))
        pooled = self.pool is not None
        if pooled:
            rows = max(2, rows - rows % 2)  # even strips pool exactly
            out = arena.get(self.key, "out", (n, cout, h // 2, w // 2),
                            np.float32)
        else:
            out = arena.get(self.key, "out", (n, cout, h, w), np.float32)
        xc = x.transpose(1, 0, 2, 3)  # (cin, n, h, w) view
        scratch = {}
        ops = []
        r0 = 0
        while r0 < h:
            nr = min(rows, h - r0)
            if nr not in scratch:
                scratch[nr] = self._strip_scratch(arena, n, cin, cout, nr, w)
            p, strip_ops, result = scratch[nr]
            ops.append(partial(np.copyto, p[:, :, 1 : 1 + nr, 1 : 1 + w],
                               xc[:, :, r0 : r0 + nr, :]))
            if r0 > 0:
                ops.append(partial(np.copyto, p[:, :, 0, 1 : 1 + w],
                                   xc[:, :, r0 - 1, :]))
            else:
                ops.append(partial(np.copyto, p[:, :, 0, :], 0.0))
            if r0 + nr < h:
                ops.append(partial(np.copyto, p[:, :, 1 + nr, 1 : 1 + w],
                                   xc[:, :, r0 + nr, :]))
            else:
                ops.append(partial(np.copyto, p[:, :, 1 + nr, :], 0.0))
            ops += strip_ops
            if pooled:
                dst = out[:, :, r0 // 2 : (r0 + nr) // 2, :]
            else:
                dst = out[:, :, r0 : r0 + nr, :]
            ops.append(partial(np.copyto, dst, result))
            r0 += nr
        return out, ops


class AffineKernel(Kernel):
    """Per-channel ``scale * x + shift`` — an unfolded eval-mode BatchNorm
    (only emitted when the preceding op cannot absorb the fold)."""

    def __init__(
        self,
        key: int,
        scale: np.ndarray,
        shift: np.ndarray,
        act: tuple | None = None,
    ) -> None:
        super().__init__(key)
        self.scale = np.asarray(scale, dtype=np.float32)
        self.shift = np.asarray(shift, dtype=np.float32)
        self.act = act
        self.label = f"affine c{self.scale.size}"

    def bind(self, inputs, arena):
        (x,) = inputs
        c = self.scale.size
        out = arena.get(self.key, "out", x.shape, np.float32)
        ops = [partial(np.multiply, x, self.scale.reshape(1, c, 1, 1), out),
               partial(np.add, out, self.shift.reshape(1, c, 1, 1), out)]
        return out, ops + activation_ops(out, self.act)


class ActKernel(Kernel):
    """Standalone activation (when it could not be fused upstream)."""

    def __init__(self, key: int, act: tuple) -> None:
        super().__init__(key)
        self.act = act
        self.label = f"act:{act[0]}"

    def bind(self, inputs, arena):
        (x,) = inputs
        out = arena.get(self.key, "out", x.shape, np.float32)
        return out, [partial(np.copyto, out, x)] + activation_ops(out,
                                                                  self.act)


def pool_taps(x: np.ndarray, k: int, s: int, oh: int, ow: int) -> list:
    """The k*k strided tap views of a (k, s) pool window, in order.

    Accumulating tap-by-tap over strided slices beats reducing a
    sliding-window view by an order of magnitude."""
    return [x[:, :, i : i + s * oh : s, j : j + s * ow : s]
            for i in range(k) for j in range(k)]


class MaxPoolKernel(Kernel):
    def __init__(self, key: int, kernel: int, stride: int) -> None:
        super().__init__(key)
        self.kernel = kernel
        self.stride = stride
        self.label = f"maxpool{kernel}x{kernel}/s{stride}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = conv_out_size(h, k, s, 0)
        ow = conv_out_size(w, k, s, 0)
        # Output dtype follows the input: max of a quantized-backend int
        # feature map is the same int grid.
        out = arena.get(self.key, "out", (n, c, oh, ow), x.dtype)
        first, *rest = pool_taps(x, k, s, oh, ow)
        ops = [partial(np.copyto, out, first)]
        ops += [partial(np.maximum, out, tap, out=out) for tap in rest]
        return out, ops


class AvgPoolKernel(Kernel):
    def __init__(self, key: int, kernel: int, stride: int) -> None:
        super().__init__(key)
        self.kernel = kernel
        self.stride = stride
        self.label = f"avgpool{kernel}x{kernel}/s{stride}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = conv_out_size(h, k, s, 0)
        ow = conv_out_size(w, k, s, 0)
        out = arena.get(self.key, "out", (n, c, oh, ow), np.float32)
        first, *rest = pool_taps(x, k, s, oh, ow)
        ops = [partial(np.copyto, out, first)]
        ops += [partial(np.add, out, tap, out) for tap in rest]
        ops.append(partial(np.multiply, out, 1.0 / (k * k), out))
        return out, ops


class GlobalAvgPoolKernel(Kernel):
    label = "global_avg_pool"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c = x.shape[:2]
        out = arena.get(self.key, "out", (n, c), np.float32)
        return out, [partial(np.mean, x, axis=(2, 3), out=out)]


class ReorgKernel(Kernel):
    """Space-to-depth rearrangement, identical to :func:`repro.nn.functional.reorg`."""

    def __init__(self, key: int, stride: int) -> None:
        super().__init__(key)
        self.stride = stride
        self.label = f"reorg/s{stride}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        s = self.stride
        if h % s or w % s:
            raise ValueError(f"reorg: spatial dims ({h},{w}) not divisible by {s}")
        out = arena.get(self.key, "out", (n, c * s * s, h // s, w // s),
                        x.dtype)
        ops = []
        xs = reshaped(x, (n, c, h // s, s, w // s, s), arena, self.key,
                      "xin", ops)
        ops.append(partial(np.copyto, out.reshape(n, s, s, c, h // s, w // s),
                           xs.transpose(0, 3, 5, 1, 2, 4)))
        return out, ops


class UpsampleKernel(Kernel):
    def __init__(self, key: int, scale: int) -> None:
        super().__init__(key)
        self.scale = scale
        self.label = f"upsample x{scale}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        s = self.scale
        out = arena.get(self.key, "out", (n, c, h * s, w * s), x.dtype)
        return out, [partial(np.copyto, out.reshape(n, c, h, s, w, s),
                             x[:, :, :, None, :, None])]


class ConcatKernel(Kernel):
    """Channel concatenation (the B/C bypass merge)."""

    label = "concat"

    def bind(self, inputs, arena):
        n, _, h, w = inputs[0].shape
        c = sum(a.shape[1] for a in inputs)
        out = arena.get(self.key, "out", (n, c, h, w), inputs[0].dtype)
        return out, [partial(np.concatenate, list(inputs), axis=1, out=out)]


class SliceChannelsKernel(Kernel):
    """Channel slice view (grouped-conv input split); allocation-free."""

    def __init__(self, key: int, start: int, stop: int) -> None:
        super().__init__(key)
        self.start = start
        self.stop = stop
        self.label = f"slice[{start}:{stop}]"

    def bind(self, inputs, arena):
        return inputs[0][:, self.start : self.stop], []


class LinearKernel(Kernel):
    def __init__(
        self,
        key: int,
        weight: np.ndarray,
        bias: np.ndarray | None,
        act: tuple | None = None,
    ) -> None:
        super().__init__(key)
        self._wt = np.ascontiguousarray(
            np.asarray(weight, dtype=np.float32).T
        )
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.act = act
        self.label = f"linear {self._wt.shape[0]}->{self._wt.shape[1]}"

    def bind(self, inputs, arena):
        (x,) = inputs
        out = arena.get(self.key, "out", (x.shape[0], self._wt.shape[1]),
                        np.float32)
        ops = [matmul_op(x, self._wt, out)]
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias, out))
        return out, ops + activation_ops(out, self.act)


class FlattenKernel(Kernel):
    label = "flatten"

    def bind(self, inputs, arena):
        (x,) = inputs
        ops = []
        return reshaped(x, (x.shape[0], -1), arena, self.key, "xin", ops), ops


class IdentityKernel(Kernel):
    """No-op (eval-mode Dropout)."""

    label = "identity"

    def bind(self, inputs, arena):
        return inputs[0], []

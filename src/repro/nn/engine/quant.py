"""Integer-domain quantized backend for the compiled engine.

The paper's Ultra96 deployment runs the whole network in fixed point
(Section 6.4.1, Table 7): per-tensor power-of-two scales — pure shifts
in the FPGA IPs — int8/int16 storage, wide accumulators, and shift
requantization between layers.  :mod:`repro.hardware.quantization` only
*simulates* that (fake quantization on the eager path); this module is
the real thing for the compiled engine:

* :class:`QuantConfig` — a (weight bits, feature-map bits) scheme, e.g.
  ``QuantConfig(8, 8)`` or ``QuantConfig.from_scheme(TABLE7_SCHEMES[1])``.
* **Calibration** — :func:`lower_quantized` runs the folded fp32 plan
  over user-supplied sample inputs and freezes one power-of-two scale
  per tensor, via :func:`repro.hardware.quantization.fixed_point_fracbits`
  — the same scale logic the fake-quant path uses, so the two backends
  agree on every grid.
* **Integer kernels** — convolutions consume/produce int8/int16 feature
  maps, accumulate exactly, requantize with a rounding shift, and apply
  ReLU/ReLU6 as integer clamps.  Pooling, concat, reorg, upsample and
  slice run natively on the integer arrays.  Ops with no integer rule
  (sigmoid, global pooling, non-power-of-two averaging, linear heads)
  dequantize their input and run the stock fp32 kernel; a later
  convolution re-enters the integer domain through a calibrated
  quantize step.

Arithmetic model.  The accumulator carries *exact integer values* in a
float32 or float64 "carrier" array: every product of a ``w_bits``-bit
weight and an ``fm_bits``-bit feature is an integer below ``2**24``
(float32's exact-integer range) for the 8-bit schemes, and the compiler
switches any kernel whose worst-case accumulator bound exceeds the
carrier's exact range to float64.  This keeps the matrix multiplies on
the same BLAS paths the fp32 engine uses (NumPy's native integer matmul
has no BLAS backend and is an order of magnitude slower) while remaining
bit-equivalent to true int32/int64 accumulation — the float ALU here
plays the role of the DSP48 slices on the Ultra96.  Weights are stored
as int8/int16 ndarrays (the deployment artifact); depthwise convolutions
drop im2col entirely and accumulate tap-by-tap, which is where the
measured speedup over the fp32 engine comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ... import obs
from ...hardware.quantization import (
    QuantScheme,
    fixed_point_fracbits,
    quantize_fixed,
    quantize_to_fracbits,
)
from ..im2col import conv_out_size, im2col
from .arena import BufferArena
from . import kernels as K

__all__ = ["QuantConfig", "lower_quantized"]

#: Activations with an exact integer-domain rule (clamps at on-grid
#: bounds: 0 and 6 * 2**frac are integers for every non-negative frac).
_INT_ACTS = (None, ("relu",), ("relu6",))

#: Largest integer magnitude float32 represents exactly (2**24); the
#: per-kernel accumulator bound is checked against this to pick the
#: carrier dtype.
_F32_EXACT = float(2**24)
_F64_EXACT = float(2**53)


@dataclass(frozen=True)
class QuantConfig:
    """A fixed-point scheme for the compiled quantized backend.

    Parameters
    ----------
    w_bits:
        Signed weight width (int8 storage up to 8 bits, int16 above).
    fm_bits:
        Signed feature-map width (idem).
    """

    w_bits: int = 8
    fm_bits: int = 8

    def __post_init__(self) -> None:
        for label, bits in (("w_bits", self.w_bits), ("fm_bits", self.fm_bits)):
            if not 2 <= bits <= 16:
                raise ValueError(
                    f"{label} must be in [2, 16] (int8/int16 storage), "
                    f"got {bits}"
                )

    @classmethod
    def from_scheme(cls, scheme: QuantScheme) -> "QuantConfig":
        """Build from a Table-7 :class:`~repro.hardware.quantization.QuantScheme`."""
        if scheme.w_bits is None or scheme.fm_bits is None:
            raise ValueError(
                f"scheme {scheme.index} keeps a float32 side; only fully "
                "fixed-point schemes have an integer-domain backend"
            )
        return cls(w_bits=scheme.w_bits, fm_bits=scheme.fm_bits)

    @classmethod
    def parse(cls, spec: str) -> "QuantConfig":
        """Parse a CLI-style ``"W,F"`` bit-width pair, e.g. ``"8,8"``."""
        try:
            w_bits, fm_bits = (int(v) for v in spec.split(","))
        except ValueError:
            raise ValueError(
                f"expected 'W,F' bit widths (e.g. '8,8'), got {spec!r}"
            ) from None
        return cls(w_bits=w_bits, fm_bits=fm_bits)

    @property
    def label(self) -> str:
        return f"w{self.w_bits}/f{self.fm_bits}"

    @property
    def fm_storage(self) -> np.dtype:
        return np.dtype(np.int8 if self.fm_bits <= 8 else np.int16)

    @property
    def w_storage(self) -> np.dtype:
        return np.dtype(np.int8 if self.w_bits <= 8 else np.int16)

    @property
    def fm_qmin(self) -> int:
        return -(2 ** (self.fm_bits - 1))

    @property
    def fm_qmax(self) -> int:
        return 2 ** (self.fm_bits - 1) - 1


# --------------------------------------------------------------------- #
# integer-domain kernels
# --------------------------------------------------------------------- #
class _QuantKernelBase(K.Kernel):
    """Shared requantize/store tail of the integer kernels.

    The requantization shift ``2**(out_frac - acc_frac)`` is folded into
    the weights at construction time (a power-of-two scale on small
    integers — exact), so the accumulator lands directly on the output
    grid: the whole activate + saturate + round + narrow tail is one
    ``clip`` (the ReLU/ReLU6 clamp and the two's-complement saturation
    merge into a single interval) and one ``rint`` writing straight into
    the int8/int16 output buffer.

    A trailing 2x2 max-pool can additionally be folded into the tail
    (:meth:`fuse_maxpool`): clip and rint are monotone non-decreasing,
    so pooling the raw accumulator *before* them yields bit-identical
    results while shrinking the clip/rint passes to a quarter of the
    elements and deleting the standalone pooling step.
    """

    _pool: tuple[int, int] | None = None

    def _init_quant(self, quant: QuantConfig, acc_frac: int, out_frac: int,
                    act: tuple | None, carrier, emit_int: bool) -> None:
        self.quant = quant
        self.acc_frac = acc_frac
        self.out_frac = out_frac
        self.act = act
        self.carrier = np.dtype(carrier)
        self.emit_int = emit_int
        # Clamp interval on the output grid: activation bounds (0 and
        # 6 * 2**out_frac, both exactly representable) intersected with
        # the signed range.  rint after clip equals the reference's
        # round-then-clip: clipping moves out-of-range values onto the
        # (integral) bounds, where rint is the identity.
        qmin, qmax = float(quant.fm_qmin), float(quant.fm_qmax)
        if act is None:
            self._lo, self._hi = qmin, qmax
        elif act[0] == "relu":
            self._lo, self._hi = 0.0, qmax
        else:  # relu6
            self._lo, self._hi = 0.0, min(6.0 * 2.0**out_frac, qmax)

    def fuse_maxpool(self, kernel: int, stride: int) -> None:
        """Fold a trailing max-pool into the requantize tail."""
        self._pool = (kernel, stride)
        self.label += f"+maxpool{kernel}/s{stride}"

    def _bind_finish(self, acc: np.ndarray, shape: tuple, arena,
                     bias4: np.ndarray | None = None) -> tuple:
        """Bind the requantize tail on ``acc``: returns (output, ops)."""
        acc = acc.reshape(shape)
        ops = []
        if self._pool is not None:
            k, s = self._pool
            n, c, h, w = shape
            oh = conv_out_size(h, k, s, 0)
            ow = conv_out_size(w, k, s, 0)
            # Separable max: reduce rows first (contiguous reads), then
            # columns on the half-height intermediate — close to half
            # the traffic of the naive k*k strided-tap reduction.
            rows = arena.get(self.key, "poolr", (n, c, oh, w), self.carrier)
            pooled = arena.get(self.key, "pool", (n, c, oh, ow), self.carrier)
            row_taps = [acc[:, :, i : i + s * oh : s, :] for i in range(k)]
            col_taps = [rows[:, :, :, j : j + s * ow : s] for j in range(k)]
            for dst, taps in ((rows, row_taps), (pooled, col_taps)):
                if k == 2:
                    ops.append(partial(np.maximum, taps[0], taps[1], out=dst))
                else:
                    ops.append(partial(np.copyto, dst, taps[0]))
                    ops += [partial(np.maximum, dst, t, out=dst)
                            for t in taps[1:]]
            acc, shape = pooled, (n, c, oh, ow)
        # A per-channel constant commutes with max-pooling, so the bias
        # lands after the pool — on a quarter of the elements.
        if bias4 is not None:
            ops.append(partial(np.add, acc, bias4, acc))
        ops.append(partial(K.clip_ufunc, acc, self._lo, self._hi, acc))
        if not self.emit_int:
            ops.append(partial(np.rint, acc, acc))
            return acc, ops
        out = arena.get(self.key, "qout", shape, self.quant.fm_storage)
        ops.append(partial(np.rint, acc, out, casting="unsafe"))
        return out, ops

    def _carrier_input(self, x: np.ndarray, arena, ops: list) -> np.ndarray:
        """``x`` in the carrier dtype (a cast copy when it is not)."""
        if x.dtype == self.carrier:
            return x
        xa = arena.get(self.key, "xin", x.shape, self.carrier)
        ops.append(partial(np.copyto, xa, x))
        return xa


class QuantConvKernel(_QuantKernelBase):
    """Dense convolution on integer feature maps and int8/int16 weights.

    The weight tensor is stored quantized (``q_weight``); the matmul runs
    on an integer-valued carrier copy so it stays on the BLAS fast path
    while the accumulator remains exact (see the module docstring).
    """

    def __init__(
        self,
        key,
        q_weight: np.ndarray,
        w_frac: int,
        bias_acc: np.ndarray | None,
        stride: int,
        pad: int,
        act: tuple | None,
        in_frac: int,
        out_frac: int,
        quant: QuantConfig,
        carrier,
        emit_int: bool = True,
    ) -> None:
        super().__init__(key)
        self.q_weight = np.ascontiguousarray(q_weight)  # int8/int16 artifact
        self.w_frac = w_frac
        self.in_frac = in_frac
        self.stride = stride
        self.pad = pad
        self._init_quant(quant, w_frac + in_frac, out_frac, act, carrier,
                         emit_int)
        cout, cin, kh, kw = self.q_weight.shape
        self.kh, self.kw = kh, kw
        # Fold the requantization shift into the weights: integer weights
        # times a power of two stay exact in the carrier, and the
        # accumulator lands directly on the output grid.
        shift = 2.0 ** (out_frac - (w_frac + in_frac))
        self._wmat = np.ascontiguousarray(
            self.q_weight.reshape(cout, cin * kh * kw).astype(self.carrier)
            * self.carrier.type(shift)
        )
        self.bias_out = (
            None if bias_acc is None
            else np.asarray(bias_acc * shift, dtype=self.carrier)
        )
        suffix = f"+{act[0]}" if act else ""
        self.label = (f"qconv{kh}x{kw} {cin}->{cout} "
                      f"[{quant.label}/{self.carrier.name}]{suffix}")

    #: Rows per strip of the strip-fused 1x1+pool path, and the
    #: accumulator size above which it pays off: below the threshold
    #: the whole accumulator fits in cache anyway and one big matmul
    #: beats many small ones.
    _STRIP_ROWS = 8
    _STRIP_MIN_BYTES = 6 * 1024 * 1024

    def bind(self, inputs, arena):
        (x,) = inputs
        n, cin, h, w = x.shape
        cout = self._wmat.shape[0]
        if self.kh == 1 and self.kw == 1 and self.stride == 1 and self.pad == 0:
            if (self._pool == (2, 2) and self.emit_int
                    and h % 2 == 0 and w % 2 == 0
                    and (n * cout * h * w * self.carrier.itemsize
                         >= self._STRIP_MIN_BYTES)):
                return self._bind_strip_pooled(x, arena, n, cin, h, w, cout)
            ops = []
            x = self._carrier_input(x, arena, ops)
            cols, oh, ow = K.reshaped(x, (n, cin, h * w), arena, self.key,
                                      "xcols", ops), h, w
        else:
            # im2col gathers the integer windows straight into carrier
            # columns: the int -> float cast rides the window copy.
            cols, oh, ow, ops = K.bind_im2col(
                arena, self.key, x, self.kh, self.kw, self.stride, self.pad,
                cols_dtype=self.carrier,
            )
        acc = arena.get(self.key, "acc", (n, cout, oh * ow), self.carrier)
        ops.append(partial(np.matmul, self._wmat, cols, acc))
        bias4 = (None if self.bias_out is None
                 else self.bias_out.reshape(1, cout, 1, 1))
        out, tail = self._bind_finish(acc, (n, cout, oh, ow), arena,
                                      bias4=bias4)
        return out, ops + tail

    def _bind_strip_pooled(self, x, arena, n, cin, h, w, cout):
        """1x1 conv + fused 2x2/s2 max-pool, row-strip at a time.

        The matmul, pool, bias, clip and rounding store all run on one
        strip of output rows while it is cache-hot, so the full-size
        accumulator never round-trips through DRAM.  Identical values to
        the unfused path — only the evaluation order changes."""
        oh, ow = h // 2, w // 2
        ops = []
        out = arena.get(self.key, "qout", (n, cout, oh, ow),
                        self.quant.fm_storage)
        sr = min(self._STRIP_ROWS, h)
        xs = arena.get(self.key, "sx", (cin, sr * w), self.carrier)
        accs = arena.get(self.key, "sacc", (cout, sr * w), self.carrier)
        rows = arena.get(self.key, "srow", (cout, sr // 2, w), self.carrier)
        pool = arena.get(self.key, "spool", (cout, sr // 2, ow), self.carrier)
        bias2 = (None if self.bias_out is None
                 else self.bias_out.reshape(cout, 1, 1))
        for b in range(n):
            xb, ob = x[b], out[b]
            for r0 in range(0, h, sr):
                r1 = min(r0 + sr, h)
                nr = (r1 - r0) // 2
                xsb = xs[:, : (r1 - r0) * w]
                a = accs[:, : (r1 - r0) * w]
                a3 = a.reshape(cout, r1 - r0, w)
                rb, pb = rows[:, :nr], pool[:, :nr]
                ops += [
                    # the strip's rows, gathered channel-major; the cast to
                    # the carrier rides the copy
                    partial(np.copyto, xsb.reshape(cin, r1 - r0, w),
                            xb[:, r0:r1]),
                    partial(np.matmul, self._wmat, xsb, a),
                    partial(np.maximum, a3[:, ::2, :], a3[:, 1::2, :],
                            out=rb),
                    partial(np.maximum, rb[:, :, ::2], rb[:, :, 1::2],
                            out=pb),
                ]
                if bias2 is not None:
                    ops.append(partial(np.add, pb, bias2, pb))
                ops += [
                    partial(K.clip_ufunc, pb, self._lo, self._hi, pb),
                    partial(np.rint, pb, ob[:, r0 // 2 : r1 // 2],
                            casting="unsafe"),
                ]
        return out, ops


class QuantDWConvKernel(_QuantKernelBase):
    """Depthwise convolution by direct tap accumulation — no im2col.

    The fp32 engine unfolds a 9x larger column matrix and runs a batched
    matmul of tiny ``(1, 9) @ (9, P)`` factors; on integer feature maps
    it is faster to accumulate the k*k taps as vectorized multiply-adds
    over strided views of the padded input.  This kernel is the main
    source of the quantized backend's speedup.
    """

    def __init__(
        self,
        key,
        q_weight: np.ndarray,
        w_frac: int,
        bias_acc: np.ndarray | None,
        stride: int,
        pad: int,
        act: tuple | None,
        in_frac: int,
        out_frac: int,
        quant: QuantConfig,
        carrier,
        emit_int: bool = True,
    ) -> None:
        super().__init__(key)
        self.q_weight = np.ascontiguousarray(q_weight)  # (C, 1, kh, kw)
        self.w_frac = w_frac
        self.in_frac = in_frac
        self.stride = stride
        self.pad = pad
        self._init_quant(quant, w_frac + in_frac, out_frac, act, carrier,
                         emit_int)
        c, _, kh, kw = self.q_weight.shape
        self.kh, self.kw = kh, kw
        shift = 2.0 ** (out_frac - (w_frac + in_frac))
        scaled = (self.q_weight.astype(self.carrier)
                  * self.carrier.type(shift))
        # One (1, C, 1, 1) carrier weight per tap for broadcasting, and
        # the (C, 1, k*k) matrix of the batched-matmul variant.
        self._taps = [
            (i, j, np.ascontiguousarray(scaled[:, 0, i, j]).reshape(1, c, 1, 1))
            for i in range(kh) for j in range(kw)
        ]
        self._wmat = np.ascontiguousarray(scaled.reshape(c, 1, kh * kw))
        self.bias_out = (
            None if bias_acc is None
            else np.asarray(bias_acc * shift, dtype=self.carrier)
        )
        suffix = f"+{act[0]}" if act else ""
        self.label = (f"qdwconv{kh}x{kw} c{c} "
                      f"[{quant.label}/{self.carrier.name}]{suffix}")

    #: Output pixels above which tap accumulation beats im2col+matmul.
    #: Small maps amortize the 9x im2col copy inside one BLAS call;
    #: large maps pay it in DRAM traffic that the blocked tap loop
    #: avoids entirely.
    _TAP_MIN_PIXELS = 6400
    #: Channel-block byte budget for the tap loop: the accumulator and
    #: tap-product blocks (the two carrier-width streams) are sized to
    #: fit in cache together, so all k*k tap passes and the whole
    #: requantize tail run without round trips to DRAM.
    _TAP_BLOCK_BYTES = 832 * 1024

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        s, p = self.stride, self.pad
        oh = conv_out_size(h, self.kh, s, p)
        ow = conv_out_size(w, self.kw, s, p)
        if n * oh * ow < self._TAP_MIN_PIXELS:
            return self._bind_matmul(x, arena, n, c, oh, ow)
        # The padded copy keeps the *storage* dtype — the tap multiplies
        # read int8/int16 directly (a quarter of the carrier's read
        # bandwidth); NumPy widens each product into the carrier output.
        # The zero border is written once at allocation and never
        # touched again (same trick as the fp32 im2col pad buffer).
        xp = arena.get(self.key, "xpad", (n, c, h + 2 * p, w + 2 * p),
                       x.dtype, zero=True)
        ops = [partial(np.copyto, xp[:, :, p : p + h, p : p + w], x)]
        if self.emit_int:
            out = arena.get(self.key, "qout", (n, c, oh, ow),
                            self.quant.fm_storage)
        else:
            out = arena.get(self.key, "mid", (n, c, oh, ow), self.carrier)
        itemsize = self.carrier.itemsize
        cb = min(c, max(1, self._TAP_BLOCK_BYTES // (n * oh * ow * itemsize
                                                     * 2)))
        acc = arena.get(self.key, "acc", (n, cb, oh, ow), self.carrier)
        tmp = arena.get(self.key, "tap", (n, cb, oh, ow), self.carrier)
        bias4 = (None if self.bias_out is None
                 else self.bias_out.reshape(1, c, 1, 1))
        for c0 in range(0, c, cb):
            c1 = min(c0 + cb, c)
            xb = xp[:, c0:c1]
            ab = acc[:, : c1 - c0]
            tb = tmp[:, : c1 - c0]
            for t, (i, j, wt) in enumerate(self._taps):
                win = xb[:, :, i : i + s * oh : s, j : j + s * ow : s]
                if t == 0:
                    ops.append(partial(np.multiply, win, wt[:, c0:c1], ab))
                else:
                    ops += [partial(np.multiply, win, wt[:, c0:c1], tb),
                            partial(np.add, ab, tb, ab)]
            # Whole tail per block while it is cache-hot: bias, the
            # merged act/saturate clip, and the rounding store.
            if bias4 is not None:
                ops.append(partial(np.add, ab, bias4[:, c0:c1], ab))
            ops += [partial(K.clip_ufunc, ab, self._lo, self._hi, ab),
                    partial(np.rint, ab, out[:, c0:c1], casting="unsafe")]
        return out, ops

    def _bind_matmul(self, x, arena, n, c, oh, ow):
        """im2col + batched matmul variant (small output maps)."""
        cols, oh, ow, ops = K.bind_im2col(
            arena, self.key, x, self.kh, self.kw, self.stride, self.pad,
            cols_dtype=self.carrier,
        )
        cols = cols.reshape(n, c, self.kh * self.kw, oh * ow)
        acc = arena.get(self.key, "accm", (n, c, 1, oh * ow), self.carrier)
        ops.append(partial(np.matmul, self._wmat, cols, acc))
        bias4 = (None if self.bias_out is None
                 else self.bias_out.reshape(1, c, 1, 1))
        out, tail = self._bind_finish(acc, (n, c, oh, ow), arena, bias4=bias4)
        return out, ops + tail


class QuantBundleKernel(K.Kernel):
    """A SkyNet Bundle in the integer domain: DW -> requant -> PW.

    The depthwise half hands its requantized mid tensor to the pointwise
    half still in the carrier dtype, skipping one int round trip."""

    def __init__(self, key, dw: QuantDWConvKernel, pw: QuantConvKernel) -> None:
        super().__init__(key)
        self.dw = dw
        self.pw = pw
        self.label = f"qbundle[{dw.label} | {pw.label}]"

    def bind(self, inputs, arena):
        mid, ops = self.dw.bind(inputs, arena)
        out, pw_ops = self.pw.bind([mid], arena)
        return out, ops + pw_ops


class QuantizeKernel(K.Kernel):
    """float32 -> integer domain at a calibrated scale.

    Scaling by a power of two is exact in float32, so the scaled value —
    and therefore every rounding tie — is identical to the float64
    calibration pass and the scratch can stay at native width.  Extreme
    scales (near-zero calibration tensors) fall back to float64, where
    ``2**frac`` cannot overflow."""

    def __init__(self, key, frac: int, quant: QuantConfig) -> None:
        super().__init__(key)
        self.frac = frac
        self.quant = quant
        self._dtype = np.dtype(np.float32 if abs(frac) <= 120 else np.float64)
        self._scale = self._dtype.type(2.0**frac)
        self.label = f"quantize f{frac} [{quant.label}]"

    def bind(self, inputs, arena):
        (x,) = inputs
        q = arena.get(self.key, "q", x.shape, self._dtype)
        out = arena.get(self.key, "out", x.shape, self.quant.fm_storage)
        return out, [
            partial(np.multiply, x, self._scale, q),
            partial(K.clip_ufunc, q, self.quant.fm_qmin, self.quant.fm_qmax,
                    q),
            partial(np.rint, q, out, casting="unsafe"),
        ]


class DequantizeKernel(K.Kernel):
    """Integer domain -> float32 (exact: the grid is a power of two)."""

    def __init__(self, key, frac: int) -> None:
        super().__init__(key)
        self.frac = frac
        self._inv_scale = 2.0**-frac
        self.label = f"dequantize f{frac}"

    def bind(self, inputs, arena):
        (x,) = inputs
        out = arena.get(self.key, "out", x.shape, np.float32)
        return out, [partial(np.copyto, out, x),
                     partial(np.multiply, out, self._inv_scale, out)]


class QuantRequantKernel(_QuantKernelBase):
    """Integer -> integer grid change (optionally through a clamp act).

    Covers standalone ReLU/ReLU6 steps — whose outputs the fake-quant
    reference re-quantizes on a fresh per-tensor scale — and the scale
    unification in front of channel concatenation."""

    def __init__(self, key, act: tuple | None, in_frac: int, out_frac: int,
                 quant: QuantConfig) -> None:
        super().__init__(key)
        self.in_frac = in_frac
        self._init_quant(quant, in_frac, out_frac, act, np.float32, True)
        self._scale = self.carrier.type(2.0 ** (out_frac - in_frac))
        name = f"qact:{act[0]}" if act else "requant"
        self.label = f"{name} f{in_frac}->f{out_frac}"

    def bind(self, inputs, arena):
        (x,) = inputs
        acc = arena.get(self.key, "acc", x.shape, self.carrier)
        # One ufunc pass: integer -> carrier cast and grid shift together.
        out, tail = self._bind_finish(acc, x.shape, arena)
        return out, [partial(np.multiply, x, self._scale, acc)] + tail


class QuantAvgPoolKernel(_QuantKernelBase):
    """Average pooling with a power-of-two divisor (a pure shift)."""

    def __init__(self, key, kernel: int, stride: int, frac: int,
                 quant: QuantConfig) -> None:
        super().__init__(key)
        self.kernel = kernel
        self.stride = stride
        self._init_quant(quant, frac, frac, None, np.float32, True)
        self._inv_area = 1.0 / (kernel * kernel)
        self.label = f"qavgpool{kernel}x{kernel}/s{stride} f{frac}"

    def bind(self, inputs, arena):
        (x,) = inputs
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = conv_out_size(h, k, s, 0)
        ow = conv_out_size(w, k, s, 0)
        ops = []
        xa = self._carrier_input(x, arena, ops)
        acc = arena.get(self.key, "acc", (n, c, oh, ow), self.carrier)
        first, *rest = K.pool_taps(xa, k, s, oh, ow)
        ops.append(partial(np.copyto, acc, first))
        ops += [partial(np.add, acc, tap, acc) for tap in rest]
        ops.append(partial(np.multiply, acc, self._inv_area, acc))
        out, tail = self._bind_finish(acc, (n, c, oh, ow), arena)
        return out, ops + tail


# --------------------------------------------------------------------- #
# calibration + lowering
# --------------------------------------------------------------------- #
def _conv_ref(x, weight, stride, pad, dtype, depthwise):
    """Exact reference convolution in ``dtype`` (calibration only)."""
    x = np.asarray(x, dtype=dtype)
    weight = np.asarray(weight, dtype=dtype)
    n, c, h, w = x.shape
    cout, cin, kh, kw = weight.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad)
    if depthwise:
        cols = cols.reshape(n, c, kh * kw, oh * ow)
        out = np.matmul(weight.reshape(c, 1, kh * kw), cols)
    else:
        out = np.matmul(weight.reshape(cout, -1), cols)
    return out.reshape(n, cout, oh, ow)


def _apply_act(x, act):
    if act is None:
        return x
    if act[0] == "relu":
        return np.maximum(x, 0.0)
    return np.clip(x, 0.0, 6.0)  # relu6


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _node_is_int(node, domains: dict[int, str]) -> bool:
    """Static rule: does this planned op have an integer-domain kernel?"""
    kind = node.kind
    if kind in ("conv", "dw"):
        return node.attrs["act"] in _INT_ACTS
    if kind == "bundle":
        return (node.attrs["dw"]["act"] in _INT_ACTS
                and node.attrs["pw"]["act"] in _INT_ACTS)
    ints = all(domains.get(r) == "int" for r in node.inputs)
    if kind in ("maxpool", "concat", "slice", "reorg", "upsample", "flatten"):
        return ints
    if kind == "avgpool":
        return ints and _is_pow2(node.attrs["kernel"])
    if kind == "act":
        return ints and node.attrs["act"] in _INT_ACTS
    return False  # affine, gap, linear, sigmoid/tanh/leaky acts, ...


class _QuantLowering:
    """One-pass calibration + lowering of an optimized fp32 plan."""

    def __init__(self, n_regs: int, quant: QuantConfig, name: str) -> None:
        self.quant = quant
        self.name = name
        self.n_regs = n_regs
        self.steps: list[tuple[K.Kernel, tuple[int, ...], int]] = []
        self.cal: dict[int, np.ndarray] = {}   # reg -> float32 real values
        self.frac: dict[int, int] = {}         # int-domain reg -> frac bits
        self.cal_arena = BufferArena()         # scratch for the cal run
        self._dequant_of: dict[int, int] = {}  # int reg -> emitted fp reg
        self._quant_of: dict[int, int] = {}    # fp reg -> emitted int reg
        self.uses: dict[int, int] = {}         # reg -> plan consumer count
        self.producer: dict[int, int] = {}     # reg -> producing step index

    # -- plumbing ------------------------------------------------------ #
    def _new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def _emit(self, kern: K.Kernel, inputs: list[int], out: int) -> None:
        self.steps.append((kern, tuple(inputs), out))
        self.producer[out] = len(self.steps) - 1

    def _key(self, tag: str) -> tuple:
        return (len(self.steps), tag)

    def _quantize_tensor(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Fake-quantize ``x`` on its own calibrated fm grid."""
        frac = fixed_point_fracbits(float(np.max(np.abs(x))) if x.size else 0.0,
                                    self.quant.fm_bits)
        q = quantize_to_fracbits(x, frac, self.quant.fm_bits)
        return q.astype(np.float32), frac

    # -- domain glue --------------------------------------------------- #
    def as_fp(self, reg: int) -> int:
        """Register holding ``reg``'s value in float32 (dequantize once)."""
        if reg not in self.frac:
            return reg
        if reg not in self._dequant_of:
            out = self._new_reg()
            self._emit(DequantizeKernel(self._key("deq"), self.frac[reg]),
                       [reg], out)
            self.cal[out] = self.cal[reg]
            self._dequant_of[reg] = out
        return self._dequant_of[reg]

    def as_int(self, reg: int) -> int:
        """Register holding ``reg``'s value in the integer domain
        (quantize once, on the calibrated scale of this tensor)."""
        if reg in self.frac:
            return reg
        if reg not in self._quant_of:
            q, frac = self._quantize_tensor(self.cal[reg])
            out = self._new_reg()
            self._emit(QuantizeKernel(self._key("quant"), frac, self.quant),
                       [reg], out)
            self.cal[out] = q
            self.frac[out] = frac
            self._quant_of[reg] = out
        return self._quant_of[reg]

    def requant_to(self, reg: int, frac: int) -> int:
        """Move an integer register onto a coarser/finer grid."""
        if self.frac[reg] == frac:
            return reg
        out = self._new_reg()
        self._emit(
            QuantRequantKernel(self._key("requant"), None, self.frac[reg],
                               frac, self.quant),
            [reg], out,
        )
        self.cal[out] = quantize_to_fracbits(
            self.cal[reg], frac, self.quant.fm_bits
        ).astype(np.float32)
        self.frac[out] = frac
        return out

    # -- integer conv emission ----------------------------------------- #
    def _prep_weights(self, attrs) -> tuple:
        """Quantize a folded conv weight + bias on their own grids."""
        w = np.asarray(attrs["weight"], dtype=np.float32)
        w_frac = fixed_point_fracbits(float(np.max(np.abs(w))) if w.size
                                      else 0.0, self.quant.w_bits)
        w_q = quantize_to_fracbits(w, w_frac, self.quant.w_bits)
        w_int = np.rint(w_q * 2.0**w_frac).astype(self.quant.w_storage)
        bias = attrs["bias"]
        b_q = None if bias is None else quantize_fixed(
            np.asarray(bias, np.float32), self.quant.w_bits
        )
        return w_q, w_int, w_frac, b_q

    def _carrier_for(self, w_frac, in_frac, b_q, fan_in):
        """float32 when the worst-case accumulator stays exactly
        representable, float64 otherwise (wide Table-7 schemes)."""
        bound = (2.0 ** (self.quant.w_bits - 1)
                 * 2.0 ** (self.quant.fm_bits - 1) * fan_in)
        if b_q is not None and b_q.size:
            bound += float(np.max(np.abs(b_q))) * 2.0 ** (w_frac + in_frac)
        return np.float32 if bound <= _F32_EXACT else np.float64

    def _conv_like(self, attrs, in_reg: int, kind: str,
                   emit_int: bool = True) -> tuple[K.Kernel, np.ndarray, int]:
        """Calibrate + build one integer conv/dwconv kernel.

        Returns ``(kernel, fake-quant output values, out_frac)``; the
        caller wires registers.  The calibration arithmetic is exact in
        the kernel's carrier dtype, so the runtime integer plan
        reproduces these values bit-for-bit.
        """
        w_q, w_int, w_frac, b_q = self._prep_weights(attrs)
        in_frac = self.frac[in_reg]
        cout, cin, kh, kw = w_int.shape
        fan_in = (cin if kind == "conv" else 1) * kh * kw
        carrier = self._carrier_for(w_frac, in_frac, b_q, fan_in)
        out = _conv_ref(self.cal[in_reg], w_q, attrs["stride"], attrs["pad"],
                        carrier, depthwise=(kind != "conv"))
        if b_q is not None:
            out = out + np.asarray(b_q, out.dtype).reshape(1, -1, 1, 1)
        out = _apply_act(out, attrs["act"])
        out_frac = fixed_point_fracbits(
            float(np.max(np.abs(out))) if out.size else 0.0,
            self.quant.fm_bits,
        )
        out_q = quantize_to_fracbits(out, out_frac, self.quant.fm_bits)
        acc_frac = w_frac + in_frac
        bias_acc = None if b_q is None else b_q * 2.0**acc_frac
        cls = QuantConvKernel if kind == "conv" else QuantDWConvKernel
        kern = cls(
            self._key(kind), w_int, w_frac, bias_acc, attrs["stride"],
            attrs["pad"], attrs["act"], in_frac, out_frac, self.quant,
            carrier, emit_int=emit_int,
        )
        return kern, out_q.astype(np.float32), out_frac

    def _fuse_maxpool(self, node) -> bool:
        """Fold an int-domain max-pool into the producing conv's tail.

        Legal when the pool is the producer's *only* consumer and the
        producer is an integer conv (or the pointwise half of a bundle):
        clip and rint are monotone non-decreasing, so max-pooling the
        raw accumulator commutes with the requantize tail and the fused
        step is bit-identical to conv-then-pool."""
        in_reg = node.inputs[0]
        idx = self.producer.get(in_reg)
        if idx is None or self.uses.get(in_reg, 0) != 1:
            return False
        kern, ins, _ = self.steps[idx]
        target = kern.pw if isinstance(kern, QuantBundleKernel) else kern
        if not (isinstance(target, QuantConvKernel) and target.emit_int
                and target._pool is None):
            return False
        target.fuse_maxpool(node.attrs["kernel"], node.attrs["stride"])
        if isinstance(kern, QuantBundleKernel):
            kern.label = f"qbundle[{kern.dw.label} | {kern.pw.label}]"
        self.steps[idx] = (kern, ins, node.out)
        self.producer[node.out] = idx
        cal_pool = K.MaxPoolKernel(self._key("calpool"),
                                   node.attrs["kernel"],
                                   node.attrs["stride"])
        out = cal_pool.run([self.cal[in_reg]], self.cal_arena)
        self.cal[node.out] = np.array(out, copy=True)
        self.frac[node.out] = self.frac[in_reg]
        return True

    # -- node dispatch -------------------------------------------------- #
    def lower_node(self, node) -> None:
        quant = self.quant
        if _node_is_int(node, {r: ("int" if r in self.frac else "fp")
                               for r in self.cal}):
            kind = node.kind
            if kind in ("conv", "dw"):
                in_reg = self.as_int(node.inputs[0])
                kern, out_q, out_frac = self._conv_like(
                    node.attrs, in_reg, "conv" if kind == "conv" else "dw"
                )
                self._emit(kern, [in_reg], node.out)
                self.cal[node.out] = out_q
                self.frac[node.out] = out_frac
                return
            if kind == "bundle":
                in_reg = self.as_int(node.inputs[0])
                dw_kern, mid_q, mid_frac = self._conv_like(
                    node.attrs["dw"], in_reg, "dw", emit_int=False
                )
                mid_reg = self._new_reg()  # virtual: lives inside the bundle
                self.cal[mid_reg] = mid_q
                self.frac[mid_reg] = mid_frac
                pw_kern, out_q, out_frac = self._conv_like(
                    node.attrs["pw"], mid_reg, "conv"
                )
                self._emit(QuantBundleKernel(self._key("bundle"), dw_kern,
                                             pw_kern), [in_reg], node.out)
                self.cal[node.out] = out_q
                self.frac[node.out] = out_frac
                return
            if kind == "act":
                in_reg = node.inputs[0]
                out = _apply_act(self.cal[in_reg], node.attrs["act"])
                out_q, out_frac = self._quantize_tensor(out)
                self._emit(
                    QuantRequantKernel(self._key("act"), node.attrs["act"],
                                       self.frac[in_reg], out_frac, quant),
                    [in_reg], node.out,
                )
                self.cal[node.out] = out_q
                self.frac[node.out] = out_frac
                return
            if kind == "avgpool":
                in_reg = node.inputs[0]
                frac = self.frac[in_reg]
                kern = QuantAvgPoolKernel(
                    self._key("avgpool"), node.attrs["kernel"],
                    node.attrs["stride"], frac, quant,
                )
                out = kern.run(
                    [np.asarray(self.cal[in_reg] * 2.0**frac, np.float32)],
                    self.cal_arena,
                )
                self._emit(kern, [in_reg], node.out)
                self.cal[node.out] = np.asarray(out, np.float32) * 2.0**-frac
                self.frac[node.out] = frac
                return
            if kind == "concat":
                target = min(self.frac[r] for r in node.inputs)
                in_regs = [self.requant_to(r, target) for r in node.inputs]
                kern = K.ConcatKernel(self._key("concat"))
                out = kern.run([self.cal[r] for r in in_regs], self.cal_arena)
                self._emit(kern, in_regs, node.out)
                self.cal[node.out] = np.array(out, copy=True)
                self.frac[node.out] = target
                return
            if kind == "maxpool" and self._fuse_maxpool(node):
                return
            # maxpool / slice / reorg / upsample / flatten: the stock
            # kernels are dtype-generic and exact on grid values.
            from .compiler import _lower_node

            kern = _lower_node(node, self._key(node.kind))
            out = kern.run([self.cal[r] for r in node.inputs], self.cal_arena)
            self._emit(kern, list(node.inputs), node.out)
            self.cal[node.out] = np.array(out, copy=True)
            self.frac[node.out] = self.frac[node.inputs[0]]
            return

        # ---- no integer rule: dequantize and run the fp32 kernel ------ #
        from .compiler import _lower_node

        in_regs = [self.as_fp(r) for r in node.inputs]
        kern = _lower_node(node, self._key(node.kind))
        out = kern.run([self.cal[r] for r in in_regs], self.cal_arena)
        self._emit(kern, in_regs, node.out)
        self.cal[node.out] = np.array(np.asarray(out, np.float32), copy=True)


def _kernel_dtypes(kern: K.Kernel) -> dict:
    """Per-kernel dtype record for ``CompiledNet.quant_stats``/obs."""
    if isinstance(kern, QuantBundleKernel):
        return {"label": kern.label,
                "storage": kern.pw.quant.fm_storage.name,
                "carrier": kern.pw.carrier.name}
    if isinstance(kern, _QuantKernelBase):
        return {"label": kern.label,
                "storage": kern.quant.fm_storage.name,
                "carrier": kern.carrier.name}
    if isinstance(kern, QuantizeKernel):
        return {"label": kern.label,
                "storage": kern.quant.fm_storage.name, "carrier": "float64"}
    # DequantizeKernel and fp32/int-passthrough stock kernels: the output
    # dtype follows the inputs at run time.
    return {"label": kern.label, "storage": "passthrough",
            "carrier": "float32"}


def lower_quantized(
    nodes,
    n_regs: int,
    out_reg: int,
    quant: QuantConfig,
    calibration: np.ndarray,
    name: str = "net",
):
    """Calibrate scales on ``calibration`` samples and lower the
    optimized fp32 plan into integer-domain steps.

    Returns ``(steps, n_regs, out_reg, stats)`` where ``stats`` carries
    the frozen per-register fractional bits, per-kernel dtypes, and the
    calibration-batch reference output (the fake-quant golden values the
    integer plan reproduces exactly).
    """
    x = np.asarray(calibration, dtype=np.float32)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4:
        raise ValueError(
            f"calibration samples must be (N, C, H, W), got shape {x.shape}"
        )
    low = _QuantLowering(n_regs, quant, name)
    for node in nodes:
        for r in node.inputs:
            low.uses[r] = low.uses.get(r, 0) + 1
    low.uses[out_reg] = low.uses.get(out_reg, 0) + 1
    with obs.span("engine/quant_calibrate", model=name, quant=quant.label,
                  samples=x.shape[0]):
        in_q, in_frac = low._quantize_tensor(x)
        low._emit(QuantizeKernel(low._key("input"), in_frac, quant), [0],
                  input_reg := low._new_reg())
        low.cal[0] = x
        low._quant_of[0] = input_reg
        low.cal[input_reg] = in_q
        low.frac[input_reg] = in_frac
        for node in nodes:
            # Rewire every consumer of the raw input through the
            # quantize step (node.inputs referencing reg 0).
            node.inputs = [input_reg if r == 0 else r for r in node.inputs]
            low.lower_node(node)
        if out_reg == 0:
            out_reg = input_reg
        out_frac = low.frac.get(out_reg)
        if out_reg in low.frac:
            out_reg = low.as_fp(out_reg)
    stats = {
        "quant": quant,
        "frac_bits": dict(low.frac),
        "input_frac": in_frac,
        "output_frac": out_frac,
        "kernels": [_kernel_dtypes(kern) for kern, _, _ in low.steps],
        "reference_output": np.array(low.cal[out_reg], copy=True),
    }
    return low.steps, low.n_regs, out_reg, stats

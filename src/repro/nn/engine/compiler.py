"""Ahead-of-time compiler: Module tree -> flat plan of inference kernels.

``compile_net`` walks a trained :class:`~repro.nn.module.Module` and
emits a :class:`CompiledNet` — a register machine whose steps are the
raw-ndarray kernels of :mod:`repro.nn.engine.kernels`.  Three passes run
over the emitted plan before lowering:

1. **fold** — eval-mode BatchNorm becomes a per-channel affine and is
   folded into the preceding conv/depthwise weights (weights are copied;
   the source module is never mutated).
2. **fuse-act** — element-wise activations are absorbed into the
   producing conv/affine step and applied in place on its output buffer.
3. **fuse-bundle** — every DWConv3x3 -> PWConv1x1 pair (the SkyNet
   Bundle after folding) collapses into one :class:`FusedBundleKernel`.

The compiled plan always implements the *eval-mode* forward (BN running
statistics, dropout off) and snapshots the weights at compile time:
retrain the module, recompile the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ... import obs
from ..layers.activation import LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh
from ..layers.conv import Conv2d, DWConv3x3, GroupedConv2d
from ..layers.dropout import Dropout
from ..layers.linear import Flatten, Linear
from ..layers.norm import BatchNorm2d
from ..layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..layers.reorg import Reorg, UpsampleNearest
from ..module import Module, Sequential
from .arena import BufferArena
from . import kernels as K

__all__ = ["BoundPlan", "CompileError", "CompiledNet", "compile_net"]


class CompileError(TypeError):
    """Raised when a module (sub)tree has no compilation rule."""


# --------------------------------------------------------------------- #
# intermediate representation
# --------------------------------------------------------------------- #
@dataclass(eq=False)
class _Node:
    """One planned op: ``kind`` + parameters, reading/writing registers.

    ``eq=False`` keeps identity comparison — attrs hold ndarrays, which
    do not support value equality, and the fusion passes only ever need
    to find *this* node again.
    """

    kind: str
    inputs: list[int]
    out: int
    attrs: dict = field(default_factory=dict)


_ACT_SPECS: dict[type, tuple] = {
    ReLU: ("relu",),
    ReLU6: ("relu6",),
    Sigmoid: ("sigmoid",),
    Tanh: ("tanh",),
}


class _Planner:
    """Emits the linear op plan by structural walk of the module tree."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.n_regs = 1  # register 0 is the network input

    def _new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def _push(self, kind: str, inputs: list[int], **attrs) -> int:
        out = self._new_reg()
        self.nodes.append(_Node(kind, inputs, out, attrs))
        return out

    def chain(self, modules, reg: int) -> int:
        for m in modules:
            reg = self.emit(m, reg)
        return reg

    # ------------------------------------------------------------------ #
    def emit(self, m: Module, reg: int) -> int:
        """Plan ``m``'s eval-mode forward; returns the output register."""
        # Composite model classes live outside repro.nn; import lazily so
        # the engine stays importable from repro.nn without cycles.
        from ...core.bundles import GenericBundle
        from ...core.skynet import SkyNetBackbone, SkyNetBundle
        from ...detection.head import YoloHead
        from ...detection.model import Detector
        from ...tracking.siamese import AdjustLayer
        from ...zoo.mobilenet import MobileNetBackbone, _DWSeparable

        if isinstance(m, DWConv3x3):
            return self._push(
                "dw", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                stride=m.stride, pad=m.pad, act=None,
            )
        if isinstance(m, Conv2d):  # covers PWConv1x1
            return self._push(
                "conv", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                stride=m.stride, pad=m.pad, act=None,
            )
        if isinstance(m, GroupedConv2d):
            step = m.in_channels // m.groups
            outs = []
            for g, conv in enumerate(m.convs):
                part = self._push("slice", [reg], start=g * step,
                                  stop=(g + 1) * step)
                outs.append(self.emit(conv, part))
            return self._push("concat", outs)
        if isinstance(m, BatchNorm2d):
            scale, shift = m.fold_scale_shift()
            return self._push("affine", [reg], scale=scale, shift=shift,
                              act=None)
        if type(m) in _ACT_SPECS:
            return self._push("act", [reg], act=_ACT_SPECS[type(m)])
        if isinstance(m, LeakyReLU):
            return self._push("act", [reg], act=("leaky_relu", m.slope))
        if isinstance(m, MaxPool2d):
            return self._push("maxpool", [reg], kernel=m.kernel,
                              stride=m.stride)
        if isinstance(m, AvgPool2d):
            return self._push("avgpool", [reg], kernel=m.kernel,
                              stride=m.stride)
        if isinstance(m, GlobalAvgPool2d):
            return self._push("gap", [reg])
        if isinstance(m, Reorg):
            return self._push("reorg", [reg], stride=m.stride)
        if isinstance(m, UpsampleNearest):
            return self._push("upsample", [reg], scale=m.scale)
        if isinstance(m, Linear):
            return self._push(
                "linear", [reg],
                weight=m.weight.data,
                bias=None if m.bias is None else m.bias.data,
                act=None,
            )
        if isinstance(m, Flatten):
            return self._push("flatten", [reg])
        if isinstance(m, Dropout):
            return reg  # identity in eval mode
        if isinstance(m, Sequential):
            return self.chain(m, reg)

        # ---- composite models ---------------------------------------- #
        if isinstance(m, SkyNetBundle):
            return self.chain(
                [m.dw, m.bn1, m.act1, m.pw, m.bn2, m.act2], reg
            )
        if isinstance(m, GenericBundle):
            for op, bn, act in zip(m.ops, m.bns, m.acts):
                reg = self.chain([op, bn, act], reg)
            return reg
        if isinstance(m, SkyNetBackbone):
            reg = self.chain(
                [m.bundle1, m.pool1, m.bundle2, m.pool2, m.bundle3], reg
            )
            if m.has_bypass:
                bypass = self.emit(m.reorg, reg)
                reg = self.chain([m.pool3, m.bundle4, m.bundle5], reg)
                reg = self._push("concat", [reg, bypass])
                return self.emit(m.bundle6, reg)
            return self.chain([m.pool3, m.bundle4, m.bundle5], reg)
        if isinstance(m, MobileNetBackbone):
            reg = self.chain([m.stem, m.stem_bn, m.relu], reg)
            return self.chain(m.blocks, reg)
        if isinstance(m, _DWSeparable):
            return self.chain(
                [m.dw, m.bn1, m.relu, m.pw, m.bn2, m.relu], reg
            )
        if isinstance(m, Detector):
            reg = self.emit(m.backbone, reg)
            return self.emit(m.head, reg)
        if isinstance(m, YoloHead):
            return self.emit(m.proj, reg)
        if isinstance(m, AdjustLayer):
            return self.chain([m.conv, m.bn, m.relu], reg)

        raise CompileError(
            f"no compilation rule for {type(m).__module__}."
            f"{type(m).__qualname__}; supported layers: conv/dw/grouped "
            "conv, batch norm, activations, pooling, reorg, upsample, "
            "linear/flatten/dropout, Sequential, and the SkyNet / "
            "MobileNet / Detector / Siamese composites"
        )


# --------------------------------------------------------------------- #
# optimization passes
# --------------------------------------------------------------------- #
def _consumer_counts(nodes: list[_Node], out_reg: int) -> dict[int, int]:
    counts: dict[int, int] = {out_reg: 1}  # the final output is always live
    for node in nodes:
        for r in node.inputs:
            counts[r] = counts.get(r, 0) + 1
    return counts


def _remap(nodes: list[_Node], alias: dict[int, int], out_reg: int) -> int:
    """Rewrite register references through the alias map."""

    def resolve(r: int) -> int:
        while r in alias:
            r = alias[r]
        return r

    for node in nodes:
        node.inputs = [resolve(r) for r in node.inputs]
    return resolve(out_reg)


def _fold_batchnorm(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Fold ``conv/dw -> affine`` pairs into the conv weights."""
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    alias: dict[int, int] = {}
    kept: list[_Node] = []
    for node in nodes:
        if node.kind == "affine":
            prev = producer.get(node.inputs[0])
            if (
                prev is not None
                and prev.kind in ("conv", "dw")
                and prev.attrs["act"] is None
                and counts[prev.out] == 1
            ):
                scale = np.asarray(node.attrs["scale"], dtype=np.float32)
                shift = np.asarray(node.attrs["shift"], dtype=np.float32)
                w = np.asarray(prev.attrs["weight"], dtype=np.float32)
                prev.attrs["weight"] = w * scale[:, None, None, None]
                bias = prev.attrs["bias"]
                bias = 0.0 if bias is None else np.asarray(bias, np.float32)
                prev.attrs["bias"] = scale * bias + shift
                alias[node.out] = prev.out
                continue
        kept.append(node)
    out_reg = _remap(kept, alias, out_reg)
    return kept, out_reg


def _fuse_activations(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Absorb act steps into the producing conv/dw/affine/linear step."""
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    alias: dict[int, int] = {}
    kept: list[_Node] = []
    for node in nodes:
        if node.kind == "act":
            prev = producer.get(node.inputs[0])
            if (
                prev is not None
                and prev.kind in ("conv", "dw", "affine", "linear")
                and prev.attrs["act"] is None
                and counts[prev.out] == 1
            ):
                prev.attrs["act"] = node.attrs["act"]
                alias[node.out] = prev.out
                continue
        kept.append(node)
    out_reg = _remap(kept, alias, out_reg)
    return kept, out_reg


def _fuse_bundles(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Collapse ``dw -> pw(1x1)`` chains into single bundle nodes."""
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    kept: list[_Node] = []
    for node in nodes:
        if node.kind == "conv":
            w = node.attrs["weight"]
            is_pw = (
                w.shape[2] == 1 and w.shape[3] == 1
                and node.attrs["stride"] == 1 and node.attrs["pad"] == 0
            )
            prev = producer.get(node.inputs[0])
            if (
                is_pw
                and prev is not None
                and prev.kind == "dw"
                and counts[prev.out] == 1
            ):
                kept.remove(prev)
                kept.append(
                    _Node("bundle", list(prev.inputs), node.out,
                          {"dw": prev.attrs, "pw": node.attrs})
                )
                continue
        kept.append(node)
    return kept, out_reg


def _fuse_bundle_pools(nodes: list[_Node], out_reg: int) -> tuple[list[_Node], int]:
    """Fold ``bundle -> maxpool2x2/s2`` into the bundle's strip tail.

    Pooling runs on the bundle's post-activation values, so the fused
    result is bit-identical to the standalone pool step; fusing lets the
    strip-tiled bundle pool each row strip while it is still
    cache-resident instead of re-streaming the full pre-pool map from
    DRAM.  fp32 plans only — the quantized lowering does its own pool
    fusion into the requantize tail.
    """
    producer = {n.out: n for n in nodes}
    counts = _consumer_counts(nodes, out_reg)
    kept: list[_Node] = []
    for node in nodes:
        if (
            node.kind == "maxpool"
            and node.attrs["kernel"] == 2
            and node.attrs["stride"] == 2
        ):
            prev = producer.get(node.inputs[0])
            if (
                prev is not None
                and prev.kind == "bundle"
                and "pool" not in prev.attrs
                and counts[prev.out] == 1
            ):
                kept.remove(prev)
                kept.append(
                    _Node("bundle", list(prev.inputs), node.out,
                          {**prev.attrs, "pool": (2, 2)})
                )
                continue
        kept.append(node)
    return kept, out_reg


def _lower_node(node: _Node, key) -> K.Kernel:
    """Build the fp32 kernel for one optimized-plan node.

    Shared by the fp32 lowering below and by the quantized lowering
    (:mod:`repro.nn.engine.quant`), which routes ops without an
    integer-domain rule through the stock kernels.
    """
    a = node.attrs
    if node.kind == "conv":
        return K.ConvKernel(key, a["weight"], a["bias"], a["stride"],
                            a["pad"], a["act"])
    if node.kind == "dw":
        return K.DWConvKernel(key, a["weight"], a["bias"], a["stride"],
                              a["pad"], a["act"])
    if node.kind == "bundle":
        dw, pw = a["dw"], a["pw"]
        return K.FusedBundleKernel(
            key,
            K.DWConvKernel((key, "dw"), dw["weight"], dw["bias"],
                           dw["stride"], dw["pad"], dw["act"]),
            K.ConvKernel((key, "pw"), pw["weight"], pw["bias"],
                         pw["stride"], pw["pad"], pw["act"]),
            pool=a.get("pool"),
        )
    if node.kind == "affine":
        return K.AffineKernel(key, a["scale"], a["shift"], a["act"])
    if node.kind == "act":
        return K.ActKernel(key, a["act"])
    if node.kind == "maxpool":
        return K.MaxPoolKernel(key, a["kernel"], a["stride"])
    if node.kind == "avgpool":
        return K.AvgPoolKernel(key, a["kernel"], a["stride"])
    if node.kind == "gap":
        return K.GlobalAvgPoolKernel(key)
    if node.kind == "reorg":
        return K.ReorgKernel(key, a["stride"])
    if node.kind == "upsample":
        return K.UpsampleKernel(key, a["scale"])
    if node.kind == "concat":
        return K.ConcatKernel(key)
    if node.kind == "slice":
        return K.SliceChannelsKernel(key, a["start"], a["stop"])
    if node.kind == "linear":
        return K.LinearKernel(key, a["weight"], a["bias"], a["act"])
    if node.kind == "flatten":
        return K.FlattenKernel(key)
    # pragma: no cover - planner emits only the kinds above
    raise CompileError(f"cannot lower op kind {node.kind!r}")


def _lower(nodes: list[_Node]) -> list[tuple[K.Kernel, tuple[int, ...], int]]:
    """Turn the optimized plan into executable kernel steps."""
    return [(_lower_node(node, i), tuple(node.inputs), node.out)
            for i, node in enumerate(nodes)]


# --------------------------------------------------------------------- #
# the compiled engine
# --------------------------------------------------------------------- #
class _KeyRecorder:
    """Arena front that notes the buffer keys a bind requests."""

    def __init__(self, arena: BufferArena) -> None:
        self.arena = arena
        self.keys: list[tuple] = []

    def get(self, owner, tag, shape, dtype=np.float32, zero=False):
        self.keys.append((owner, tag, shape, np.dtype(dtype)))
        return self.arena.get(owner, tag, shape, dtype, zero)


def _view_spec(view: np.ndarray, base: np.ndarray) -> tuple:
    """``(shape, dtype, offset, strides)`` locating ``view`` in ``base``."""
    offset = (view.__array_interface__["data"][0]
              - base.__array_interface__["data"][0])
    return view.shape, view.dtype, offset, view.strides


class BoundPlan:
    """A compiled plan resolved once against one input shape and arena.

    Binding calls every step's :meth:`~repro.nn.engine.kernels.Kernel.bind`
    in plan order, so all shape-dependent work — arena lookups, window
    and transpose views, path choices, strip geometry — happens here,
    once.  What remains per forward is a flat sequence of pre-resolved
    numpy calls.

    The caller's input array differs from call to call and is never
    copied: :meth:`load` rebinds the calls that read it.  For a
    C-contiguous input (the normal case) that re-points each such call's
    input views at the new array — same offsets, shapes and strides —
    without touching the kernels.  Any other layout rebinds the steps
    that read the input (their arena buffers are pool hits).  Every
    other step replays its calls unchanged.  A plan is only valid while
    its arena still pools every buffer it references:
    :class:`BufferArena` drops its plans on eviction, and :meth:`load`
    reports an eviction it caused itself.
    """

    def __init__(self, steps, n_regs: int, x: np.ndarray,
                 arena: BufferArena) -> None:
        self.steps = steps
        recorder = _KeyRecorder(arena)
        regs: list[np.ndarray | None] = [None] * n_regs
        regs[0] = x
        live = {0}  # registers aliasing the per-call input
        self.step_ops: list[list] = []
        self.rebound: list[int] = []  # steps reading the input
        segments: list = []
        input_keys: list[tuple] = []  # buffers of the input-reading steps
        fixed_keys: list[tuple] = []  # buffers of every other step
        for i, (kern, ins, out) in enumerate(steps):
            buf, ops = kern.bind([regs[r] for r in ins], recorder)
            regs[out] = buf
            self.step_ops.append(ops)
            reads_input = not live.isdisjoint(ins)
            (input_keys if reads_input else fixed_keys).extend(recorder.keys)
            recorder.keys = []
            if reads_input:
                self.rebound.append(i)
                segments.append(i)
                if np.may_share_memory(buf, x):
                    live.add(out)
            elif segments and isinstance(segments[-1], list):
                segments[-1].extend(ops)
            else:
                segments.append(list(ops))
        #: Fixed runs of calls (tuples) and input-reading step indices.
        self.segments = [s if isinstance(s, int) else tuple(s)
                         for s in segments]
        self.input_keys = input_keys
        self.fixed_keys = fixed_keys
        self.live = tuple(live)
        self.regs = regs
        self._repoint = self._input_calls(x)

    def _input_calls(self, x: np.ndarray):
        """Recipe for re-pointing the plan at a new input laid out like
        ``x``: per input-reading step, its calls with the input views
        cut out (and where to put them back), plus the view of every
        live register.  ``None`` when ``x`` is not one contiguous buffer
        or a call reads the input some other way than as a positional
        array argument."""
        if not x.flags.c_contiguous:
            return None

        def reads(v) -> bool:
            if isinstance(v, (list, tuple)):
                return any(reads(e) for e in v)
            return isinstance(v, np.ndarray) and np.may_share_memory(v, x)

        steps = []
        for i in self.rebound:
            template = list(self.step_ops[i])
            calls = []
            for j, op in enumerate(template):
                if not isinstance(op, partial):
                    return None
                slots = [(pos, _view_spec(a, x))
                         for pos, a in enumerate(op.args)
                         if isinstance(a, np.ndarray)
                         and np.may_share_memory(a, x)]
                if not slots:
                    continue
                args = list(op.args)
                for pos, _ in slots:
                    args[pos] = None
                if (any(reads(a) for a in args)
                        or any(reads(v) for v in op.keywords.values())):
                    return None
                calls.append((j, op.func, args, op.keywords, slots))
                template[j] = None
            steps.append((i, template, calls))
        views = [(r, _view_spec(self.regs[r], x)) for r in self.live if r]
        return steps, views

    def load(self, x: np.ndarray, arena: BufferArena) -> bool:
        """Rebind the input-reading calls to ``x`` (the plan's own
        ``arena`` is passed in, not held: it holds the plan).  Returns
        ``False`` when that evicted a pooled buffer (a new input layout
        needed new scratch in a capped arena): the plan is stale, bind a
        new one."""
        evictions = arena.evictions
        regs = self.regs
        regs[0] = x
        if self._repoint is not None and x.flags.c_contiguous:
            steps, views = self._repoint
            for i, template, calls in steps:
                ops = template.copy()
                for j, func, args, keywords, slots in calls:
                    args = args.copy()
                    for pos, (shape, dtype, offset, strides) in slots:
                        args[pos] = np.ndarray(shape, dtype, x, offset,
                                               strides)
                    ops[j] = partial(func, *args, **keywords)
                self.step_ops[i] = ops
            for r, (shape, dtype, offset, strides) in views:
                regs[r] = np.ndarray(shape, dtype, x, offset, strides)
            arena.reuse(self.input_keys)
        else:
            for i in self.rebound:
                kern, ins, out = self.steps[i]
                regs[out], self.step_ops[i] = kern.bind(
                    [regs[r] for r in ins], arena)
        arena.reuse(self.fixed_keys)
        return arena.evictions == evictions

    def run_step(self, i: int) -> np.ndarray:
        """Execute step ``i`` of the loaded input; returns its output."""
        for op in self.step_ops[i]:
            op()
        return self.regs[self.steps[i][2]]

    def run(self) -> None:
        """Execute the whole plan on the loaded input."""
        step_ops = self.step_ops
        for seg in self.segments:
            for op in (step_ops[seg] if seg.__class__ is int else seg):
                op()

    def release(self) -> None:
        """Drop every reference to the loaded input."""
        for r in self.live:
            self.regs[r] = None
        for i in self.rebound:
            self.step_ops[i] = []


class CompiledNet:
    """A flat, fused, allocation-free inference plan.

    Call it with an ``(N, C, H, W)`` ndarray to get the network output as
    an ndarray.  The first call at an input shape binds the plan into a
    :class:`BoundPlan` stored in the net's :class:`BufferArena`; every
    later call at that shape replays it, with no heap allocation beyond
    the output copy.
    """

    def __init__(
        self,
        steps: list[tuple[K.Kernel, tuple[int, ...], int]],
        n_regs: int,
        out_reg: int,
        name: str = "net",
        arena: BufferArena | None = None,
        quant=None,
        quant_stats: dict | None = None,
    ) -> None:
        self.steps = steps
        self.n_regs = n_regs
        self.out_reg = out_reg
        self.name = name
        self.arena = arena if arena is not None else BufferArena()
        self.quant = quant  # QuantConfig when integer-domain, else None
        self.quant_stats = quant_stats
        self._plan_token = object()  # this net's namespace in the arena

    @staticmethod
    def _as_input(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = x.astype(np.float32)
        return x

    def bind(self, x: np.ndarray) -> BoundPlan:
        """The bound plan for ``x``'s shape and dtype on this net's arena
        (binding it on first use), loaded with ``x``."""
        key = (self._plan_token, x.shape, x.dtype)
        arena = self.arena
        plan = arena.plan(key)
        if plan is not None and plan.load(x, arena):
            return plan
        evictions = arena.evictions
        plan = BoundPlan(self.steps, self.n_regs, x, arena)
        arena.keep_plan(key, plan, evictions)
        return plan

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = self._as_input(x)
        plan = self.bind(x)
        if obs.enabled():
            with obs.span("engine/forward", engine=self.name,
                          batch=x.shape[0]):
                for i, (kern, _, _) in enumerate(self.steps):
                    with obs.span("engine/kernel", kernel=kern.label):
                        plan.run_step(i)
        else:
            plan.run()
        # Copy out of the arena so the caller can hold the result across
        # frames without the next call overwriting it.
        out = np.array(plan.regs[self.out_reg], copy=True)
        plan.release()
        return out

    def warmup(self, shape: tuple[int, ...], dtype=np.float32) -> int:
        """Dry-run a zeros batch so the first real request allocates nothing.

        One pass at the steady-state ``(N, C, H, W)`` shape binds the
        plan for that geometry, faults in and pools every arena buffer it
        will ever need (and publishes ``engine/arena/pooled_bytes``).
        Returns the arena's pooled byte count.
        """
        self(np.zeros(shape, dtype))
        if obs.enabled():
            obs.set_gauge("engine/arena/pooled_bytes", self.arena.nbytes())
        return self.arena.nbytes()

    def profile(self, x: np.ndarray, reps: int = 10, warmup: int = 2):
        """Per-step timing of this plan (see
        :func:`repro.obs.profile.profile_net`): wall time, dtype, FLOP
        estimate, and achieved GFLOP/s for every kernel — the
        decomposition behind ``repro profile --engine``."""
        from ...obs.profile import profile_net

        return profile_net(self, x, reps=reps, warmup=warmup)

    # ------------------------------------------------------------------ #
    def clone_for_thread(self) -> "CompiledNet":
        """A clone sharing this plan's kernels but owning a fresh arena.

        The kernels and their weights are immutable at run time, so they
        are safe to share; the :class:`BufferArena` (with the bound plans
        it owns) is not — two threads
        running the same plan concurrently would overwrite each other's
        scratch buffers mid-forward.  Give each worker thread its own
        clone and the plan becomes freely parallelizable (this is what
        :class:`repro.serve.InferenceServer` does per worker).
        """
        return CompiledNet(
            self.steps, self.n_regs, self.out_reg, self.name,
            arena=BufferArena(), quant=self.quant,
            quant_stats=self.quant_stats,
        )

    def __len__(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        """Human-readable plan: one row per kernel."""
        from ...utils.tables import format_table

        rows = [[i, kern.label, str(ins), out]
                for i, (kern, ins, out) in enumerate(self.steps)]
        quant = "" if self.quant is None else f" [quant {self.quant.label}]"
        return format_table(
            ["step", "kernel", "reads", "writes"], rows,
            title=f"CompiledNet({self.name}){quant}: {len(self.steps)} "
                  f"kernels, arena {self.arena.nbytes() / 1e6:.2f} MB",
        )


def compile_net(
    module: Module,
    name: str | None = None,
    arena: BufferArena | None = None,
    quant=None,
    calibration: np.ndarray | None = None,
) -> CompiledNet:
    """Compile a trained module's eval-mode forward into a
    :class:`CompiledNet`.

    Pass ``quant`` (a :class:`~repro.nn.engine.quant.QuantConfig`) plus
    ``calibration`` samples (an ``(N, C, H, W)`` batch representative of
    inference inputs) to lower the plan into the integer domain: weights
    are stored as int8/int16, feature maps flow between kernels as
    int8/int16, and per-tensor power-of-two scales are frozen from the
    calibration batch.

    Raises :class:`CompileError` for module types without a rule, and
    when ``quant`` is given without ``calibration``.
    """
    if name is None:
        name = type(module).__name__
    with obs.span("engine/compile", model=name,
                  quant=None if quant is None else quant.label):
        planner = _Planner()
        out_reg = planner.emit(module, 0)
        nodes = planner.nodes
        nodes, out_reg = _fold_batchnorm(nodes, out_reg)
        nodes, out_reg = _fuse_activations(nodes, out_reg)
        nodes, out_reg = _fuse_bundles(nodes, out_reg)
        if quant is None:
            nodes, out_reg = _fuse_bundle_pools(nodes, out_reg)
        if quant is not None:
            from .quant import lower_quantized

            if calibration is None:
                raise CompileError(
                    "quantized compilation needs calibration samples: "
                    "compile_net(net, quant=..., calibration=batch)"
                )
            t0 = time.perf_counter()
            steps, n_regs, out_reg, stats = lower_quantized(
                nodes, planner.n_regs, out_reg, quant, calibration, name
            )
            net = CompiledNet(steps, n_regs, out_reg, name, arena,
                              quant=quant, quant_stats=stats)
            obs.set_gauge(f"engine/{name}/quant/compile_ms",
                          (time.perf_counter() - t0) * 1e3)
            for dtype in ("int8", "int16", "float32", "float64"):
                count = sum(1 for k in stats["kernels"]
                            if k["storage"] == dtype or k["carrier"] == dtype)
                if count:
                    obs.set_gauge(f"engine/{name}/quant/kernels_{dtype}",
                                  count)
        else:
            steps = _lower(nodes)
            net = CompiledNet(steps, planner.n_regs, out_reg, name, arena)
        obs.set_gauge(f"engine/{name}/kernels", len(steps))
    return net

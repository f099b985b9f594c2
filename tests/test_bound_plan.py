"""Bound-plan execution of the compiled engine.

A :class:`~repro.nn.engine.CompiledNet` binds its plan once per input
shape on its arena and replays the bound calls afterwards.  These
properties pin replay to the reference semantics over generated nets,
shapes, batches and shape switches (A -> B -> A): fp32 replay equals the
eager forward, integer replay is bit-exact against the fake-quant
reference, and clones, arena eviction and telemetry all stay correct.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.nn import Sequential
from repro.nn.engine import BufferArena, QuantConfig, compile_net
from repro.nn.engine import compiler
from repro.nn.engine.kernels import FusedBundleKernel
from repro.nn.engine.quant import QuantConvKernel, QuantDWConvKernel
from repro.nn.layers import (BatchNorm2d, Conv2d, Flatten, GroupedConv2d,
                              Linear, ReLU6)

from .test_engine import _eager, _randomize_bn_stats


def _skynet(config: str, seed: int, detector: bool = False):
    rng = np.random.default_rng(seed)
    model = SkyNetBackbone(config, width_mult=0.125, rng=rng)
    if detector:
        model = Detector(model)
    _randomize_bn_stats(model, rng)
    model.eval()
    return model


def _small_paths(mp: pytest.MonkeyPatch) -> None:
    """Make the strip and tap paths fire at test-sized maps, with a
    remainder strip, so replay covers every kernel path."""
    mp.setattr(FusedBundleKernel, "STRIP_MIN_BYTES", 1)
    mp.setattr(FusedBundleKernel, "STRIP_TARGET_BYTES", 40_000)
    mp.setattr(QuantConvKernel, "_STRIP_MIN_BYTES", 1)
    mp.setattr(QuantConvKernel, "_STRIP_ROWS", 6)
    mp.setattr(QuantDWConvKernel, "_TAP_MIN_PIXELS", 1)
    mp.setattr(QuantDWConvKernel, "_TAP_BLOCK_BYTES", 4096)


# Spatial sizes are multiples of 8: three 2x2 pools and the B/C bypass
# reorg need them.
_hw = st.tuples(st.integers(1, 4), st.integers(1, 6)).map(
    lambda t: (8 * t[0], 8 * t[1]))
_shape = st.tuples(st.integers(1, 3), _hw).map(
    lambda t: (t[0], 3, *t[1]))


def _inputs(seed: int, *shapes, fortran: bool = False) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
    return [np.asfortranarray(x) for x in xs] if fortran else xs


class TestReplayProperties:
    @settings(max_examples=12, deadline=None)
    @given(config=st.sampled_from("ABC"), detector=st.booleans(),
           a=_shape, b=_shape, small=st.booleans(), fortran=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_fp32_replay_matches_eager(self, config, detector, a, b, small,
                                       fortran, seed):
        model = _skynet(config, seed, detector)
        xa1, xb, xa2 = _inputs(seed, a, b, a, fortran=fortran)
        with pytest.MonkeyPatch.context() as mp:
            if small:
                _small_paths(mp)
            net = compile_net(model)
            first = net(xa1)  # binds A
            outs = [first, net(xb), net(xa2), net(xa1)]  # B, then A again
        for x, got in zip((xa1, xb, xa2, xa1), outs):
            np.testing.assert_allclose(got, _eager(model, x), atol=1e-5)
        np.testing.assert_array_equal(outs[3], first)  # replay == bind

    @settings(max_examples=8, deadline=None)
    @given(config=st.sampled_from("ABC"), a=_shape, b=_shape,
           small=st.booleans(), seed=st.integers(0, 2**16))
    def test_quant_replay_bit_exact(self, config, a, b, small, seed):
        model = _skynet(config, seed, detector=True)
        xa, xb = _inputs(seed, a, b)
        with pytest.MonkeyPatch.context() as mp:
            if small:
                _small_paths(mp)
            net = compile_net(model, quant=QuantConfig(8, 8), calibration=xa)
            ref = net.quant_stats["reference_output"]
            outs = [net(xa), net(xa)]
            b1, b2 = net(xb), net(xb)
            outs.append(net(xa))
        for got in outs:
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("build", [
        # first step reshapes the input for a 1x1 GEMM
        lambda rng: Sequential(Conv2d(4, 8, kernel=1, pad=0, rng=rng),
                               BatchNorm2d(8), ReLU6()),
        # the input reaches two convs through channel-slice views
        lambda rng: Sequential(GroupedConv2d(4, 8, groups=2, rng=rng)),
        # the input reaches a GEMM through a flatten view
        lambda rng: Sequential(Flatten(), Linear(4 * 8 * 8, 5, rng=rng)),
    ])
    def test_input_is_rebound_not_captured(self, build):
        """Calls that read the input see each call's array, whatever
        its layout: contiguous inputs are re-pointed, others rebound."""
        rng = np.random.default_rng(3)
        model = build(rng)
        _randomize_bn_stats(model, rng)
        model.eval()
        net = compile_net(model)
        x = rng.normal(0, 1, (2, 4, 8, 8)).astype(np.float32)
        layouts = (x, np.asfortranarray(x + 1), x[:, :, :, ::-1], x * 2,
                   np.concatenate([x, x - 1])[2:])
        for arr in layouts + layouts:
            np.testing.assert_allclose(net(arr), _eager(model, arr),
                                       atol=1e-5)


class TestClonesAndArena:
    def test_concurrent_clones_across_shape_switches(self):
        model = _skynet("C", 1, detector=True)
        net = compile_net(model)
        shapes = [(1, 3, 16, 32), (2, 3, 24, 16)]
        inputs = [x for i in range(6)
                  for x in _inputs(i, shapes[i % 2])]
        serial = [net(x) for x in inputs]
        outputs: list = [None] * len(inputs)

        def worker(start: int) -> None:
            clone = net.clone_for_thread()
            for _ in range(3):
                for i in range(start, len(inputs), 2):
                    outputs[i] = clone(inputs[i])

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(outputs, serial):
            np.testing.assert_array_equal(got, want)

    def test_clone_starts_without_plans(self, monkeypatch):
        binds = _count_binds(monkeypatch)
        net = compile_net(_skynet("A", 2))
        x = _inputs(0, (1, 3, 16, 16))[0]
        net(x)
        net(x)
        assert binds() == 1  # bound once, replayed after
        clone = net.clone_for_thread()
        np.testing.assert_array_equal(clone(x), net(x))
        assert binds() == 2  # the clone's fresh arena binds its own

    def test_eviction_rebinds_instead_of_replaying(self, monkeypatch):
        model = _skynet("C", 4, detector=True)
        a, b = _inputs(5, (1, 3, 16, 32), (2, 3, 24, 24))
        want_a, want_b = _eager(model, a), _eager(model, b)
        sizing = compile_net(model)
        sizing(a)
        per_shape = len(sizing.arena)

        binds = _count_binds(monkeypatch)
        # Room for exactly one geometry: B's bind evicts A's buffers.
        net = compile_net(model, arena=BufferArena(max_buffers=per_shape))
        np.testing.assert_allclose(net(a), want_a, atol=1e-5)
        np.testing.assert_allclose(net(a), want_a, atol=1e-5)
        assert binds() == 1 and net.arena.evictions == 0
        np.testing.assert_allclose(net(b), want_b, atol=1e-5)
        assert net.arena.evictions > 0
        np.testing.assert_allclose(net(a), want_a, atol=1e-5)
        assert binds() == 3  # A was rebound, not replayed
        assert len(net.arena) <= per_shape

    def test_tiny_arena_binds_every_call(self, monkeypatch):
        model = _skynet("B", 6)
        (x,) = _inputs(7, (1, 3, 16, 16))
        binds = _count_binds(monkeypatch)
        net = compile_net(model, arena=BufferArena(max_buffers=2))
        for _ in range(3):
            np.testing.assert_allclose(net(x), _eager(model, x), atol=1e-5)
        assert binds() == 3  # a plan bound amid evictions is never kept
        assert len(net.arena) <= 2

    def test_dropped_net_frees_its_arena_without_gc(self):
        """Plans live in the arena but never point back at it: a closed
        session's buffers go as soon as its net does, not at the next
        cyclic collection (a cycle measurably slowed repeated set-ups)."""
        import gc
        import weakref

        net = compile_net(_skynet("A", 12))
        net(_inputs(13, (1, 3, 16, 16))[0])
        arena = weakref.ref(net.arena)
        gc.disable()
        try:
            del net
            assert arena() is None
        finally:
            gc.enable()

    def test_profile_replays_the_bound_plan(self):
        net = compile_net(_skynet("A", 8))
        (x,) = _inputs(9, (1, 3, 16, 32))
        net(x)
        misses = net.arena.misses
        profile = net.profile(x, reps=2, warmup=1)
        assert len(profile.steps) == len(net)
        assert net.arena.misses == misses  # nothing new bound or pooled


def _count_binds(monkeypatch):
    """Count :class:`BoundPlan` constructions from now on."""
    count = [0]

    class Counting(compiler.BoundPlan):
        def __init__(self, *args, **kwargs):
            count[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(compiler, "BoundPlan", Counting)
    return lambda: count[0]


class TestTelemetry:
    def test_one_kernel_span_per_step(self):
        net = compile_net(_skynet("C", 10, detector=True))
        (x,) = _inputs(11, (2, 3, 16, 32))
        want = net(x)  # bound and replayed with telemetry off
        with obs.recording() as rec:
            got = [net(x), net(x)]
            spans = rec.tracer.spans
        np.testing.assert_array_equal(got[0], want)
        np.testing.assert_array_equal(got[1], want)
        forwards = [s for s in spans if s.name == "engine/forward"]
        assert len(forwards) == 2
        for fwd in forwards:
            kernels = [s for s in spans if s.name == "engine/kernel"
                       and s.parent_id == fwd.span_id]
            assert [s.attrs["kernel"] for s in kernels] == [
                kern.label for kern, _, _ in net.steps]

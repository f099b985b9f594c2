"""Tests for the compiled inference engine (repro.nn.engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.nn import Sequential, Tensor, no_grad
from repro.nn.engine import (
    BufferArena,
    CompileError,
    ThreadedPipeline,
    compile_net,
)
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU6
from repro.runtime import SessionConfig


def _randomize_bn_stats(model, rng) -> None:
    """Give every BN layer non-trivial running statistics and affine
    parameters, so folding mistakes cannot hide behind identity stats."""
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean[:] = rng.normal(0.0, 0.5, m.running_mean.shape)
            m.running_var[:] = rng.uniform(0.5, 2.0, m.running_var.shape)
            m.gamma.data[:] = rng.uniform(0.5, 1.5, m.gamma.shape)
            m.beta.data[:] = rng.normal(0.0, 0.2, m.beta.shape)


def _eager(model, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(x)).data


class TestEquivalence:
    @pytest.mark.parametrize("config", ["A", "B", "C"])
    def test_skynet_matches_eager(self, config, rng):
        bb = SkyNetBackbone(config, width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        x = rng.normal(0, 1, (2, 3, 16, 32)).astype(np.float32)
        net = compile_net(bb)
        np.testing.assert_allclose(net(x), _eager(bb, x), atol=1e-5)

    def test_zoo_backbone_matches_eager(self, rng):
        from repro.zoo import build_backbone

        mb = build_backbone("mobilenet", width_mult=0.25, rng=rng)
        _randomize_bn_stats(mb, rng)
        mb.eval()
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        net = compile_net(mb)
        np.testing.assert_allclose(net(x), _eager(mb, x), atol=1e-5)

    def test_detector_matches_eager(self, rng):
        det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
        _randomize_bn_stats(det, rng)
        det.eval()
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        np.testing.assert_allclose(
            compile_net(det)(x), _eager(det, x), atol=1e-5
        )

    def test_bn_folding_single_conv(self, rng):
        """Conv -> BN -> ReLU6 folds into ONE kernel and stays exact."""
        net = Sequential(Conv2d(3, 8, rng=rng), BatchNorm2d(8), ReLU6())
        _randomize_bn_stats(net, rng)
        net.eval()
        x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
        compiled = compile_net(net)
        assert len(compiled) == 1  # BN folded, activation fused
        np.testing.assert_allclose(compiled(x), _eager(net, x), atol=1e-5)

    def test_repeat_calls_are_deterministic(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        first = net(x)
        np.testing.assert_array_equal(net(x), first)

    def test_output_survives_next_call(self, rng):
        """The returned array is a copy, not an arena view."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x1 = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        x2 = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        out1 = net(x1)
        saved = out1.copy()
        net(x2)
        np.testing.assert_array_equal(out1, saved)


class TestPlan:
    def test_bundles_fused(self, rng):
        """SkyNet-A = 5 bundles with every maxpool folded into the
        producing bundle's tail -> exactly 5 kernels."""
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        assert len(net) == 5
        assert sum("+maxpool" in k.label for k, _, _ in net.steps) == 3

    def test_unsupported_module_raises(self):
        from repro.nn.module import Module

        class Exotic(Module):
            def forward(self, x):  # pragma: no cover
                return x

        with pytest.raises(CompileError):
            compile_net(Exotic())

    def test_summary_lists_kernels(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        text = net.summary()
        assert "bundle" in text and "maxpool" in text


class TestArena:
    def test_buffers_reused_across_frames(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        net(x)
        allocated = len(net.arena)
        misses = net.arena.misses
        net(x)
        assert len(net.arena) == allocated  # no new buffers
        assert net.arena.misses == misses
        assert net.arena.hits > 0

    def test_distinct_shapes_get_distinct_buffers(self):
        arena = BufferArena()
        a = arena.get("k", "out", (2, 3), np.float32)
        b = arena.get("k", "out", (4, 3), np.float32)
        assert a is not b
        assert arena.get("k", "out", (2, 3), np.float32) is a

    def test_zero_buffers_zeroed_once(self):
        arena = BufferArena()
        a = arena.get("k", "pad", (4,), np.float32, zero=True)
        assert not a.any()
        a[:] = 7.0
        # second request returns the same (dirty) buffer: callers own
        # the interior, the kernel re-writes what it uses.
        assert arena.get("k", "pad", (4,), np.float32, zero=True) is a

    def test_nbytes_and_clear(self):
        arena = BufferArena()
        arena.get("k", "out", (8,), np.float32)
        assert arena.nbytes() == 32
        arena.clear()
        assert len(arena) == 0

    def test_max_buffers_evicts_least_recently_used(self):
        """Regression: the cap must evict by recency, not insertion —
        a hot buffer that was allocated first must survive."""
        arena = BufferArena(max_buffers=2)
        a = arena.get("k", "out", (2,), np.float32)
        arena.get("k", "out", (3,), np.float32)
        assert arena.get("k", "out", (2,), np.float32) is a  # refresh a
        arena.get("k", "out", (4,), np.float32)  # evicts the (3,) buffer
        assert len(arena) == 2
        assert arena.evictions == 1
        assert arena.get("k", "out", (2,), np.float32) is a  # still pooled
        hits = arena.hits
        arena.get("k", "out", (3,), np.float32)  # cold again -> miss
        assert arena.hits == hits
        assert arena.evictions == 2

    def test_max_buffers_none_is_unbounded(self):
        arena = BufferArena()
        for i in range(64):
            arena.get("k", "out", (i + 1,), np.float32)
        assert len(arena) == 64
        assert arena.evictions == 0

    def test_max_buffers_validated(self):
        with pytest.raises(ValueError):
            BufferArena(max_buffers=0)

    def test_pooled_bytes_gauge(self):
        from repro import obs

        rec = obs.enable()
        try:
            arena = BufferArena(max_buffers=1)
            arena.get("k", "out", (8,), np.float32)
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes")
            assert gauge.value == 32
            arena.get("k", "out", (16,), np.float32)  # evicts the first
            assert gauge.value == 64
            arena.clear()
            assert gauge.value == 0
        finally:
            obs.disable()

    def test_prewarm_spares_adopted_by_get(self):
        arena = BufferArena()
        assert arena.prewarm([(4, 8)]) == 4 * 8 * 4
        assert arena.nbytes() == 128  # spare counted before first get
        buf = arena.get("k", "out", (4, 8), np.float32)
        assert arena.nbytes() == 128  # adopted, not re-allocated
        assert len(arena) == 1
        assert arena.get("k", "out", (4, 8), np.float32) is buf  # hit

    def test_prewarm_zero_request_rezeroes_dirty_spare(self):
        arena = BufferArena()
        arena.prewarm([((3,), np.float32)])
        # dirty the spare through a non-zero adoption, then return it
        # via clear and prewarm again with known garbage
        spare = arena._spares[((3,), np.dtype(np.float32))][0]
        spare[:] = 5.0
        buf = arena.get("k", "pad", (3,), np.float32, zero=True)
        assert buf is spare
        assert not buf.any()

    def test_compiled_net_warmup_allocates_steady_state(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        nbytes = net.warmup((2, 3, 16, 32))
        assert nbytes > 0
        assert nbytes == net.arena.nbytes()
        misses = net.arena.misses
        x = rng.normal(0, 1, (2, 3, 16, 32)).astype(np.float32)
        net(x)
        assert net.arena.misses == misses  # steady state: all hits

    def test_warmup_publishes_pooled_bytes_gauge(self, rng):
        from repro import obs

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        rec = obs.enable()
        try:
            net.warmup((1, 3, 16, 32))
            gauge = rec.metrics.gauge("engine/arena/pooled_bytes")
            assert gauge.value == net.arena.nbytes() > 0
        finally:
            obs.disable()

    def test_clone_for_thread_shares_plan_not_arena(self, rng):
        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        net = compile_net(bb)
        clone = net.clone_for_thread()
        assert clone.steps is net.steps  # kernels/plan shared
        assert clone.arena is not net.arena  # buffers are not
        x = rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
        np.testing.assert_array_equal(clone(x), net(x))

    def test_clones_are_thread_safe(self, rng):
        """Two threads on per-thread clones reproduce the serial
        results exactly; a shared arena would corrupt them."""
        import threading

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        net = compile_net(bb)
        inputs = [rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
                  for _ in range(16)]
        serial = [net(x) for x in inputs]

        outputs = [None] * len(inputs)

        def worker(start: int) -> None:
            clone = net.clone_for_thread()
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


class TestEnginePools:
    """Pool kernels use tap-accumulation; pin them to the eager ops."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (2, 1)])
    def test_maxpool_matches_functional(self, kernel, stride, rng):
        from repro.nn import functional as F
        from repro.nn.engine.kernels import MaxPoolKernel

        x = rng.normal(0, 1, (2, 4, 9, 11)).astype(np.float32)
        ref = F.max_pool2d(Tensor(x), kernel, stride).data
        out = MaxPoolKernel("k", kernel, stride).run([x], BufferArena())
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_avgpool_matches_functional(self, kernel, stride, rng):
        from repro.nn import functional as F
        from repro.nn.engine.kernels import AvgPoolKernel

        x = rng.normal(0, 1, (2, 4, 9, 11)).astype(np.float32)
        ref = F.avg_pool2d(Tensor(x), kernel, stride).data
        out = AvgPoolKernel("k", kernel, stride).run([x], BufferArena())
        np.testing.assert_allclose(out, ref, atol=1e-6)


class TestBatchedExecution:
    """PR 7: batched im2col GEMM, strip-fused bundles, intra-op tiling.

    Every fast path must reproduce the per-sample engine outputs at
    1e-6 — batching is a performance transform, never a numerics one.
    """

    def _net_and_ref(self, rng, hw=(16, 32), config="B"):
        bb = SkyNetBackbone(config, width_mult=0.25, rng=rng)
        _randomize_bn_stats(bb, rng)
        bb.eval()
        net = compile_net(bb)
        x = rng.normal(0, 1, (8, 3) + hw).astype(np.float32)
        singles = np.concatenate([net(x[i:i + 1]) for i in range(len(x))])
        return net, x, singles

    def test_batched_rows_match_single_runs(self, rng):
        net, x, singles = self._net_and_ref(rng)
        np.testing.assert_allclose(net(x), singles, atol=1e-6)

    def test_strip_fused_bundles_match(self, rng, monkeypatch):
        from repro.nn.engine.kernels import FusedBundleKernel

        # Tiny thresholds force the halo-strip path at test-size inputs.
        monkeypatch.setattr(FusedBundleKernel, "STRIP_TARGET_BYTES", 1 << 12)
        monkeypatch.setattr(FusedBundleKernel, "STRIP_MIN_BYTES", 1)
        net, x, singles = self._net_and_ref(rng)
        np.testing.assert_allclose(net(x), singles, atol=1e-6)

    def test_strip_path_odd_height_falls_back(self, rng, monkeypatch):
        from repro.nn.engine.kernels import FusedBundleKernel

        monkeypatch.setattr(FusedBundleKernel, "STRIP_TARGET_BYTES", 1 << 12)
        monkeypatch.setattr(FusedBundleKernel, "STRIP_MIN_BYTES", 1)
        # Odd spatial size: pooled bundles must fall back (pool halo
        # would straddle strips), unpooled ones may still strip.
        net, x, singles = self._net_and_ref(rng, hw=(18, 34))
        np.testing.assert_allclose(net(x), singles, atol=1e-6)

    def test_intra_op_tiling_matches_serial(self, rng, monkeypatch):
        from repro.nn.engine import threads

        monkeypatch.setattr(threads, "_MIN_MACS_PER_THREAD", 1)
        net, x, singles = self._net_and_ref(rng)
        prev = threads.get_intra_op_threads()
        threads.set_intra_op_threads(3)
        try:
            np.testing.assert_allclose(net(x), singles, atol=1e-6)
        finally:
            threads.set_intra_op_threads(prev)

    def test_intra_op_matmul_2d_and_stacked(self, rng, monkeypatch):
        from repro.nn.engine import threads

        monkeypatch.setattr(threads, "_MIN_MACS_PER_THREAD", 1)
        prev = threads.get_intra_op_threads()
        threads.set_intra_op_threads(4)
        try:
            a = rng.normal(0, 1, (13, 21)).astype(np.float32)
            b = rng.normal(0, 1, (21, 37)).astype(np.float32)
            out = np.empty((13, 37), np.float32)
            threads.intra_op_matmul(a, b, out)
            np.testing.assert_allclose(out, a @ b, atol=1e-6)
            sa = rng.normal(0, 1, (5, 4, 9)).astype(np.float32)
            sb = rng.normal(0, 1, (5, 9, 7)).astype(np.float32)
            sout = np.empty((5, 4, 7), np.float32)
            threads.intra_op_matmul(sa, sb, sout)
            np.testing.assert_allclose(sout, sa @ sb, atol=1e-6)
        finally:
            threads.set_intra_op_threads(prev)


class TestThreadedPipeline:
    def test_preserves_order_and_results(self):
        pipe = ThreadedPipeline([
            ("double", lambda v: v * 2),
            ("inc", lambda v: v + 1),
        ])
        assert pipe.run(range(50)) == [v * 2 + 1 for v in range(50)]
        assert set(pipe.stage_ms) == {"double", "inc"}
        assert pipe.fps > 0

    def test_propagates_stage_errors(self):
        def boom(v):
            raise RuntimeError("stage failed")

        pipe = ThreadedPipeline([("boom", boom)])
        with pytest.raises(RuntimeError, match="stage failed"):
            pipe.run([1, 2, 3])

    def test_to_simulator_roundtrip(self):
        pipe = ThreadedPipeline([("a", lambda v: v), ("b", lambda v: v)])
        with pytest.raises(RuntimeError):
            pipe.to_simulator()  # before run()
        pipe.run(range(8))
        sim = pipe.to_simulator()
        assert [s.name for s in sim.stages] == ["a", "b"]
        assert sim.run_pipelined(8).fps > 0

    def test_from_measurements_orders_stages(self):
        from repro.hardware.pipeline import PipelineSimulator

        sim = PipelineSimulator.from_measurements(
            {"fetch": 1.0, "dnn": 4.0, "post": 0.5}, batch=2
        )
        assert [s.name for s in sim.stages] == ["fetch", "dnn", "post"]
        assert sim.batch == 2
        assert sim.run_pipelined(16).bottleneck == "dnn"


class TestIntegration:
    def test_detector_predict_engines_agree(self, rng):
        det = Detector(SkyNetBackbone("A", width_mult=0.25, rng=rng))
        _randomize_bn_stats(det, rng)
        det.eval()
        images = rng.normal(0, 1, (3, 3, 16, 32)).astype(np.float32)
        np.testing.assert_allclose(
            det.predict(images, config=SessionConfig(backend="engine",
                                                     fallback=False)),
            det.predict(images, config=SessionConfig(backend="eager")),
            atol=1e-4,
        )

    def test_siamfc_tracker_engines_agree(self, rng):
        from repro.tracking.siamfc import SiamFC, SiamFCTracker

        frame = rng.uniform(0, 1, (3, 64, 64)).astype(np.float32)
        box = np.array([0.5, 0.5, 0.3, 0.3])
        boxes = {}
        for backend in ("eager", "engine"):
            model = SiamFC(
                SkyNetBackbone("A", width_mult=0.25,
                               rng=np.random.default_rng(3)),
                rng=np.random.default_rng(4),
            )
            model.eval()
            tracker = SiamFCTracker(model, config=SessionConfig(
                backend=backend, fallback=backend == "eager"))
            tracker.init(frame, box)
            boxes[backend] = tracker.track(frame)
        np.testing.assert_allclose(
            boxes["engine"], boxes["eager"], atol=1e-4
        )

    def test_compile_extractor_matches_extract(self, rng):
        from repro.tracking.siamese import compile_extractor
        from repro.tracking.siamfc import SiamFC

        model = SiamFC(SkyNetBackbone("A", width_mult=0.25, rng=rng),
                       rng=rng)
        _randomize_bn_stats(model, rng)
        model.eval()
        net = compile_extractor(model)
        x = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model.extract(Tensor(x)).data
        np.testing.assert_allclose(net(x), ref, atol=1e-5)

    def test_engine_spans_recorded(self, rng, tmp_path):
        from repro import obs

        bb = SkyNetBackbone("A", width_mult=0.25, rng=rng)
        bb.eval()
        path = tmp_path / "trace.jsonl"
        with obs.recording(str(path)):
            net = compile_net(bb)
            net(rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32))
        records = obs.load_trace(str(path))
        names = {r["name"] for r in records if r.get("type") == "span"}
        assert "engine/compile" in names
        assert "engine/forward" in names
        assert "engine/kernel" in names

"""Acceptance tests for the fault-injection + recovery layer.

Every recovery path in ``repro.resilience`` is proven against the fault
that it answers: an injected worker crash loses zero accepted requests,
a corrupted checkpoint is detected by checksum and resume falls back to
the previous good one, an injected NaN batch triggers the anomaly-guard
rollback — each asserted alongside the ``repro.obs`` counters that show
the path actually fired.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import DetectionTrainer, Detector, TrainConfig
from repro.nn import load_model, save_model
from repro.nn.engine import BufferArena
from repro.nn.optim import SGD, Adam, ExponentialDecay
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AnomalyGuard,
    CheckpointError,
    CheckpointManager,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    faults,
)
from repro.runtime import ServeConfig, Session
from repro.serve import InferenceServer
from repro.utils.atomic import atomic_write_bytes, crc32_bytes, crc32_file

from .conftest import exported_counters


def _tiny_detector(rng) -> Detector:
    det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
    det.eval()
    return det


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


# --------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_no_plan_is_noop(self):
        assert faults.active_plan() is None
        assert faults.trigger("serve.runner") is None

    def test_times_and_after(self):
        plan = FaultPlan([FaultSpec("s", "crash", times=2, after=1)])
        fired = [plan.trigger("s") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert plan.fired("s") == 2
        assert plan.hits("s") == 5

    def test_unlimited_times(self):
        plan = FaultPlan([FaultSpec("s", "nan", times=None)])
        assert all(plan.trigger("s") is not None for _ in range(10))

    def test_rate_is_seeded_and_deterministic(self):
        def run(seed):
            plan = FaultPlan(
                [FaultSpec("s", "crash", rate=0.3, times=None)], seed=seed
            )
            return [plan.trigger("s") is not None for _ in range(50)]

        a, b = run(7), run(7)
        assert a == b
        assert 0 < sum(a) < 50  # actually probabilistic
        assert run(8) != a  # seed matters

    def test_sites_are_independent(self):
        plan = FaultPlan([
            FaultSpec("a", "crash"), FaultSpec("b", "stall", delay_s=0.0),
        ])
        assert plan.trigger("c") is None
        assert plan.trigger("a").kind == "crash"
        assert plan.trigger("b").kind == "stall"
        assert plan.fired() == 2

    def test_inject_nests_and_restores(self):
        outer, inner = FaultPlan([]), FaultPlan([])
        with faults.inject(outer):
            assert faults.active_plan() is outer
            with faults.inject(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_injection_counters(self):
        plan = FaultPlan([FaultSpec("train.batch", "nan")])
        with obs.recording() as rec:
            with faults.inject(plan):
                faults.trigger("train.batch")
            assert rec.metrics.counter(
                "resilience/injected/nan").value == 1
            assert rec.metrics.counter(
                "resilience/injected@train.batch").value == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("s", "explode")
        with pytest.raises(ValueError):
            FaultSpec("s", "nan", rate=0.0)
        with pytest.raises(ValueError):
            FaultSpec("s", "nan", times=0)
        with pytest.raises(ValueError):
            FaultSpec("s", "nan", after=-1)

    def test_apply_array_fault(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)
        out = faults.apply_array_fault(x, FaultSpec("s", "nan"))
        assert np.isnan(out).any()
        assert np.all(np.isfinite(x))  # input untouched
        out = faults.apply_array_fault(x, FaultSpec("s", "inf"))
        assert np.isinf(out).any()
        with pytest.raises(ValueError):
            faults.apply_array_fault(x, FaultSpec("s", "crash"))


# --------------------------------------------------------------------- #
# atomic writes + retry policy + breaker units
# --------------------------------------------------------------------- #
class TestAtomic:
    def test_atomic_write_and_crc(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        atomic_write_bytes(path, b"hello world")
        with open(path, "rb") as fh:
            assert fh.read() == b"hello world"
        assert crc32_file(path) == crc32_bytes(b"hello world")
        atomic_write_bytes(path, b"replaced")  # overwrite is atomic too
        assert crc32_file(path) == crc32_bytes(b"replaced")
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        pol = RetryPolicy(backoff_ms=10.0, multiplier=2.0, jitter=0.0,
                          max_backoff_ms=50.0)
        assert [pol.delay_ms(k) for k in range(4)] == [10.0, 20.0, 40.0, 50.0]

    def test_jitter_bounds_and_determinism(self):
        pol = RetryPolicy(backoff_ms=100.0, jitter=0.5)
        rng = np.random.default_rng(0)
        delays = [pol.delay_ms(0, rng) for _ in range(100)]
        assert all(50.0 <= d <= 150.0 for d in delays)
        rng2 = np.random.default_rng(0)
        assert delays == [pol.delay_ms(0, rng2) for _ in range(100)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=3, cooldown_s=1.0,
                            clock=lambda: clock[0])
        assert br.state == CLOSED and br.allow_primary()
        for _ in range(2):
            br.record_failure()
        assert br.state == CLOSED
        br.record_failure()
        assert br.state == OPEN and not br.allow_primary()
        assert br.opened_count == 1

    def test_half_open_single_probe_then_close(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown_s=1.0,
                            clock=lambda: clock[0])
        br.record_failure()
        assert not br.allow_primary()  # still cooling down
        clock[0] = 1.5
        assert br.allow_primary()  # the single half-open probe
        assert br.state == HALF_OPEN
        assert not br.allow_primary()  # second caller denied the slot
        br.record_success()
        assert br.state == CLOSED and br.allow_primary()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown_s=1.0,
                            clock=lambda: clock[0])
        br.record_failure()
        clock[0] = 1.1
        assert br.allow_primary()
        br.record_failure()  # probe fails
        assert br.state == OPEN and br.opened_count == 2
        assert not br.allow_primary()

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == CLOSED  # never two *consecutive* failures

    def test_snapshot(self):
        br = CircuitBreaker(threshold=2, cooldown_s=0.5)
        snap = br.snapshot()
        assert snap["state"] == CLOSED
        assert snap["threshold"] == 2
        assert snap["cooldown_s"] == 0.5

    def test_forced_trip_holds_open_then_recovers_via_probe(self):
        """trip() opens the breaker without any failures (the brownout
        ladder's rung 2); re-tripping restarts the cooldown; once the
        tripping stops, the normal half-open probe re-closes it."""
        clock = [0.0]
        br = CircuitBreaker(threshold=3, cooldown_s=1.0,
                            clock=lambda: clock[0])
        br.trip(reason="brownout")
        assert br.state == OPEN and not br.allow_primary()
        assert br.opened_count == 1
        clock[0] = 0.8
        br.trip(reason="brownout")  # held open: cooldown restarts...
        assert br.opened_count == 1  # ...but it is not a second trip
        clock[0] = 1.5  # 0.7s since the re-trip: still cooling
        assert not br.allow_primary()
        clock[0] = 2.0  # cooldown elapsed, half-open probe
        assert br.allow_primary()
        br.record_success()
        assert br.state == CLOSED and br.allow_primary()


# --------------------------------------------------------------------- #
# durable checkpoints
# --------------------------------------------------------------------- #
def _states_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.allclose(a[k], b[k]) for k in a)


class TestCheckpointManager:
    def test_roundtrip_full_state(self, tmp_path, rng):
        det = _tiny_detector(rng)
        opt = Adam(det.parameters(), lr=1e-3)
        sched = ExponentialDecay(opt, total_steps=100, final_lr=1e-6)
        for _ in range(5):
            sched.step()
        train_rng = np.random.default_rng(42)
        train_rng.random(13)  # advance past the seed state
        manager = CheckpointManager(str(tmp_path))
        manager.save(3, det, opt, sched, rng=train_rng,
                     extra={"losses": [1.0, 0.5]})

        det2 = _tiny_detector(np.random.default_rng(99))
        opt2 = Adam(det2.parameters(), lr=5e-1)
        sched2 = ExponentialDecay(opt2, total_steps=100, final_lr=1e-6)
        rng2 = np.random.default_rng(0)
        restored = manager.load_latest(det2, opt2, sched2, rng=rng2)
        assert restored is not None and restored.step == 3
        assert restored.extra == {"losses": [1.0, 0.5]}
        assert _states_equal(det.state_dict(), det2.state_dict())
        assert opt2.lr == opt.lr
        assert sched2.step_count == 5
        assert rng2.random() == train_rng.random()  # RNG stream resumes

    def test_load_latest_empty_dir(self, tmp_path, rng):
        manager = CheckpointManager(str(tmp_path))
        assert manager.load_latest(_tiny_detector(rng)) is None

    def test_prunes_to_keep(self, tmp_path, rng):
        det = _tiny_detector(rng)
        manager = CheckpointManager(str(tmp_path), keep=2)
        for step in range(4):
            manager.save(step, det)
        entries = manager.entries()
        assert [e["step"] for e in entries] == [2, 3]
        files = {p.name for p in tmp_path.iterdir()}
        assert files == {"manifest.json", "ckpt_00000002.npz",
                         "ckpt_00000003.npz"}

    @pytest.mark.parametrize("kind", ["truncate", "bitflip"])
    def test_corruption_detected_and_skipped(self, tmp_path, rng, kind):
        det = _tiny_detector(rng)
        manager = CheckpointManager(str(tmp_path))
        manager.save(0, det)
        good = {k: np.array(v, copy=True)
                for k, v in det.state_dict().items()}
        # Perturb, save step 1, then corrupt step 1 on disk.
        det.parameters()[0].data += 1.0
        path = manager.save(1, det)
        faults.corrupt_file(path, kind)

        with pytest.raises(CheckpointError):
            manager.verify(manager.entries()[-1])

        det2 = _tiny_detector(np.random.default_rng(99))
        with obs.recording() as rec:
            with pytest.warns(RuntimeWarning, match="corrupt"):
                restored = manager.load_latest(det2)
            assert rec.metrics.counter(
                "resilience/checkpoint_corrupt").value == 1
            assert rec.metrics.counter(
                "resilience/checkpoint_restored").value == 1
        assert restored is not None
        assert restored.step == 0  # fell back to the previous good one
        assert _states_equal(det2.state_dict(), good)

    def test_injected_torn_write(self, tmp_path, rng):
        """The checkpoint.write fault site corrupts after publication;
        the manifest CRC must catch it on load."""
        det = _tiny_detector(rng)
        manager = CheckpointManager(str(tmp_path))
        manager.save(0, det)
        plan = FaultPlan([FaultSpec("checkpoint.write", "truncate")])
        with faults.inject(plan):
            manager.save(1, det)
        assert plan.fired() == 1
        det2 = _tiny_detector(np.random.default_rng(99))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            restored = manager.load_latest(det2)
        assert restored.step == 0

    def test_all_corrupt_returns_none(self, tmp_path, rng):
        det = _tiny_detector(rng)
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(0, det)
        faults.corrupt_file(path, "truncate")
        with pytest.warns(RuntimeWarning):
            assert manager.load_latest(det) is None


# --------------------------------------------------------------------- #
# anomaly guard
# --------------------------------------------------------------------- #
class TestAnomalyGuard:
    def _setup(self, rng):
        det = _tiny_detector(rng)
        det.train()
        opt = SGD(det.parameters(), lr=0.1)
        return det, opt

    def test_finite_step_passes(self, rng):
        det, opt = self._setup(rng)
        guard = AnomalyGuard(det, opt, check_grads=False)
        assert guard.check(0.5) is False
        assert guard.rollbacks == 0

    def test_nan_loss_rolls_back_and_halves_lr(self, rng):
        det, opt = self._setup(rng)
        guard = AnomalyGuard(det, opt)
        good = {k: np.array(v, copy=True)
                for k, v in det.state_dict().items()}
        det.parameters()[0].data += 123.0  # "corrupted" pending state
        with obs.recording() as rec:
            assert guard.check(float("nan")) is True
            assert rec.metrics.counter("train/anomaly").value == 1
            assert rec.metrics.counter("train/rollbacks").value == 1
        assert _states_equal(det.state_dict(), good)
        assert opt.lr == pytest.approx(0.05)

    def test_nonfinite_gradient_detected(self, rng):
        det, opt = self._setup(rng)
        guard = AnomalyGuard(det, opt)
        p = det.parameters()[0]
        p.grad = np.full_like(p.data, np.inf)
        assert guard.check(0.5) is True  # loss finite, grad is not
        p.grad = None

    def test_lr_floor(self, rng):
        det, opt = self._setup(rng)
        guard = AnomalyGuard(det, opt, lr_min=0.09)
        guard.check(float("inf"))
        assert opt.lr == 0.09

    def test_scheduler_base_lr_scaled(self, rng):
        det, opt = self._setup(rng)
        sched = ExponentialDecay(opt, total_steps=10, final_lr=1e-4)
        guard = AnomalyGuard(det, opt, scheduler=sched)
        base = sched.base_lr
        guard.check(float("nan"))
        assert sched.base_lr == pytest.approx(base * 0.5)

    def test_validation(self, rng):
        det, opt = self._setup(rng)
        with pytest.raises(ValueError):
            AnomalyGuard(det, opt, lr_factor=1.0)
        with pytest.raises(ValueError):
            AnomalyGuard(det, opt, lr_min=0.0)


# --------------------------------------------------------------------- #
# trainer integration
# --------------------------------------------------------------------- #
class TestTrainingRecovery:
    def test_detection_nan_batch_recovers(self, tiny_detection_data, rng):
        """An injected NaN batch fires the guard: the run completes with
        finite losses and finite weights."""
        train, _ = tiny_detection_data
        det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
        trainer = DetectionTrainer(det, TrainConfig(
            epochs=2, batch_size=16, augment=False, seed=0,
        ))
        plan = FaultPlan([FaultSpec("train.batch", "nan", after=1)])
        with obs.recording() as rec:
            with faults.inject(plan):
                result = trainer.fit(train)
            assert rec.metrics.counter("train/anomaly").value == 1
        assert plan.fired() == 1
        assert all(np.isfinite(loss) for loss in result.losses)
        assert all(np.all(np.isfinite(p.data)) for p in det.parameters())

    def test_detection_resume_is_bit_identical(self, tiny_detection_data,
                                               tmp_path, rng):
        """4 epochs straight == 2 epochs + resume for 2 more: the
        checkpoint carries optimizer, scheduler, and RNG state."""
        train, _ = tiny_detection_data

        def make():
            from repro.detection import YoloHead

            bb = SkyNetBackbone("C", width_mult=0.25,
                                rng=np.random.default_rng(3))
            # Seed the head too: the default head draws from the shared
            # global generator, so two make() calls would differ.
            return Detector(bb, head=YoloHead(
                bb.out_channels, rng=np.random.default_rng(4)))

        # Constant lr: the scheduler's total_steps depends on
        # cfg.epochs, so an annealed 2-epoch leg would not match the
        # 4-epoch run (scheduler restore is covered by the roundtrip
        # test above).  SGD still exercises momentum-buffer restore.
        base = dict(batch_size=16, augment=True, seed=5,
                    optimizer="sgd", lr=1e-3)
        full = DetectionTrainer(make(), TrainConfig(
            epochs=4, **base)).fit(train)

        ckdir = str(tmp_path / "ck")
        DetectionTrainer(make(), TrainConfig(
            epochs=2, checkpoint_dir=ckdir, **base)).fit(train)
        with obs.recording() as rec:
            resumed_trainer = DetectionTrainer(make(), TrainConfig(
                epochs=4, checkpoint_dir=ckdir, resume=True, **base))
            resumed = resumed_trainer.fit(train)
            assert rec.metrics.counter("train/resumed").value == 1
        assert len(resumed.losses) == len(full.losses) == 4
        np.testing.assert_allclose(resumed.losses, full.losses,
                                   rtol=1e-12, atol=0.0)

    def test_tracking_resume_and_guard(self, tiny_tracking_data, tmp_path,
                                       rng):
        from repro.tracking import SiamRPN
        from repro.tracking.trainer import SiameseTrainer, TrackTrainConfig

        def make():
            bb = SkyNetBackbone("C", width_mult=0.125,
                                rng=np.random.default_rng(2))
            return SiamRPN(bb, feat_ch=8, rng=np.random.default_rng(3))

        base = dict(batch_size=2, lr=1e-3, seed=4)
        full = SiameseTrainer(make(), TrackTrainConfig(
            steps=8, **base)).fit(tiny_tracking_data)

        ckdir = str(tmp_path / "ck")
        SiameseTrainer(make(), TrackTrainConfig(
            steps=4, checkpoint_dir=ckdir, checkpoint_every=4, **base,
        )).fit(tiny_tracking_data)
        with obs.recording() as rec:
            resumed = SiameseTrainer(make(), TrackTrainConfig(
                steps=8, checkpoint_dir=ckdir, checkpoint_every=4,
                resume=True, **base,
            )).fit(tiny_tracking_data)
            assert rec.metrics.counter("track/resumed").value == 1
        assert len(resumed) == len(full) == 8
        np.testing.assert_allclose(resumed, full, rtol=1e-12, atol=0.0)

    def test_tracking_nan_batch_recovers(self, tiny_tracking_data):
        from repro.tracking import SiamRPN
        from repro.tracking.trainer import SiameseTrainer, TrackTrainConfig

        bb = SkyNetBackbone("C", width_mult=0.125,
                            rng=np.random.default_rng(2))
        model = SiamRPN(bb, feat_ch=8, rng=np.random.default_rng(3))
        trainer = SiameseTrainer(model, TrackTrainConfig(
            steps=3, batch_size=2, seed=0))
        plan = FaultPlan([FaultSpec("train.batch", "nan", after=1)])
        with obs.recording() as rec:
            with faults.inject(plan):
                losses = trainer.fit(tiny_tracking_data)
            assert rec.metrics.counter("train/anomaly").value == 1
        assert len(losses) == 2  # the poisoned step was skipped
        assert all(np.isfinite(loss) for loss in losses)
        assert all(np.all(np.isfinite(p.data))
                   for p in model.parameters())


# --------------------------------------------------------------------- #
# serving recovery
# --------------------------------------------------------------------- #
def _echo_factory():
    return lambda x: x


class TestServingRecovery:
    def test_retry_recovers_transient_crash(self, rng):
        cfg = ServeConfig(max_batch_size=1, max_wait_ms=0.0, max_retries=2,
                          retry_backoff_ms=0.1, watchdog=False)
        plan = FaultPlan([FaultSpec("serve.runner", "crash", times=1)])
        with obs.recording() as rec:
            with InferenceServer(_echo_factory, cfg) as server:
                with faults.inject(plan):
                    result = server.submit(_images(rng, 1)).result(5.0)
                assert result.ok
                assert server.stats.snapshot()["retries"] == 1
            assert exported_counters(rec)["serve/retries"] == 1
        assert plan.fired() == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_crash_loses_zero_requests(self, rng):
        """The watchdog requeues the crashed worker's in-flight batch
        and respawns the thread: every accepted request resolves ok.
        (The WorkerCrash escaping its thread is the injected fault.)"""
        cfg = ServeConfig(max_batch_size=4, max_wait_ms=1.0, num_workers=1,
                          watchdog=True, watchdog_interval_ms=5.0)
        plan = FaultPlan([FaultSpec("serve.worker", "crash", times=1)])
        images = _images(rng, 12)
        with obs.recording() as rec:
            with InferenceServer(_echo_factory, cfg, name="crashy") as server:
                with faults.inject(plan):
                    futures = [server.submit(images[i:i + 1])
                               for i in range(12)]
                    results = [f.result(timeout=10.0) for f in futures]
                assert [r.status for r in results] == ["ok"] * 12
                for i, r in enumerate(results):
                    np.testing.assert_array_equal(r.value, images[i])
                assert server.stats.snapshot()["respawns"] >= 1
                assert server.health()["status"] == "ok"
            assert exported_counters(rec)["serve/respawns"] >= 1
            assert exported_counters(rec)["serve/requeued"] >= 1
        assert plan.fired() == 1

    def test_bisection_isolates_poison_request(self, rng):
        """One poison request in a batch errors alone; its batchmates
        still get answers (retries disabled to force the bisect path)."""
        def factory():
            def runner(x):
                if np.any(x > 100.0):
                    raise RuntimeError("poison pill")
                return x

            return runner

        cfg = ServeConfig(max_batch_size=4, max_wait_ms=100.0,
                          max_retries=0, bisect_failed_batches=True,
                          num_workers=1, watchdog=False)
        images = _images(rng, 4)
        poison = np.full((1, 3, 16, 32), 999.0, dtype=np.float32)
        with obs.recording() as rec:
            with InferenceServer(factory, cfg) as server:
                futures = [server.submit(images[i:i + 1]) for i in range(3)]
                futures.append(server.submit(poison))
                results = [f.result(timeout=10.0) for f in futures]
                statuses = [r.status for r in results]
                assert statuses[:3] == ["ok"] * 3
                assert statuses[3] == "error"
                assert "poison" in results[3].error
                assert server.stats.snapshot()["bisections"] >= 1
            assert exported_counters(rec)["serve/bisections"] >= 1

    def test_breaker_fails_over_then_recovers(self, rng):
        """K consecutive primary failures trip the breaker onto the
        fallback; after the cooldown a half-open probe re-closes it."""
        broken = threading.Event()
        broken.set()

        def primary_factory():
            def runner(x):
                if broken.is_set():
                    raise RuntimeError("engine down")
                return x

            return runner

        cfg = ServeConfig(max_batch_size=1, max_wait_ms=0.0, max_retries=0,
                          bisect_failed_batches=False, breaker_threshold=2,
                          breaker_cooldown_ms=30.0, watchdog=False)
        with obs.recording() as rec:
            with InferenceServer(primary_factory, cfg,
                                 fallback_factory=_echo_factory) as server:
                assert server.breaker is not None
                # Trip it: two consecutive primary failures.
                for _ in range(2):
                    assert not server.submit(_images(rng, 1)).result(5.0).ok
                assert server.breaker.state == OPEN
                assert server.health()["status"] == "degraded"
                # Open breaker -> traffic runs on the eager fallback.
                x = _images(rng, 1)
                result = server.submit(x).result(5.0)
                assert result.ok
                np.testing.assert_array_equal(result.value, x[0])
                assert server.stats.snapshot()["fallback_batches"] >= 1
                # Heal the primary; the half-open probe re-closes.
                broken.clear()
                time.sleep(0.05)
                deadline = time.time() + 5.0
                while (server.breaker.state != CLOSED
                       and time.time() < deadline):
                    assert server.submit(_images(rng, 1)).result(5.0).ok
                    time.sleep(0.01)
                assert server.breaker.state == CLOSED
                assert server.health()["status"] == "ok"
            assert rec.metrics.counter("serve/breaker_open").value >= 1
            assert rec.metrics.counter("serve/breaker_closed").value >= 1
            assert exported_counters(rec)["serve/fallback_batches"] >= 1

    def test_reject_nonfinite_output(self, rng):
        """NaN in runner output is a failure when reject_nonfinite is
        on: the injected fault enters the retry ladder instead of being
        returned to the caller."""
        cfg = ServeConfig(max_batch_size=1, max_wait_ms=0.0, max_retries=1,
                          reject_nonfinite=True, watchdog=False)
        plan = FaultPlan([FaultSpec("serve.runner", "nan", times=1)])
        with InferenceServer(_echo_factory, cfg) as server:
            with faults.inject(plan):
                result = server.submit(_images(rng, 1)).result(5.0)
            assert result.ok
            assert np.all(np.isfinite(result.value))
            assert server.stats.snapshot()["retries"] == 1

    def test_stall_fault_delays_but_completes(self, rng):
        cfg = ServeConfig(max_batch_size=1, max_wait_ms=0.0, watchdog=False)
        plan = FaultPlan([
            FaultSpec("serve.runner", "stall", delay_s=0.05),
        ])
        with InferenceServer(_echo_factory, cfg) as server:
            with faults.inject(plan):
                result = server.submit(_images(rng, 1)).result(5.0)
            assert result.ok
            assert result.latency_ms >= 50.0

    def test_health_reports_stopped(self, rng):
        server = InferenceServer(_echo_factory, ServeConfig(watchdog=False))
        assert server.health()["status"] == "ok"
        server.stop()
        health = server.health()
        assert health["status"] == "stopped"
        assert health["workers_alive"] == 0

    def test_session_health_and_engine_fallback(self, rng):
        """An arena allocation fault inside the compiled engine trips
        the Session-provided breaker onto the eager twin."""
        det = _tiny_detector(rng)
        session = Session.load(det, serve=ServeConfig(
            max_batch_size=1, max_wait_ms=0.0, max_retries=1,
            bisect_failed_batches=False, breaker_threshold=1,
            breaker_cooldown_ms=10_000.0, watchdog=False,
        ))
        assert session.health()["status"] == "idle"
        if session.backend != "engine":
            pytest.skip("engine backend unavailable")
        x = _images(rng, 1)
        expected = session.run(x[0])
        plan = FaultPlan([
            FaultSpec("arena.alloc", "alloc", times=None),
        ])
        try:
            with faults.inject(plan):
                # Fresh worker arena -> first engine forward must
                # allocate -> MemoryError -> breaker (threshold 1)
                # fails over to eager, which answers correctly.
                result = session.submit(x).result(10.0)
            assert result.ok
            # Eager fallback vs compiled reference: same math, fp noise.
            np.testing.assert_allclose(result.value, expected,
                                       rtol=1e-4, atol=1e-5)
            health = session.health()
            assert health["backend"] == "engine"
            assert health["breaker"]["state"] == OPEN
            assert session.server.stats.snapshot()["fallback_batches"] >= 1
        finally:
            session.close()
        assert plan.fired() >= 1

    def test_arena_alloc_fault_raises_memoryerror(self):
        arena = BufferArena()
        plan = FaultPlan([FaultSpec("arena.alloc", "alloc")])
        with faults.inject(plan):
            with pytest.raises(MemoryError, match="injected"):
                arena.get(object(), "buf", (4, 4))
        arena.get(object(), "buf", (4, 4))  # healthy afterwards


# --------------------------------------------------------------------- #
# satellites: serialization extension fix
# --------------------------------------------------------------------- #
class TestSaveModelExtension:
    def test_roundtrip_without_npz_extension(self, tmp_path, rng):
        """save_model('ckpt') writes ckpt.npz; load_model('ckpt') must
        find it (the historical mismatch)."""
        det = _tiny_detector(rng)
        path = str(tmp_path / "ckpt")  # no extension
        save_model(det, path)
        assert (tmp_path / "ckpt.npz").exists()
        det2 = _tiny_detector(np.random.default_rng(99))
        load_model(det2, path)
        assert _states_equal(det.state_dict(), det2.state_dict())
        # And the explicit-extension spelling still works.
        det3 = _tiny_detector(np.random.default_rng(98))
        load_model(det3, path + ".npz")
        assert _states_equal(det.state_dict(), det3.state_dict())

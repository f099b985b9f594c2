"""Tests for the process-pool worker backend (repro.serve.procpool).

Run under pytest so the multiprocessing ``spawn`` start method has a
real ``__main__`` module to re-import in children.  Every serving test
asserts ``fallback_batches == 0`` and ``spawned >= 1`` — otherwise a
broken backend could "pass" parity via the circuit breaker's eager
fallback while no child process ever served a request.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.resilience import faults
from repro.runtime import ServeConfig, Session, SessionConfig
from repro.serve import (
    STATUS_OK,
    ProcessPool,
    ProcWorkerDied,
    ProcWorkerError,
    WorkerSpec,
)


def _tiny_detector(rng) -> Detector:
    det = Detector(SkyNetBackbone("C", width_mult=0.125, rng=rng))
    det.eval()
    return det


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


class TestWorkerSpec:
    def test_for_model_pickles_and_names(self, rng):
        det = _tiny_detector(rng)
        spec = WorkerSpec.for_model(det, config=SessionConfig())
        assert spec.name == "Detector"
        assert isinstance(spec.model_blob, bytes) and spec.model_blob
        assert spec.intra_op_threads == 1  # children default to 1

    def test_config_validates_worker_backend(self):
        with pytest.raises(ValueError, match="worker_backend"):
            ServeConfig(worker_backend="greenlet")
        assert ServeConfig(worker_backend="process").worker_backend == (
            "process"
        )


class TestProcessPoolDirect:
    """Drive one child directly (no server) — parity + error protocol."""

    def test_runner_matches_session_and_survives_bad_input(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 3)
        with Session.load(det) as ref_session:
            want = ref_session.run(x)
        with ProcessPool(WorkerSpec.for_model(det)) as pool:
            runner = pool.runner_factory()
            got = runner(x)
            np.testing.assert_allclose(got, want, atol=1e-6)
            pid = runner._worker.pid
            # A runner exception inside the child reports ProcWorkerError
            # and the process survives to serve the next request.
            with pytest.raises(ProcWorkerError):
                runner(np.zeros((1, 7, 16, 32), np.float32))
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            assert runner._worker.pid == pid  # same process throughout
            assert pool.stats()["alive"] == 1
        assert pool.stats()["alive"] == 0  # closed

    def test_killed_child_raises_then_respawns(self, rng):
        det = _tiny_detector(rng)
        x = _images(rng, 2)
        with Session.load(det) as ref_session:
            want = ref_session.run(x)
        with ProcessPool(WorkerSpec.for_model(det)) as pool:
            runner = pool.runner_factory()
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            first_pid = runner._worker.pid
            os.kill(first_pid, signal.SIGKILL)
            with pytest.raises(ProcWorkerDied):
                runner(x)
            # Next call transparently respawns a fresh child.
            np.testing.assert_allclose(runner(x), want, atol=1e-6)
            assert runner._worker.pid != first_pid
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["spawned"] == 2

    def test_factory_refused_after_close(self, rng):
        pool = ProcessPool(WorkerSpec.for_model(_tiny_detector(rng)))
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.runner_factory()


class TestCliProcessBackend:
    def test_serve_smoke_via_cli(self, capsys):
        """`repro serve --workers 2 --worker-backend process` end to
        end; "health ok" implies live children (a dead pool trips the
        breaker and degrades health)."""
        from repro.cli import main

        rc = main(["serve", "--images", "8", "--batch-size", "2",
                   "--concurrency", "2", "--width", "0.125",
                   "--config", "C", "--workers", "2",
                   "--worker-backend", "process"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 8 requests" in out
        assert "shed 0" in out
        assert "health ok" in out


class TestProcessBackendServing:
    def test_parity_with_thread_backend_and_session_run(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 16)]
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]

        def _serve(backend):
            serve = ServeConfig(max_batch_size=4, max_wait_ms=2.0,
                                num_workers=2, worker_backend=backend)
            with Session.load(det, serve=serve) as session:
                futs = [session.submit(f) for f in frames]
                results = [f.result(timeout=120.0) for f in futs]
                assert all(r.status == STATUS_OK for r in results)
                stats = session.server.stats.snapshot()
                health = session.health()
                return [r.value for r in results], stats, health

        thread_out, _, _ = _serve("thread")
        proc_out, stats, health = _serve("process")
        # The child processes actually served — not the eager fallback.
        assert stats["fallback_batches"] == 0
        assert health["procpool"]["spawned"] >= 1
        for got, via_thread, ref in zip(proc_out, thread_out, want):
            np.testing.assert_allclose(got, ref, atol=1e-6)
            np.testing.assert_allclose(got, via_thread, atol=1e-6)

    def test_sigkill_during_serving_loses_no_accepted_request(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 12)]
        serve = ServeConfig(queue_depth=64, max_batch_size=2,
                            max_wait_ms=1.0, num_workers=1,
                            worker_backend="process", max_retries=2)
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]
        with Session.load(det, serve=serve) as session:
            # Warm the child up with one request so there is a pid.
            assert session.submit(frames[0]).result(timeout=120.0).ok
            pool = session._procpool
            pid = pool._runners[0]._worker.pid
            futs = [session.submit(f) for f in frames]
            os.kill(pid, signal.SIGKILL)
            results = [f.result(timeout=120.0) for f in futs]
            # Every accepted request resolves OK: the dead child raises
            # ProcWorkerDied, the retry ladder re-runs the batch, and the
            # runner respawns a fresh process.
            assert all(r.status == STATUS_OK for r in results)
            for r, ref in zip(results, want):
                np.testing.assert_allclose(r.value, ref, atol=1e-6)
            assert pool.stats()["respawns"] >= 1
            assert session.health()["procpool"]["spawned"] >= 2

    def test_injected_procworker_crash_loses_no_accepted_request(self, rng):
        """The `serve.procworker` fault site SIGKILLs the real child
        from the parent hot path; the retry ladder + respawn must
        resolve every accepted request OK — zero lost."""
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 10)]
        serve = ServeConfig(queue_depth=64, max_batch_size=2,
                            max_wait_ms=1.0, num_workers=1,
                            worker_backend="process", max_retries=2)
        with Session.load(det) as session:
            want = [session.run(f) for f in frames]
        plan = faults.FaultPlan([
            faults.FaultSpec("serve.procworker", "crash", after=2, times=2),
        ], seed=0)
        with Session.load(det, serve=serve) as session, \
                faults.inject(plan):
            futs = [session.submit(f) for f in frames]
            results = [f.result(timeout=120.0) for f in futs]
            assert plan.fired("serve.procworker") == 2
            assert all(r.status == STATUS_OK for r in results)
            for r, ref in zip(results, want):
                np.testing.assert_allclose(r.value, ref, atol=1e-6)
            pool = session._procpool
            assert pool.stats()["respawns"] >= 1
            # The children actually served every batch after recovery —
            # the breaker's eager fallback never masked the dead pool.
            assert session.server.stats.snapshot()["fallback_batches"] == 0

    def test_stop_with_inflight_resolves_everything(self, rng):
        det = _tiny_detector(rng)
        frames = [f for f in _images(rng, 8)]
        serve = ServeConfig(max_batch_size=2, max_wait_ms=1.0,
                            num_workers=1, worker_backend="process")
        session = Session.load(det, serve=serve)
        try:
            futs = [session.submit(f) for f in frames]
            time.sleep(0.05)  # let a batch get in flight
        finally:
            session.close()
        for fut in futs:
            result = fut.result(timeout=10.0)
            assert result.resolved if hasattr(result, "resolved") else True
            assert result.status is not None
        assert session._procpool.stats()["alive"] == 0

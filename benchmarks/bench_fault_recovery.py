"""Serving throughput under injected faults + breaker recovery latency.

The DAC-SDC stream is long and unattended: the interesting number is
not peak throughput but what survives faults.  Two measurements:

* **Throughput under a 1 % worker-crash rate** — every batch pickup has
  a 1 % chance of killing its worker thread
  (``FaultSpec("serve.worker", "crash", rate=0.01, times=None)``); the
  watchdog requeues the dropped batch and respawns the worker.  The
  headline is the throughput ratio vs the fault-free baseline *with
  zero lost accepted requests* — recovery should cost a few percent,
  not halve the server.
* **Breaker recovery latency** — with a failing primary runner the
  circuit breaker trips open (traffic fails over to the eager twin);
  once the primary heals, the half-open probe re-closes it.  Measured:
  the wall time from healing the primary to the breaker reporting
  ``closed`` under a steady probe load.
* **Process-backend crash recovery** — the same zero-lost contract for
  ``worker_backend="process"``: the ``serve.procworker`` fault site
  SIGKILLs real child processes from the parent hot path, and the
  ProcWorkerDied -> retry -> respawn ladder must resolve every
  accepted request OK.

Run as a script to (re)write ``BENCH_resilience.json`` at the repo
root:

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
from common import print_table

from repro.resilience import CLOSED, FaultPlan, FaultSpec, faults
from repro.runtime import ServeConfig
from repro.serve import InferenceServer

REQUESTS = 256
CRASH_RATE = 0.01
REPS = 3  # best-of-N per arm: the host's timing is noisy
BREAKER_REPS = 5


def _echo_factory():
    """A deliberately cheap runner so the measured cost is the recovery
    machinery (requeue + respawn), not the forward."""
    def runner(x):
        time.sleep(0.0005)  # a stand-in 0.5 ms forward
        return x

    return runner


def _frames(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.normal(0, 1, (1, 3, 16, 32)).astype(np.float32)
            for _ in range(n)]


def _pump(server: InferenceServer, frames: list[np.ndarray],
          concurrency: int = 4) -> tuple[float, int]:
    """Offer ``frames`` from ``concurrency`` clients; returns
    (requests/s, ok count).  Shed requests are resubmitted — under
    faults the queue can briefly back up while a worker respawns."""
    futures: list = [None] * len(frames)

    def client(start: int) -> None:
        for i in range(start, len(frames), concurrency):
            while True:
                future = server.submit(frames[i])
                if future.result(timeout=30.0).status != "shed":
                    futures[i] = future
                    break
                time.sleep(0.001)

    t0 = time.perf_counter()
    clients = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(concurrency)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    wall = time.perf_counter() - t0
    ok = sum(1 for f in futures if f.result(timeout=30.0).ok)
    return len(frames) / wall, ok


def measure_crash_throughput(requests: int = REQUESTS,
                             reps: int = REPS) -> dict:
    frames = _frames(requests)
    config = ServeConfig(queue_depth=32, max_batch_size=4,
                         max_wait_ms=1.0, num_workers=2,
                         watchdog_interval_ms=5.0)

    baseline_rps = 0.0
    for _ in range(reps):
        with InferenceServer(_echo_factory, config) as server:
            rps, ok = _pump(server, frames)
            assert ok == requests
            baseline_rps = max(baseline_rps, rps)

    faulted_rps, respawns, lost = 0.0, 0, 0
    for rep in range(reps):
        plan = FaultPlan([FaultSpec("serve.worker", "crash",
                                    rate=CRASH_RATE, times=None)],
                         seed=rep)
        with InferenceServer(_echo_factory, config) as server:
            with faults.inject(plan):
                rps, ok = _pump(server, frames)
            lost += requests - ok
            respawns += server.stats.snapshot()["respawns"]
            faulted_rps = max(faulted_rps, rps)

    return {
        "baseline_rps": baseline_rps,
        "faulted_rps": faulted_rps,
        "throughput_ratio": faulted_rps / baseline_rps,
        "crash_rate": CRASH_RATE,
        "worker_respawns": respawns,
        "lost_requests": lost,
    }


def measure_breaker_recovery(reps: int = BREAKER_REPS) -> dict:
    """Wall time from healing the primary to the breaker re-closing."""
    broken = threading.Event()

    def primary_factory():
        def runner(x):
            if broken.is_set():
                raise RuntimeError("engine down")
            return x

        return runner

    config = ServeConfig(max_batch_size=1, max_wait_ms=0.0, max_retries=0,
                         bisect_failed_batches=False, breaker_threshold=3,
                         breaker_cooldown_ms=25.0, watchdog=False)
    frame = _frames(1)[0]
    latencies = []
    for _ in range(reps):
        broken.set()
        with InferenceServer(primary_factory, config,
                             fallback_factory=lambda: (lambda x: x),
                             ) as server:
            # Trip the breaker: three consecutive primary failures.
            for _ in range(config.breaker_threshold):
                server.submit(frame).result(timeout=10.0)
            assert server.breaker.state != CLOSED
            broken.clear()
            t0 = time.perf_counter()
            while server.breaker.state != CLOSED:
                assert server.submit(frame).result(timeout=10.0).ok
                time.sleep(0.002)
            latencies.append((time.perf_counter() - t0) * 1e3)
    return {
        "cooldown_ms": config.breaker_cooldown_ms,
        "recovery_ms_best": min(latencies),
        "recovery_ms_mean": sum(latencies) / len(latencies),
        "reps": reps,
    }


def measure_procworker_crash(requests: int = 48) -> dict:
    """Zero-lost contract for the process-pool backend under injected
    child SIGKILLs (a real model: spawn must pickle + re-import it)."""
    from repro.core import SkyNetBackbone
    from repro.detection import Detector
    from repro.runtime import Session

    rng = np.random.default_rng(0)
    det = Detector(SkyNetBackbone("C", width_mult=0.125, rng=rng))
    det.eval()
    frames = [rng.normal(0, 1, (3, 16, 32)).astype(np.float32)
              for _ in range(requests)]
    serve = ServeConfig(queue_depth=64, max_batch_size=4, max_wait_ms=1.0,
                        num_workers=1, worker_backend="process",
                        max_retries=2)
    plan = FaultPlan([FaultSpec("serve.procworker", "crash",
                                rate=0.05, times=3)], seed=0)
    t0 = time.perf_counter()
    with Session.load(det, serve=serve) as session, faults.inject(plan):
        futures = [session.submit(f) for f in frames]
        ok = sum(1 for f in futures if f.result(timeout=120.0).ok)
        respawns = session.health()["procpool"]["respawns"]
        fallback = session.server.stats.snapshot()["fallback_batches"]
    return {
        "requests": requests,
        "ok": ok,
        "lost_requests": requests - ok,
        "crashes_injected": plan.fired("serve.procworker"),
        "respawns": respawns,
        "fallback_batches": fallback,
        "wall_s": time.perf_counter() - t0,
    }


def run_bench() -> dict:
    # The injected WorkerCrash escapes its thread by design; keep the
    # default excepthook from spamming the bench output with tracebacks.
    prev_hook = threading.excepthook

    def quiet_hook(hook_args):
        if not issubclass(hook_args.exc_type, faults.WorkerCrash):
            prev_hook(hook_args)

    threading.excepthook = quiet_hook
    try:
        crash = measure_crash_throughput()
        breaker = measure_breaker_recovery()
        procworker = measure_procworker_crash()
    finally:
        threading.excepthook = prev_hook
    return {"crash": crash, "breaker": breaker, "procworker": procworker}


def _print(results: dict) -> None:
    crash, breaker = results["crash"], results["breaker"]
    print_table(
        f"Throughput under {CRASH_RATE:.0%} worker-crash injection "
        f"({REQUESTS} requests, watchdog on)",
        ["arm", "req/s", "respawns", "lost"],
        [
            ["fault-free", f"{crash['baseline_rps']:.0f}", "-", "-"],
            ["1% crashes", f"{crash['faulted_rps']:.0f}",
             str(crash["worker_respawns"]), str(crash["lost_requests"])],
        ],
    )
    print(f"throughput under faults: "
          f"{crash['throughput_ratio']:.2f}x of baseline, "
          f"{crash['lost_requests']} lost requests")
    print(f"breaker recovery after heal: "
          f"best {breaker['recovery_ms_best']:.1f} ms, "
          f"mean {breaker['recovery_ms_mean']:.1f} ms "
          f"(cooldown {breaker['cooldown_ms']:.0f} ms)")
    proc = results["procworker"]
    print(f"process backend under {proc['crashes_injected']} child "
          f"SIGKILLs: {proc['ok']}/{proc['requests']} ok, "
          f"{proc['lost_requests']} lost, {proc['respawns']} respawns, "
          f"{proc['fallback_batches']} fallback batches")


def test_fault_recovery(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    _print(results)
    # Zero accepted requests may be lost to worker crashes, and the
    # recovery machinery must not cripple throughput (generous floor so
    # CI machine jitter cannot flake).
    assert results["crash"]["lost_requests"] == 0
    assert results["crash"]["throughput_ratio"] >= 0.5
    assert results["breaker"]["recovery_ms_best"] >= 0.0
    # Process backend: every accepted request survives child SIGKILLs,
    # served by real (respawned) children — never the eager fallback.
    assert results["procworker"]["lost_requests"] == 0
    assert results["procworker"]["crashes_injected"] >= 1
    assert results["procworker"]["respawns"] >= 1
    assert results["procworker"]["fallback_batches"] == 0


if __name__ == "__main__":
    measured = run_bench()
    _print(measured)
    payload = {
        "bench": "fault_recovery",
        "requests": REQUESTS,
        "crash_rate": CRASH_RATE,
        "reps": REPS,
        "aggregation": "best-of-reps per arm (noisy shared host)",
        "methodology": (
            "throughput_ratio = offered-load throughput with a 1% "
            "chance of a worker-thread crash per batch pickup "
            "(watchdog requeues the in-flight batch and respawns the "
            "thread) / fault-free throughput on the same config; both "
            "arms use a ~0.5 ms stub forward so the measured cost is "
            "the recovery machinery.  lost_requests counts accepted "
            "requests that did not resolve ok across all faulted reps "
            "(must be 0).  Breaker recovery = wall time from healing "
            "the primary runner to the circuit breaker re-closing via "
            "its half-open probe, under a steady probe load.  "
            "procworker = the same zero-lost contract for "
            "worker_backend='process': the serve.procworker fault site "
            "SIGKILLs real child processes from the parent hot path; "
            "ProcWorkerDied -> retry -> respawn must resolve every "
            "accepted request OK with zero fallback batches."
        ),
        "results": measured,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

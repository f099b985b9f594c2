"""Dynamic-batching server throughput: thread vs process workers.

The paper saturates its accelerators by overlapping work: the TX2
pipelines four system stages, the Ultra96 batches several images per
accelerator call (Sec. 5).  ``repro.serve`` applies the same lever to a
request stream, and this bench measures both of its scaling axes on
SkyNet-A at the deployment resolution:

* **Batching** — under concurrent load the batcher coalesces queued
  requests and flushes on size.  ``speedup_batch8`` is the classic
  dynamic-batching ratio against closed-loop single-request serving on
  the same config.  Historical note: this ratio was ~2.1x while a lone
  request sat out ``max_wait_ms`` waiting for batchmates; the
  lone-request immediate flush (PR 7) removed that self-inflicted tax
  from the baseline arm, so the ratio honestly collapsed to ~1.05x and
  what remains is the real batched-GEMM win, visible in
  ``speedup_vs_serial``.
* **Worker parallelism** — the sweep runs every ``worker_backend``
  (thread vs process) x workers x batch cell through the same offered
  load.  Thread workers share the GIL; process workers each own an
  interpreter + engine with shared-memory tensor transport
  (:mod:`repro.serve.procpool`), so on a multi-core host they are the
  only arm that can beat the bare serial loop.

Honesty notes (recorded in BENCH_serve.json):

* ``serial_rps`` is the no-server baseline (a bare ``Session.run``
  loop) and every arm is reported as absolute req/s against it.
  ``host_cpus`` is recorded because the verdict depends on it: on a
  1-core host *no* worker backend can beat the serial loop — the server
  buys the async API, bounded queue, deadlines and shedding, not
  throughput — and the perf gate only enforces
  ``process.speedup_vs_serial >= 1.0`` on multi-core hosts.
* Since the batched im2col engine work (PR 7), a batch-8 forward is
  *faster* than 8 batch-1 forwards, so the server runs untiled
  (``microbatch=0``; earlier baselines tiled with ``microbatch=1``).
* Each arm is best-of-``reps`` (the host's timing is noisy) and every
  backend's outputs are checked against ``Session.run`` to 1e-6.

Run as a script to (re)write ``BENCH_serve.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
from common import CONTEST_HW, WIDTH, print_table

from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.runtime import ServeConfig, Session, SessionConfig

BATCH_SIZES = (1, 2, 4, 8)  # thread x 1-worker batching curve
SWEEP_BACKENDS = ("thread", "process")
SWEEP_WORKERS = (1, 2)
SWEEP_BATCHES = (4, 8)
MAX_WAIT_MS = 10.0
CONCURRENCY = 8  # client threads offering load
REQUESTS = 64
REPS = 3  # best-of-N per arm: the host's timing is noisy


def _detector() -> Detector:
    det = Detector(SkyNetBackbone(
        "A", width_mult=WIDTH, rng=np.random.default_rng(1)
    ))
    det.eval()
    return det


def _frames(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    h, w = CONTEST_HW
    return [rng.normal(0, 1, (3, h, w)).astype(np.float32)
            for _ in range(n)]


def _offered_load_rps(session: Session, frames: list[np.ndarray],
                      concurrency: int) -> tuple[float, float, list]:
    """Throughput with ``concurrency`` clients keeping the queue warm.

    Returns (requests/s, mean batch size, results in frame order).
    """
    futures: list = [None] * len(frames)

    def client(start: int) -> None:
        for i in range(start, len(frames), concurrency):
            futures[i] = session.submit(frames[i])

    t0 = time.perf_counter()
    clients = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(concurrency)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    results = [f.result(timeout=120.0) for f in futures]
    wall = time.perf_counter() - t0
    assert all(r.ok for r in results), "light load must not shed/timeout"
    mean_batch = session.server.stats.snapshot()["mean_batch_size"]
    return len(frames) / wall, mean_batch, results


def _closed_loop_rps(session: Session, frames: list[np.ndarray]) -> float:
    """One request in flight at a time (the single-request baseline)."""
    t0 = time.perf_counter()
    for frame in frames:
        result = session.submit(frame).result(timeout=120.0)
        assert result.ok
    return len(frames) / (time.perf_counter() - t0)


def _best_arm(session: Session, frames, reps: int, reference) -> dict:
    """Best-of-reps offered load on one server config, outputs checked."""
    best = {"rps": 0.0, "mean_batch_size": 0.0}
    for _ in range(reps):
        rps, mean_batch, results = _offered_load_rps(
            session, frames, CONCURRENCY
        )
        if rps > best["rps"]:
            best = {"rps": rps, "mean_batch_size": mean_batch}
    for got, want in zip(results, reference):
        np.testing.assert_allclose(got.value, want, atol=1e-6)
    return best


def run_throughput(requests: int = REQUESTS, reps: int = REPS,
                   sweep: bool = True) -> dict:
    detector = _detector()
    frames = _frames(requests)
    config = SessionConfig()  # untiled: batched kernels beat microbatching
    h, w = CONTEST_HW

    # no-server baseline + reference outputs for the equivalence check
    base = Session.load(detector, config)
    base.run(frames[0])  # warm up
    serial_rps = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        reference = [base.run(f) for f in frames]
        serial_rps = max(serial_rps,
                         requests / (time.perf_counter() - t0))

    # batching curve: thread backend, 1 worker
    by_batch = {}
    for batch_size in BATCH_SIZES:
        serve = ServeConfig(queue_depth=requests,
                            max_batch_size=batch_size,
                            max_wait_ms=MAX_WAIT_MS)
        with Session.load(detector, config, serve=serve,
                          warmup=(batch_size, 3, h, w)) as session:
            by_batch[batch_size] = _best_arm(session, frames, reps,
                                             reference)

    # worker_backend x workers x batch sweep
    cells = []
    if sweep:
        for backend in SWEEP_BACKENDS:
            for workers in SWEEP_WORKERS:
                for batch_size in SWEEP_BATCHES:
                    serve = ServeConfig(queue_depth=requests,
                                        max_batch_size=batch_size,
                                        max_wait_ms=MAX_WAIT_MS,
                                        num_workers=workers,
                                        worker_backend=backend)
                    with Session.load(detector, config, serve=serve,
                                      warmup=(batch_size, 3, h, w)
                                      ) as session:
                        arm = _best_arm(session, frames, reps, reference)
                        stats = session.server.stats.snapshot()
                        assert stats["fallback_batches"] == 0, (
                            f"{backend} arm ran on the fallback runner")
                        if backend == "process":
                            pool = session.health()["procpool"]
                            assert pool["spawned"] >= workers
                    cells.append({"backend": backend, "workers": workers,
                                  "batch": batch_size, **arm})

    # single-request baseline on the same batch-8 server config
    serve = ServeConfig(queue_depth=requests, max_batch_size=8,
                        max_wait_ms=MAX_WAIT_MS)
    concurrency1_rps = 0.0
    with Session.load(detector, config, serve=serve,
                      warmup=(8, 3, h, w)) as session:
        for _ in range(reps):
            concurrency1_rps = max(concurrency1_rps,
                                   _closed_loop_rps(session, frames))

    batched_rps = by_batch[8]["rps"]
    out = {
        "serial_rps": serial_rps,
        "concurrency1_rps": concurrency1_rps,
        "by_batch": by_batch,
        "speedup_batch8": batched_rps / concurrency1_rps,
        "speedup_vs_serial": batched_rps / serial_rps,
    }
    if sweep:
        out["sweep"] = cells

        def best(backend):
            arm = max((c for c in cells if c["backend"] == backend),
                      key=lambda c: c["rps"])
            return {**arm, "speedup_vs_serial": arm["rps"] / serial_rps}

        out["thread"] = best("thread")
        out["process"] = best("process")
    return out


def _print(results: dict) -> None:
    rows = [
        [f"batch {b}", f"{r['rps']:.1f}", f"{r['mean_batch_size']:.2f}"]
        for b, r in results["by_batch"].items()
    ]
    for cell in results.get("sweep", ()):
        rows.append([
            f"{cell['backend']} w{cell['workers']} b{cell['batch']}",
            f"{cell['rps']:.1f}", f"{cell['mean_batch_size']:.2f}",
        ])
    rows.append(["serial (no server)", f"{results['serial_rps']:.1f}", "-"])
    rows.append(["concurrency 1", f"{results['concurrency1_rps']:.1f}",
                 "-"])
    print_table(
        f"Serve throughput, SkyNet-A @ {CONTEST_HW[0]}x{CONTEST_HW[1]} "
        f"(width {WIDTH}, wait {MAX_WAIT_MS} ms, "
        f"{CONCURRENCY} clients, {os.cpu_count()} host cpus)",
        ["mode", "req/s", "mean batch"],
        rows,
    )
    print(f"batch-8 vs single-request: "
          f"{results['speedup_batch8']:.2f}x "
          f"(vs serial loop: {results['speedup_vs_serial']:.2f}x)")
    if "process" in results:
        proc = results["process"]
        print(f"best process arm (w{proc['workers']} b{proc['batch']}): "
              f"{proc['rps']:.1f} req/s = "
              f"{proc['speedup_vs_serial']:.2f}x the serial loop")


def test_serve_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: run_throughput(requests=32, reps=2, sweep=False),
        rounds=1, iterations=1,
    )
    _print(results)
    # Since the lone-request flush, closed-loop serving no longer pays
    # the wait window, so batch-8 vs single-request is ~1.05x (was
    # ~2.1x against the window-taxed baseline).  Assert batching is not
    # a regression on either axis, with jitter headroom.
    assert results["speedup_batch8"] >= 0.85
    assert results["speedup_vs_serial"] >= 0.85


if __name__ == "__main__":
    measured = run_throughput()
    _print(measured)
    payload = {
        "bench": "serve_throughput",
        "model": "SkyNet-A",
        "input_hw": list(CONTEST_HW),
        "width_mult": WIDTH,
        "max_wait_ms": MAX_WAIT_MS,
        "concurrency": CONCURRENCY,
        "requests": REQUESTS,
        "reps": REPS,
        "host_cpus": os.cpu_count(),
        "aggregation": "best-of-reps per arm (noisy shared host)",
        "microbatch": 0,
        "methodology": (
            "speedup_batch8 = throughput under concurrent offered load "
            "with dynamic batching (batch 8) / closed-loop single-"
            "request throughput on the same server config, which pays "
            "the max_wait_ms window per request.  serial_rps is the "
            "bare Session.run loop (no server); all arms are absolute "
            "req/s against it.  sweep crosses worker_backend (thread | "
            "process) x workers x batch under identical offered load; "
            "process arms assert zero fallback batches and >= workers "
            "child processes spawned, so the numbers cannot come from "
            "the parent-side breaker fallback.  On a 1-core host no "
            "arm can beat serial_rps (host_cpus records this); the "
            "perf gate enforces process.speedup_vs_serial >= 1.0 only "
            "on multi-core hosts.  All outputs checked against "
            "Session.run to atol=1e-6."
        ),
        "results": measured,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

"""Tests for the serving-telemetry layer: request contexts, exporters,
the kernel profiler, the perf-regression gate, and the satellites
(bounded histograms, torn-counter-free stats, interleaved export,
trace propagation through the serve worker pool)."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core import SkyNetBackbone
from repro.detection import Detector
from repro.obs.bench import (
    GATE_METRICS,
    compare_metrics,
    load_baselines,
    run_gate,
)
from repro.obs.context import RequestContext, merged_context, use_context
from repro.obs.export import (
    MetricsHTTPServer,
    MetricsSnapshotter,
    chrome_trace_events,
    prometheus_text,
)
from repro.obs.metrics import Histogram
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.runtime import ServeConfig, Session, SessionConfig
from repro.serve import InferenceServer
from repro.serve.server import _server_counters


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(0, 1, (n, 3, 16, 32)).astype(np.float32)


def _echo_factory():
    return lambda x: x


# --------------------------------------------------------------------- #
# request context
# --------------------------------------------------------------------- #
class TestRequestContext:
    def test_new_ids_are_unique_and_prefixed(self):
        a = RequestContext.new(prefix="srv")
        b = RequestContext.new(prefix="srv")
        assert a.request_id != b.request_id
        assert a.request_id.startswith("srv-")
        assert a.trace_id == a.request_id

    def test_use_context_nests_and_restores(self):
        outer = RequestContext.new()
        inner = RequestContext.new()
        assert obs.current_context() is None
        with use_context(outer):
            assert obs.current_context() is outer
            with use_context(inner):
                assert obs.current_context() is inner
            assert obs.current_context() is outer
        assert obs.current_context() is None

    def test_use_context_none_is_noop(self):
        with use_context(None):
            assert obs.current_context() is None

    def test_request_scope_reuses_ambient(self):
        ctx = RequestContext.new()
        with use_context(ctx):
            with obs.request_scope(prefix="run") as inner:
                assert inner is ctx
        with obs.request_scope(prefix="run") as fresh:
            assert fresh.request_id.startswith("run-")

    def test_merged_context_joins_ids(self):
        a = RequestContext.new(prefix="m")
        b = RequestContext.new(prefix="m")
        merged = merged_context([a, None, b], backend="primary")
        assert merged.request_id == f"{a.request_id},{b.request_id}"
        assert merged.backend == "primary"
        assert merged_context([None, None]) is None
        # Single live member: pass through (with backend override only).
        assert merged_context([a, None]) is a
        assert merged_context([a], backend="x").backend == "x"
        assert merged_context([a], backend="x").request_id == a.request_id

    def test_context_is_thread_local(self):
        ctx = RequestContext.new()
        seen = []
        with use_context(ctx):
            t = threading.Thread(
                target=lambda: seen.append(obs.current_context())
            )
            t.start()
            t.join()
        assert seen == [None]

    def test_spans_and_events_stamped(self):
        ctx = RequestContext.new(prefix="stamp")
        with obs.recording() as rec:
            with use_context(ctx):
                with obs.span("inside"):
                    pass
                obs.event("boom", detail=1)
                obs.record_span("waited", 0.0, 0.001)
            with obs.span("outside"):
                pass
        spans = {s.name: s for s in rec.tracer.spans}
        assert spans["inside"].request_id == ctx.request_id
        assert spans["waited"].request_id == ctx.request_id
        assert spans["outside"].request_id is None
        (event,) = rec.tracer.events
        assert event["request"] == ctx.request_id


# --------------------------------------------------------------------- #
# bounded histogram (satellite: no unbounded growth)
# --------------------------------------------------------------------- #
class TestBoundedHistogram:
    def test_reservoir_is_bounded_memory_flat(self):
        h = Histogram("lat", reservoir_size=256)
        for i in range(1_000_000):
            h.observe(float(i % 1000))
        # Exact aggregates survive; raw storage stays at the cap.
        assert h.count == 1_000_000
        assert h.sum == pytest.approx(sum(range(1000)) * 1000)
        assert h.min == 0.0 and h.max == 999.0
        assert len(h.values) == 256

    def test_quantiles_from_reservoir_are_sane(self):
        h = Histogram("q", reservoir_size=512)
        for v in range(10_000):
            h.observe(float(v))
        assert 3500 <= h.quantile(0.5) <= 6500
        assert h.quantile(0.99) > h.quantile(0.5)
        s = h.summary()
        assert s["count"] == 10_000
        assert s["mean"] == pytest.approx(4999.5)

    def test_sampling_is_deterministic_per_name(self):
        def fill(name):
            h = Histogram(name, reservoir_size=32)
            for v in range(5000):
                h.observe(float(v))
            return h.values

        assert fill("same") == fill("same")

    def test_small_streams_kept_exactly(self):
        h = Histogram("exact", reservoir_size=128)
        for v in [5.0, 1.0, 3.0]:
            h.observe(v)
        assert sorted(h.values) == [1.0, 3.0, 5.0]
        assert h.quantile(0.5) == 3.0


# --------------------------------------------------------------------- #
# server counter consistency (satellite: no torn counters)
# --------------------------------------------------------------------- #
class TestServerStatsConsistency:
    def test_add_many_is_atomic_under_hammer(self):
        """Concurrent add_many(completed=K, batches=1, batched=K) vs
        snapshot(): every snapshot must see the invariant
        ``completed == batched_requests == K * batches`` — a torn read
        would break it."""
        stats = _server_counters()
        K = 4
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if not (snap["completed"] == snap["batched_requests"]
                        == K * snap["batches"]):
                    torn.append(snap)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        for _ in range(3000):
            stats.add_many(completed=K, batches=1, batched_requests=K)
        stop.set()
        for t in readers:
            t.join()
        assert torn == []
        assert stats.snapshot()["batches"] == 3000

    def test_snapshot_timestamps_are_monotonic(self):
        stats = _server_counters()
        ts = [stats.snapshot()["ts_monotonic"] for _ in range(10)]
        assert ts == sorted(ts)

    def test_snapshot_includes_mean_batch_size(self):
        stats = _server_counters()
        stats.add_many(completed=6, batches=2, batched_requests=6)
        snap = stats.snapshot()
        assert snap["mean_batch_size"] == 3.0


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #
class TestChromeTrace:
    def test_spans_become_lanes_and_events_markers(self):
        records = [
            {"type": "span", "name": "a", "id": 1, "parent": None,
             "start_ms": 1.0, "duration_ms": 2.0, "thread": 111,
             "attrs": {}, "request": "req-1"},
            {"type": "span", "name": "b", "id": 2, "parent": None,
             "start_ms": 2.0, "duration_ms": 1.0, "thread": 222,
             "attrs": {"k": 1}},
            {"type": "event", "name": "respawn", "ts_ms": 3.0,
             "thread": 111, "attrs": {"worker": 0}},
            {"type": "counter", "name": "skip-me", "value": 1},
        ]
        events = chrome_trace_events(records, process_name="proc")
        lanes = [e for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(lanes) == 2  # two distinct threads, two lanes
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert xs["a"]["ts"] == pytest.approx(1000.0)  # ms -> us
        assert xs["a"]["dur"] == pytest.approx(2000.0)
        assert xs["a"]["args"]["request"] == "req-1"
        assert xs["a"]["tid"] != xs["b"]["tid"]
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "respawn"
        assert instant["tid"] == xs["a"]["tid"]  # same thread, same lane
        assert not any(e.get("name") == "skip-me" for e in events)

    def test_export_roundtrip_via_recorder(self, tmp_path):
        path = str(tmp_path / "chrome.json")
        with obs.recording() as rec:
            with obs.span("root"):
                pass
            obs.event("tick")
        obs.export_chrome_trace(rec.records(), path)
        with open(path) as fh:
            payload = json.load(fh)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"root", "tick", "process_name"} <= names


class TestPrometheusText:
    def test_exposition_format(self):
        with obs.recording() as rec:
            obs.inc("serve/completed", 7)
            obs.set_gauge("serve/queue_depth", 3)
            for v in (1.0, 2.0, 3.0):
                obs.observe("serve/batch_size", v)
        text = prometheus_text(rec.metrics.records())
        assert "# TYPE repro_serve_completed_total counter" in text
        assert "repro_serve_completed_total 7.0" in text
        assert "repro_serve_queue_depth 3.0" in text
        assert 'repro_serve_batch_size{quantile="0.5"} 2.0' in text
        assert "repro_serve_batch_size_count 3.0" in text
        assert "repro_serve_batch_size_sum 6.0" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        with obs.recording() as rec:
            obs.inc("weird/name-with.dots")
        text = prometheus_text(rec.metrics.records())
        assert "repro_weird_name_with_dots_total" in text


def _scraped_counters(text: str, prefix: str) -> dict:
    """``{key: value}`` of the ``repro_<prefix>_<key>_total`` counters
    in a Prometheus exposition."""
    head = f"repro_{prefix}_"
    out = {}
    for line in text.splitlines():
        if line.startswith(head) and " " in line:
            name, value = line.split(" ")
            if name.endswith("_total"):
                out[name[len(head):-len("_total")]] = float(value)
    return out


class TestScrapeEqualsHealth:
    """``health()``, the Prometheus scrape and JSONL snapshots read one
    counter set per component, so they can never disagree."""

    def test_serve_and_stream_counters_match_health(self, tmp_path):
        from repro.runtime import StreamConfig
        from repro.serve import StreamManager, SyntheticSource

        def slow_factory():
            def runner(x):
                time.sleep(0.002)
                return np.tile([0.5, 0.5, 0.2, 0.2], (x.shape[0], 1))

            return runner

        with obs.recording() as rec:
            server = InferenceServer(slow_factory, ServeConfig(
                queue_depth=4, max_batch_size=2, max_wait_ms=1.0))
            manager = StreamManager(
                server,
                [SyntheticSource(frames=40, image_hw=(16, 32), seed=i)
                 for i in range(2)],
                config=StreamConfig(queue_depth=2, brownout=False),
            ).start()
            assert manager.join(timeout=30.0)
            # Overflow the tiny server queue directly so "shed" moves too.
            futures = [server.submit(np.zeros((1, 4, 4), np.float32))
                       for _ in range(12)]
            for future in futures:
                future.result(timeout=10.0)
            manager.stop()
            server.stop()
            text = prometheus_text(rec.metrics.records())
            snapshot_path = str(tmp_path / "snap.jsonl")
            MetricsSnapshotter(rec.metrics.records,
                               snapshot_path).snapshot_once()

        stats = server.health()["stats"]
        served = _scraped_counters(text, "serve")
        assert served == {k: v for k, v in stats.items()
                          if k not in ("ts_monotonic", "mean_batch_size")}
        assert stats["shed"] > 0 and stats["completed"] > 0
        assert stats["mean_batch_size"] == (
            served["batched_requests"] / served["batches"])

        health = manager.health()
        assert health["accounting"]["exact"]
        dropped = 0
        for snap in health["streams"]:
            scraped = _scraped_counters(text, f"stream_{snap['stream']}")
            assert scraped == {k: snap[k] for k in scraped}
            assert scraped["accepted"] == scraped["processed"] + sum(
                v for k, v in scraped.items() if k.startswith("dropped_"))
            dropped += scraped["dropped_backpressure"]
        assert dropped > 0  # the tiny stream queues really dropped

        with open(snapshot_path) as fh:
            (line,) = fh.readlines()
        jsonl = {m["name"]: m["value"] for m in json.loads(line)["metrics"]
                 if m["type"] == "counter"}
        assert {k: jsonl[f"serve/{k}"] for k in served} == served


class TestMetricsSnapshotter:
    def test_snapshot_and_rotation(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        snapper = MetricsSnapshotter(
            lambda: [{"type": "counter", "name": "c", "value": 1.0}],
            path, interval_s=60.0, max_bytes=200, max_files=2,
        )
        for _ in range(12):
            snapper.snapshot_once()
        assert snapper.snapshots == 12
        assert snapper.rotations >= 1
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                assert rec["metrics"][0]["name"] == "c"
        assert (tmp_path / "snaps.jsonl.1").exists()
        assert not (tmp_path / "snaps.jsonl.3").exists()

    def test_background_loop_final_snapshot(self, tmp_path):
        path = str(tmp_path / "bg.jsonl")
        with MetricsSnapshotter(lambda: [], path, interval_s=60.0):
            pass  # stop() writes the final snapshot
        with open(path) as fh:
            assert len(fh.readlines()) == 1

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            MetricsSnapshotter(lambda: [], "x", interval_s=0.0)
        with pytest.raises(ValueError):
            MetricsSnapshotter(lambda: [], "x", max_files=0)


class TestMetricsHTTPServer:
    def test_scrape_metrics_and_health(self):
        with obs.recording() as rec:
            obs.inc("http/hits", 3)
            with MetricsHTTPServer(
                rec.metrics.records,
                health_fn=lambda: {"status": "ok", "workers_alive": 2},
                port=0,
            ) as server:
                with urllib.request.urlopen(server.url + "/metrics") as resp:
                    assert resp.status == 200
                    assert "0.0.4" in resp.headers["Content-Type"]
                    body = resp.read().decode()
                assert "repro_http_hits_total 3.0" in body
                with urllib.request.urlopen(server.url + "/health") as resp:
                    health = json.loads(resp.read())
                assert health == {"status": "ok", "workers_alive": 2}

    def test_unhealthy_is_503_and_unknown_404(self):
        server = MetricsHTTPServer(
            lambda: [], health_fn=lambda: {"status": "down"}, port=0,
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/health")
            assert exc.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/nope")
            assert exc.value.code == 404
        finally:
            server.stop()


# --------------------------------------------------------------------- #
# interleaved JSONL export (satellite)
# --------------------------------------------------------------------- #
class TestInterleavedExport:
    def test_meta_first_then_time_ordered(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.recording(path):
            obs.inc("early")
            with obs.span("work"):
                obs.event("mid")
            obs.set_gauge("late", 1.0)
        records = obs.load_trace(path)
        assert records[0]["type"] == "meta"
        assert records[0]["spans"] == 1
        assert records[0]["events"] == 1
        assert records[0]["metrics"] == 2  # the counter and the gauge
        kinds = [r["type"] for r in records[1:]]
        assert set(kinds) == {"span", "event", "counter", "gauge"}
        # the counter bumped before the span sorts before it; the gauge
        # set after sorts after
        assert kinds.index("counter") < kinds.index("span")
        assert kinds.index("span") < kinds.index("gauge")
        # render handles the combined stream
        report = obs.render_trace(records)
        assert "== events ==" in report
        assert "== metrics ==" in report


# --------------------------------------------------------------------- #
# kernel profiler
# --------------------------------------------------------------------- #
class TestKernelProfiler:
    @pytest.fixture(scope="class")
    def backbone(self):
        bb = SkyNetBackbone("A", width_mult=0.25,
                            rng=np.random.default_rng(3))
        bb.eval()
        return bb

    def test_fp32_profile(self, backbone, rng):
        from repro.nn.engine import compile_net

        net = compile_net(backbone)
        x = _images(rng, 1)[:, :, :16, :32]
        profile = net.profile(x, reps=3, warmup=1)
        assert profile.scheme == "fp32"
        assert len(profile.steps) == len(net.steps)
        assert profile.best_ms > 0
        conv_steps = [s for s in profile.steps if "Bundle" in s.kind]
        assert conv_steps and all(s.flops > 0 for s in conv_steps)
        assert all(s.calls == 3 for s in profile.steps)
        table = profile.render()
        assert "fp32" in table and "GFLOP/s" in table
        d = profile.as_dict()
        assert d["steps"][0]["best_ms"] >= 0

    def test_quant_profile_and_comparison(self, backbone, rng):
        from repro.nn.engine import QuantConfig, compile_net

        x = _images(rng, 1)
        net = compile_net(backbone)
        qnet = compile_net(backbone, quant=QuantConfig(8, 8), calibration=x)
        profile = net.profile(x, reps=2, warmup=1)
        qprofile = qnet.profile(x, reps=2, warmup=1)
        assert qprofile.scheme == "w8/f8"
        assert any("/" in s.dtype for s in qprofile.steps)  # storage/carrier
        from repro.obs import render_comparison

        table = render_comparison(profile, qprofile)
        assert "TOTAL" in table and "fp32/w8/f8" in table

    def test_profile_validates_args(self, backbone, rng):
        from repro.nn.engine import compile_net

        net = compile_net(backbone)
        with pytest.raises(ValueError):
            net.profile(_images(rng, 1), reps=0)


# --------------------------------------------------------------------- #
# perf-regression gate
# --------------------------------------------------------------------- #
class TestPerfGate:
    def _write_baselines(self, root, engine=2.0, quant=1.2):
        (root / "BENCH_engine.json").write_text(json.dumps({
            "input_hw": [16, 32], "width_mult": 0.25,
            "results": {"A": {"speedup": engine}},
        }))
        (root / "BENCH_quant.json").write_text(json.dumps({
            "input_hw": [16, 32], "width_mult": 0.25,
            "speed": {"min_ratio": quant},
        }))

    def test_load_baselines(self, tmp_path):
        self._write_baselines(tmp_path)
        baselines = load_baselines(str(tmp_path))
        assert baselines["engine/A/speedup"]["value"] == 2.0
        assert baselines["engine/A/speedup"]["input_hw"] == (16, 32)
        assert "serve/speedup_batch8" not in baselines  # file missing

    def test_compare_metrics_verdicts(self, tmp_path):
        self._write_baselines(tmp_path)
        baselines = load_baselines(str(tmp_path))
        fresh = {"engine/A/speedup": 1.9, "quant/min_ratio": 0.5}
        verdicts = {v["metric"]: v
                    for v in compare_metrics(baselines, fresh)}
        # 1.9 vs floor 2.0*(1-0.30)=1.4 -> ok; 0.5 vs 1.2*0.8=0.96 -> bad
        assert not verdicts["engine/A/speedup"]["regressed"]
        assert verdicts["quant/min_ratio"]["regressed"]

    def test_tolerance_scale_loosens_floor(self, tmp_path):
        self._write_baselines(tmp_path)
        baselines = load_baselines(str(tmp_path))
        fresh = {"quant/min_ratio": 0.9}
        tight = compare_metrics(baselines, fresh, tolerance_scale=1.0)
        loose = compare_metrics(baselines, fresh, tolerance_scale=2.0)
        by = lambda vs: {v["metric"]: v for v in vs}  # noqa: E731
        assert by(tight)["quant/min_ratio"]["regressed"]
        assert not by(loose)["quant/min_ratio"]["regressed"]

    def _write_serve_baseline(self, root, speedup_vs_serial, host_cpus):
        (root / "BENCH_serve.json").write_text(json.dumps({
            "input_hw": [160, 320], "width_mult": 0.25,
            "host_cpus": host_cpus,
            "results": {
                "speedup_batch8": 2.0,
                "process": {"speedup_vs_serial": speedup_vs_serial},
            },
        }))

    def test_abs_floor_fails_process_speedup_below_1x(self, tmp_path):
        """PR 7 gate: on a multi-core host the recorded process-backend
        speedup over the serial loop must be >= 1.0x, loudly."""
        self._write_serve_baseline(tmp_path, 0.8, host_cpus=4)
        verdicts = {v["metric"]: v for v in compare_metrics(
            load_baselines(str(tmp_path)), fresh={})}
        v = verdicts["serve/speedup_vs_serial"]
        assert v["regressed"] and v["below_abs_floor"]
        assert v["abs_floor"] == 1.0

    def test_abs_floor_waived_on_single_core_host(self, tmp_path):
        self._write_serve_baseline(tmp_path, 0.8, host_cpus=1)
        verdicts = {v["metric"]: v for v in compare_metrics(
            load_baselines(str(tmp_path)), fresh={})}
        assert not verdicts["serve/speedup_vs_serial"]["regressed"]

    def test_abs_floor_passes_above_1x(self, tmp_path):
        self._write_serve_baseline(tmp_path, 1.4, host_cpus=4)
        verdicts = {v["metric"]: v for v in compare_metrics(
            load_baselines(str(tmp_path)), fresh={})}
        v = verdicts["serve/speedup_vs_serial"]
        assert not v["regressed"] and "below_abs_floor" not in v

    def _write_stream_baseline(self, root, accounted, margin, drop):
        (root / "BENCH_stream.json").write_text(json.dumps({
            "input_hw": [32, 64], "width": 0.125, "host_cpus": 1,
            "results": {
                "accounted_ratio": accounted,
                "producer_block_margin": margin,
                "overload": {"drop_ratio": drop},
            },
        }))

    def test_stream_floors_enforced_even_on_one_core(self, tmp_path):
        """ISSUE 9 gate: the streaming contracts are code invariants,
        not host speed — they gate on a 1-core host too.  A lost frame
        (accounted < 1), a blocked producer (margin < 1), or an
        overload arm that never dropped (ratio < 0.02) all trip."""
        self._write_stream_baseline(tmp_path, accounted=0.99,
                                    margin=0.8, drop=0.0)
        verdicts = {v["metric"]: v for v in compare_metrics(
            load_baselines(str(tmp_path)), fresh={})}
        for name in ("stream/accounted_ratio",
                     "stream/producer_block_margin",
                     "stream/overload_drop_ratio"):
            assert verdicts[name]["below_abs_floor"], name

    def test_stream_floors_pass_on_healthy_baseline(self, tmp_path):
        self._write_stream_baseline(tmp_path, accounted=1.0,
                                    margin=30.0, drop=0.6)
        verdicts = {v["metric"]: v for v in compare_metrics(
            load_baselines(str(tmp_path)), fresh={})}
        for name in ("stream/accounted_ratio",
                     "stream/producer_block_margin",
                     "stream/overload_drop_ratio"):
            v = verdicts[name]
            assert not v["regressed"] and "below_abs_floor" not in v, name

    def test_run_gate_end_to_end(self, tmp_path, capsys):
        """Real measurement at a tiny scale: a clean rerun passes, an
        injected 100x regression trips the gate with exit 1."""
        # Generous baselines so the tiny-host rerun can't false-trip.
        self._write_baselines(tmp_path, engine=0.01, quant=0.01)
        out_json = str(tmp_path / "verdicts.json")
        assert run_gate(str(tmp_path), reps=1, out_json=out_json) == 0
        with open(out_json) as fh:
            verdicts = json.load(fh)["verdicts"]
        assert any(v["metric"] == "engine/A/speedup" and not v["skipped"]
                   for v in verdicts)
        assert run_gate(str(tmp_path), reps=1,
                        inject_regression=0.001) == 1

    def test_run_gate_without_baselines(self, tmp_path):
        assert run_gate(str(tmp_path)) == 2

    def test_gate_metrics_paths_match_checked_in_artifacts(self):
        """The gate specs must stay in sync with the real BENCH files at
        the repo root (when present)."""
        baselines = load_baselines(".")
        for spec in GATE_METRICS:
            if spec.name in baselines:
                assert baselines[spec.name]["value"] > 0


# --------------------------------------------------------------------- #
# trace propagation across the serve worker pool (satellite)
# --------------------------------------------------------------------- #
class TestServeTracePropagation:
    def test_request_ids_flow_queue_to_kernel(self, rng):
        """queue-wait, batch, and engine kernel spans all carry the
        submitted request's id; results expose it."""
        det = Detector(SkyNetBackbone("C", width_mult=0.25, rng=rng))
        det.eval()
        serve = ServeConfig(max_batch_size=4, max_wait_ms=2.0,
                            num_workers=1, watchdog=False)
        with obs.recording() as rec:
            with Session.load(det, SessionConfig(), serve=serve) as session:
                futures = [session.submit(img[None])
                           for img in _images(rng, 6)]
                results = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in results)
        ids = [r.request_id for r in results]
        assert len(set(ids)) == 6
        assert all(i.startswith("Detector-") for i in ids)

        spans = rec.tracer.spans
        waits = [s for s in spans if s.name == "serve/queue_wait"]
        assert sorted(s.request_id for s in waits) == sorted(ids)
        batches = [s for s in spans if s.name == "serve/batch"]
        assert batches
        batch_ids = ",".join(s.request_id for s in batches)
        for rid in ids:  # every request attributed to some batch
            assert rid in batch_ids
        kernels = [s for s in spans if s.name == "engine/kernel"]
        assert kernels
        assert all(s.request_id and s.request_id in batch_ids
                   for s in kernels)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_ids_survive_watchdog_respawn(self, rng):
        """A request requeued by the watchdog keeps its identity: the
        respawn event fires and the request's id still reaches a batch
        span on the respawned worker."""
        cfg = ServeConfig(max_batch_size=4, max_wait_ms=1.0, num_workers=1,
                          watchdog=True, watchdog_interval_ms=5.0)
        plan = FaultPlan([FaultSpec("serve.worker", "crash", times=1)])
        images = _images(rng, 8)
        with obs.recording() as rec:
            with InferenceServer(_echo_factory, cfg, name="crashy") as server:
                with faults.inject(plan):
                    futures = [server.submit(images[i:i + 1])
                               for i in range(8)]
                    results = [f.result(timeout=10.0) for f in futures]
        assert [r.status for r in results] == ["ok"] * 8
        respawns = [e for e in rec.tracer.events
                    if e["name"] == "serve/worker_respawn"]
        assert respawns and respawns[0]["attrs"]["worker"] == 0
        batch_ids = ",".join(
            s.request_id for s in rec.tracer.spans
            if s.name == "serve/batch")
        for r in results:
            assert r.request_id in batch_ids

    def test_fallback_batches_attributed_to_fallback_backend(self, rng):
        """When the breaker trips onto the fallback runner, batch spans
        keep the request attribution and record backend=fallback."""
        def broken_factory():
            def runner(x):
                raise RuntimeError("primary always fails")

            return runner

        cfg = ServeConfig(max_batch_size=2, max_wait_ms=1.0, num_workers=1,
                          max_retries=0, breaker_threshold=1,
                          breaker_cooldown_ms=10_000.0, watchdog=False)
        images = _images(rng, 4)
        with obs.recording() as rec:
            with InferenceServer(broken_factory, cfg, name="flaky",
                                 fallback_factory=_echo_factory) as server:
                futures = [server.submit(images[i:i + 1]) for i in range(4)]
                results = [f.result(timeout=10.0) for f in futures]
        assert sum(r.ok for r in results) >= 2  # fallback served the rest
        opened = [e for e in rec.tracer.events
                  if e["name"] == "serve/breaker_open"]
        assert opened
        fallback_batches = [
            s for s in rec.tracer.spans
            if s.name == "serve/batch"
            and s.attrs.get("backend") == "fallback"
        ]
        assert fallback_batches
        assert all(s.request_id for s in fallback_batches)

    def test_breaker_emits_transition_events(self):
        from repro.resilience.breaker import CircuitBreaker

        clock = [0.0]
        with obs.recording() as rec:
            breaker = CircuitBreaker(threshold=1, cooldown_s=1.0,
                                     clock=lambda: clock[0])
            breaker.record_failure()      # -> open
            clock[0] = 2.0
            assert breaker.allow_primary()  # -> half_open
            breaker.record_success()      # -> closed
        names = [e["name"] for e in rec.tracer.events]
        assert names == ["serve/breaker_open", "serve/breaker_half_open",
                         "serve/breaker_closed"]


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #
class TestTelemetryCli:
    def test_profile_engine_mode(self, capsys):
        from repro.cli import main

        code = main(["profile", "skynet", "--engine", "--width", "0.25",
                     "--height", "16", "--input-width", "32",
                     "--quant-bits", "8,8", "--reps", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel profile" in out
        assert "per-kernel comparison" in out and "w8/f8" in out

    def test_bench_cli_reports_without_check(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # no baselines here
        assert main(["bench"]) == 2

    def test_serve_cli_full_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t-chrome.json")
        metrics = str(tmp_path / "metrics.txt")
        code = main([
            "serve", "--images", "8", "--width", "0.25", "--workers", "1",
            "--metrics-port", "0", "--metrics-out", metrics,
            "--chrome-trace", chrome, "--trace", trace,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics: http://127.0.0.1:" in out
        text = open(metrics).read()
        assert "repro_serve_completed_total" in text
        with open(chrome) as fh:
            events = json.load(fh)["traceEvents"]
        assert any(e.get("ph") == "X" and e["name"] == "serve/batch"
                   for e in events)
        records = obs.load_trace(trace)
        assert records[0]["type"] == "meta"
        assert any(r.get("request") for r in records
                   if r.get("type") == "span")

    def test_obs_cli_chrome_conversion(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "x.jsonl")
        with obs.recording(trace):
            with obs.span("a"):
                pass
        chrome = str(tmp_path / "x-chrome.json")
        assert main(["obs", trace, "--chrome", chrome]) == 0
        with open(chrome) as fh:
            assert any(e["name"] == "a"
                       for e in json.load(fh)["traceEvents"])

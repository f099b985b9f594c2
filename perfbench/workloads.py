"""The three benchmark workloads.

Each workload renders its inputs from the seed before any timing, sets
the system up, measures one window, sets up several more times
(``setup_s`` is their median), checks outputs outside the window, and
returns an :class:`Outcome`.  With ``trace=True`` the workload also
replays the same path rebuilt from public parts, with a span around
every layer call: closed loops alternate untraced and traced calls in
one window, the stream runs half its window untraced and half traced.

The benchmark only calls public functions of ``repro``; nothing under
``src/`` knows it is being measured.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import (
    Tracer,
    attribute,
    block_rate,
    failed_ratio,
    latency_summary,
    peak_rss_mb,
    poisson_schedule,
)
from repro.core import SkyNetBackbone
from repro.datasets import make_dacsdc
from repro.datasets.renderer import SceneRenderer
from repro.detection import Detector, YoloHead
from repro.detection.boxes import box_iou, cxcywh_to_xyxy
from repro.detection.head import best_box, decode_grid
from repro.detection.tiling import FrameTiler
from repro.nn.engine import QuantConfig, compile_net
from repro.nn.serialization import load_model
from repro.runtime import ServeConfig, Session, SessionConfig, StreamConfig
from repro.serve import InferenceServer
from repro.serve.stream import CallbackSink, StreamManager

HERE = Path(__file__).resolve().parent
WEIGHTS = HERE / "weights" / "skynet_c_w025.npz"
WEIGHTS_META = WEIGHTS.with_suffix(".json")

#: Plan-step slots reported per engine; a plan with fewer steps reports
#: zeros in the unused slots.
ENGINE_SLOTS = 10
QUANT_SLOTS = 13
ATTR_LAYERS = ("engine", "quant", "detection", "tiling", "runtime",
               "serve", "stream", "gen", "unattributed")

#: Every per-layer metric, with its unit.  Every run reports all of
#: them; a layer a workload bypasses reports 0.
PER_LAYER: dict[str, str] = {
    "engine.forward_ms": "ms",
    "engine.bundle01_share": "ratio",
    "engine.arena_mb": "MB",
    **{f"engine.kernel.{i:02d}.ms": "ms" for i in range(ENGINE_SLOTS)},
    **{f"engine.kernel.{i:02d}.gflops": "GFLOP/s"
       for i in range(ENGINE_SLOTS)},
    "quant.forward_ms": "ms",
    "quant.calibrate_s": "s",
    **{f"quant.kernel.{i:02d}.ms": "ms" for i in range(QUANT_SLOTS)},
    "detection.decode_ms": "ms",
    "detection.decode_share": "ratio",
    "tiling.split_ms": "ms",
    "tiling.merge_ms": "ms",
    "tiling.merge_share": "ratio",
    "tiling.candidates_per_frame": "count",
    "tiling.kept_ratio": "ratio",
    "runtime.load_s": "s",
    "runtime.run_overhead_ms": "ms",
    "serve.service_ms": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.wait_ms_p90": "ms",
    "serve.mean_batch_size": "count",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.retries": "count",
    "serve.fallback_batches": "count",
    "stream.accepted": "count",
    "stream.processed": "count",
    "stream.dropped_by_policy": "count",
    "stream.sink_ms": "ms",
    "stream.brownout_max_level": "count",
    "stream.put_block_ms_max": "ms",
    "gen.sent": "count",
    "gen.late_p90_ms": "ms",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    **{f"attr.{layer}.share": "ratio" for layer in ATTR_LAYERS},
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    attribution: dict | None = None
    spans: list | None = None


# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #
def _median(values) -> float:
    return float(statistics.median(values))


def _ms(seconds):
    """Seconds -> milliseconds, for a scalar or an array."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    return float(ms) if ms.ndim == 0 else ms


def load_trained_detector() -> Detector:
    """The committed width-0.25 SkyNet-C, after checking its sha256."""
    meta = json.loads(WEIGHTS_META.read_text())
    digest = hashlib.sha256(WEIGHTS.read_bytes()).hexdigest()
    if digest != meta["sha256"]:
        raise RuntimeError(
            f"{WEIGHTS.name} sha256 {digest} != recorded {meta['sha256']}; "
            "re-run perfbench/train_weights.py"
        )
    backbone = SkyNetBackbone(meta["backbone"], width_mult=meta["width_mult"],
                              rng=np.random.default_rng(0))
    det = Detector(backbone, head=YoloHead(
        backbone.out_channels, np.asarray(meta["anchors"]),
        rng=np.random.default_rng(1)))
    return load_model(det, str(WEIGHTS))


def _finish_setup(out: Outcome, setup, first: float, reps: int) -> None:
    """Set up ``reps`` more times after the window, closing each, and
    report their median as ``setup_s``.

    The set-up that built the measured session ran first in a fresh
    process; its time (kept in the samples as ``setup_first``) carries
    one-off process costs (allocator growth, thread-pool start) that
    made it bimodal on the reference host, so it is left out of the
    median."""
    times = []
    for _ in range(reps):
        secs, session, _ = setup()
        session.close()
        times.append(secs)
    out.samples["setup_first"] = first
    out.samples["setup"] = times
    out.e2e["setup_s"] = _median(times)


def _closed_loop(calls, frames, seconds: float):
    """One caller, next call only after the previous returns.

    Each frame goes to every callable of ``calls`` in turn (with
    tracing on: untraced ``Session.run``, then the traced replay, so both
    see the same host conditions).  Returns, per callable, the call
    latencies (s) and the first output per distinct frame; plus the
    error count."""
    lat = [[] for _ in calls]
    outs = [{} for _ in calls]
    errors, n, p = 0, 0, len(frames)
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    while end < deadline:
        x = frames[n % p]
        for j, call in enumerate(calls):
            t0 = time.perf_counter()
            try:
                out = call(x, n)
            except Exception:  # counted as a failed frame, not fatal
                errors += 1
                out = None
            end = time.perf_counter()
            lat[j].append(end - t0)
            if n < p and out is not None:
                outs[j][n] = out
        n += 1
    return lat, outs, errors


def _run_closed(out: Outcome, session, frames, seconds: float,
                replay=None) -> tuple[dict, list]:
    """The closed-loop window shared by both closed-loop workloads.

    Fills the end-to-end metrics except ``mean_iou`` and returns every
    frame's ``Session.run`` output plus the per-call latencies."""
    for i in range(3):
        session.run(frames[i])
    calls = [lambda x, i: session.run(x)] + ([replay] if replay else [])
    lat, outs, errors = _closed_loop(calls, frames, seconds)
    rss = peak_rss_mb()
    ref = outs[0]
    for i in range(len(frames)):  # outputs of frames the window missed
        if i not in ref:
            ref[i] = session.run(frames[i])
    summary = latency_summary(_ms(lat[0]))
    out.attempted, out.failed = len(lat[0]), errors
    out.samples["latency"] = summary["samples"]
    out.samples["latency_blocks"] = summary["blocks"]
    out.samples["block_p50_ms"] = summary["block_p50"]
    out.samples["block_p90_ms"] = summary["block_p90"]
    out.e2e = {
        "fps": block_rate(lat[0]) * (1.0 - errors / len(lat[0])),
        "latency_p50_ms": summary["p50"],
        "latency_p90_ms": summary["p90"],
        "ok_ratio": 1.0 - failed_ratio(len(lat[0]), error=errors),
        "peak_rss_mb": rss,
    }
    if replay:
        out.checks["replay_equals_session_run"] = all(
            np.array_equal(o, ref[i]) for i, o in outs[1].items())
        out.layers["gen.sent"] = sum(len(x) for x in lat)
        out.layers["trace.overhead"] = (
            len(lat[0]) / sum(lat[0])) / (len(lat[1]) / sum(lat[1])) - 1.0
    return ref, lat


def _profile_slots(net, x, prefix: str, slots: int, gflops: bool):
    """Per-step best times (and GFLOP/s) of ``CompiledNet.profile``,
    plus the profile itself."""
    prof = net.profile(x, reps=10, warmup=2)
    out = {}
    for i in range(slots):
        step = prof.steps[i] if i < len(prof.steps) else None
        out[f"{prefix}.kernel.{i:02d}.ms"] = step.best_ms if step else 0.0
        if gflops:
            out[f"{prefix}.kernel.{i:02d}.gflops"] = (
                step.gflops_per_s if step else 0.0)
    return out, prof


def _finish_trace(out: Outcome, tracer: Tracer, wall: float) -> None:
    out.attribution = attribute(tracer.spans, wall)
    out.layers.update({f"attr.{layer}.share": out.attribution.get(layer, 0.0)
                       / wall for layer in ATTR_LAYERS})
    out.layers["trace.wall_s"] = wall
    out.spans = tracer.as_records()


def _durations(tracer: Tracer, name: str) -> list[float]:
    return [s.duration for s in tracer.spans if s.name == name]


def oracle_iou(packed: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Best-prediction IoU per ground-truth object (0 when undetected)."""
    valid = packed[packed[:, 4] >= 0.0]
    if len(valid) == 0:
        return np.zeros(len(gt))
    ious = box_iou(cxcywh_to_xyxy(gt)[:, None, :],
                   cxcywh_to_xyxy(valid[:, :4])[None, :, :])
    return ious.max(axis=1)


# --------------------------------------------------------------------- #
# single_cam_fp32
# --------------------------------------------------------------------- #
SINGLE = {
    "model": "SkyNet-A", "width_mult": 1.0, "weights": "seeded (model seed 0)",
    "backend": "engine", "input_hw": [160, 320], "frames": 32,
    "check_frames": 2, "setup_reps": 7, "loop": "closed, 1 caller",
    "stresses": "repro.nn.engine fp32 kernels (bundles 0-1 most)",
    "bypasses": "tiling, quant, serve, stream",
}


def _seeded_skynet_a() -> Detector:
    backbone = SkyNetBackbone("A", width_mult=SINGLE["width_mult"],
                              rng=np.random.default_rng(0))
    return Detector(backbone, head=YoloHead(backbone.out_channels,
                                            rng=np.random.default_rng(1)))


def single_cam_fp32(seed: int, seconds: float, trace: bool) -> Outcome:
    h, w = SINGLE["input_hw"]
    renderer = SceneRenderer(image_hw=(h, w))
    rng = np.random.default_rng([seed, 0])
    frames = np.stack([renderer.render(rng=rng)[0]
                       for _ in range(SINGLE["frames"])])

    def setup():
        t0 = time.perf_counter()
        det = _seeded_skynet_a()
        t1 = time.perf_counter()
        session = Session.load(det, SessionConfig(backend="engine"),
                               warmup=(3, h, w))
        t2 = time.perf_counter()
        return t2 - t0, session, (det, t2 - t1)

    out = Outcome(config=dict(SINGLE, seed=seed, seconds=seconds))
    first, session, (det, load_s) = setup()
    tracer = Tracer()
    replay = None
    if trace:
        net = compile_net(det, name=type(det.backbone).__name__)
        net.warmup((1, 3, h, w))
        anchors = det.head.anchors

        def replay(x, i):
            with tracer.span("frame", frame=i):
                with tracer.span("engine.forward"):
                    raw = net(x[None])
                with tracer.span("detection.decode"):
                    return best_box(raw, anchors)[0]

    ref, lat = _run_closed(out, session, frames, seconds, replay)
    session.close()
    _finish_setup(out, setup, first, SINGLE["setup_reps"])

    # Outputs must match the eager backend on a fixed check subset.
    k = SINGLE["check_frames"]
    engine_boxes = np.stack([ref[i] for i in range(k)])
    eager_boxes = Session.load(det, SessionConfig(backend="eager")).run(
        frames[:k])
    out.checks["engine_matches_eager_1e-5"] = bool(
        np.allclose(engine_boxes, eager_boxes, atol=1e-5, rtol=0))
    # Seeded weights detect nothing, so quality here is the agreement
    # with the eager reference rather than IoU against ground truth.
    out.e2e["mean_iou"] = float(box_iou(cxcywh_to_xyxy(engine_boxes),
                                        cxcywh_to_xyxy(eager_boxes)).mean())
    out.samples["iou_frames"] = k
    if not trace:
        return out

    fwd = _durations(tracer, "engine.forward")
    dec = _durations(tracer, "detection.decode")
    slots, prof = _profile_slots(net, frames[:1], "engine", ENGINE_SLOTS,
                                 gflops=True)
    out.layers.update(slots)
    wall = sum(lat[1])
    out.layers.update({
        "engine.forward_ms": _ms(_median(fwd)),
        "engine.bundle01_share": (prof.steps[0].best_ms
                                  + prof.steps[1].best_ms) / prof.best_ms,
        "engine.arena_mb": prof.arena_bytes / 1e6,
        "detection.decode_ms": _ms(_median(dec)),
        "detection.decode_share": sum(dec) / wall,
        "runtime.load_s": load_s,
        "runtime.run_overhead_ms": _ms(_median(
            [r - f - d for r, f, d in zip(lat[0], fwd, dec)])),
    })
    out.config["engine_steps"] = [st.label for st in prof.steps]
    _finish_trace(out, tracer, wall)
    return out


# --------------------------------------------------------------------- #
# hires_tiled_quant
# --------------------------------------------------------------------- #
HIRES = {
    "model": "SkyNet-C (trained)", "width_mult": 0.25, "backend": "quant",
    "quant_bits": [8, 8], "frame_hw": [192, 384], "tiles": [4, 4],
    "tile_overlap": 0.25, "max_detections": 32, "objects_per_scene": 3,
    "area_range": [0.0015, 0.006], "clutter": 4, "scenes": 192,
    "calibration_scenes": 2, "setup_reps": 5, "loop": "closed, 1 caller",
    "stresses": "repro.nn.engine.quant at batch 16; tiling split/merge",
    "bypasses": "fp32 engine, serve, stream",
}


def _tiler(anchors) -> FrameTiler:
    return FrameTiler(anchors, *HIRES["tiles"],
                      overlap=HIRES["tile_overlap"],
                      max_detections=HIRES["max_detections"])


def _render_scenes(rng, n: int):
    renderer = SceneRenderer(image_hw=tuple(HIRES["frame_hw"]),
                             clutter=HIRES["clutter"])
    frames, gts = [], []
    for _ in range(n):
        img, specs = renderer.render_multi(
            HIRES["objects_per_scene"], rng,
            area_range=tuple(HIRES["area_range"]))
        frames.append(img)
        gts.append(np.stack([s.box for s in specs]))
    return np.stack(frames), gts


def hires_tiled_quant(seed: int, seconds: float, trace: bool) -> Outcome:
    frames, gts = _render_scenes(np.random.default_rng([seed, 1]),
                                 HIRES["scenes"])
    cal_frames, _ = _render_scenes(np.random.default_rng([seed, 2]),
                                   HIRES["calibration_scenes"])
    anchors = np.asarray(json.loads(WEIGHTS_META.read_text())["anchors"])
    tiler = _tiler(anchors)
    calibration, _ = tiler.split(cal_frames)
    config = SessionConfig(
        backend="quant", quant_bits=tuple(HIRES["quant_bits"]),
        tiles=tuple(HIRES["tiles"]), tile_overlap=HIRES["tile_overlap"],
        tile_max_detections=HIRES["max_detections"])
    fh, fw = HIRES["frame_hw"]

    def setup():
        t0 = time.perf_counter()
        det = load_trained_detector()
        t1 = time.perf_counter()
        session = Session.load(det, config, calibration=calibration,
                               warmup=(3, fh, fw))
        t2 = time.perf_counter()
        return t2 - t0, session, (det, t2 - t1)

    out = Outcome(config=dict(HIRES, seed=seed, seconds=seconds))
    first, session, (det, load_s) = setup()
    out.checks["session_backend_is_quant"] = session.backend == "quant"

    # The replay rebuilds split -> integer engine -> merge from public
    # parts; its plan must be bit-exact against the fake-quant reference.
    t0 = time.perf_counter()
    net = compile_net(det, name=type(det.backbone).__name__,
                      quant=QuantConfig(*HIRES["quant_bits"]),
                      calibration=calibration)
    calibrate_s = time.perf_counter() - t0
    out.checks["quant_bit_exact_vs_reference"] = bool(np.array_equal(
        net(calibration), net.quant_stats["reference_output"]))
    tiles, plan = tiler.split(frames[:1])
    net.warmup(tiles.shape)
    tracer = Tracer()
    raws = {}

    def replay(x, i):
        with tracer.span("frame", frame=i):
            with tracer.span("tiling.split"):
                tiles, plan = tiler.split(x[None])
            with tracer.span("quant.forward"):
                raw = net(tiles)
            with tracer.span("tiling.merge"):
                packed = tiler.merge(raw, 1, plan)[0]
        if i < len(frames):
            raws[i] = raw
        return packed

    ref, lat = _run_closed(out, session, frames, seconds,
                           replay if trace else None)
    session.close()
    _finish_setup(out, setup, first, HIRES["setup_reps"])
    if not trace:
        out.checks["replay_equals_session_run"] = all(
            np.array_equal(replay(frames[i], i), ref[i]) for i in range(2))
    iou = np.concatenate([oracle_iou(ref[i], gts[i])
                          for i in range(len(frames))])
    out.e2e["mean_iou"] = float(iou.mean())
    out.samples["iou_objects"] = int(iou.size)
    if not trace:
        return out

    frame_ms = _durations(tracer, "frame")
    merge = _durations(tracer, "tiling.merge")
    cands = sum(int((decode_grid(raw, tiler.anchors)[1]
                     >= tiler.conf_threshold).sum()) for raw in raws.values())
    kept = sum(int((ref[i][:, 4] >= 0).sum()) for i in raws)
    slots, prof = _profile_slots(net, tiles, "quant", QUANT_SLOTS,
                                 gflops=False)
    out.layers.update(slots)
    out.layers.update({
        "quant.forward_ms": _ms(_median(_durations(tracer, "quant.forward"))),
        "quant.calibrate_s": calibrate_s,
        "tiling.split_ms": _ms(_median(_durations(tracer, "tiling.split"))),
        "tiling.merge_ms": _ms(_median(merge)),
        "tiling.merge_share": sum(merge) / sum(frame_ms),
        "tiling.candidates_per_frame": cands / len(raws),
        "tiling.kept_ratio": kept / cands if cands else 0.0,
        "runtime.load_s": load_s,
        "runtime.run_overhead_ms": _ms(_median(
            [r - f for r, f in zip(lat[0], frame_ms)])),
    })
    out.config["quant_steps"] = [st.label for st in prof.steps]
    _finish_trace(out, tracer, sum(lat[1]))
    return out


# --------------------------------------------------------------------- #
# stream_poisson
# --------------------------------------------------------------------- #
#: Cameras run at 50 fps, not 100, and ``queue_depth`` is 64 frames per
#: camera, not the default 8.  On a 2-vCPU host whose neighbours slow it
#: down for minutes at a time, 2 x 100 fps leaves too little headroom: a
#: stall fills the queues, the brownout ladder climbs to rung 2, and its
#: eager fallback is slower than the compiled engine, so the stream stays
#: browned out and drops frames (21% on seed 21 at depth 8; 54% on seed
#: 206 at depth 64).  The benchmark needs a workload on which no frame
#: fails; the collapse itself is a defect of the brownout ladder, left
#: for a change to ``repro.serve.stream``.
STREAM = {
    "model": "SkyNet-C (trained)", "width_mult": 0.25, "backend": "engine",
    "input_hw": [48, 96], "cameras": 2, "rate_hz_per_camera": 50.0,
    "arrivals": "independent Poisson per camera", "frames_per_camera": 512,
    "worker_backend": "thread", "serve": "ServeConfig() defaults",
    "track_smooth": 0.0, "queue_depth": 64, "setup_reps": 7, "lead_s": 0.05,
    "loop": "open, 2 cameras",
    "stresses": "repro.serve.server batching/futures; repro.serve.stream "
                "queues, tracker, sink; fp32 engine at batch ~1",
    "bypasses": "tiling, quant",
}


class _Camera:
    """One camera: pre-rendered frames on a seeded Poisson schedule.

    Iterating sleeps until each frame is due and yields a fresh view
    ``(1, C, H, W)`` of a pooled frame, so every scheduled frame is a
    distinct object the traced server can recognise."""

    def __init__(self, pool: np.ndarray, offsets: np.ndarray) -> None:
        self.offsets = offsets
        self.views = [pool[k % len(pool)][None] for k in range(len(offsets))]
        self.yielded = np.full(len(offsets), np.nan)
        self.t0 = 0.0

    def __iter__(self):
        for k, offset in enumerate(self.offsets):
            delay = self.t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.yielded[k] = time.perf_counter()
            yield self.views[k]

    @property
    def due(self) -> np.ndarray:
        return self.t0 + self.offsets


class _Deliveries:
    """The sink side: when each frame reached the sink, and its box."""

    def __init__(self, cameras: list[_Camera]) -> None:
        self.at = [np.full(len(c.offsets), np.nan) for c in cameras]
        self.boxes = [np.full((len(c.offsets), 4), np.nan) for c in cameras]
        self.events = 0
        self._lock = threading.Lock()

    def __call__(self, event: dict) -> None:
        now = time.perf_counter()
        cam, k = int(event["stream"][1:]), event["seq"] - 1
        self.at[cam][k] = now
        self.boxes[cam][k] = event["box"]
        with self._lock:
            self.events += 1


def _stream_inputs(seed: int, seconds: float):
    pools, gts, cams = [], [], []
    h, w = STREAM["input_hw"]
    for cam in range(STREAM["cameras"]):
        data = make_dacsdc(STREAM["frames_per_camera"], image_hw=(h, w),
                           rng=np.random.default_rng([seed, 10 + cam]))
        pools.append(data.images)
        gts.append(data.boxes)
        cams.append(_Camera(data.images, poisson_schedule(
            seed, cam, STREAM["rate_hz_per_camera"], seconds)))
    return pools, gts, cams


def _run_streams(engine, cams):
    """Start the cameras against ``engine``; wait until all is accounted.

    Returns the deliveries, the manager's final health snapshot, its
    deepest brownout rung, and whether every source drained in time."""
    deliveries = _Deliveries(cams)
    start = time.perf_counter() + STREAM["lead_s"]
    for cam in cams:
        cam.t0 = start
    config = StreamConfig(track_smooth=STREAM["track_smooth"],
                          queue_depth=STREAM["queue_depth"])
    sink = CallbackSink(deliveries)
    if isinstance(engine, Session):
        manager = engine.open_streams(cams, sink=sink, config=config)
    else:
        manager = StreamManager(engine, cams, sink=sink, config=config).start()
    # Sleep through the schedule instead of letting join() poll every
    # 5 ms: the harness should not compete for the interpreter lock.
    last = max(c.offsets[-1] for c in cams if len(c.offsets))
    time.sleep(max(0.0, start + last - time.perf_counter()))
    joined = manager.join(timeout=60.0)
    manager.stop()
    brownout = (0 if manager.controller is None
                else manager.controller.max_level_seen)
    return deliveries, manager.health(), brownout, joined


def _stream_metrics(out: Outcome, cams, deliveries, health, joined, pools,
                    gts, ref, prefix: str = "") -> tuple[dict, dict]:
    """Latency summary, end-to-end metrics and output checks of one
    window; also fills ``out.attempted``/``out.failed``."""
    acc = health["accounting"]
    sent = sum(len(c.offsets) for c in cams)
    ok = deliveries.events
    due, lat, ious, boxes_ok = [], [], [], True
    for cam, c in enumerate(cams):
        got = ~np.isnan(deliveries.at[cam])
        due.append(c.due[got])
        lat.append((deliveries.at[cam] - c.due)[got])
        idx = np.nonzero(got)[0] % len(pools[cam])
        boxes = deliveries.boxes[cam][got]
        boxes_ok &= bool(np.allclose(boxes, ref[cam][idx], atol=1e-5, rtol=0))
        ious.append(box_iou(cxcywh_to_xyxy(boxes),
                            cxcywh_to_xyxy(gts[cam][idx])))
    order = np.argsort(np.concatenate(due), kind="stable")
    summary = latency_summary(_ms(np.concatenate(lat)[order]))
    last = max(np.nanmax(d) for d in deliveries.at)
    out.checks[prefix + "streams_drained"] = joined
    out.checks[prefix + "accepted_equals_processed_plus_dropped"] = bool(
        acc["exact"] and acc["accepted"]
        == acc["processed"] + acc["dropped_by_policy"])
    out.checks[prefix + "events_equal_processed"] = ok == acc["processed"]
    out.checks[prefix + "event_boxes_equal_session_run"] = boxes_ok
    out.attempted, out.failed = sent, sent - ok
    ratio = failed_ratio(sent, dropped=acc["dropped_by_policy"],
                         missing=sent - acc["accepted"],
                         undelivered=acc["processed"] - ok)
    return summary, {
        "fps": ok / (last - cams[0].t0),
        "latency_p50_ms": summary["p50"],
        "latency_p90_ms": summary["p90"],
        "ok_ratio": 1.0 - ratio,
        "mean_iou": float(np.concatenate(ious).mean()),
    }


def stream_poisson(seed: int, seconds: float, trace: bool) -> Outcome:
    window = seconds / 2 if trace else seconds
    pools, gts, cams = _stream_inputs(seed, window)
    h, w = STREAM["input_hw"]

    def setup():
        t0 = time.perf_counter()
        det = load_trained_detector()
        t1 = time.perf_counter()
        session = Session.load(det, SessionConfig(backend="engine"),
                               serve=ServeConfig(), warmup=(3, h, w))
        t2 = time.perf_counter()
        # Ready once the server's worker has built its runner.
        session.submit(pools[0][0]).result(timeout=30.0)
        return time.perf_counter() - t0, session, (det, t2 - t1)

    out = Outcome(config=dict(STREAM, seed=seed, seconds=seconds))
    first, session, (det, load_s) = setup()
    deliveries, health, brownout, joined = _run_streams(session, cams)
    rss = peak_rss_mb()
    stats = session.health()["stats"]
    ref = [session.run(pool) for pool in pools]
    summary, e2e = _stream_metrics(out, cams, deliveries, health, joined,
                                   pools, gts, ref)
    out.e2e = dict(e2e, peak_rss_mb=rss)
    out.samples = {"latency": summary["samples"],
                   "latency_blocks": summary["blocks"],
                   "block_p50_ms": summary["block_p50"],
                   "block_p90_ms": summary["block_p90"],
                   "iou_frames": out.attempted - out.failed}
    gen_late = np.concatenate([c.yielded - c.due for c in cams])
    streams = health["streams"]
    out.layers.update({
        "runtime.load_s": load_s,
        "serve.mean_batch_size": stats["mean_batch_size"],
        "serve.shed": stats["shed"],
        "serve.timeouts": stats["timeouts"],
        "serve.retries": stats["retries"],
        "serve.fallback_batches": stats["fallback_batches"],
        "stream.accepted": sum(s["accepted"] for s in streams),
        "stream.processed": sum(s["processed"] for s in streams),
        "stream.dropped_by_policy": sum(s["dropped_by_policy"]
                                        for s in streams),
        "stream.brownout_max_level": brownout,
        "stream.put_block_ms_max": max(s["put_block_ms_max"]
                                       for s in streams),
        "gen.sent": out.attempted,
        "gen.late_p90_ms": _ms(np.percentile(gen_late, 90)),
    })
    if trace:
        _trace_stream(out, det, session, seed, window, pools, gts, ref,
                      summary)
    session.close()
    _finish_setup(out, setup, first, STREAM["setup_reps"])
    return out


class _TracedServer(InferenceServer):
    """An :class:`InferenceServer` that stamps, per scheduled frame, when
    the stream worker submitted it and when its future resolved (other
    submissions, like the warm-up, pass through unstamped)."""

    def __init__(self, runner_factory, frame_of: dict, **kwargs) -> None:
        self.frame_of = frame_of
        self.submitted: dict = {}
        self.resolved: dict = {}
        super().__init__(runner_factory, ServeConfig(), **kwargs)

    def submit(self, image, deadline_ms=None):
        key = self.frame_of.get(id(image))
        if key is None:
            return super().submit(image, deadline_ms=deadline_ms)
        self.submitted[key] = time.perf_counter()
        future = super().submit(image, deadline_ms=deadline_ms)
        future.add_done_callback(
            lambda _: self.resolved.__setitem__(key, time.perf_counter()))
        return future


def _trace_stream(out, det, session, seed, window, pools, gts, ref,
                  untraced):
    """Same cameras and schedules through a server whose runner is
    rebuilt from public parts: ``CompiledNet`` clone -> ``best_box``."""
    h, w = STREAM["input_hw"]
    net = compile_net(det, name=type(det.backbone).__name__)
    anchors = det.head.anchors
    batches: list[tuple[float, float, float]] = []

    def factory():
        clone = net.clone_for_thread()
        clone(np.zeros((ServeConfig().max_batch_size, 3, h, w), np.float32))

        def runner(x):
            t0 = time.perf_counter()
            raw = clone(x)
            t1 = time.perf_counter()
            boxes = best_box(raw, anchors)
            batches.append((t0, t1, time.perf_counter()))
            return boxes

        return runner

    _, _, cams = _stream_inputs(seed, window)
    frame_of = {id(v): (cam, k) for cam, c in enumerate(cams)
                for k, v in enumerate(c.views)}
    server = _TracedServer(factory, frame_of, name=session.name,
                           fallback_factory=session.fallback_runner_for_thread)
    try:
        # Ready once the worker has built its runner, as in set-up.
        server.submit(pools[0][0]).result(timeout=30.0)
        deliveries, health, _, joined = _run_streams(server, cams)
    finally:
        server.stop()
    traced = Outcome()
    t_summary, _ = _stream_metrics(traced, cams, deliveries, health, joined,
                                   pools, gts, ref, prefix="traced_")
    out.checks.update(traced.checks)

    batches.sort(key=lambda b: b[2])
    ends = [b[2] for b in batches]
    tracer = Tracer()
    service, wait, sink = [], [], []
    for cam, c in enumerate(cams):
        for k in range(len(c.offsets)):
            at = deliveries.at[cam][k]
            if np.isnan(at) or (cam, k) not in server.resolved:
                continue
            due, got = c.due[k], c.yielded[k]
            sub, res = server.submitted[(cam, k)], server.resolved[(cam, k)]
            b0, b1, b2 = batches[bisect_right(ends, res) - 1]
            root = tracer.record("frame", due, at, frame=cam * 100000 + k)
            tracer.record("gen.late", due, max(due, got), root)
            tracer.record("stream.queue", got, sub, root)
            req = tracer.record("serve.request", sub, res, root)
            run = tracer.record("runtime.runner", b0, b2, req)
            tracer.record("engine.forward", b0, b1, run)
            tracer.record("detection.decode", b1, b2, run)
            tracer.record("stream.sink", res, at, root)
            service.append(b2 - b0)
            wait.append((at - due) - (b2 - b0))
            sink.append(at - res)
    wall = sum(s.duration for s in tracer.spans if s.name == "frame")
    fwd = [b[1] - b[0] for b in batches]
    dec = [b[2] - b[1] for b in batches]
    slots, prof = _profile_slots(net, pools[0][:1], "engine", ENGINE_SLOTS,
                                 gflops=True)
    out.layers.update(slots)
    out.layers.update({
        "engine.forward_ms": _ms(_median(fwd)),
        "engine.bundle01_share": (prof.steps[0].best_ms
                                  + prof.steps[1].best_ms) / prof.best_ms,
        "engine.arena_mb": prof.arena_bytes / 1e6,
        "detection.decode_ms": _ms(_median(dec)),
        "detection.decode_share": sum(
            s.duration for s in tracer.spans
            if s.name == "detection.decode") / wall,
        "serve.service_ms": _ms(_median(service)),
        "serve.wait_ms_p50": _ms(np.percentile(wait, 50)),
        "serve.wait_ms_p90": _ms(np.percentile(wait, 90)),
        "stream.sink_ms": _ms(_median(sink)),
        "gen.sent": out.attempted + traced.attempted,
        # Open loop: the schedule fixes fps, so the overhead shows as
        # latency instead.
        "trace.overhead": t_summary["p50"] / untraced["p50"] - 1.0,
    })
    out.config["engine_steps"] = [st.label for st in prof.steps]
    _finish_trace(out, tracer, wall)

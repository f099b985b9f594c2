"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import box_iou, cxcywh_to_xyxy
from repro.detection.head import best_box, decode_grid
from repro.detection.postprocess import nms
from repro.hardware.fpga.resources import bram18_for_buffer, dsp_count
from repro.hardware.quantization import quantize_fixed
from repro.nn import Tensor
from repro.nn import functional as F


class TestTensorProperties:
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_reorg_roundtrips_through_gradient(self, c, h2, w2):
        """reorg is a permutation: grad of sum is exactly ones."""
        x = Tensor(
            np.random.default_rng(0).normal(size=(1, c, 2 * h2, 2 * w2)),
            requires_grad=True,
        )
        F.reorg(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=20),
        st.lists(st.floats(-5, 5), min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, a, b):
        n = min(len(a), len(b))
        ta, tb = Tensor(np.array(a[:n])), Tensor(np.array(b[:n]))
        np.testing.assert_allclose((ta + tb).data, (tb + ta).data)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_relu6_bounded(self, vals):
        out = Tensor(np.array(vals)).relu6().data
        assert (out >= 0).all() and (out <= 6).all()

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_distribution(self, vals):
        p = F.softmax(Tensor(np.array(vals)[None])).data
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p >= 0).all()

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_maxpool_dominates_avgpool(self, h2, w2):
        x = Tensor(
            np.random.default_rng(1).normal(size=(1, 2, 2 * h2, 2 * w2))
        )
        mx = F.max_pool2d(x, 2).data
        av = F.avg_pool2d(x, 2).data
        assert (mx >= av - 1e-12).all()


class TestQuantizationProperties:
    @given(
        st.lists(
            st.floats(-100, 100).filter(lambda v: v == 0 or abs(v) > 1e-6),
            min_size=2, max_size=50,
        ),
        st.integers(6, 14),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantization_preserves_sign_of_large_values(self, vals, bits):
        # values well above the LSB keep their sign (at >= 6 bits the
        # top half of the dynamic range is always representable)
        x = np.array(vals)
        q = quantize_fixed(x, bits)
        max_abs = np.abs(x).max()
        if max_abs == 0:
            return
        big = np.abs(x) > max_abs / 2
        assert (np.sign(q[big]) == np.sign(x[big])).all()

    @given(st.integers(4, 16))
    @settings(max_examples=13, deadline=None)
    def test_quantization_idempotent_any_bits(self, bits):
        x = np.random.default_rng(0).normal(size=100)
        q1 = quantize_fixed(x, bits)
        np.testing.assert_allclose(quantize_fixed(q1, bits), q1, atol=1e-12)


class TestHardwareProperties:
    @given(st.integers(1, 512), st.integers(2, 27), st.integers(2, 18))
    @settings(max_examples=50, deadline=None)
    def test_dsp_count_monotone_in_lanes(self, lanes, w, fm):
        assert dsp_count(lanes + 1, w, fm) >= dsp_count(lanes, w, fm)

    @given(st.integers(1, 100_000), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_bram_monotone_in_depth(self, depth, bits):
        assert bram18_for_buffer(depth + 1, bits) >= bram18_for_buffer(
            depth, bits
        )

    @given(st.integers(1, 100_000), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_pow2_rounding_at_most_doubles(self, depth, bits):
        exact = bram18_for_buffer(depth, bits, pow2_depth=False)
        rounded = bram18_for_buffer(depth, bits, pow2_depth=True)
        assert exact <= rounded <= 2 * exact + 1


class TestNmsProperties:
    @given(st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_kept_boxes_mutually_dissimilar(self, n):
        rng = np.random.default_rng(n)
        boxes = np.column_stack(
            [rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n),
             rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n)]
        )
        scores = rng.uniform(size=n)
        kept = nms(boxes, scores, iou_threshold=0.5)
        xy = cxcywh_to_xyxy(boxes[kept])
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert box_iou(xy[i], xy[j]) <= 0.5 + 1e-9

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_highest_scorer_always_kept(self, n):
        rng = np.random.default_rng(n + 100)
        boxes = np.column_stack(
            [rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n),
             rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n)]
        )
        scores = rng.uniform(size=n)
        kept = nms(boxes, scores)
        assert int(np.argmax(scores)) in kept.tolist()


def _best_box_reference(raw: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The full-grid decode followed by an argmax over (anchor, cell)."""
    boxes, conf = decode_grid(raw, anchors)
    n = raw.shape[0]
    idx = conf.reshape(n, -1).argmax(axis=1)
    return boxes.reshape(n, -1, 4)[np.arange(n), idx]


# Logits up to +-60 (where the decode clips), plus a pool of repeated
# values so ties — and confidences saturated to exactly 1.0 — are common.
_logit = st.one_of(
    st.floats(-60.0, 60.0, width=32),
    st.sampled_from([-60.0, -8.0, 0.0, 8.0, 17.5, 37.0, 40.0, 60.0]),
)


class TestBestBoxProperties:
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
           st.integers(1, 5), st.sampled_from([np.float32, np.float64]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_grid_decode(self, n, k, gh, gw, dtype, data):
        raw = np.asarray(data.draw(st.lists(
            _logit, min_size=n * k * 5 * gh * gw,
            max_size=n * k * 5 * gh * gw)), dtype=dtype)
        raw = raw.reshape(n, k * 5, gh, gw)
        anchors = np.asarray(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=2 * k, max_size=2 * k)))
        anchors = anchors.reshape(k, 2)
        got = best_box(raw, anchors)
        want = _best_box_reference(raw, anchors)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class _BoxIouTrack:
    """TrackState's association written with the array ``box_iou``."""

    def __init__(self, iou_threshold: float, smooth: float) -> None:
        self.iou_threshold, self.smooth = iou_threshold, smooth
        self.track_id, self.box, self.age = 0, None, 0

    def update(self, box):
        box = np.asarray(box, dtype=np.float64).reshape(-1)[:4]
        if self.box is not None:
            iou = float(box_iou(cxcywh_to_xyxy(self.box),
                                cxcywh_to_xyxy(box)))
            if iou >= self.iou_threshold:
                self.box = self.smooth * self.box + (1 - self.smooth) * box
                self.age += 1
                return "track_update", self.box
        self.track_id += 1
        self.box = box.copy()
        self.age = 0
        return "track_new", self.box


_coord = st.one_of(st.floats(-0.5, 1.5), st.just(0.0))
_size = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-13]))
# A step either nudges the previous detection (usually the same track;
# a zero nudge repeats it exactly) or jumps to a fresh box (usually a
# new track).  Thresholds 0 and 1 make IoU ties with the gate common.
_step = st.tuples(st.booleans(), _coord, _coord, _size, _size)
_threshold = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


class TestTrackStateProperties:
    @given(_threshold, st.floats(0.0, 1.0),
           st.lists(_step, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_matches_box_iou_association(self, threshold, smooth, steps):
        from repro.serve import TrackState

        track = TrackState(iou_threshold=threshold, smooth=smooth)
        ref = _BoxIouTrack(threshold, smooth)
        prev = np.array([0.5, 0.5, 0.2, 0.2])
        for nudge, a, b, c, d in steps:
            if nudge:
                box = prev + np.array([a, b, c, d]) * 0.05
            else:
                box = np.array([a, b, c, d])
            kind, got = track.update(box)
            want_kind, want = ref.update(box)
            assert kind == want_kind
            assert (track.track_id, track.age) == (ref.track_id, ref.age)
            np.testing.assert_array_equal(got, want)
            prev = box

"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    Span,
    Tracer,
    attribute,
    block_rate,
    blocks,
    failed_ratio,
    latency_summary,
    poisson_schedule,
    self_times,
    supported_percentile,
)


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
        (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert supported_percentile(n) == expected

    def test_tail_always_keeps_ten_samples(self):
        for n in range(1, 3000, 7):
            p = supported_percentile(n)
            if p is not None:
                assert n * (100 - p) / 100 >= 10

    def test_summary_refuses_unsupported_p90(self):
        with pytest.raises(ValueError, match="cannot support p90"):
            latency_summary(np.arange(500.0), block=99)
        with pytest.raises(ValueError, match="one block"):
            latency_summary(np.arange(99.0))

    def test_summary_is_median_over_blocks(self):
        fast = np.tile(np.arange(1.0, 101.0), 4)
        stalled = np.concatenate([fast, 1000.0 + np.arange(100.0)])
        s = latency_summary(stalled)
        assert s["samples"] == 500 and s["blocks"] == 5
        assert s["p50"] == pytest.approx(50.5)
        assert s["p90"] == pytest.approx(90.1)

    def test_remainder_joins_last_block(self):
        parts = blocks(np.arange(250.0))
        assert [len(b) for b in parts] == [100, 150]

    def test_block_rate(self):
        assert block_rate(np.full(300, 0.02)) == pytest.approx(50.0)


class TestFailedRatio:
    def test_every_failure_kind_counts(self):
        kinds = dict(shed=1, timeout=2, error=3, dropped=4, rejected=5)
        assert failed_ratio(100, **kinds) == pytest.approx(0.15)

    def test_no_failures(self):
        assert failed_ratio(7) == 0.0

    @pytest.mark.parametrize("attempted, kinds", [
        (0, {}), (5, {"shed": -1}), (5, {"shed": 3, "error": 3}),
    ])
    def test_bookkeeping_errors_raise(self, attempted, kinds):
        with pytest.raises(ValueError):
            failed_ratio(attempted, **kinds)


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans = [Span("frame", 0.0, 10.0), Span("a.x", 1.0, 4.0, parent=0),
                 Span("b.y", 5.0, 9.0, parent=0),
                 Span("c.z", 2.0, 3.0, parent=1)]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [Span("p.q", 0.0, 10.0), Span("a.x", 1.0, 6.0, parent=0),
                 Span("a.y", 4.0, 8.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_clipped_to_parent(self):
        spans = [Span("p.q", 0.0, 5.0), Span("a.x", 3.0, 9.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_attribution_sums_to_wall(self):
        spans = [Span("frame", 0.0, 10.0), Span("engine.f", 1.0, 7.0, 0),
                 Span("detection.d", 7.0, 8.0, 0)]
        rows = attribute(spans, wall_s=12.0)
        assert rows == pytest.approx(
            {"engine": 6.0, "detection": 1.0, "unattributed": 5.0})
        assert sum(rows.values()) == pytest.approx(12.0)

    def test_attribution_rejects_double_counting(self):
        spans = [Span("engine.f", 0.0, 5.0), Span("engine.g", 0.0, 5.0)]
        with pytest.raises(ValueError, match="exceed"):
            attribute(spans, wall_s=6.0)

    def test_tracer_nests_per_thread(self):
        tracer = Tracer()
        with tracer.span("frame", frame=3):
            with tracer.span("engine.forward"):
                pass
        root, child = tracer.spans
        assert root.parent is None and root.frame == 3
        assert child.parent == 0 and child.layer == "engine"
        assert root.start <= child.start <= child.end <= root.end


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        a = poisson_schedule(7, 0, 100.0, 5.0)
        b = poisson_schedule(7, 0, 100.0, 5.0)
        np.testing.assert_array_equal(a, b)

    def test_cameras_and_seeds_differ(self):
        base = poisson_schedule(7, 0, 100.0, 5.0)
        for other in (poisson_schedule(7, 1, 100.0, 5.0),
                      poisson_schedule(8, 0, 100.0, 5.0)):
            n = min(len(base), len(other))
            assert not np.array_equal(base[:n], other[:n])

    def test_rate_and_window(self):
        times = poisson_schedule(3, 0, 100.0, 20.0)
        assert np.all(np.diff(times) > 0)
        assert 0 < times[0] and times[-1] < 20.0
        assert len(times) == pytest.approx(2000, rel=0.1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            poisson_schedule(1, 0, 0.0, 1.0)


def test_benchmark_json_matches_the_code():
    """BENCHMARK.json names exactly the metrics run.py prints."""
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == workloads.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

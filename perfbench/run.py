"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload single_cam_fp32 --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The human-readable lines name every
metric with its unit and sample count; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The full record of the run — config, host
fingerprint, checks, per-layer attribution and, when traced, every span —
is written to ``perfbench/out/``.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC / 'repro'} not found: run from a repository checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from repro import obs  # noqa: E402

import workloads  # noqa: E402
from measure import host_fingerprint  # noqa: E402

WORKLOADS = {
    "single_cam_fp32": workloads.single_cam_fp32,
    "hires_tiled_quant": workloads.hires_tiled_quant,
    "stream_poisson": workloads.stream_poisson,
}

#: End-to-end metrics every workload reports, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "fps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "mean_iou": "ratio",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    obs.disable()  # telemetry off: the benchmark's own spans only
    outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace))
    if args.trace:
        units = workloads.PER_LAYER
        values = {name: float(outcome.layers.get(name, 0.0))
                  for name in units}
    else:
        units = E2E_UNITS
        values = {name: float(outcome.e2e[name]) for name in units}
    correct = all(outcome.checks.values())

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, ok in outcome.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in outcome.samples.items():
        if not name.startswith("block_"):  # per-block lists: record only
            print(f"  samples {name}: {value}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    if outcome.attribution is not None:
        wall = outcome.layers["trace.wall_s"]
        print(f"  attribution of {wall:.4f} s traced wall time:")
        for layer, secs in sorted(outcome.attribution.items(),
                                  key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {secs:9.4f} s  {secs / wall:7.2%}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(), "config": outcome.config,
        "checks": outcome.checks, "samples": outcome.samples,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "e2e": outcome.e2e, "layers": outcome.layers,
        "attribution": outcome.attribution, "spans": outcome.spans,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

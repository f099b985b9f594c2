"""Record the committed baseline: one untraced and one traced run per
workload, folded into ``perfbench/baseline.json``.

The baseline keeps what ``BENCHMARK.json`` has no room for: the full
configuration of every workload, the host fingerprint, the end-to-end
figures, and the traced attribution of time by layer that later changes
are sized against.  Run from the repository root:

    python3 perfbench/record_baseline.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("single_cam_fp32", "hires_tiled_quant", "stream_poisson")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL)
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        wall = traced["layers"]["trace.wall_s"]
        baseline["host"] = plain["host"]
        baseline["workloads"][workload] = {
            "why": why[workload],
            "config": traced["config"],
            "checks": {**plain["checks"], **traced["checks"]},
            "samples": plain["samples"],
            "end_to_end": plain["e2e"],
            "attribution_s": traced["attribution"],
            "attribution_share": {k: v / wall for k, v
                                  in traced["attribution"].items()},
            "traced_wall_s": wall,
            "per_layer": {k: v for k, v in traced["layers"].items() if v},
        }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

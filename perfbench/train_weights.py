"""Train the benchmark's width-0.25 SkyNet-C detector once and commit it.

The trained-detector workloads need realistic confidence maps: untrained
weights pass almost every grid cell through the 0.3 confidence
threshold, which inflates NMS and merge cost by orders of magnitude.
This script trains with the repository's own seeded trainer and writes

* ``weights/skynet_c_w025.npz`` — the state dict (``save_model``);
* ``weights/skynet_c_w025.json`` — anchors, training recipe, val IoU
  and the sha256 of the ``.npz``, which every benchmark run checks.

Benchmark runs load these files; they never train.  Run from the
repository root (about a minute on a 2-CPU host):

    python3 perfbench/train_weights.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import SkyNetBackbone  # noqa: E402
from repro.datasets import make_dacsdc_splits  # noqa: E402
from repro.detection import (  # noqa: E402
    DetectionTrainer,
    Detector,
    TrainConfig,
    YoloHead,
)
from repro.detection.anchors import kmeans_anchors  # noqa: E402
from repro.nn.serialization import save_model  # noqa: E402

WEIGHTS = HERE / "weights" / "skynet_c_w025.npz"
META = WEIGHTS.with_suffix(".json")

RECIPE = {
    "backbone": "C",
    "width_mult": 0.25,
    "image_hw": [48, 96],
    "train_images": 256,
    "val_images": 64,
    "data_seed": 1,
    "model_seed": 0,
    "train_seed": 0,
    "epochs": 12,
    "batch_size": 16,
    "lr": 2e-3,
    "augment": False,
}


def main() -> None:
    r = RECIPE
    train, val = make_dacsdc_splits(r["train_images"], r["val_images"],
                                    image_hw=tuple(r["image_hw"]),
                                    seed=r["data_seed"])
    anchors = kmeans_anchors(train.boxes[:, 2:4], k=2,
                             rng=np.random.default_rng(0))
    backbone = SkyNetBackbone(r["backbone"], width_mult=r["width_mult"],
                              rng=np.random.default_rng(r["model_seed"]))
    det = Detector(backbone, head=YoloHead(
        backbone.out_channels, anchors,
        rng=np.random.default_rng(r["model_seed"] + 1)))
    t0 = time.perf_counter()
    result = DetectionTrainer(det, TrainConfig(
        epochs=r["epochs"], batch_size=r["batch_size"],
        augment=r["augment"], lr=r["lr"], seed=r["train_seed"],
    )).fit(train, val, rng=np.random.default_rng(r["train_seed"]))
    train_s = time.perf_counter() - t0
    save_model(det, str(WEIGHTS))
    meta = dict(r, anchors=np.asarray(anchors).tolist(),
                val_iou=float(result.final_iou),
                train_s=round(train_s, 1),
                sha256=hashlib.sha256(WEIGHTS.read_bytes()).hexdigest())
    META.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"val IoU {meta['val_iou']:.3f} after {train_s:.1f} s -> {WEIGHTS}")


if __name__ == "__main__":
    main()

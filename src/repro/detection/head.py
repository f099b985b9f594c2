"""YOLO-style single-object regression head.

SkyNet adapts the YOLO detector head by *removing the classification
output* and using *two anchors* for bounding-box regression (Section 5.1);
each grid cell therefore predicts, per anchor, the 5-tuple
``(tx, ty, tw, th, conf)``.  With two anchors that is the 10-channel
final PW-Conv1 in Table 3.

The same head (same anchor set, same decode) is attached to every
backbone in the Table 2 comparison — the paper's "fixed back-end bounding
box regression part".
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.engine.kernels import clip_ufunc
from ..nn.layers import PWConv1x1
from ..nn.module import Module
from ..utils.rng import default_rng
from .anchors import DEFAULT_ANCHORS

__all__ = ["YoloHead", "decode_grid", "best_box"]


class YoloHead(Module):
    """1x1 conv projecting backbone features to ``num_anchors * 5`` maps.

    Parameters
    ----------
    in_channels:
        Channels of the backbone's output feature map.
    anchors:
        (K, 2) normalized anchor sizes; default is SkyNet's two anchors.
    """

    def __init__(
        self,
        in_channels: int,
        anchors: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.anchors = (
            DEFAULT_ANCHORS.copy() if anchors is None else np.asarray(anchors)
        )
        self.num_anchors = len(self.anchors)
        self.proj = PWConv1x1(
            in_channels, self.num_anchors * 5, bias=True, rng=default_rng(rng)
        )

    def forward(self, features: Tensor) -> Tensor:
        """Return raw grid predictions of shape (N, K*5, GH, GW)."""
        return self.proj(features)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-clip_ufunc(v, -60.0, 60.0)))


def decode_grid(
    raw: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode raw head output into boxes and confidences.

    Parameters
    ----------
    raw:
        (N, K*5, GH, GW) raw predictions (ndarray, inference only).
    anchors:
        (K, 2) normalized anchor sizes.

    Returns
    -------
    boxes:
        (N, K, GH, GW, 4) cxcywh boxes normalized to [0, 1].
    conf:
        (N, K, GH, GW) objectness scores in (0, 1).
    """
    p = _grid_view(raw, anchors)
    gh, gw = p.shape[-2:]
    cx_off, cy_off = np.meshgrid(np.arange(gw), np.arange(gh))  # (GH, GW)
    bx = (_sigmoid(p[:, :, 0]) + cx_off) / gw
    by = (_sigmoid(p[:, :, 1]) + cy_off) / gh
    bw = anchors[None, :, 0, None, None] * np.exp(np.clip(p[:, :, 2], -8, 8))
    bh = anchors[None, :, 1, None, None] * np.exp(np.clip(p[:, :, 3], -8, 8))
    conf = _sigmoid(p[:, :, 4])
    boxes = np.stack([bx, by, bw, bh], axis=-1)
    return boxes, conf


def _grid_view(raw: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """``raw`` as (N, K, 5, GH, GW), checking the channel count."""
    n, ch, gh, gw = raw.shape
    k = len(anchors)
    if ch != k * 5:
        raise ValueError(f"expected {k * 5} channels, got {ch}")
    return raw.reshape(n, k, 5, gh, gw)


def best_box(raw: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Pick the single highest-confidence box per image.

    DAC-SDC is a single-object task, so inference reduces to an argmax
    over (anchor, cell).  Only the confidence channel is decoded for the
    whole grid; the box is decoded for the winning cell alone, with the
    same arithmetic as :func:`decode_grid` (so ties, and confidences
    that saturate to 1.0, pick the same first cell).  Returns (N, 4)
    cxcywh boxes.
    """
    p = _grid_view(raw, anchors)
    n, _, _, gh, gw = p.shape
    idx = _sigmoid(p[:, :, 4]).reshape(n, -1).argmax(axis=1)
    a, cell = np.divmod(idx, gh * gw)
    t = p[np.arange(n), a, :4, cell // gw, cell % gw]  # winning logits
    out = np.empty((n, 4))
    out[:, :2] = _sigmoid(t[:, :2])
    out[:, 0] += cell % gw
    out[:, 1] += cell // gw
    out[:, :2] /= (gw, gh)
    np.multiply(anchors[a], np.exp(clip_ufunc(t[:, 2:], -8, 8)),
                out=out[:, 2:])
    return out

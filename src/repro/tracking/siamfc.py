"""SiamFC-style fully-convolutional Siamese tracker (Tao et al. / SiamFC).

The pre-RPN ancestor of SiamRPN++: a single cross-correlation response
map locates the target; scale is handled by a small multi-scale search
pyramid instead of box regression.  Included as the tracker-ablation
baseline — it shares the backbone and correlation machinery but has no
anchors and no regression, so comparing it with SiamRPN++ isolates the
RPN head's contribution.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, no_grad
from ..nn.layers import BatchNorm2d
from ..nn.module import Module
from ..utils.rng import default_rng, spawn
from .siamese import (
    EXEMPLAR_CONTEXT,
    SEARCH_CONTEXT,
    AdjustLayer,
    crop_and_resize,
    xcorr_depthwise,
)
from .siamrpn import EXEMPLAR_SIZE, SEARCH_SIZE

__all__ = ["SiamFC", "SiamFCTracker", "SiamFCTrainer"]


class SiamFC(Module):
    """Backbone + adjust + single correlation response.

    The response is the channel-mean of the depthwise correlation (the
    classic single-channel SiamFC score map), batch-normalized for
    trainability.
    """

    def __init__(
        self,
        backbone: Module,
        feat_ch: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.backbone = backbone
        self.adjust = AdjustLayer(backbone.out_channels, feat_ch,
                                  rng=spawn(rng))
        self.corr_bn = BatchNorm2d(feat_ch)
        stride = getattr(backbone, "stride", 8)
        self.stride = stride
        self.response = SEARCH_SIZE // stride - EXEMPLAR_SIZE // stride + 1

    def extract(self, images: Tensor) -> Tensor:
        return self.adjust(self.backbone(images))

    def forward(self, z_img: Tensor, x_img: Tensor) -> Tensor:
        """Score map (N, R, R) — higher where the target is."""
        zf = self.extract(z_img)
        xf = self.extract(x_img)
        corr = self.corr_bn(xcorr_depthwise(xf, zf))
        return corr.mean(axis=1)


class SiamFCTrainer:
    """Logistic training of the SiamFC score map.

    Labels are +1 within ``radius`` cells of the cell containing the
    ground-truth center (in search-crop coordinates), 0 elsewhere — the
    original SiamFC recipe with class balancing.
    """

    def __init__(
        self,
        model: SiamFC,
        steps: int = 60,
        batch_size: int = 8,
        lr: float = 1e-3,
        radius: int = 1,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.radius = radius
        self.seed = seed

    def _labels(self, gt_boxes: np.ndarray) -> np.ndarray:
        r = self.model.response
        frac = self.model.stride / SEARCH_SIZE
        grid = (np.arange(r) - (r - 1) / 2) * frac + 0.5
        labels = np.zeros((len(gt_boxes), r, r))
        for n, gt in enumerate(gt_boxes):
            di = np.abs(grid - gt[1])[:, None] / frac
            dj = np.abs(grid - gt[0])[None, :] / frac
            labels[n] = ((di <= self.radius) & (dj <= self.radius))
        return labels.astype(np.float64)

    def fit(self, dataset, rng: np.random.Generator | None = None
            ) -> list[float]:
        from ..nn.optim import Adam
        from .trainer import sample_pairs

        rng = (np.random.default_rng(self.seed) if rng is None
               else default_rng(rng))
        opt = Adam(self.model.parameters(), lr=self.lr)
        losses = []
        self.model.train()
        for _ in range(self.steps):
            batch = sample_pairs(dataset, self.batch_size, rng)
            score = self.model(Tensor(batch.exemplars),
                               Tensor(batch.searches))
            labels = self._labels(batch.gt_boxes)
            pos = labels
            neg = 1.0 - labels
            # balanced BCE with logits
            elem = score.relu() - score * Tensor(labels) + (
                ((-score.abs()).exp() + 1.0).log()
            )
            pos_loss = (elem * Tensor(pos)).sum() * (1.0 / max(pos.sum(), 1))
            neg_loss = (elem * Tensor(neg)).sum() * (1.0 / max(neg.sum(), 1))
            loss = pos_loss + neg_loss
            self.model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        self.model.eval()
        return losses


class SiamFCTracker:
    """Inference loop: argmax of the response map + scale pyramid.

    No box regression: the box keeps the exemplar's aspect ratio and is
    rescaled by whichever pyramid level scored highest (damped by
    ``scale_lr``).
    """

    def __init__(
        self,
        model: SiamFC,
        scales: tuple[float, ...] = (0.96, 1.0, 1.04),
        window_influence: float = 0.35,
        scale_lr: float = 0.4,
        config=None,
    ) -> None:
        from ..runtime import SessionConfig

        # Trackers default to the eager path: feature extraction runs on
        # two crop geometries and frame-rate batches of one, where the
        # compile step only pays off over long sequences.
        self.config = (config if config is not None
                       else SessionConfig(backend="eager"))
        self.model = model
        self.scales = scales
        self.window_influence = window_influence
        self.scale_lr = scale_lr
        self._session = None
        r = model.response
        hann = np.hanning(r + 2)[1:-1]
        self.window = np.outer(hann, hann)
        self.window /= self.window.max()
        self._zf: Tensor | None = None
        self.center = (0.5, 0.5)
        self.size = (0.1, 0.1)

    @property
    def session(self):
        """The tracker's feature-extraction
        :class:`~repro.runtime.Session` (built on first use)."""
        if self._session is None:
            from ..runtime import Session

            self._session = Session.load(self.model, self.config)
        return self._session

    def _extract(self, crop: np.ndarray) -> Tensor:
        """Features for one (1, 3, S, S) crop via the session backend."""
        return Tensor(self.session.run(crop))

    def init(self, frame: np.ndarray, box_cxcywh: np.ndarray) -> None:
        cx, cy, w, h = [float(v) for v in box_cxcywh]
        self.center, self.size = (cx, cy), (w, h)
        side = EXEMPLAR_CONTEXT * float(np.sqrt(w * h))
        crop, _ = crop_and_resize(frame, self.center, side, EXEMPLAR_SIZE)
        self.model.eval()
        self._zf = self._extract(crop[None])

    def _score(self, frame: np.ndarray, scale: float) -> tuple[np.ndarray,
                                                               tuple]:
        w, h = self.size
        side = SEARCH_CONTEXT * scale * float(np.sqrt(max(w * h, 1e-8)))
        crop, geom = crop_and_resize(frame, self.center, side, SEARCH_SIZE)
        xf = self._extract(crop[None])
        with no_grad():
            corr = self.model.corr_bn(
                xcorr_depthwise(xf, self._zf)
            )
            score = corr.mean(axis=1).data[0]
        return score, geom

    def track(self, frame: np.ndarray) -> np.ndarray:
        if self._zf is None:
            raise RuntimeError("call init() before track()")
        best = None
        for scale in self.scales:
            score, geom = self._score(frame, scale)
            score = (1 - self.window_influence) * score + (
                self.window_influence * self.window
            )
            peak = float(score.max())
            if best is None or peak > best[0]:
                best = (peak, score, geom, scale)
        _, score, (x0, y0, s), scale = best

        i, j = np.unravel_index(score.argmax(), score.shape)
        r = self.model.response
        # map the response cell back into the crop, then the frame
        frac = self.model.stride / SEARCH_SIZE
        bcx = 0.5 + (j - (r - 1) / 2) * frac
        bcy = 0.5 + (i - (r - 1) / 2) * frac
        cx = float(np.clip(x0 + bcx * s, 0.0, 1.0))
        cy = float(np.clip(y0 + bcy * s, 0.0, 1.0))
        lr = self.scale_lr
        new_scale = (1 - lr) + lr * scale
        w = float(np.clip(self.size[0] * new_scale, 0.01, 1.0))
        h = float(np.clip(self.size[1] * new_scale, 0.01, 1.0))
        self.center = (cx, cy)
        self.size = (w, h)
        return np.array([cx, cy, w, h])

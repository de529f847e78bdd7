"""Training objective: similarity reconstruction, cross-modal agreement,
and correlation-preserving terms, with analytic gradients.

All three terms compare pairwise cosine matrices of the two batches of
soft codes.  Frobenius norms are raw sums over the m x m pair grid (no
1/m^2 averaging); the published learning rate is calibrated against this
convention at batch size 32.

Loss, with C_xy = cos(H_x, H_y) and S/R the semantic/correlation batch
slices:

    sr = |S - C_it|^2 + |S - C_ii|^2 + |S - C_tt|^2
    sa = |C_ii - C_tt|^2 + |C_it - C_ii|^2 + |C_it - C_tt|^2
    cp = sum R * (C_it - beta)^2
    total = sr + mu1 * cp + mu2 * sa

mu1, mu2 and beta are read from the run's TrainConfig; with mu1 = 0 the
trainer passes the identity relation as R, and cp is reported but adds
nothing to the loss or its gradients.

A cosine is at most 1, so for beta > 1 the cp part of dL/dC_it on a
related pair, 2 * mu1 * (C_it - beta), is negative at every cosine and
never vanishes: it pulls every related pair's cosine up, even at 1.

S and R are symmetric, so the text gradient is the image gradient of the
mirrored batch, the one with its two sides swapped (_mirror).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import TrainConfig


@dataclass
class LossOutput:
    total: float
    sr: float
    sa: float
    cp: float
    grad_image: np.ndarray
    grad_text: np.ndarray


def _d_cos(g: np.ndarray, c: np.ndarray, b_hat: np.ndarray, a_hat: np.ndarray,
           a_norms: np.ndarray) -> np.ndarray:
    """Rows of dL/dA given g = dL/dC for C = cos(A, B) with unit rows a_hat
    and b_hat: d cos(a_i, b_j) / d a_i = (b_hat_j - c_ij * a_hat_i) / |a_i|.
    For C = cos(A, A), whose rows appear on both sides, pass g + g.T."""
    return (g @ b_hat - (g * c).sum(axis=1)[:, None] * a_hat) / a_norms[:, None]


# one batch pair: unit rows, norms, targets and the three cosine
# matrices every term reads
_Cosines = namedtuple("_Cosines", "hi_hat hi_norms ht_hat ht_norms s r c_it c_ii c_tt")


def _cosines(hi: np.ndarray, ht: np.ndarray, s_batch: np.ndarray,
             r_batch: np.ndarray) -> _Cosines:
    hi_hat, hi_norms = kernels.unit_rows(hi, "image batch")
    ht_hat, ht_norms = kernels.unit_rows(ht, "text batch")
    s = np.asarray(s_batch, dtype=np.float64)
    r = np.asarray(r_batch, dtype=np.float64)
    return _Cosines(hi_hat, hi_norms, ht_hat, ht_norms, s, r,
                    c_it=hi_hat @ ht_hat.T, c_ii=hi_hat @ hi_hat.T,
                    c_tt=ht_hat @ ht_hat.T)


def _g_it(c: _Cosines, cfg: TrainConfig) -> np.ndarray:
    """dL/dC_it, which both sides' gradients read."""
    return 2.0 * (c.c_it - c.s) \
        + cfg.mu1 * 2.0 * c.r * (c.c_it - cfg.beta) \
        + cfg.mu2 * 2.0 * ((c.c_it - c.c_ii) + (c.c_it - c.c_tt))


def _mirror(c: _Cosines) -> _Cosines:
    """The batch with its two sides swapped; c_it becomes a transposed view."""
    return _Cosines(c.ht_hat, c.ht_norms, c.hi_hat, c.hi_norms, c.s, c.r,
                    c.c_it.T, c.c_tt, c.c_ii)


def _image_side(c: _Cosines, g_it: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    g_ii = 2.0 * (c.c_ii - c.s) \
        + cfg.mu2 * (2.0 * (c.c_ii - c.c_tt) - 2.0 * (c.c_it - c.c_ii))
    return _d_cos(g_it, c.c_it, c.ht_hat, c.hi_hat, c.hi_norms) \
        + _d_cos(g_ii + g_ii.T, c.c_ii, c.hi_hat, c.hi_hat, c.hi_norms)


def total_loss_and_grads(hi: np.ndarray, ht: np.ndarray,
                         s_batch: np.ndarray, r_batch: np.ndarray,
                         cfg: TrainConfig) -> LossOutput:
    """Weighted objective plus dL/dHi and dL/dHt.

    When one side is a constant, such as detached sign codes, its
    gradient is simply not applied: terms touching only that side drop
    out of the other side's gradient on their own.  image_grad and
    text_grad compute one of the two gradients alone.
    """
    c = _cosines(hi, ht, s_batch, r_batch)
    s, r, c_it, c_ii, c_tt = c.s, c.r, c.c_it, c.c_ii, c.c_tt
    sr = float(((s - c_it) ** 2).sum() + ((s - c_ii) ** 2).sum()
               + ((s - c_tt) ** 2).sum())
    sa = float(((c_ii - c_tt) ** 2).sum() + ((c_it - c_ii) ** 2).sum()
               + ((c_it - c_tt) ** 2).sum())
    cp = float((r * (c_it - cfg.beta) ** 2).sum())
    total = sr + cfg.mu1 * cp + cfg.mu2 * sa
    g_it = _g_it(c, cfg)
    return LossOutput(total=total, sr=sr, sa=sa, cp=cp,
                      grad_image=_image_side(c, g_it, cfg),
                      grad_text=_image_side(_mirror(c), g_it.T, cfg))


def image_grad(hi: np.ndarray, ht: np.ndarray, s_batch: np.ndarray,
               r_batch: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """dL/dHi alone, equal to total_loss_and_grads(...).grad_image: no loss
    values and no text gradient are computed."""
    c = _cosines(hi, ht, s_batch, r_batch)
    return _image_side(c, _g_it(c, cfg), cfg)


def text_grad(hi: np.ndarray, ht: np.ndarray, s_batch: np.ndarray,
              r_batch: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """dL/dHt alone, equal to total_loss_and_grads(...).grad_text."""
    c = _cosines(hi, ht, s_batch, r_batch)
    return _image_side(_mirror(c), _g_it(c, cfg).T, cfg)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LossWeights
from .errors import DataError, DivergenceError


@dataclass
class LossOutput:
    total: float
    sr: float
    sa: float
    cp: float
    grad_image: np.ndarray
    grad_text: np.ndarray


def _normalized(h: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise DataError(f"{side}: expected a 2-d matrix, got shape {h.shape}")
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0.0):
        raise DivergenceError(
            f"{side}: zero-norm row {int(np.argmax(norms == 0.0))} "
            "(cosine undefined; training diverged)"
        )
    return h / norms[:, None], norms


def _grad_pair(g: np.ndarray, c: np.ndarray, a_hat: np.ndarray,
               a_norms: np.ndarray, b_hat: np.ndarray,
               b_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d cos(a_i, b_j) / d a_i = (b_hat_j - c_ij * a_hat_i) / |a_i|
    d_a = (g @ b_hat - (g * c).sum(axis=1)[:, None] * a_hat) / a_norms[:, None]
    d_b = (g.T @ a_hat - (g * c).sum(axis=0)[:, None] * b_hat) / b_norms[:, None]
    return d_a, d_b


def _grad_self(g: np.ndarray, c: np.ndarray, a_hat: np.ndarray,
               a_norms: np.ndarray) -> np.ndarray:
    # rows appear on both sides of cos(A, A): fold g and g.T together
    h = g + g.T
    return (h @ a_hat - (h * c).sum(axis=1)[:, None] * a_hat) / a_norms[:, None]


def total_loss_and_grads(hi: np.ndarray, ht: np.ndarray,
                         s_batch: np.ndarray, r_batch: np.ndarray,
                         weights: LossWeights) -> LossOutput:
    """Weighted objective plus dL/dHi and dL/dHt.

    When one side is a constant, such as detached sign codes, its
    gradient is simply not applied: terms touching only that side drop
    out of the other side's gradient on their own.
    """
    weights.validate()
    hi_hat, hi_norms = _normalized(hi, "image batch")
    ht_hat, ht_norms = _normalized(ht, "text batch")
    m = hi_hat.shape[0]
    if ht_hat.shape != hi_hat.shape:
        raise DataError(f"batch shapes differ: {hi_hat.shape} vs {ht_hat.shape}")
    s = np.asarray(s_batch, dtype=np.float64)
    r = np.asarray(r_batch, dtype=np.float64)
    if s.shape != (m, m) or r.shape != (m, m):
        raise DataError(
            f"batch slices must be {m}x{m}, got S {s.shape} and R {r.shape}"
        )

    c_it = hi_hat @ ht_hat.T
    c_ii = hi_hat @ hi_hat.T
    c_tt = ht_hat @ ht_hat.T

    sr = float(((s - c_it) ** 2).sum() + ((s - c_ii) ** 2).sum()
               + ((s - c_tt) ** 2).sum())
    sa = float(((c_ii - c_tt) ** 2).sum() + ((c_it - c_ii) ** 2).sum()
               + ((c_it - c_tt) ** 2).sum())
    cp = float((r * (c_it - weights.beta) ** 2).sum())
    total = sr + weights.mu1 * cp + weights.mu2 * sa

    g_it = 2.0 * (c_it - s) \
        + weights.mu1 * 2.0 * r * (c_it - weights.beta) \
        + weights.mu2 * 2.0 * ((c_it - c_ii) + (c_it - c_tt))
    g_ii = 2.0 * (c_ii - s) \
        + weights.mu2 * (2.0 * (c_ii - c_tt) - 2.0 * (c_it - c_ii))
    g_tt = 2.0 * (c_tt - s) \
        + weights.mu2 * (-2.0 * (c_ii - c_tt) - 2.0 * (c_it - c_tt))

    d_hi_pair, d_ht_pair = _grad_pair(g_it, c_it, hi_hat, hi_norms,
                                      ht_hat, ht_norms)
    return LossOutput(total=total, sr=sr, sa=sa, cp=cp,
                      grad_image=d_hi_pair + _grad_self(g_ii, c_ii, hi_hat, hi_norms),
                      grad_text=d_ht_pair + _grad_self(g_tt, c_tt, ht_hat, ht_norms))

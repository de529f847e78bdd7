"""Construction of the semantic similarity matrix from raw features.

The pipeline runs cosine -> probability remap -> cross-modal fusion ->
top-K row normalization -> structural co-neighborhood product -> affine
blend back onto [-1, 1].  Each stage is exposed on its own so tests can
pin it against a scalar reference, and each output is tagged with a kind
so a stage cannot be fed the wrong matrix.

All stages compute in float64 and store float32; every matrix is square
over the same instance set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# rows per block when cosine_matrix mirrors its lower triangle
_MIRROR_ROWS = 256

KINDS = ("cosine", "probability", "fused", "structural", "semantic")

# value range per kind, checked with a small slack for float32 rounding
_RANGES = {
    "cosine": (-1.0, 1.0),
    "probability": (0.0, 1.0),
    "fused": (0.0, 1.0),
    "structural": (0.0, 1.0),
    "semantic": (-1.0, 1.0),
}


@dataclass
class SimMatrix:
    """A square instance-similarity matrix tagged with its pipeline stage."""

    values: np.ndarray
    kind: str

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def validate(self, atol: float = 1e-6) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown similarity kind '{self.kind}'")
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"similarity matrix must be square, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("similarity matrix has non-finite entries")
        lo, hi = _RANGES[self.kind]
        if v.min() < lo - atol or v.max() > hi + atol:
            raise DataError(
                f"{self.kind} values outside [{lo}, {hi}]: "
                f"min {v.min():.6g}, max {v.max():.6g}"
            )
        if np.abs(v - v.T).max() > 1e-5:
            raise DataError(f"{self.kind} matrix is asymmetric beyond tolerance")
        if self.kind == "cosine" and np.abs(np.diag(v) - 1.0).max() > atol:
            raise DataError("cosine matrix diagonal is not 1")


def _as_kind(sim: SimMatrix, kind: str, op: str) -> np.ndarray:
    if not isinstance(sim, SimMatrix) or sim.kind != kind:
        got = sim.kind if isinstance(sim, SimMatrix) else type(sim).__name__
        raise ConfigError(f"{op} expects a {kind} matrix, got {got}")
    return sim.values


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, as a set.

    The set is the k largest values with ties broken by ascending index.
    Each row's indices come back in ascending index order, not by value:
    a selection, not a sort.  k clamps to the row length.
    """
    m, n = values.shape
    k = min(k, n)
    kth = np.partition(values, n - k, axis=1)[:, n - k:n - k + 1]
    keep = values >= kth
    # a row with more than k entries at or above its k-th value has ties
    # at that value; keep the lowest-index ones that fit
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        rows, cut = values[over], kth[over]
        above, tied = rows > cut, rows == cut
        room = k - np.count_nonzero(above, axis=1)
        keep[over] = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return (np.flatnonzero(keep) % n).reshape(m, k)


def cosine_matrix(features: np.ndarray) -> SimMatrix:
    """Pairwise cosine similarity of feature rows.

    Products are computed in float64 and rounded to float32; the clip to
    [-1, 1] and the mirror of the lower triangle onto the upper one, which
    makes symmetry exact, then run in float32.  Rounding is elementwise
    and monotone and keeps -1 and 1, so this gives the bits that clipping
    and mirroring in float64 before rounding would.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise DataError(f"cosine_matrix: expected a non-empty 2-d matrix, got {f.shape}")
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        raise DataError(f"cosine_matrix: zero-norm row {int(np.argmax(norms == 0.0))}")
    fn = f / norms[:, None]
    s = (fn @ fn.T).astype(np.float32)
    np.clip(s, -1.0, 1.0, out=s)
    m = s.shape[0]
    for lo in range(0, m, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, m)
        block = s[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper]
        s[lo:hi, hi:] = s[hi:, lo:hi].T
    np.fill_diagonal(s, 1.0)
    return SimMatrix(s, "cosine")


def probability_map(sim: SimMatrix) -> SimMatrix:
    """Affine remap of cosine values from [-1, 1] onto [0, 1]."""
    s = _as_kind(sim, "cosine", "probability_map")
    p = (s.astype(np.float64) + 1.0) / 2.0
    return SimMatrix(p.astype(np.float32), "probability")


def fuse(prob_image: SimMatrix, prob_text: SimMatrix) -> SimMatrix:
    """Probabilistic-OR fusion of the two modality probability maps."""
    a = _as_kind(prob_image, "probability", "fuse").astype(np.float64)
    b = _as_kind(prob_text, "probability", "fuse").astype(np.float64)
    if a.shape != b.shape:
        raise DataError(f"fuse: shape mismatch {a.shape} vs {b.shape}")
    out = a + b - a * b
    return SimMatrix(out.astype(np.float32), "fused")


def topk_normalize(fused_sim: SimMatrix, ks: int) -> np.ndarray:
    """Keep each row's ks strongest links and normalize them to sum 1.

    Returns a row-stochastic float32 matrix with at most ks nonzeros per
    row.  ks larger than the matrix order clamps with a warning.
    """
    s = _as_kind(fused_sim, "fused", "topk_normalize")
    m = s.shape[0]
    if ks < 1:
        raise ConfigError(f"topk_normalize: ks must be >= 1, got {ks}")
    if ks > m:
        warnings.warn(f"topk_normalize: ks={ks} exceeds order {m}, clamping")
        ks = m
    nn = top_k_indices(s, ks)
    rows = np.repeat(np.arange(m), ks)
    out = np.zeros((m, m), dtype=np.float64)
    vals = s[rows, nn.ravel()].astype(np.float64)
    out[rows, nn.ravel()] = vals
    sums = out.sum(axis=1)
    if np.any(sums == 0.0):
        raise DataError(
            f"topk_normalize: row {int(np.argmax(sums == 0.0))} has zero neighbor mass"
        )
    out /= sums[:, None]
    return out.astype(np.float32)


def structural(neighbor_weights: np.ndarray, ks: int) -> SimMatrix:
    """Shared-neighborhood similarity: ks * (W @ W.T), clipped to [0, 1].

    Two instances score high when their normalized neighbor weight rows
    overlap; the ks factor undoes the 1/ks scale of uniform rows.
    """
    w = np.asarray(neighbor_weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DataError(f"structural: expected square weights, got {w.shape}")
    if ks < 1:
        raise ConfigError(f"structural: ks must be >= 1, got {ks}")
    prod = ks * (w @ w.T)
    prod = np.tril(prod) + np.tril(prod, -1).T  # exact symmetry
    np.clip(prod, 0.0, 1.0, out=prod)
    return SimMatrix(prod.astype(np.float32), "structural")


def combine(fused_sim: SimMatrix, structural_sim: SimMatrix, gamma: float) -> SimMatrix:
    """Blend fused and structural maps, then stretch onto [-1, 1]."""
    a = _as_kind(fused_sim, "fused", "combine").astype(np.float64)
    b = _as_kind(structural_sim, "structural", "combine").astype(np.float64)
    if a.shape != b.shape:
        raise DataError(f"combine: shape mismatch {a.shape} vs {b.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"combine: gamma must be in [0, 1], got {gamma}")
    s = 2.0 * ((1.0 - gamma) * a + gamma * b) - 1.0
    np.clip(s, -1.0, 1.0, out=s)
    return SimMatrix(s.astype(np.float32), "semantic")


def build_semantic(
    image_features: np.ndarray,
    text_features: np.ndarray,
    ks: int,
    gamma: float,
) -> SimMatrix:
    """Full pipeline from paired features to the semantic target matrix.

    With gamma == 0 the structural stage is skipped entirely; the result
    is the stretched fusion alone.
    """
    if image_features.shape[0] != text_features.shape[0]:
        raise DataError(
            f"build_semantic: row mismatch {image_features.shape[0]} "
            f"vs {text_features.shape[0]}"
        )
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"build_semantic: gamma must be in [0, 1], got {gamma}")
    prob_i = probability_map(cosine_matrix(image_features))
    prob_t = probability_map(cosine_matrix(text_features))
    fused = fuse(prob_i, prob_t)
    if gamma == 0.0:
        zero = SimMatrix(np.zeros_like(fused.values), "structural")
        return combine(fused, zero, 0.0)
    weights = topk_normalize(fused, ks)
    struct = structural(weights, min(ks, fused.order))
    return combine(fused, struct, gamma)

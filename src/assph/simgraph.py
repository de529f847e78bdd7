"""Construction of the semantic similarity matrix from raw features.

The pipeline runs cosine -> probability remap and cross-modal fusion ->
top-K row normalization -> structural co-neighborhood product -> affine
blend back onto [-1, 1].  Each stage is exposed on its own so tests can
pin it against a scalar reference; stages take and return plain arrays.

Every matrix is square over the same instance set and stored float32,
except the float64 products a @ a.T of the cosine (a the unit rows) and
of structural (a = W, the float32-rounded neighbor weights).  numpy
computes a @ a.T as one symmetric rank-k update: BLAS syrk fills one
triangle and numpy copies it onto the other, and without BLAS entries
(i, j) and (j, i) sum the same products in the same order.  So both
products are exactly symmetric as computed, and no stage mirrors a
triangle.  The cosine's float32 rows come from its product one block of
_BLOCK_ROWS rows at a time; the other stages walk the same blocks,
compute each in float64 temporaries and write its float32 rows.  fuse
writes over one of the two cosines, and build_semantic writes its
result over the fusion.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, DataError

# rows per block of the row-wise stages
_BLOCK_ROWS = 256


def _row_blocks(m: int):
    """(lo, hi) bounds of consecutive blocks of _BLOCK_ROWS rows."""
    step = _BLOCK_ROWS
    return ((lo, min(lo + step, m)) for lo in range(0, m, step))


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


def _unit_rows(features: np.ndarray, zero_norm) -> np.ndarray:
    """A private float64 copy of a non-empty 2-d matrix, each row scaled to
    unit norm; the input is never written.  A zero-norm row i, whose
    cosine is undefined, raises the exception zero_norm(i) returns."""
    f = np.array(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise DataError(f"expected a non-empty 2-d matrix, got {f.shape}")
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        raise zero_norm(int(np.argmax(norms == 0.0)))
    f /= norms[:, None]
    return f


def cosine_blocks(unit: np.ndarray):
    """Yield (lo, hi, rows): rows lo..hi-1 of the float32 cosine of unit.

    unit holds unit-norm float64 rows, as _unit_rows makes them.  The
    float64 product unit @ unit.T is formed once; each block of rows is
    rounded into one reused float32 buffer, clipped to [-1, 1] and given
    unit self-similarity.  Rounding is elementwise and monotone and keeps
    -1 and 1, so this gives the bits that clipping in float64 before
    rounding would.  The product is exactly symmetric (see the module
    docstring), and so is the cosine.  The next block overwrites rows, so
    a caller that keeps them copies them.  The product is freed when the
    last block is consumed.
    """
    m = len(unit)
    prod = unit @ unit.T
    buf = np.empty((min(_BLOCK_ROWS, m), m), dtype=np.float32)
    for lo, hi in _row_blocks(m):
        rows = buf[:hi - lo]
        np.copyto(rows, prod[lo:hi], casting="same_kind")
        np.clip(rows, -1.0, 1.0, out=rows)
        np.fill_diagonal(rows[:, lo:hi], 1.0)
        yield lo, hi, rows


def cosine_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of feature rows, float32 and exactly
    symmetric: the blocks of cosine_blocks collected into one matrix."""
    unit = _unit_rows(features, lambda i: DataError(f"cosine_matrix: zero-norm row {i}"))
    s = np.empty((len(unit), len(unit)), dtype=np.float32)
    for lo, hi, rows in cosine_blocks(unit):
        s[lo:hi] = rows
    return s


def _probability(cos_rows: np.ndarray) -> np.ndarray:
    """Cosine rows remapped from [-1, 1] onto [0, 1], rounded to float32
    and held in float64."""
    p = cos_rows.astype(np.float64)
    p += 1.0
    p /= 2.0
    return p.astype(np.float32).astype(np.float64)


def fuse(cos_image: np.ndarray, cos_text: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """Probabilistic-OR fusion of the two modalities' cosines.

    Each cosine is remapped onto [0, 1] as a probability p (rounded to
    float32), and the pair fuses to p_i + p_t - p_i * p_t.  The result
    goes into out, a float32 buffer of the same shape that may be either
    input, and out is returned.
    """
    if cos_image.shape != cos_text.shape:
        raise DataError(f"fuse: shape mismatch {cos_image.shape} vs {cos_text.shape}")
    for lo, hi in _row_blocks(cos_image.shape[0]):
        p = _probability(cos_image[lo:hi])
        q = _probability(cos_text[lo:hi])
        out[lo:hi] = p + q - p * q
    return out


def topk_normalize(fused: np.ndarray, ks: int) -> np.ndarray:
    """Keep each row's ks strongest links and normalize them to sum 1.

    Returns the row-stochastic weights W with at most ks nonzeros per row,
    as float64 holding float32-rounded values, the precision the
    structural product reads.  Each block of rows is scattered into a
    zero-filled float64 block, summed along the rows and divided.  ks
    larger than the matrix order clamps with a warning.
    """
    m = fused.shape[0]
    if ks < 1:
        raise ConfigError(f"topk_normalize: ks must be >= 1, got {ks}")
    if ks > m:
        warnings.warn(f"topk_normalize: ks={ks} exceeds order {m}, clamping")
        ks = m
    w = np.empty((m, m), dtype=np.float64)
    for lo, hi in _row_blocks(m):
        rows = fused[lo:hi]
        nn = top_k_indices(rows, ks)
        block = np.zeros((hi - lo, m), dtype=np.float64)
        np.put_along_axis(block, nn, np.take_along_axis(rows, nn, axis=1), axis=1)
        sums = block.sum(axis=1)
        if np.any(sums == 0.0):
            raise DataError(f"topk_normalize: row {lo + int(np.argmax(sums == 0.0))} "
                            "has zero neighbor mass")
        block /= sums[:, None]
        w[lo:hi] = block.astype(np.float32)
    return w


def structural(fused: np.ndarray, ks: int) -> np.ndarray:
    """Shared-neighborhood similarity: ks * (W @ W.T), clipped to [0, 1].

    W = topk_normalize(fused, ks) is formed here and dropped once the
    product is, so fused, W and W @ W.T are the most that is live.  Two
    instances score high when their normalized neighbor weight rows
    overlap; the ks factor (clamped to the order) undoes the 1/ks scale of
    uniform rows.  The float64 product, exactly symmetric as numpy forms
    it (see the module docstring), is scaled and clipped in place, and its
    float32 rounding is returned.
    """
    w = topk_normalize(fused, ks)
    prod = w @ w.T
    del w
    prod *= min(ks, len(fused))
    np.clip(prod, 0.0, 1.0, out=prod)
    return prod.astype(np.float32)


def combine(fused: np.ndarray, struct: np.ndarray | None, gamma: float,
            out: np.ndarray) -> np.ndarray:
    """Blend fused and structural maps, then stretch onto [-1, 1].

    struct None stands for the skipped stage of gamma == 0: the result is
    the stretched fusion alone.  The result goes into out, a float32
    buffer of the same shape that may be either input, and out is
    returned.
    """
    if struct is None:
        if gamma != 0.0:
            raise ConfigError(f"combine: gamma {gamma} needs a structural matrix")
    elif fused.shape != struct.shape:
        raise DataError(f"combine: shape mismatch {fused.shape} vs {struct.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"combine: gamma must be in [0, 1], got {gamma}")
    for lo, hi in _row_blocks(fused.shape[0]):
        blend = 0.0 if struct is None else struct[lo:hi].astype(np.float64)
        s = 2.0 * ((1.0 - gamma) * fused[lo:hi].astype(np.float64) + gamma * blend) - 1.0
        np.clip(s, -1.0, 1.0, out=s)
        out[lo:hi] = s
    return out


def build_semantic(fused: np.ndarray, ks: int, gamma: float) -> np.ndarray:
    """Semantic target from the fused cosines, written over fused.

    fused is fuse's output, and the result is the fused buffer itself.
    With gamma == 0 the structural stage is skipped entirely; the result
    is the stretched fusion alone.
    """
    if fused.ndim != 2 or fused.shape[0] != fused.shape[1]:
        raise DataError(f"build_semantic: expected a square matrix, got {fused.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"build_semantic: gamma must be in [0, 1], got {gamma}")
    struct = structural(fused, ks) if gamma != 0.0 else None
    return combine(fused, struct, gamma, out=fused)

"""Construction of the semantic similarity matrix from raw features.

The pipeline runs cosine -> probability remap and cross-modal fusion ->
top-K row normalization -> structural co-neighborhood product -> affine
blend back onto [-1, 1].  Each stage is exposed on its own so tests can
pin it against a scalar reference; stages take and return plain arrays.

Every matrix is square over the same instance set and stored float32,
except the top-K weights W and two float64 products a @ a.T: the
cosine's (a the unit rows) and the co-neighborhood product (a = W, the
float32-rounded neighbor weights).  numpy computes a @ a.T as one
symmetric rank-k update: BLAS syrk fills one triangle and numpy copies
it onto the other, and without BLAS entries (i, j) and (j, i) sum the
same products in the same order.  So both products are exactly
symmetric as computed, and no stage mirrors a triangle.

Row blocks bound the temporaries, by the block policy of kernels: the
cosine's float32 rows and each row's top-K are row walks, and fuse and
combine, which also scales, clips and rounds the co-neighborhood product
into the structural map, are elementwise walks; no M x M float32
structural map is formed.  fuse writes over one of the two cosines, and
build_semantic writes its result over the fusion.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import kernels


def _top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k largest entries, ties broken by
    ascending index; 1 <= k <= the row length."""
    n = values.shape[1]
    kth = np.partition(values, n - k, axis=1)[:, n - k:n - k + 1]
    keep = values >= kth
    # a row with more than k entries at or above its k-th value has ties
    # at that value; keep the lowest-index ones that fit, counting them in
    # the narrowest integer that holds n
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        rows, cut = values[over], kth[over]
        above, tied = rows > cut, rows == cut
        room = k - np.count_nonzero(above, axis=1)
        rank = np.cumsum(tied, axis=1, dtype=np.min_scalar_type(n))
        keep[over] = above | (tied & (rank <= room[:, None]))
    return keep


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, as a set.

    The set is the k largest values with ties broken by ascending index.
    Each row's indices come back in ascending index order, not by value:
    a selection, not a sort.  k clamps to the row length.
    """
    m, n = values.shape
    k = min(k, n)
    return (np.flatnonzero(_top_k_mask(values, k)) % n).reshape(m, k)


def cosine_blocks(unit: np.ndarray):
    """Yield (lo, hi, rows): rows lo..hi-1 of the float32 cosine of unit.

    unit holds unit-norm float64 rows, as kernels.unit_rows makes them.
    The float64 product unit @ unit.T is formed once; each block of rows is
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
    buf = np.empty((min(kernels.BLOCK_ROWS, m), m), dtype=np.float32)
    for lo, hi in kernels.row_blocks(m):
        rows = buf[:hi - lo]
        np.copyto(rows, prod[lo:hi], casting="same_kind")
        np.clip(rows, -1.0, 1.0, out=rows)
        np.fill_diagonal(rows[:, lo:hi], 1.0)
        yield lo, hi, rows


def cosine_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of feature rows, float32 and exactly
    symmetric: the blocks of cosine_blocks collected into one matrix.  The
    rows are checked features, none of zero norm."""
    unit = kernels.unit_rows(features, "features")[0]
    s = np.empty((len(unit), len(unit)), dtype=np.float32)
    for lo, hi, rows in cosine_blocks(unit):
        s[lo:hi] = rows
    return s


def _probability(cos_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cosine rows remapped from [-1, 1] onto [0, 1] in float64 and
    rounded into out, a float32 buffer of the same shape."""
    p = np.add(cos_rows, 1.0, dtype=np.float64)
    return np.divide(p, 2.0, out=out)


def fuse(cos_image: np.ndarray, cos_text: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """Probabilistic-OR fusion of the two modalities' cosines.

    Each cosine is remapped onto [0, 1] as a probability p (rounded to
    float32), and the pair fuses to p_i + p_t - p_i * p_t, computed in
    float64 and rounded.  The result goes into out, a float32 buffer of
    the same shape that may be either input, and out is returned.
    """
    m, n = cos_image.shape
    step = kernels.rows_within(kernels.BLOCK_ENTRIES, n)
    p_buf = np.empty((min(step, m), n), dtype=np.float32)
    q_buf = np.empty_like(p_buf)
    for lo, hi in kernels.row_blocks(m, step):
        p = _probability(cos_image[lo:hi], p_buf[:hi - lo])
        q = _probability(cos_text[lo:hi], q_buf[:hi - lo])
        np.subtract(np.add(p, q, dtype=np.float64),
                    np.multiply(p, q, dtype=np.float64), out=out[lo:hi])
    return out


def topk_normalize(fused: np.ndarray, ks: int) -> np.ndarray:
    """Keep each row's ks strongest links and normalize them to sum 1.

    Returns the row-stochastic weights W with at most ks nonzeros per row,
    as float64 holding float32-rounded values, the precision the
    structural product reads.  Each block of W's rows is written straight
    from the block's top-ks mask, summed along the rows, divided and
    rounded.  Every row's mass is positive: a row of fuse's output keeps
    its unit diagonal, the largest entry, so its top ks sum to at least 1.
    ks larger than the matrix order clamps with a warning.
    """
    m = fused.shape[0]
    if ks > m:
        warnings.warn(f"topk_normalize: ks={ks} exceeds order {m}, clamping")
        ks = m
    w = np.empty((m, m), dtype=np.float64)
    rounded = np.empty((min(kernels.BLOCK_ROWS, m), m), dtype=np.float32)
    for lo, hi in kernels.row_blocks(m):
        rows, block = fused[lo:hi], w[lo:hi]
        np.multiply(rows, _top_k_mask(rows, ks), out=block)
        block[...] = np.divide(block, block.sum(axis=1)[:, None], out=rounded[:hi - lo])
    return w


def structural(fused: np.ndarray, ks: int) -> np.ndarray:
    """Co-neighborhood product W @ W.T, float64, of W = topk_normalize(fused, ks).

    Two instances score high when their normalized neighbor weight rows
    overlap.  W is dropped once the product is formed, so fused, W and
    W @ W.T are the most that is live.  The product is exactly symmetric
    as numpy forms it (see the module docstring).  The structural map
    itself, min(ks, M) * (W @ W.T) clipped to [0, 1] and rounded to
    float32, is formed block by block inside combine.
    """
    w = topk_normalize(fused, ks)
    return w @ w.T


def combine(fused: np.ndarray, cooc: np.ndarray | None, ks: int, gamma: float,
            out: np.ndarray) -> np.ndarray:
    """Blend fused and structural maps, then stretch onto [-1, 1].

    cooc is structural's co-neighborhood product W @ W.T.  Each block of
    its rows becomes the structural map: scaled by ks, clamped to the
    order (undoing the 1/ks scale of uniform rows), clipped to [0, 1] and
    rounded to float32.  Per entry the result is then
    2 ((1 - gamma) fused + gamma struct) - 1 in float64, clipped to
    [-1, 1].  cooc None stands for the skipped stage of gamma == 0: the
    result is the stretched fusion alone.  The result goes into out, a
    float32 buffer of the same shape that may be fused, and out is
    returned.
    """
    m, n = fused.shape
    step = kernels.rows_within(kernels.BLOCK_ENTRIES, n)
    s_buf = np.empty((min(step, m), n), dtype=np.float64)
    if cooc is not None:
        t_buf = np.empty_like(s_buf)
        r_buf = np.empty(s_buf.shape, dtype=np.float32)
        scale = min(ks, m)
    for lo, hi in kernels.row_blocks(m, step):
        s = s_buf[:hi - lo]
        if cooc is None:
            # gamma == 0: (1 - gamma) * fused + gamma * 0 is fused itself
            np.multiply(fused[lo:hi], 2.0, out=s, dtype=np.float64)
        else:
            t, struct = t_buf[:hi - lo], r_buf[:hi - lo]
            np.multiply(cooc[lo:hi], scale, out=t)
            np.clip(t, 0.0, 1.0, out=struct)
            np.multiply(struct, gamma, out=t, dtype=np.float64)
            np.multiply(fused[lo:hi], 1.0 - gamma, out=s, dtype=np.float64)
            s += t
            s *= 2.0
        s -= 1.0
        np.clip(s, -1.0, 1.0, out=out[lo:hi])
    return out


def build_semantic(fused: np.ndarray, ks: int, gamma: float) -> np.ndarray:
    """Semantic target from the fused cosines, written over fused.

    fused is fuse's output, and the result is the fused buffer itself.
    With gamma == 0 the structural stage is skipped entirely; the result
    is the stretched fusion alone.
    """
    cooc = structural(fused, ks) if gamma != 0.0 else None
    return combine(fused, cooc, ks, gamma, out=fused)

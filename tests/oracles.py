"""Straight-line scalar reference implementations.

Most deliberately avoid the library's vectorized code paths: plain
Python loops, math.fsum accumulation, and explicit tie rules.  Stage
outputs round to float32 exactly where the library's containers declare
32-bit storage, so both sides select neighbors from identical values.
Others are earlier versions of a library stage (whole_matrix_semantic,
naive_backward, naive_sgd_step, block_average_precision,
sorted_gather_direction, explicit_text_grad) or its formula written out
(explicit_g_it), which the current one must match bit for bit.
"""

import math

import numpy as np

from assph import corrmine, evalkit, kernels
from assph.errors import DataError


def f32(x: float) -> float:
    return float(np.float32(x))


def naive_cosine(features) -> list:
    rows = [[float(v) for v in row] for row in np.asarray(features)]
    m = len(rows)
    norms = [math.sqrt(math.fsum(v * v for v in row)) for row in rows]
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            dot = math.fsum(a * b for a, b in zip(rows[i], rows[j]))
            out[i][j] = f32(dot / (norms[i] * norms[j]))
    return out


def naive_pipeline_stages(fi, ft, ks: int) -> tuple:
    """Gamma-independent stages: (fused, structural) as scalar grids."""
    fused = naive_fusion(naive_cosine(fi), naive_cosine(ft))
    return fused, naive_structural(fused, ks)


def naive_fusion(cos_i, cos_t) -> list:
    """The probabilistic OR of two grids of float32 cosines: each remapped
    to (c + 1) / 2 in float64 and rounded, then p + q - p * q rounded."""
    prob_i = [[f32((float(v) + 1.0) / 2.0) for v in row] for row in cos_i]
    prob_t = [[f32((float(v) + 1.0) / 2.0) for v in row] for row in cos_t]
    m = len(prob_i)
    return [[f32(prob_i[i][j] + prob_t[i][j] - prob_i[i][j] * prob_t[i][j])
             for j in range(m)] for i in range(m)]


def naive_structural(fused, ks: int) -> list:
    """The structural map of a fused grid: each row's ks largest entries
    normalized to sum 1 and rounded, then ks times the co-neighborhood
    sums, clipped to [0, 1] and rounded; ks clamps to the order."""
    m = len(fused)
    ks = min(ks, m)
    # descending value, ties by ascending index
    neighbors = [sorted(range(m), key=lambda j: (-fused[i][j], j))[:ks]
                 for i in range(m)]
    shat = [[0.0] * m for _ in range(m)]
    for i in range(m):
        total = math.fsum(fused[i][j] for j in neighbors[i])
        for j in neighbors[i]:
            shat[i][j] = f32(fused[i][j] / total)

    struct = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            v = ks * math.fsum(shat[i][k] * shat[j][k] for k in neighbors[i])
            struct[i][j] = f32(min(max(v, 0.0), 1.0))
    return struct


def naive_combine(fused, struct, gamma: float) -> np.ndarray:
    m = len(fused)
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(m):
            v = 2.0 * ((1.0 - gamma) * fused[i][j] + gamma * struct[i][j]) - 1.0
            out[i, j] = f32(min(max(v, -1.0), 1.0))
    return out


def naive_semantic(fi, ft, ks: int, gamma: float) -> np.ndarray:
    """Scalar mirror of the whole similarity pipeline."""
    fused, struct = naive_pipeline_stages(fi, ft, ks)
    return naive_combine(fused, struct, gamma)


def naive_knn_sets(sim_values, kr: int) -> list:
    m = len(sim_values)
    kr = min(kr, m)
    return [
        set(sorted(range(m), key=lambda j: (-float(sim_values[i][j]), j))[:kr])
        for i in range(m)
    ]


def naive_relation(sim_image_values, sim_text_values, kr: int, tau: int) -> np.ndarray:
    """Set-intersection mirror of the second-order correlation mining."""
    m = len(sim_image_values)
    ni = naive_knn_sets(sim_image_values, kr)
    nt = naive_knn_sets(sim_text_values, kr)
    rel = np.zeros((m, m), dtype=np.uint8)
    for i in range(m):
        for j in range(m):
            hit = (
                len(ni[i] & ni[j]) >= tau
                or len(nt[i] & nt[j]) >= tau
                or len(ni[i] & nt[j]) >= tau
                or len(ni[j] & nt[i]) >= tau
            )
            rel[i, j] = 1 if (hit or i == j) else 0
    return rel


def argsort_top_k(values, k: int) -> np.ndarray:
    """Top-k sets by stable argsort of the negated rows, then slicing.

    Returns each row's set in ascending index order, the layout
    simgraph.top_k_indices promises.
    """
    order = np.argsort(-np.asarray(values), axis=1, kind="stable")[:, :k]
    return np.sort(order, axis=1)


def dense_adjacency(nn, m: int) -> np.ndarray:
    """The m x m 0/1 matrix marking, in row i, the columns listed in nn[i]."""
    adj = np.zeros((m, m), dtype=np.uint8)
    nn = np.asarray(nn)
    adj[np.arange(len(nn))[:, None], nn] = 1
    return adj


def dense_second_order(adj_a, adj_b, tau: int) -> np.ndarray:
    """Neighbor-overlap counts as a matmul, symmetrized by max.

    The counts are whole numbers far below 2**53, so the float64 product
    holds them exactly.
    """
    a = np.asarray(adj_a, dtype=np.float64)
    b = np.asarray(adj_b, dtype=np.float64)
    counts = a @ b.T
    return (np.maximum(counts, counts.T) >= tau).astype(np.uint8)


def dense_init_correlations(nn_image, nn_text, tau: int) -> np.ndarray:
    """The seed relation from dense adjacencies: the diagonal and the
    image-image, text-text and cross joins, each a dense_second_order."""
    m = len(nn_image)
    ai, at = dense_adjacency(nn_image, m), dense_adjacency(nn_text, m)
    rel = np.eye(m, dtype=np.uint8)
    for a, b in ((ai, ai), (at, at), (ai, at)):
        rel |= dense_second_order(a, b, tau)
    return rel


def relation_from_dense(dense) -> "corrmine.CorrelationSet":
    """A CorrelationSet of a square 0/1 matrix of any numeric dtype.

    The program trusts the relations its miners build, so the oracle checks
    its own: the matrix must be square, 0/1, symmetric and hold every self
    pair.  It is then packed by rows.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DataError(f"correlation set must be square, got {dense.shape}")
    if not np.all(dense == (dense != 0)):
        raise DataError("correlation set entries must be 0/1")
    if not np.array_equal(dense, dense.T):
        raise DataError("correlation set must be symmetric")
    if not np.all(np.diagonal(dense)):
        raise DataError("correlation set must include every self pair")
    return corrmine.CorrelationSet(np.packbits(dense.astype(np.uint8), axis=1))


def to_dense(rel) -> np.ndarray:
    """The relation's order x order 0/1 uint8 matrix, all rows unpacked."""
    return np.unpackbits(rel.bits, axis=1, count=rel.order)


def tril_mirror_cosine(features) -> np.ndarray:
    """Cosine in float64, symmetrized by float64 tril sums, then cast."""
    f = np.asarray(features, dtype=np.float64)
    fn = f / np.linalg.norm(f, axis=1)[:, None]
    s = np.clip(fn @ fn.T, -1.0, 1.0)
    s = np.tril(s) + np.tril(s, -1).T
    np.fill_diagonal(s, 1.0)
    return s.astype(np.float32)


def whole_matrix_semantic(fi, ft, ks: int, gamma: float) -> np.ndarray:
    """The similarity pipeline one whole matrix per stage.

    Each stage computes in float64 over the full M x M matrix and stores
    float32, as simgraph did before it worked in row blocks; the blocked
    pipeline must reproduce these bits.
    """
    prob_i = ((tril_mirror_cosine(fi).astype(np.float64) + 1.0) / 2.0).astype(np.float32)
    prob_t = ((tril_mirror_cosine(ft).astype(np.float64) + 1.0) / 2.0).astype(np.float32)
    a = prob_i.astype(np.float64)
    b = prob_t.astype(np.float64)
    fused = (a + b - a * b).astype(np.float32)
    if gamma == 0.0:
        struct = np.zeros_like(fused)
    else:
        m = fused.shape[0]
        ks = min(ks, m)
        nn = argsort_top_k(fused, ks).ravel()
        rows = np.repeat(np.arange(m), ks)
        w = np.zeros((m, m), dtype=np.float64)
        w[rows, nn] = fused[rows, nn].astype(np.float64)
        w /= w.sum(axis=1)[:, None]
        w = w.astype(np.float32).astype(np.float64)
        prod = ks * (w @ w.T)
        prod = np.tril(prod) + np.tril(prod, -1).T
        struct = np.clip(prod, 0.0, 1.0).astype(np.float32)
    s = 2.0 * ((1.0 - gamma) * fused.astype(np.float64)
               + gamma * struct.astype(np.float64)) - 1.0
    return np.clip(s, -1.0, 1.0).astype(np.float32)


def dense_correlation_stats(rel_dense, labels) -> dict:
    """Relation size and label precision from the unpacked 0/1 matrix."""
    dense = np.asarray(rel_dense).astype(bool)
    off = dense.copy()
    np.fill_diagonal(off, False)
    if not off.any():
        return {"count": int(dense.sum()), "precision": 1.0, "no_offdiag": True}
    lab = np.asarray(labels, dtype=np.float32)
    share = (lab @ lab.T) > 0
    return {"count": int(dense.sum()), "precision": float(share[off].mean()),
            "no_offdiag": False}


def code_distances(query_codes, db_codes) -> np.ndarray:
    """evalkit.hamming_matrix of two -1/+1 code matrices, their +1 bits
    packed as evaluate_direction packs them."""
    q, d = np.asarray(query_codes), np.asarray(db_codes)
    return evalkit.hamming_matrix(kernels.pack_rows(q > 0), kernels.pack_rows(d > 0),
                                  q.shape[1])


def naive_hamming(code_a, code_b) -> int:
    return sum(1 for x, y in zip(code_a, code_b) if x != y)


def naive_rank(query_codes, db_codes) -> list:
    orders = []
    for q in np.asarray(query_codes):
        dists = [naive_hamming(q, d) for d in np.asarray(db_codes)]
        orders.append(sorted(range(len(dists)), key=lambda j: (dists[j], j)))
    return orders


def naive_relevance(query_labels, db_labels) -> np.ndarray:
    """rel[q, d] is True iff the rows share a nonzero label, pair by pair
    over each row's set of nonzero label columns."""
    query_sets, db_sets = ([set(np.flatnonzero(row).tolist()) for row in np.asarray(labels)]
                           for labels in (query_labels, db_labels))
    return np.array([[not a.isdisjoint(b) for b in db_sets] for a in query_sets],
                    dtype=bool).reshape(len(query_sets), len(db_sets))


def naive_average_precision(flags, cutoff=None) -> float:
    flags = list(flags)
    if cutoff is not None:
        flags = flags[:cutoff]
    hits = 0
    precisions = []
    for pos, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            precisions.append(hits / pos)
    if not precisions:
        return 0.0
    return math.fsum(precisions) / len(precisions)


def block_average_precision(flags, cutoff=None) -> np.ndarray:
    """AP of each row of a 2-d block of ranked 0/1 flags, truncated at
    cutoff when given: evalkit.average_precision as it was when it read
    the flags, one row's hit ranks split off at a time."""
    flags = np.asarray(flags)[:, :cutoff]
    rows, cols = np.divmod(np.flatnonzero(flags), flags.shape[1])
    hit_ranks = np.split(cols + 1, np.searchsorted(rows, np.arange(1, len(flags))))
    return np.array([(np.arange(1, r.size + 1) / r).sum() / r.size if r.size else 0.0
                     for r in hit_ranks])


def sorted_gather_direction(direction, query_codes, db_codes, query_labels,
                            db_labels, map_cutoffs, k_grid, block_rows):
    """evaluate_direction's block loop as it was when each block sorted
    its distances along with the relevance: take_along_axis gathers both,
    the histograms count the sorted pairs, and AP reads the ranked flags.
    The distances are the float32 product of the codes and the relevance
    naive_relevance, so neither shares evalkit's word operations."""
    q = np.asarray(query_codes, dtype=np.float32)
    d = np.asarray(db_codes, dtype=np.float32)
    n_q, k = len(q), q.shape[1]
    aps = np.zeros((1 + len(map_cutoffs), n_q))
    topk_hits = np.zeros((n_q, len(k_grid)), dtype=np.int64)
    hists = np.zeros((n_q, k + 1, 2), dtype=np.int64)
    for lo in range(0, n_q, block_rows):
        block = slice(lo, lo + block_rows)
        dist = ((k - q[block] @ d.T) / 2).astype(np.min_scalar_type(k))
        ordering = np.argsort(dist, axis=1, kind="stable")
        distances = np.take_along_axis(dist, ordering, axis=1)
        flags = np.take_along_axis(
            naive_relevance(query_labels[block], db_labels), ordering, axis=1)
        for row, cutoff in zip(aps, [None] + list(map_cutoffs)):
            row[block] = block_average_precision(flags, cutoff)
        for i, top in enumerate(k_grid):
            topk_hits[block, i] = np.count_nonzero(flags[:, :top], axis=1)
        keys = distances + np.arange(len(flags))[:, None] * (k + 1)
        hists[block] = np.bincount((2 * keys + flags).ravel(), minlength=hists[block].size
                                   ).reshape(-1, k + 1, 2)
    within = np.cumsum(hists, axis=1)  # the counts within each radius
    pr_curve, topk_curve = evalkit.curves(within.sum(axis=2), within[..., 1],
                                          topk_hits, list(k_grid))
    return evalkit.EvalReport(
        direction=direction, code_length=k, map_all=float(np.mean(aps[0])),
        map_at={c: float(np.mean(row)) for c, row in zip(map_cutoffs, aps[1:])},
        pr_curve=pr_curve, topk_curve=topk_curve)


def naive_backward(params, x, eta, d_h, hidden_act="relu"):
    """Gradients after recomputing the forward pass, pre-activations kept."""
    x = np.asarray(x, dtype=np.float64)
    pre1 = x @ params.w1.T + params.b1
    a1 = np.maximum(pre1, 0.0) if hidden_act == "relu" else np.tanh(pre1)
    h = np.tanh(eta * (a1 @ params.w2.T + params.b2))
    d_pre2 = d_h * eta * (1.0 - h * h)
    d_a1 = d_pre2 @ params.w2
    if hidden_act == "relu":
        d_pre1 = d_a1 * (pre1 > 0.0)
    else:
        d_pre1 = d_a1 * (1.0 - a1 * a1)
    return {"w1": d_pre1.T @ x, "b1": d_pre1.sum(axis=0),
            "w2": d_pre2.T @ a1, "b2": d_pre2.sum(axis=0)}


def naive_sgd_step(params, velocity, grads, lr, momentum, weight_decay):
    """Whole-array momentum SGD with weight decay on w1 and w2 only;
    velocity is a record of the parameters' shapes, updated in place, and
    grads maps each parameter name to its gradient."""
    for name in ("w1", "b1", "w2", "b2"):
        p = getattr(params, name)
        v = getattr(velocity, name)
        g = grads[name]
        step = g + weight_decay * p if name.startswith("w") else g
        if not np.all(np.isfinite(step)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        v *= momentum
        v += step
        p -= lr * v


def explicit_text_grad(hi, ht, s, r, weights):
    """dL/dHt from the text side's own formula, as the objective once
    wrote it beside the image side's: the pair term differentiates the
    column side of cos(hi_i, ht_j), summing over rows with sum(axis=0)."""
    hi_hat, hi_norms = kernels.unit_rows(hi, "image batch")
    ht_hat, ht_norms = kernels.unit_rows(ht, "text batch")
    s = np.asarray(s, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    c_it, c_ii, c_tt = hi_hat @ ht_hat.T, hi_hat @ hi_hat.T, ht_hat @ ht_hat.T
    mu1, mu2, beta = weights.mu1, weights.mu2, weights.beta
    g_it = 2.0 * (c_it - s) + mu1 * 2.0 * r * (c_it - beta) \
        + mu2 * 2.0 * ((c_it - c_ii) + (c_it - c_tt))
    g_tt = 2.0 * (c_tt - s) + mu2 * (-2.0 * (c_ii - c_tt) - 2.0 * (c_it - c_tt))
    pair = (g_it.T @ hi_hat - (g_it * c_it).sum(axis=0)[:, None] * ht_hat) \
        / ht_norms[:, None]
    h = g_tt + g_tt.T  # rows of cos(ht, ht) appear on both sides
    return pair + (h @ ht_hat - (h * c_tt).sum(axis=1)[:, None] * ht_hat) \
        / ht_norms[:, None]


def explicit_g_it(hi, ht, s, r, weights):
    """The three terms of dL/dC_it, C_it = cos(hi, ht), each written out
    from its term of the loss, in the order objective._g_it adds them:
    (d|S - C_it|^2, mu1 * d sum R (C_it - beta)^2,
    mu2 * d(|C_it - C_ii|^2 + |C_it - C_tt|^2))."""
    hi_hat = kernels.unit_rows(hi, "image batch")[0]
    ht_hat = kernels.unit_rows(ht, "text batch")[0]
    s = np.asarray(s, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    c_it, c_ii, c_tt = hi_hat @ ht_hat.T, hi_hat @ hi_hat.T, ht_hat @ ht_hat.T
    sr = 2.0 * (c_it - s)
    cp = weights.mu1 * 2.0 * r * (c_it - weights.beta)
    sa = weights.mu2 * 2.0 * ((c_it - c_ii) + (c_it - c_tt))
    return sr, cp, sa


def central_difference(fn, arr, step):
    """Central finite differences of a scalar function over one array.

    Perturbs arr in place between fn() calls, so fn must read the same
    array object; anything else would silently differentiate a constant.
    """
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64):
        raise TypeError("central_difference needs the float64 array itself")
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        up = fn()
        flat[idx] = keep - step
        down = fn()
        flat[idx] = keep
        gflat[idx] = (up - down) / (2.0 * step)
    return grad


def gradient_errors(analytic, numeric, tiny=1e-8):
    """Relative error per entry, absolute where the gradient vanishes."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    errors = np.zeros_like(analytic)
    for idx in range(analytic.size):
        a, n = analytic[idx], numeric[idx]
        if abs(a) < tiny and abs(n) < tiny:
            errors[idx] = abs(a - n)  # compared absolutely in the tiny regime
        else:
            errors[idx] = abs(a - n) / max(abs(a), abs(n))
    return errors

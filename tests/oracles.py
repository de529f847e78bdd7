"""Straight-line scalar reference implementations.

These deliberately avoid the library's vectorized code paths: plain
Python loops, math.fsum accumulation, and explicit tie rules.  Stage
outputs round to float32 exactly where the library's containers declare
32-bit storage, so both sides select neighbors from identical values.
"""

import math

import numpy as np


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
    m = len(fi)
    ks = min(ks, m)
    cos_i = naive_cosine(fi)
    cos_t = naive_cosine(ft)
    prob_i = [[f32((v + 1.0) / 2.0) for v in row] for row in cos_i]
    prob_t = [[f32((v + 1.0) / 2.0) for v in row] for row in cos_t]
    fused = [[f32(prob_i[i][j] + prob_t[i][j] - prob_i[i][j] * prob_t[i][j])
              for j in range(m)] for i in range(m)]

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
    return fused, struct


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


def dense_second_order(adj_a, adj_b, tau: int) -> np.ndarray:
    """Neighbor-overlap counts as an integer matmul, symmetrized by max."""
    a = np.asarray(adj_a, dtype=np.int64)
    b = np.asarray(adj_b, dtype=np.int64)
    counts = a @ b.T
    return (np.maximum(counts, counts.T) >= tau).astype(np.uint8)


def tril_mirror_cosine(features) -> np.ndarray:
    """Cosine in float64, symmetrized by float64 tril sums, then cast."""
    f = np.asarray(features, dtype=np.float64)
    fn = f / np.linalg.norm(f, axis=1)[:, None]
    s = np.clip(fn @ fn.T, -1.0, 1.0)
    s = np.tril(s) + np.tril(s, -1).T
    np.fill_diagonal(s, 1.0)
    return s.astype(np.float32)


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


def naive_hamming(code_a, code_b) -> int:
    return sum(1 for x, y in zip(code_a, code_b) if x != y)


def naive_rank(query_codes, db_codes) -> list:
    orders = []
    for q in np.asarray(query_codes):
        dists = [naive_hamming(q, d) for d in np.asarray(db_codes)]
        orders.append(sorted(range(len(dists)), key=lambda j: (dists[j], j)))
    return orders


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

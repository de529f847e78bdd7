"""Mining of the instance correlation set and its adaptive expansion.

A correlation set is a symmetric reflexive 0/1 relation over training
instances.  It seeds from second-order neighborhood overlaps of the raw
feature cosines and grows monotonically between epochs by re-mining the
same relation from the learned hidden embeddings and unioning it in.
Bits are kept packed (order^2 bits) so a 5000-instance relation costs a
few megabytes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .simgraph import cosine_matrix, top_k_indices

# pairs second_order expands per block of its join
_JOIN_PAIRS = 1 << 16

# set bits in each byte value, for counting bits in packed rows
_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _count_bits(packed: np.ndarray) -> int:
    return int(_BYTE_POPCOUNT[packed].sum(dtype=np.int64))


def _diagonal_bits(packed: np.ndarray) -> np.ndarray:
    """Bit (i, i) of each row of a row-packed square relation."""
    i = np.arange(packed.shape[0])
    return (packed[i, i >> 3] >> (7 - (i & 7))) & 1


class CorrelationSet:
    """Packed symmetric reflexive bit relation plus its mining epoch."""

    def __init__(self, order: int, bits: np.ndarray, epoch: int = 0):
        self.order = order
        self.bits = bits  # (order, ceil(order/8)) uint8, row-packed
        self.epoch = epoch

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CorrelationSet":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DataError(f"correlation set must be square, got {dense.shape}")
        # every entry is 0 or 1; the miners' uint8 needs only a max
        if dense.dtype == np.uint8:
            binary = dense.size == 0 or dense.max() <= 1
        else:
            binary = dense.dtype == np.bool_ or np.all(dense == (dense != 0))
        if not binary:
            raise DataError("correlation set entries must be 0/1")
        dense = dense.astype(np.uint8, copy=False)
        # symmetry tile by tile: rows [s, s+256) right of the diagonal
        # against the same columns below it, never a strided M x M transpose
        for s in range(0, dense.shape[0], 256):
            if not np.array_equal(dense[s:s + 256, s:], dense[s:, s:s + 256].T):
                raise DataError("correlation set must be symmetric")
        if not np.all(np.diag(dense) == 1):
            raise DataError("correlation set must include every self pair")
        return cls(dense.shape[0], np.packbits(dense, axis=1))

    @classmethod
    def identity(cls, order: int) -> "CorrelationSet":
        return cls.from_dense(np.eye(order, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.bits, axis=1, count=self.order)

    def popcount(self) -> int:
        return _count_bits(self.bits)

    def union(self, other: "CorrelationSet", epoch: int) -> "CorrelationSet":
        if other.order != self.order:
            raise DataError(f"union: order mismatch {self.order} vs {other.order}")
        return CorrelationSet(self.order, self.bits | other.bits, epoch)

    def batch(self, idx: np.ndarray) -> np.ndarray:
        """Dense float64 submatrix over the given instance indices."""
        rows = np.unpackbits(self.bits[idx], axis=1, count=self.order)
        return rows[:, idx].astype(np.float64)


def knn_adjacency(sim: np.ndarray, kr: int) -> np.ndarray:
    """Each row's kr nearest neighbors under sim: top_k_indices(sim, kr).

    Rows list min(kr, order) indices in ascending order, ties resolved by
    ascending index; the unit self-similarity of any cosine-like input
    keeps each instance inside its own neighbor set.
    """
    if kr < 1:
        raise ConfigError(f"knn_adjacency: kr must be >= 1, got {kr}")
    return top_k_indices(sim, kr)


def second_order(nn_a: np.ndarray, nn_b: np.ndarray, tau: int,
                 out: np.ndarray) -> np.ndarray:
    """Mark in out the pairs whose neighbor lists share tau or more entries.

    out[i, j] is set iff rows i of nn_a and j of nn_b overlap in tau or
    more neighbors, and for a cross join (nn_a is not nn_b) so is out[j, i]:
    max(A @ B.T, B @ A.T) >= tau for the 0/1 adjacencies the lists stand
    for.  Other entries keep their values; out, a C-contiguous order x
    order uint8 buffer, is returned.  No product is formed; each entry
    (i, c) of nn_a joins every row j of nn_b that also lists c.  At tau == 1
    every joined pair is a hit; above it, np.unique counts each pair's
    repeats.  The join runs over blocks of nn_a's rows of about _JOIN_PAIRS
    pairs each, so its memory does not grow with the order.
    """
    if nn_a.ndim != 2 or nn_a.shape != nn_b.shape:
        raise DataError(f"second_order: bad list shapes {nn_a.shape} vs {nn_b.shape}")
    if tau < 1:
        raise ConfigError(f"second_order: tau must be >= 1, got {tau}")
    m, k = nn_a.shape
    if out.shape != (m, m) or out.dtype != np.uint8 or not out.flags.c_contiguous:
        raise DataError(f"second_order: out must be a C-contiguous {m}x{m} uint8 array")
    # rows of b grouped by the neighbor they list:
    # b_rows[b_start[c]:b_start[c + 1]] are the rows j whose list holds c
    b_rows = np.argsort(nn_b, axis=None, kind="stable") // k
    b_start = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(nn_b.ravel(), minlength=m), out=b_start[1:])
    a_rows = np.repeat(np.arange(m), k)
    a_cols = nn_a.ravel()
    fan = b_start[a_cols + 1] - b_start[a_cols]  # pairs joined per entry of a
    ends = np.cumsum(fan)
    firsts = ends - fan
    flat = out.reshape(-1)
    lo = 0
    while lo < a_rows.size:
        # end the block on a row boundary so every repeat of a pair is in it
        hi = max(int(np.searchsorted(ends, firsts[lo] + _JOIN_PAIRS, "right")), lo + 1)
        hi = int(np.searchsorted(a_rows, a_rows[hi - 1], "right"))
        # entry e of a joins b_rows[b_start[c_e]:b_start[c_e] + fan[e]]
        width = fan[lo:hi]
        pos = np.arange(firsts[lo], ends[hi - 1])
        pos += np.repeat(b_start[a_cols[lo:hi]] - firsts[lo:hi], width)
        keys = np.repeat(a_rows[lo:hi] * m, width)
        keys += b_rows[pos]
        if tau > 1:
            keys, repeats = np.unique(keys, return_counts=True)
            keys = keys[repeats >= tau]
        flat[keys] = 1
        # a self-join counts (i, j) and (j, i) alike, so its hits are symmetric
        if nn_a is not nn_b:
            i, j = np.divmod(keys, m)
            flat[j * m + i] = 1
        lo = hi
    return out


def first_order_correlations(sim_image: np.ndarray, sim_text: np.ndarray,
                             kr: int) -> CorrelationSet:
    """Pairwise-only relation: symmetrized first-order KNN of each modality.

    This is the mining rule with the neighborhood-overlap step bypassed;
    it exists to measure what that step buys.
    """
    nn_i, nn_t = knn_adjacency(sim_image, kr), knn_adjacency(sim_text, kr)
    dense = np.eye(len(nn_i), dtype=np.uint8)
    rows = np.repeat(np.arange(len(nn_i)), nn_i.shape[1])
    for nn in (nn_i.ravel(), nn_t.ravel()):
        dense[rows, nn] = 1
        dense[nn, rows] = 1
    return CorrelationSet.from_dense(dense)


def init_correlations(sim_image: np.ndarray, sim_text: np.ndarray,
                      kr: int, tau: int = 1) -> CorrelationSet:
    """Seed relation from second-order overlaps within and across modalities."""
    nn_i, nn_t = knn_adjacency(sim_image, kr), knn_adjacency(sim_text, kr)
    dense = np.eye(len(nn_i), dtype=np.uint8)
    for nn_a, nn_b in ((nn_i, nn_i), (nn_t, nn_t), (nn_i, nn_t)):
        second_order(nn_a, nn_b, tau, dense)
    return CorrelationSet.from_dense(dense)


def adaptive_update(rel: CorrelationSet, hidden_image: np.ndarray,
                    hidden_text: np.ndarray, kr: int, tau: int = 1,
                    pairwise: bool = False) -> CorrelationSet:
    """Union the relation mined from hidden embeddings into rel.

    The result is monotone (never loses a pair) and carries epoch + 1.
    A zero-norm hidden row means the network collapsed, so it raises
    DivergenceError rather than DataError.
    """
    for name, h in (("image", hidden_image), ("text", hidden_text)):
        if h.shape[0] != rel.order:
            raise DataError(
                f"adaptive_update: {name} embeddings have {h.shape[0]} rows, "
                f"relation order is {rel.order}"
            )
        norms = np.linalg.norm(np.asarray(h, dtype=np.float64), axis=1)
        if np.any(norms == 0.0):
            raise DivergenceError(
                f"adaptive_update: zero-norm {name} embedding row "
                f"{int(np.argmax(norms == 0.0))}; training diverged"
            )
    sim_i = cosine_matrix(hidden_image)
    sim_t = cosine_matrix(hidden_text)
    if pairwise:
        mined = first_order_correlations(sim_i, sim_t, kr)
    else:
        mined = init_correlations(sim_i, sim_t, kr, tau)
    return rel.union(mined, epoch=rel.epoch + 1)


def label_share(labels: np.ndarray) -> np.ndarray:
    """Row-packed relation of instance pairs that share at least one label.

    It depends on the labels alone, so a training run builds it once and
    passes it to every correlation_stats call.
    """
    labels = np.asarray(labels, dtype=np.float32)
    return np.packbits((labels @ labels.T) > 0, axis=1)


def correlation_stats(rel: CorrelationSet, labels: np.ndarray,
                      share: np.ndarray | None = None) -> dict:
    """Size and label-agreement precision of the relation.

    count includes the diagonal; precision is the fraction of off-diagonal
    pairs sharing at least one label.  With no off-diagonal pairs the
    precision reports 1.0 and the flag says so.  share is label_share of
    these labels, built here when not given.  Both figures are bit counts
    on the packed rows; no order^2 matrix is unpacked.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != rel.order:
        raise DataError(
            f"correlation_stats: {labels.shape[0]} label rows for order {rel.order}"
        )
    count = rel.popcount()
    diag = _diagonal_bits(rel.bits)
    n_off = count - int(diag.sum())
    if n_off == 0:
        return {"count": count, "precision": 1.0, "no_offdiag": True}
    if share is None:
        share = label_share(labels)
    shared = _count_bits(rel.bits & share) - int((diag & _diagonal_bits(share)).sum())
    return {"count": count, "precision": shared / n_off, "no_offdiag": False}

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
from .simgraph import SimMatrix, cosine_matrix, top_k_indices

# pairs second_order expands per block of its join
_JOIN_PAIRS = 1 << 20

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
    def from_dense(cls, dense: np.ndarray, epoch: int = 0) -> "CorrelationSet":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DataError(f"correlation set must be square, got {dense.shape}")
        if not np.all(dense == (dense != 0)):  # every entry is 0 or 1
            raise DataError("correlation set entries must be 0/1")
        dense = dense.astype(np.uint8)
        if not np.array_equal(dense, dense.T):
            raise DataError("correlation set must be symmetric")
        if not np.all(np.diag(dense) == 1):
            raise DataError("correlation set must include every self pair")
        return cls(dense.shape[0], np.packbits(dense, axis=1), epoch)

    @classmethod
    def identity(cls, order: int, epoch: int = 0) -> "CorrelationSet":
        return cls.from_dense(np.eye(order, dtype=np.uint8), epoch)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.bits, axis=1, count=self.order)

    def popcount(self) -> int:
        return _count_bits(self.bits)

    def union(self, other: "CorrelationSet", epoch: int) -> "CorrelationSet":
        if other.order != self.order:
            raise DataError(f"union: order mismatch {self.order} vs {other.order}")
        return CorrelationSet(self.order, self.bits | other.bits, epoch)

    def contains(self, other: "CorrelationSet") -> bool:
        return bool(np.all((self.bits & other.bits) == other.bits))

    def batch(self, idx: np.ndarray) -> np.ndarray:
        """Dense float64 submatrix over the given instance indices."""
        rows = np.unpackbits(self.bits[idx], axis=1, count=self.order)
        return rows[:, idx].astype(np.float64)


def knn_adjacency(sim: SimMatrix, kr: int) -> np.ndarray:
    """0/1 matrix marking each row's kr nearest neighbors under sim.

    Ties resolve by ascending index; kr clamps to the matrix order.  Rows
    are exactly min(kr, order)-hot, and the unit self-similarity of any
    cosine-like input keeps each instance inside its own neighbor set.
    """
    if not isinstance(sim, SimMatrix):
        raise ConfigError("knn_adjacency expects a SimMatrix")
    if kr < 1:
        raise ConfigError(f"knn_adjacency: kr must be >= 1, got {kr}")
    m = sim.order
    kr = min(kr, m)
    nn = top_k_indices(sim.values, kr)
    adj = np.zeros((m, m), dtype=np.uint8)
    adj[np.repeat(np.arange(m), kr), nn.ravel()] = 1
    return adj


def second_order(adj_a: np.ndarray, adj_b: np.ndarray, tau: int = 1) -> np.ndarray:
    """Pairs whose neighbor sets overlap in tau or more instances.

    out[i, j] = 1 iff max((A @ B.T)[i, j], (B @ A.T)[i, j]) >= tau, where
    (A @ B.T)[i, j] counts the columns set in both row i of a and row j
    of b.  No product is formed; the counts come from a join on the
    shared neighbor: each entry (i, c) of a pairs with every row j of b
    that also lists c.  At tau == 1 every joined pair is a hit; above it,
    np.unique counts each pair's repeats.  The join runs over blocks of
    a's rows that expand about _JOIN_PAIRS pairs each, so its memory does
    not grow with the order.
    """
    a = np.asarray(adj_a)
    b = np.asarray(adj_b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"second_order: bad adjacency shapes {a.shape} vs {b.shape}")
    if tau < 1:
        raise ConfigError(f"second_order: tau must be >= 1, got {tau}")
    m = a.shape[0]
    # rows of b grouped by the neighbor they list:
    # b_rows[b_start[c]:b_start[c + 1]] are the rows j with b[j, c] set
    b_rows, b_cols = np.divmod(np.flatnonzero(b != 0), m)
    b_rows = b_rows[np.argsort(b_cols, kind="stable")]
    b_start = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(b_cols, minlength=m), out=b_start[1:])
    a_rows, a_cols = np.divmod(np.flatnonzero(a != 0), m)
    fan = b_start[a_cols + 1] - b_start[a_cols]  # pairs joined per entry of a
    ends = np.cumsum(fan)
    firsts = ends - fan
    hits = np.zeros(m * m, dtype=np.uint8)
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
        hits[keys] = 1
        lo = hi
    hits = hits.reshape(m, m)
    return hits | hits.T


def first_order_correlations(sim_image: SimMatrix, sim_text: SimMatrix,
                             kr: int) -> CorrelationSet:
    """Pairwise-only relation: symmetrized first-order KNN of each modality.

    This is the mining rule with the neighborhood-overlap step bypassed;
    it exists to measure what that step buys.
    """
    r1i = knn_adjacency(sim_image, kr)
    r1t = knn_adjacency(sim_text, kr)
    dense = r1i | r1i.T | r1t | r1t.T
    np.fill_diagonal(dense, 1)
    return CorrelationSet.from_dense(dense, epoch=0)


def init_correlations(sim_image: SimMatrix, sim_text: SimMatrix,
                      kr: int, tau: int = 1) -> CorrelationSet:
    """Seed relation from second-order overlaps within and across modalities."""
    r1i = knn_adjacency(sim_image, kr)
    r1t = knn_adjacency(sim_text, kr)
    dense = (
        second_order(r1i, r1i, tau)
        | second_order(r1t, r1t, tau)
        | second_order(r1i, r1t, tau)
    )
    np.fill_diagonal(dense, 1)
    return CorrelationSet.from_dense(dense, epoch=0)


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

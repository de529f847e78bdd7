"""Mining of the instance correlation set and its adaptive expansion.

A correlation set is a symmetric reflexive 0/1 relation over training
instances.  It seeds from second-order neighborhood overlaps of the raw
feature cosines and grows monotonically between epochs by re-mining the
same relation from the learned hidden embeddings and unioning it in.
Bits are kept in kernels' packed relation rows, so a 5000-instance
relation costs a few megabytes.  The miners set their hits straight in
those rows, mirrored, so a mined relation is symmetric and reflexive as
built; no order x order array of any dtype is formed.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .simgraph import cosine_blocks, top_k_indices
# not called here, but bench/tracing.py patches corrmine.cosine_matrix
from .simgraph import cosine_matrix  # noqa: F401


class CorrelationSet:
    """Packed symmetric reflexive bit relation plus its mining epoch."""

    def __init__(self, bits: np.ndarray, epoch: int = 0):
        self.bits = bits  # (order, ceil(order/8)) uint8, row-packed
        self.epoch = epoch

    @property
    def order(self) -> int:
        return len(self.bits)

    @classmethod
    def identity(cls, order: int) -> "CorrelationSet":
        bits = np.zeros((order, (order + 7) >> 3), dtype=np.uint8)
        kernels.mark(bits, np.arange(order), np.arange(order))
        return cls(bits)

    def upper_pairs(self):
        """Yield the pairs (i, j), i <= j, as (n, 2) index arrays in
        row-major order, one per block of rows; only that block's rows are
        ever unpacked."""
        for lo, hi in kernels.row_blocks(self.order):
            rows = np.unpackbits(self.bits[lo:hi], axis=1, count=self.order)
            i, j = np.nonzero(np.triu(rows, lo))
            yield np.column_stack((i + lo, j))

    def popcount(self) -> int:
        return kernels.count_bits(self.bits)

    def union(self, other: "CorrelationSet", epoch: int) -> "CorrelationSet":
        return CorrelationSet(self.bits | other.bits, epoch)

    def batch(self, idx: np.ndarray) -> np.ndarray:
        """Dense float64 submatrix over the given instance indices."""
        rows = np.unpackbits(self.bits[idx], axis=1, count=self.order)
        return rows[:, idx].astype(np.float64)


def _select(blocks, m: int, kr: int) -> np.ndarray:
    """Neighbor lists of m rows from (lo, hi, rows) blocks of a similarity:
    top_k_indices(rows, kr) per block."""
    nn = np.empty((m, min(kr, m)), dtype=np.intp)
    for lo, hi, rows in blocks:
        nn[lo:hi] = top_k_indices(rows, kr)
    return nn


def knn_adjacency(sim: np.ndarray, kr: int) -> np.ndarray:
    """Each row's kr nearest neighbors under sim: top_k_indices(sim, kr).

    Rows list min(kr, order) indices in ascending order, ties resolved by
    ascending index; the unit self-similarity of any cosine-like input
    keeps each instance inside its own neighbor set.  Selecting per block
    of rows bounds the temporaries of top_k_indices' tie fix-up.
    """
    m = len(sim)
    return _select(((lo, hi, sim[lo:hi]) for lo, hi in kernels.row_blocks(m)), m, kr)


def _join(nn_a: np.ndarray, nn_b: np.ndarray, tau: int, out: np.ndarray) -> None:
    """Set bit (i, j) of out where rows i of nn_a and j of nn_b share tau
    or more neighbors.  Row c of the listing sets packs the rows of nn_b
    whose list holds c; a block of nn_a's rows counts its neighbors' sets
    up to tau in saturating bit-planes, plane p holding the rows seen more
    than p times (at tau 1, their OR)."""
    m, k = nn_b.shape
    sets = np.zeros((m, ((m + 63) >> 6) << 3), dtype=np.uint8)
    kernels.mark(sets, nn_b.ravel(), np.repeat(np.arange(m), k))
    sets = sets.view(np.uint64)
    for lo, hi in kernels.row_blocks(m):
        planes = np.zeros((tau, hi - lo, sets.shape[1]), dtype=np.uint64)
        for col in nn_a[lo:hi].T:
            x = sets[col]
            for p in range(tau - 1, 0, -1):
                planes[p] |= planes[p - 1] & x
            planes[0] |= x
        out[lo:hi] |= planes[-1].view(np.uint8)[:, :out.shape[1]]


def second_order(nn_a: np.ndarray, nn_b: np.ndarray, tau: int,
                 out: np.ndarray) -> np.ndarray:
    """Mark in out the pairs whose neighbor lists share tau or more entries.

    out holds C-contiguous row-packed bits, as CorrelationSet.bits does.
    Bit (i, j) is set iff rows i of nn_a and j of nn_b share tau or more
    neighbors, and for a cross join (nn_a is not nn_b) so is bit (j, i):
    max(A @ B.T, B @ A.T) >= tau for the lists' 0/1 adjacencies, whose
    rows hold distinct entries.  Other bits keep their values; out is
    returned.  No product is formed: each row ORs, or above tau 1 counts,
    the packed sets of rows listing its neighbors; a cross join runs again
    with a and b swapped.  Cost: tau * order * k * order / 8 byte ops.
    """
    if tau > nn_a.shape[1]:  # no two lists of k distinct entries share more than k
        return out
    _join(nn_a, nn_b, tau, out)
    if nn_a is not nn_b:
        _join(nn_b, nn_a, tau, out)
    return out


def _mine(nn_i: np.ndarray, nn_t: np.ndarray, tau: int,
          pairwise: bool) -> CorrelationSet:
    """The relation of two sides' neighbor lists, self pairs included.

    pairwise keeps each listed pair and its mirror: symmetrized
    first-order KNN, the mining rule with the neighborhood-overlap step
    bypassed, which exists to measure what that step buys.  Otherwise a
    pair is mined when its lists overlap in tau or more entries, within
    either side or across them; at tau 1 the four directed joins of the
    image and text lists hit exactly where one self-join of the
    concatenated lists does.  The relation is symmetric and reflexive as
    built: a listed pair is marked with its mirror, an overlap is
    symmetric, a cross join runs both ways, and the identity holds every
    self pair.
    """
    bits = CorrelationSet.identity(len(nn_i)).bits
    nn = np.hstack((nn_i, nn_t))
    if pairwise:
        rows = np.repeat(np.arange(len(nn)), nn.shape[1])
        kernels.mark(bits, rows, nn.ravel())
        kernels.mark(bits, nn.ravel(), rows)
    else:
        joins = [(nn, nn)] if tau == 1 else [(nn_i, nn_i), (nn_t, nn_t), (nn_i, nn_t)]
        for nn_a, nn_b in joins:
            second_order(nn_a, nn_b, tau, bits)
    return CorrelationSet(bits)


def init_correlations(sim_image: np.ndarray, sim_text: np.ndarray, kr: int,
                      tau: int = 1, pairwise: bool = False) -> CorrelationSet:
    """Seed relation mined from each modality's kr nearest neighbors under
    its similarity, by the rule _mine describes."""
    return _mine(knn_adjacency(sim_image, kr), knn_adjacency(sim_text, kr),
                 tau, pairwise)


def adaptive_update(rel: CorrelationSet, hidden_image: np.ndarray,
                    hidden_text: np.ndarray, kr: int, tau: int = 1,
                    pairwise: bool = False) -> CorrelationSet:
    """Union the relation mined from hidden embeddings into rel.

    The result is monotone (never loses a pair) and carries epoch + 1.
    Each side's neighbor lists are selected from the blocks of
    cosine_blocks as they stream, so no order x order float32 cosine is
    held, and only one side's float64 product at a time.  A zero-norm
    hidden row means the network collapsed, so it raises DivergenceError.
    """
    units = [kernels.unit_rows(hidden_image, "image embedding")[0],
             kernels.unit_rows(hidden_text, "text embedding")[0]]
    nn_i, nn_t = (_select(cosine_blocks(u), rel.order, kr) for u in units)
    return rel.union(_mine(nn_i, nn_t, tau, pairwise), epoch=rel.epoch + 1)


def label_share(labels: np.ndarray) -> np.ndarray:
    """Row-packed relation of instance pairs that share at least one label.

    It depends on the labels alone, so a training run builds it once for
    every correlation_stats call.  Each block of rows is the overlap of the
    labels' pack_rows words, as evaluation's relevance is, packed as soon
    as it is formed, so no order x order array is.
    """
    words = kernels.pack_rows(np.asarray(labels) != 0)
    share = np.empty((len(words), (len(words) + 7) >> 3), dtype=np.uint8)
    for lo, hi in kernels.row_blocks(len(words)):
        share[lo:hi] = np.packbits(kernels.overlap(words[lo:hi], words), axis=1)
    return share


def correlation_stats(rel: CorrelationSet, share: np.ndarray | None) -> dict:
    """Size and label-agreement precision of the relation.

    count includes the diagonal; precision is the fraction of off-diagonal
    pairs sharing at least one label, share being the label_share of the
    training labels.  With no labels (share None) only the count is
    given.  With no off-diagonal pairs the precision reports 1.0 and the
    flag says so.  Both figures are bit counts on the packed rows; no
    order^2 matrix is unpacked.
    """
    count = rel.popcount()
    if share is None:
        return {"count": count}
    n_off = count - rel.order  # every relation holds its self pairs
    if n_off == 0:
        return {"count": count, "precision": 1.0, "no_offdiag": True}
    shared = kernels.count_bits(rel.bits & share) - int(kernels.diagonal_bits(share).sum())
    return {"count": count, "precision": shared / n_off, "no_offdiag": False}

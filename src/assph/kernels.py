"""Array kernels the other modules share; it imports numpy and the
package's errors only.

Block policy: a walk over an array's rows visits the consecutive (lo, hi)
blocks of row_blocks, BLOCK_ROWS rows each unless the caller gives a
step; a walk bounded by entries takes rows_within(budget, row_len) rows a
block, at least one.  Whole-array checks and container writes use
BLOCK_ENTRIES; a budget one module uses stays in that module.

Packed-bit rows: pack_rows stores each row of a 2-d bool array in words
of the narrowest unsigned dtype that holds it (uint8 to uint32), else in
zero-padded uint64 words, so rows packed alike compare word by word and
their padding never counts.  distances (XOR popcount) and overlap (a
shared set bit) compare such rows in chunks of about _CHUNK_PAIRS pairs,
so their temporaries stay in cache.  A relation over instances is held
as np.packbits rows (ceil(order / 8) bytes a row, first bit most
significant), which mark, count_bits and diagonal_bits write and read.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

# rows per block of a row walk
BLOCK_ROWS = 256
# entries per block of the whole-array checks and writes: 1 MiB of float32
BLOCK_ENTRIES = 1 << 18
# row pairs per word operation of distances and overlap
_CHUNK_PAIRS = 1 << 16


def row_blocks(m: int, step: int | None = None):
    """(lo, hi) bounds of consecutive step-row blocks of range(m), by default BLOCK_ROWS."""
    step = step or BLOCK_ROWS
    return ((lo, min(lo + step, m)) for lo in range(0, m, step))


def rows_within(budget: int, row_len: int) -> int:
    """Rows per block of a walk over rows of row_len entries that holds
    about budget entries a block: at least one row."""
    return max(1, budget // max(row_len, 1))


def unit_rows(h: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A float64 copy of a 2-d matrix with each row scaled to unit norm,
    and the row norms.  A zero-norm row has no cosine and means the network
    collapsed, so it raises DivergenceError naming name and the row."""
    unit = np.array(h, dtype=np.float64)
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise DivergenceError(f"{name}: zero-norm row {int(np.argmax(norms == 0.0))} "
                              "(cosine undefined; training diverged)")
    unit /= norms[:, None]
    return unit, norms


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Rows of a 2-d bool array as packed-bit words (see the module docstring)."""
    size = next((s for s in (1, 2, 4) if bits.shape[1] <= 8 * s), 8)
    packed = np.packbits(bits, axis=1)
    words = np.zeros((len(bits), -(-packed.shape[1] // size) * size), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view(f"u{size}")


def distances(q: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """out[i, j] is the number of set bits of q[i] XOR d[j], rows of
    pack_rows words of k-bit codes, in the smallest unsigned dtype that
    holds k.  Integer counts, so exact for every k."""
    dist = np.empty((len(q), len(d)), dtype=np.min_scalar_type(k))
    for lo, hi in row_blocks(len(q), rows_within(_CHUNK_PAIRS, len(d))):
        rows, words = dist[lo:hi], zip(q[lo:hi].T, d.T)
        q_w, d_w = next(words)  # k >= 1, so there is a first word
        np.bitwise_count(q_w[:, None] ^ d_w, out=rows)
        for q_w, d_w in words:
            rows += np.bitwise_count(q_w[:, None] ^ d_w)
    return dist


def overlap(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """out[i, j] is True iff rows q[i] and d[j] of pack_rows words have a
    set bit in common: an OR over the words of (q_w & d_w) != 0."""
    out = np.zeros((len(q), len(d)), dtype=bool)
    for lo, hi in row_blocks(len(q), rows_within(_CHUNK_PAIRS, len(d))):
        rows = out[lo:hi]
        for q_w, d_w in zip(q[lo:hi].T, d.T):
            rows |= (q_w[:, None] & d_w) != 0
    return out


def mark(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit (rows[e], cols[e]) of np.packbits rows for every e."""
    np.bitwise_or.at(packed, (rows, cols >> 3), (0x80 >> (cols & 7)).astype(np.uint8))


def count_bits(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum(dtype=np.int64))


def diagonal_bits(packed: np.ndarray) -> np.ndarray:
    """Bit (i, i) of each row of a square relation's np.packbits rows."""
    i = np.arange(packed.shape[0])
    return (packed[i, i >> 3] >> (7 - (i & 7))) & 1

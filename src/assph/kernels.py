"""Array kernels two or more of the other modules share; it imports
numpy and the package's errors only.

Block policy: a walk over an array's rows visits the consecutive (lo, hi)
blocks of row_blocks.  A walk that selects or multiplies whole rows
takes BLOCK_ROWS rows a block.  A walk whose blocks hold elementwise
temporaries takes rows_within(BLOCK_ENTRIES, row_len) rows a block (a
flat array's rows are its entries), so each temporary stays in a core's
cache: fuse and combine, sgd_step, evalkit's Hamming distances and
overlap, all_signs, the whole-array checks and container writes, and
build-sim's correlation listing.  No result depends on where these
blocks end, so BLOCK_ENTRIES changes no output.  evalkit sizes its
ranked blocks itself.

Packed-bit rows: pack_rows stores each row of a 2-d bool array in words
of the narrowest unsigned dtype that holds it (uint8 to uint32), else in
zero-padded uint64 words, so rows packed alike compare word by word and
their padding never counts.  overlap tells whether two such rows share
a set bit; evalkit's Hamming distance counts the bits where they differ.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

# rows per block of a row walk
BLOCK_ROWS = 256
# entries per block of an elementwise walk
BLOCK_ENTRIES = 1 << 16


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


def overlap(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """out[i, j] is True iff rows q[i] and d[j] of pack_rows words have a
    set bit in common: an OR over the words of (q_w & d_w) != 0."""
    out = np.zeros((len(q), len(d)), dtype=bool)
    for lo, hi in row_blocks(len(q), rows_within(BLOCK_ENTRIES, len(d))):
        rows = out[lo:hi]
        for q_w, d_w in zip(q[lo:hi].T, d.T):
            rows |= (q_w[:, None] & d_w) != 0
    return out


def all_signs(codes: np.ndarray) -> bool:
    """Whether a 2-d array holds only -1/+1 code entries: a bool, integer
    or real dtype (abs of a complex entry such as 1j is 1 too)."""
    step = rows_within(BLOCK_ENTRIES, codes.shape[1])
    return codes.dtype.kind in "biuf" and all(
        (np.abs(codes[lo:hi]) == 1).all() for lo, hi in row_blocks(len(codes), step))

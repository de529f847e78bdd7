"""Property tests of the shared array kernels: the row walk covers every
row once in bounded blocks, and the packed relation rows hold exactly the
bits that mark sets and that count_bits and diagonal_bits read."""

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from assph import kernels  # noqa: E402


@given(st.integers(0, 3000), st.one_of(st.none(), st.integers(1, 1 << 20)),
       st.integers(1, 5000))
def test_row_blocks_cover_each_row_once(m, budget, row_len):
    # budget None walks the default blocks of BLOCK_ROWS rows
    if budget is None:
        blocks, most = list(kernels.row_blocks(m)), kernels.BLOCK_ROWS
    else:
        blocks = list(kernels.row_blocks(m, kernels.rows_within(budget, row_len)))
        most = max(1, budget // row_len)
    assert all(1 <= hi - lo <= most for lo, hi in blocks)
    # ascending and contiguous, from row 0 to row m
    edges = [lo for lo, _ in blocks] + [m]
    assert [hi for _, hi in blocks] == edges[1:]
    assert edges[0] == 0 and (m == 0) == (not blocks)


@st.composite
def relation_marks(draw):
    """(order, bytes per row, row indices, column indices): marks of a
    relation whose rows may be padded past ceil(order / 8) bytes, pairs
    repeated or not."""
    n = draw(st.integers(1, 70))
    width = (n + 7) >> 3 if draw(st.booleans()) else ((n + 63) >> 6) << 3
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rows, cols = (np.array([p[i] for p in pairs], dtype=np.intp) for i in (0, 1))
    return n, width, rows, cols


@given(relation_marks())
def test_mark_sets_exactly_the_marked_bits(case):
    n, width, rows, cols = case
    packed = np.zeros((n, width), dtype=np.uint8)
    kernels.mark(packed, rows, cols)
    want = np.zeros((n, 8 * width), dtype=np.uint8)
    want[rows, cols] = 1
    npt.assert_array_equal(np.unpackbits(packed, axis=1), want)


@given(st.integers(1, 70), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_counts_and_diagonal_match_the_unpacked_rows(n, density, seed):
    dense = np.random.default_rng(seed).random((n, n)) < density
    packed = np.packbits(dense, axis=1)
    assert kernels.count_bits(packed) == np.count_nonzero(dense)
    npt.assert_array_equal(kernels.diagonal_bits(packed), np.diag(dense))

"""Property tests of the shared array kernels: the row walk covers every
row once in bounded blocks."""

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

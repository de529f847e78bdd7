"""Property tests: evaluate_direction equals the sorted-gather oracle.

Every report must equal ``oracles.sorted_gather_direction`` exactly, on
tie-heavy codes, code lengths either side of the uint8 distance range,
cutoffs and top-k windows at and past the database size, queries with no
relevant item, and query blocks of one to three rows.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from assph import evalkit  # noqa: E402
from oracles import sorted_gather_direction  # noqa: E402


@st.composite
def directions(draw):
    """(query codes, db codes, query labels, db labels, cutoffs, k_grid,
    rows per block or None for the default block size)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_q, n_db = draw(st.integers(1, 12)), draw(st.integers(1, 60))
    k = draw(st.one_of(st.sampled_from([1, 2, 8, 64, 255, 256, 300]),
                       st.integers(1, 300)))
    # few distinct rows, repeated, make every rank full of ties
    n_distinct = draw(st.one_of(st.none(), st.integers(1, 4)))
    pool = np.where(rng.random((n_distinct or n_q + n_db, k)) < 0.5, 1, -1).astype(np.int8)
    if n_distinct is None:
        q, db = pool[:n_q], pool[n_q:]
    else:
        q, db = (pool[rng.integers(0, n_distinct, n)] for n in (n_q, n_db))
    n_labels = draw(st.integers(1, 5))
    density = draw(st.floats(0.0, 1.0))
    ql, dl = ((rng.random((n, n_labels)) < density).astype(np.int8) for n in (n_q, n_db))
    ql[rng.random(n_q) < 0.2] = 0  # queries with no relevant item
    past = st.integers(1, n_db + 5)
    cutoffs = draw(st.lists(st.one_of(past, st.just(n_db)), max_size=3))
    k_grid = sorted(set(draw(st.lists(st.one_of(past, st.just(n_db)),
                                      min_size=1, max_size=4))))
    rows = draw(st.one_of(st.none(), st.integers(1, 3)))
    return q, db, ql, dl, cutoffs, k_grid, rows


@given(directions())
def test_reports_equal_the_sorted_gather_oracle(case):
    q, db, ql, dl, cutoffs, k_grid, rows = case
    block_pairs = evalkit._BLOCK_PAIRS if rows is None else rows * len(db)
    with mock.patch.object(evalkit, "_BLOCK_PAIRS", block_pairs):
        got = evalkit.evaluate_direction("i2t", q, db, ql, dl, cutoffs, k_grid)
    want = sorted_gather_direction("i2t", q, db, ql, dl, cutoffs, k_grid,
                                   max(1, block_pairs // len(db)))
    assert got == want

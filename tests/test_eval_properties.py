"""Property tests: evaluate_direction equals the sorted-gather oracle.

Every report must equal ``oracles.sorted_gather_direction`` exactly, on
tie-heavy codes, code lengths either side of the uint8 distance range and
of each packed word's width, label widths of one to three words, cutoffs
and top-k windows at and past the database size, queries with no relevant
item, and query blocks and word-operation chunks of one to three rows.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from assph import evalkit, kernels  # noqa: E402
from oracles import sorted_gather_direction  # noqa: E402

# code lengths and label widths at the edges of the packed words
WORD_EDGES = [8, 9, 16, 17, 32, 33, 63, 64, 65, 128, 129]


def codes_and_labels(rng, n_q, n_db, k, n_distinct, n_labels, density):
    """Query and db codes, n_distinct rows repeated when given, and label
    rows set with the given density, about a fifth of the queries unlabeled."""
    pool = np.where(rng.random((n_distinct or n_q + n_db, k)) < 0.5, 1, -1).astype(np.int8)
    if n_distinct is None:
        q, db = pool[:n_q], pool[n_q:]
    else:
        q, db = (pool[rng.integers(0, n_distinct, n)] for n in (n_q, n_db))
    ql, dl = ((rng.random((n, n_labels)) < density).astype(np.int8) for n in (n_q, n_db))
    ql[rng.random(n_q) < 0.2] = 0  # queries with no relevant item
    return q, db, ql, dl


@st.composite
def directions(draw):
    """(query codes, db codes, query labels, db labels, cutoffs, k_grid,
    rows per block and rows per word-operation chunk, each None for the
    default size)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_q, n_db = draw(st.integers(1, 12)), draw(st.integers(1, 60))
    k = draw(st.one_of(st.sampled_from([1, 2, 255, 256, 300] + WORD_EDGES),
                       st.integers(1, 300)))
    # few distinct rows, repeated, make every rank full of ties
    n_distinct = draw(st.one_of(st.none(), st.integers(1, 4)))
    n_labels = draw(st.one_of(st.integers(1, 5), st.sampled_from(WORD_EDGES),
                              st.integers(1, 130)))
    # at most about five labels a row, so wide rows still mix relevant
    # and irrelevant pairs
    density = draw(st.floats(0.0, 1.0)) * min(1.0, 5 / n_labels)
    q, db, ql, dl = codes_and_labels(rng, n_q, n_db, k, n_distinct, n_labels, density)
    past = st.integers(1, n_db + 5)
    cutoffs = draw(st.lists(st.one_of(past, st.just(n_db)), max_size=3))
    k_grid = sorted(set(draw(st.lists(st.one_of(past, st.just(n_db)),
                                      min_size=1, max_size=4))))
    rows = draw(st.one_of(st.none(), st.integers(1, 3)))
    chunk_rows = draw(st.one_of(st.none(), st.integers(1, 3)))
    return q, db, ql, dl, cutoffs, k_grid, rows, chunk_rows


def check_against_oracle(q, db, ql, dl, cutoffs, k_grid, rows, chunk_rows):
    block_pairs = evalkit._BLOCK_PAIRS if rows is None else rows * len(db)
    chunk_pairs = kernels._CHUNK_PAIRS if chunk_rows is None else chunk_rows * len(db)
    with mock.patch.object(evalkit, "_BLOCK_PAIRS", block_pairs), \
            mock.patch.object(kernels, "_CHUNK_PAIRS", chunk_pairs):
        got = evalkit.evaluate_direction("i2t", q, db, ql, dl, cutoffs, k_grid)
    want = sorted_gather_direction("i2t", q, db, ql, dl, cutoffs, k_grid,
                                   max(1, block_pairs // len(db)))
    assert got == want


@given(directions())
def test_reports_equal_the_sorted_gather_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("k", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("n_labels", [1, 64, 65, 80, 130])
def test_word_edges_equal_the_sorted_gather_oracle(k, n_labels):
    # pinned, where the drawn examples may miss an edge
    rng = np.random.default_rng(1000 * k + n_labels)
    q, db, ql, dl = codes_and_labels(rng, 7, 40, k, 3, n_labels, min(0.5, 3 / n_labels))
    check_against_oracle(q, db, ql, dl, [5, 40], [1, 10, 45], 2, 1)

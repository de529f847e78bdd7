"""Property tests: selection and the semantic build equal their oracles.

``simgraph.top_k_indices`` and ``corrmine.knn_adjacency`` must equal
``oracles.argsort_top_k`` on tie-heavy rows: a small value alphabet,
duplicated rows, k from 1 to past the row length and selection blocks of
one to a few rows.  ``simgraph.fuse`` followed by
``simgraph.build_semantic`` must equal the scalar oracle
(``oracles.naive_fusion``, ``naive_structural`` and ``naive_combine``)
bit for bit on symmetric unit-diagonal float32 cosines drawn from
``test_simgraph.REMAP_EDGES`` (+-1, +-0, the float32 values just above -1
and values within 2**-25 of 0) and from [-1, 1], with ks at and past the
order, gamma at 0, 1 and between, and elementwise blocks of one to a few
rows.
"""

import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from assph import corrmine, kernels, simgraph  # noqa: E402
from oracles import (argsort_top_k, naive_combine, naive_fusion,  # noqa: E402
                     naive_structural)
from test_simgraph import REMAP_EDGES  # noqa: E402


def values(alphabet):
    """A float32 drawn from alphabet or from [-1, 1]."""
    return st.one_of(st.sampled_from(alphabet),
                     st.floats(-1.0, 1.0, width=32, allow_subnormal=True))


@st.composite
def tied_rows(draw, square):
    """(rows, k, rows per selection block): float32 rows from an alphabet
    of one to four values, each row a copy of one of a few distinct rows."""
    m = draw(st.integers(1, 40))
    n = m if square else draw(st.integers(1, 40))
    alphabet = draw(st.lists(values([0.0, -0.0, 0.5, 1.0]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(np.float32(alphabet), size=(draw(st.integers(1, m)), n))
    rows = pool[rng.integers(0, len(pool), m)]
    return rows, draw(st.integers(1, n + 3)), draw(st.integers(1, 5))


@given(tied_rows(square=False))
def test_top_k_indices_equal_stable_argsort(case):
    rows, k, _ = case
    got = simgraph.top_k_indices(rows, k)
    npt.assert_array_equal(got, argsort_top_k(rows, k))


@given(tied_rows(square=True))
def test_knn_adjacency_equals_stable_argsort(case):
    sim, kr, block = case
    with mock.patch.object(kernels, "BLOCK_ROWS", block):
        got = corrmine.knn_adjacency(sim, kr)
    npt.assert_array_equal(got, argsort_top_k(sim, kr))


@st.composite
def cosine_pairs(draw):
    """(image cosines, text cosines, ks, gamma, rows per elementwise
    block): symmetric float32 matrices with a unit diagonal."""
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        alphabet = draw(st.lists(values(REMAP_EDGES), min_size=1, max_size=5))
        cos = rng.choice(np.float32(alphabet), size=(m, m))
        i, j = np.triu_indices(m, 1)
        cos[j, i] = cos[i, j]  # a copy keeps -0.0, where a sum would not
        np.fill_diagonal(cos, 1.0)
        pair.append(cos)
    ks = draw(st.integers(1, m + 3))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return pair[0], pair[1], ks, gamma, draw(st.integers(1, 4))


@given(cosine_pairs())
def test_fuse_then_build_semantic_equal_scalar_oracle(case):
    cos_i, cos_t, ks, gamma, rows = case
    fused_want = naive_fusion(cos_i, cos_t)
    want = naive_combine(fused_want, naive_structural(fused_want, ks), gamma)
    m = len(cos_i)
    with mock.patch.object(kernels, "BLOCK_ENTRIES", rows * m), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # ks past the order clamps
        fused = simgraph.fuse(cos_i, cos_t, np.empty_like(cos_i))
        npt.assert_array_equal(fused.view(np.uint32),
                               np.float32(fused_want).view(np.uint32))
        got = simgraph.build_semantic(fused, ks, gamma)
    npt.assert_array_equal(got.view(np.uint32), np.float32(want).view(np.uint32))

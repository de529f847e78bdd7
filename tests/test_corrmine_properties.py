"""Property tests: the miners equal their set and dense oracles.

``corrmine.second_order`` must equal ``oracles.dense_second_order`` of
the neighbor lists' 0/1 adjacencies, for a self join and a cross join,
and leave the other bits of its output as they were.
``corrmine.init_correlations`` must equal ``oracles.naive_relation`` of
the two cosines, and ``corrmine.adaptive_update`` the union of its
relation with ``naive_relation`` of the soft codes' cosines, read through
``oracles.to_dense``; with pairwise mining the oracle is each side's
listed pairs and their mirrors.  The inputs are tie-heavy, as late
training makes them: duplicated rows and soft codes saturated at +-1,
whose cosines tie at the kr-th neighbor.  kr runs from 1 to past the
order, tau from 1 to past the list length (where no two lists overlap
enough), and the row blocks from one to a few rows.
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from assph import corrmine, kernels, simgraph  # noqa: E402
from oracles import (dense_adjacency, dense_second_order, naive_knn_sets,  # noqa: E402
                     naive_relation, relation_from_dense, to_dense)


def _codes(draw, rng, m):
    """m soft code rows copied from a pool of one to m distinct rows; the
    steepest scale saturates nearly every entry at +-1."""
    k = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([0.3, 3.0, 1e3]))
    pool = np.tanh(scale * rng.standard_normal((draw(st.integers(1, m)), k)))
    return pool[rng.integers(0, len(pool), m)]


@st.composite
def mining_cases(draw):
    """(image codes, text codes, kr, tau, rows per block, rng)."""
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_i, h_t = _codes(draw, rng, m), _codes(draw, rng, m)
    kr = draw(st.integers(1, m + 3))
    tau = draw(st.integers(1, min(kr, m) + 2))
    return h_i, h_t, kr, tau, draw(st.integers(1, 5)), rng


def _relation(sim_i, sim_t, kr, tau, pairwise):
    if not pairwise:
        return naive_relation(sim_i, sim_t, kr, tau)
    rel = np.eye(len(sim_i), dtype=np.uint8)
    for sets in (naive_knn_sets(sim_i, kr), naive_knn_sets(sim_t, kr)):
        for i, neighbors in enumerate(sets):
            rel[i, list(neighbors)] = rel[list(neighbors), i] = 1
    return rel


def _random_relation(rng, m):
    """A symmetric reflexive 0/1 matrix."""
    upper = np.triu(rng.random((m, m)) < rng.uniform(0.0, 0.3))
    return (upper | upper.T | np.eye(m, dtype=bool)).astype(np.uint8)


@given(mining_cases(), st.booleans())
def test_second_order_equals_the_dense_product(case, cross):
    h_i, h_t, kr, tau, block, rng = case
    nn_a = corrmine.knn_adjacency(simgraph.cosine_matrix(h_i), kr)
    nn_b = corrmine.knn_adjacency(simgraph.cosine_matrix(h_t), kr) if cross else nn_a
    m = len(nn_a)
    before = (rng.random((m, m)) < 0.2).astype(np.uint8)
    out = np.packbits(before, axis=1)
    with mock.patch.object(kernels, "BLOCK_ROWS", block):
        assert corrmine.second_order(nn_a, nn_b, tau, out) is out
    want = before | dense_second_order(dense_adjacency(nn_a, m),
                                       dense_adjacency(nn_b, m), tau)
    npt.assert_array_equal(np.unpackbits(out, axis=1, count=m), want)


@given(mining_cases(), st.booleans())
def test_init_correlations_equal_the_set_oracle(case, pairwise):
    h_i, h_t, kr, tau, block, _ = case
    sim_i, sim_t = simgraph.cosine_matrix(h_i), simgraph.cosine_matrix(h_t)
    with mock.patch.object(kernels, "BLOCK_ROWS", block):
        got = corrmine.init_correlations(sim_i, sim_t, kr, tau, pairwise)
    npt.assert_array_equal(to_dense(got), _relation(sim_i, sim_t, kr, tau, pairwise))


@given(mining_cases(), st.booleans())
def test_adaptive_update_adds_the_relation_of_the_soft_codes(case, pairwise):
    h_i, h_t, kr, tau, block, rng = case
    base = _random_relation(rng, len(h_i))
    with mock.patch.object(kernels, "BLOCK_ROWS", block):
        got = corrmine.adaptive_update(relation_from_dense(base), h_i, h_t, kr, tau,
                                       pairwise)
    mined = _relation(simgraph.cosine_matrix(h_i), simgraph.cosine_matrix(h_t),
                      kr, tau, pairwise)
    npt.assert_array_equal(to_dense(got), base | mined)

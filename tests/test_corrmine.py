"""Correlation mining: KNN adjacency, neighborhood overlaps, adaptive growth."""

import dataclasses
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from assph import cli, config, corrmine, dataio, kernels, simgraph
from assph.errors import ConfigError, DataError, DivergenceError
from oracles import (argsort_top_k, dense_adjacency, dense_correlation_stats,
                     dense_init_correlations, dense_second_order, naive_relation,
                     relation_from_dense, to_dense)


def cosine_of(rng, m, d):
    return simgraph.cosine_matrix(rng.standard_normal((m, d)).astype(np.float32))


def clustered_features(rng, m, d, n_clusters):
    centers = rng.standard_normal((n_clusters, d)) * 4.0
    assign = np.arange(m) % n_clusters
    feats = centers[assign] + 0.05 * rng.standard_normal((m, d))
    return feats.astype(np.float32), assign


class TestKnnAdjacency:
    def test_identity_like_kr_one(self):
        s = np.eye(4, dtype=np.float32)
        nn = corrmine.knn_adjacency(s, 1)
        npt.assert_array_equal(dense_adjacency(nn, 4), np.eye(4))

    def test_kr_at_least_order_gives_all_ones(self):
        rng = np.random.default_rng(0)
        s = cosine_of(rng, 6, 3)
        nn = corrmine.knn_adjacency(s, 99)
        assert nn.shape == (6, 6)
        npt.assert_array_equal(dense_adjacency(nn, 6), np.ones((6, 6)))

    def test_exact_row_count_and_self_membership(self):
        rng = np.random.default_rng(1)
        for kr in (1, 3, 7):
            s = cosine_of(rng, 20, 5)
            nn = corrmine.knn_adjacency(s, kr)
            assert nn.shape == (20, kr)
            adj = dense_adjacency(nn, 20)
            npt.assert_array_equal(adj.sum(axis=1), kr)
            npt.assert_array_equal(np.diag(adj), 1)
            npt.assert_array_equal(nn, np.sort(nn, axis=1))

    def test_hand_built_top2(self):
        vals = np.array([
            [1.0, 0.9, 0.1, 0.0],
            [0.9, 1.0, 0.2, 0.1],
            [0.1, 0.2, 1.0, 0.8],
            [0.0, 0.1, 0.8, 1.0],
        ], dtype=np.float32)
        expect = [[0, 1], [0, 1], [2, 3], [2, 3]]
        npt.assert_array_equal(corrmine.knn_adjacency(vals, 2), expect)

    def test_tie_breaks_ascending_index(self):
        vals = np.full((3, 3), 0.5, dtype=np.float32)  # every entry ties
        nn = corrmine.knn_adjacency(vals, 2)
        npt.assert_array_equal(nn, [[0, 1], [0, 1], [0, 1]])

    def test_bad_kr(self):
        # the miners trust kr: TrainConfig is its one check
        with pytest.raises(ConfigError, match="kr"):
            config.TrainConfig(kr=0)


def packed_zeros(m):
    return np.zeros((m, (m + 7) // 8), dtype=np.uint8)


def second_order(nn_a, nn_b, tau):
    """second_order into fresh zero bits, unpacked."""
    m = len(nn_a)
    out = corrmine.second_order(nn_a, nn_b, tau, packed_zeros(m))
    return np.unpackbits(out, axis=1, count=m)


def random_lists(rng, m, k, skip=()):
    """m sorted lists of k distinct neighbors, none of them in skip."""
    pool = np.setdiff1d(np.arange(m), skip)
    return np.sort([rng.choice(pool, size=k, replace=False) for _ in range(m)], axis=1)


def list_kinds(rng, m, k):
    """Lists of k neighbors that leave columns unpicked, repeat five rows,
    or are all one row."""
    unpicked = random_lists(rng, m, k, skip=rng.permutation(m)[:(m - k) // 2])
    return {"unpicked": unpicked,
            "duplicated": unpicked[np.arange(m) % min(m, 5)],
            "identical": np.repeat(unpicked[:1], m, axis=0)}


def feature_kinds(rng, m):
    """Features with distinct rows, with five rows repeated, and with all
    rows identical: (image, text) pairs."""
    fi, ft = rng.standard_normal((m, 6)), rng.standard_normal((m, 4))
    five = np.arange(m) % min(m, 5)
    return {"distinct": (fi, ft), "duplicated": (fi[five], ft[five]),
            "identical": (np.ones((m, 6)), np.ones((m, 4)))}


class TestSecondOrder:
    def test_identity_adjacency(self):
        nn = np.arange(5)[:, None]
        npt.assert_array_equal(second_order(nn, nn, 1), np.eye(5))

    def test_shared_neighbor_worked_example(self):
        nn = np.array([[0, 2], [1, 2], [1, 2]])
        # a @ a.T = [[2,1,1],[1,2,2],[1,2,2]] -> all ones at tau=1
        npt.assert_array_equal(second_order(nn, nn, 1), np.ones((3, 3)))

    def test_tau_two_thresholds_counts(self):
        nn = np.array([[0, 2], [1, 2], [1, 2]])
        # only rows 1 and 2 share both their neighbors
        npt.assert_array_equal(second_order(nn, nn, 2),
                               [[1, 0, 0], [0, 1, 1], [0, 1, 1]])

    def test_cross_direction_max(self):
        nn_a = np.array([[0], [1]])
        nn_b = np.array([[1], [1]])
        # a@b.T = [[0,0],[1,1]]; the transpose direction fills (0,1)
        npt.assert_array_equal(second_order(nn_a, nn_b, 1), [[0, 1], [1, 1]])

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            out = second_order(random_lists(rng, 15, 4), random_lists(rng, 15, 4), 1)
            npt.assert_array_equal(out, out.T)

    def test_matches_set_intersections(self):
        rng = np.random.default_rng(3)
        m, kr = 20, 4
        for tau in (1, 2, 3):
            s = cosine_of(rng, m, 6)
            nn = corrmine.knn_adjacency(s, kr)
            out = second_order(nn, nn, tau)
            sets = [set(row.tolist()) for row in nn]
            expect = np.zeros((m, m), dtype=np.uint8)
            for i in range(m):
                for j in range(m):
                    expect[i, j] = 1 if len(sets[i] & sets[j]) >= tau else 0
            npt.assert_array_equal(out, expect)

    def test_matches_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(14)
        m, k = 23, 5
        a = random_lists(rng, m, k, skip=[3, 8])  # neighbors no row of a picks
        b = random_lists(rng, m, k, skip=[8, 15])  # ... or no row of b
        cases = [(a, b), (b, a), (a, a), (b, b)]
        for block_rows in (kernels.BLOCK_ROWS, 7):  # one block of rows, many
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
            for x, y in cases:
                for tau in (1, 2, 3):
                    out = second_order(x, y, tau)
                    assert out.dtype == np.uint8
                    want = dense_second_order(dense_adjacency(x, m),
                                              dense_adjacency(y, m), tau)
                    npt.assert_array_equal(out, want)

    def test_marks_land_in_the_callers_buffer(self):
        rng = np.random.default_rng(16)
        m = 12
        a, b = random_lists(rng, m, 3), random_lists(rng, m, 3)
        for x, y in ((a, a), (a, b)):
            before = (rng.random((m, m)) < 0.2).astype(np.uint8)
            out = np.packbits(before, axis=1)
            assert corrmine.second_order(x, y, 1, out) is out
            npt.assert_array_equal(out, np.packbits(before | second_order(x, y, 1), axis=1))

    def test_bad_tau(self):
        # second_order trusts tau: TrainConfig is its one check
        with pytest.raises(ConfigError, match="tau"):
            config.TrainConfig(tau=0)

    def test_tau_above_kr_keeps_only_diagonal_or_less(self):
        rng = np.random.default_rng(4)
        nn = corrmine.knn_adjacency(cosine_of(rng, 10, 4), 2)
        out = second_order(nn, nn, 5)
        assert out.sum() == 0  # no pair can share five of two neighbors


# orders on both sides of byte and 256-row strip boundaries
ORDERS = [1, 7, 8, 9, 60, 300, 301, 1000]


def kr_values(m):
    """kr of 1 and a few, and up to 301 rows kr at and past the order too;
    at 1000 rows whole-order lists only give the all-ones relation again,
    at seconds per join."""
    return sorted({1, min(5, m)} | ({m, m + 3} if m <= 301 else set()))


class TestPackedMinerOracle:
    """The packed miner against dense matmul references, bit for bit,
    padding included."""

    @pytest.mark.parametrize("m", ORDERS)
    def test_second_order_matches_dense(self, m):
        rng = np.random.default_rng(m)
        for k in sorted({min(kr, m) for kr in kr_values(m)}):  # lists hold at most m
            kinds = list_kinds(rng, m, k)
            other = list_kinds(rng, m, k)["unpicked"]
            for name, x in kinds.items():
                for y in (x, other):
                    for tau in (1, 2, 3):
                        out = corrmine.second_order(x, y, tau, packed_zeros(m))
                        want = dense_second_order(dense_adjacency(x, m),
                                                  dense_adjacency(y, m), tau)
                        assert np.array_equal(out, np.packbits(want, axis=1)), \
                            (name, k, tau, y is x)

    @pytest.mark.parametrize("m", ORDERS)
    def test_init_correlations_matches_dense(self, m):
        rng = np.random.default_rng(100 + m)
        for name, (fi, ft) in feature_kinds(rng, m).items():
            si, st = simgraph.cosine_matrix(fi), simgraph.cosine_matrix(ft)
            for kr in kr_values(m):
                nn_i, nn_t = argsort_top_k(si, kr), argsort_top_k(st, kr)
                for tau in (1, 2, 3):
                    rel = corrmine.init_correlations(si, st, kr, tau)
                    want = dense_init_correlations(nn_i, nn_t, tau)
                    assert np.array_equal(rel.bits, np.packbits(want, axis=1)), \
                        (name, kr, tau)

    @pytest.mark.parametrize("m", [9, 60, 301])
    def test_tau_one_merged_join_equals_the_three_joins(self, m):
        # one self-join of the concatenated lists stands for the three joins
        rng = np.random.default_rng(200 + m)
        for name, (fi, ft) in feature_kinds(rng, m).items():
            si, st = simgraph.cosine_matrix(fi), simgraph.cosine_matrix(ft)
            nn_i, nn_t = corrmine.knn_adjacency(si, 4), corrmine.knn_adjacency(st, 4)
            bits = corrmine.CorrelationSet.identity(m).bits
            for a, b in ((nn_i, nn_i), (nn_t, nn_t), (nn_i, nn_t)):
                corrmine.second_order(a, b, 1, bits)
            rel = corrmine.init_correlations(si, st, 4, 1)
            npt.assert_array_equal(rel.bits, bits, err_msg=name)


class TestPackedRelation:
    """The packed relation rows hold exactly the bits that _mark sets and
    that _count_bits and _diagonal_bits read."""

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
    def test_mark_sets_exactly_the_marked_bits(self, n, padded):
        # rows may be padded past ceil(order / 8) bytes, pairs repeated or not
        rng = np.random.default_rng(n)
        width = ((n + 63) >> 6) << 3 if padded else (n + 7) >> 3
        for n_pairs in (0, 1, n, 3 * n):
            rows, cols = rng.integers(0, n, size=(2, n_pairs))
            packed = np.zeros((n, width), dtype=np.uint8)
            corrmine._mark(packed, rows, cols)
            want = np.zeros((n, 8 * width), dtype=np.uint8)
            want[rows, cols] = 1
            npt.assert_array_equal(np.unpackbits(packed, axis=1), want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
    def test_counts_and_diagonal_match_the_unpacked_rows(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 0.7, 1.0):
            dense = rng.random((n, n)) < density
            packed = np.packbits(dense, axis=1)
            assert corrmine._count_bits(packed) == np.count_nonzero(dense)
            npt.assert_array_equal(corrmine._diagonal_bits(packed), np.diag(dense))


class TestCorrelationSet:
    def test_dense_roundtrip_and_popcount(self):
        rng = np.random.default_rng(5)
        base = (rng.random((13, 13)) < 0.3).astype(np.uint8)
        dense = base | base.T
        np.fill_diagonal(dense, 1)
        rel = relation_from_dense(dense)
        npt.assert_array_equal(rel.bits, np.packbits(dense, axis=1))
        npt.assert_array_equal(to_dense(rel), dense)
        assert corrmine.correlation_stats(rel, None) == {"count": int(dense.sum())}

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 300])
    def test_identity_bits(self, m):
        rel = corrmine.CorrelationSet.identity(m)
        npt.assert_array_equal(rel.bits, np.packbits(np.eye(m, dtype=np.uint8), axis=1))

    def test_asymmetric_rejected(self):
        dense = np.eye(3, dtype=np.uint8)
        dense[0, 1] = 1
        with pytest.raises(DataError, match="symmetric"):
            relation_from_dense(dense)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_non_binary_entry_rejected(self, bad):
        dtypes = [np.float64] if isinstance(bad, float) else [np.int64, np.float64]
        if bad == 2:
            dtypes.append(np.uint8)
        for dtype in dtypes:
            dense = np.eye(4).astype(dtype)
            dense[1, 2] = dense[2, 1] = bad
            with pytest.raises(DataError, match="0/1"):
                relation_from_dense(dense)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64, np.float64])
    def test_binary_dtypes_accepted(self, dtype):
        dense = np.eye(5, dtype=dtype)
        dense[0, 3] = dense[3, 0] = 1
        rel = relation_from_dense(dense)
        npt.assert_array_equal(to_dense(rel), dense.astype(np.uint8))

    def test_missing_diagonal_rejected(self):
        with pytest.raises(DataError, match="self pair"):
            relation_from_dense(np.zeros((3, 3), dtype=np.uint8))
        dense = np.eye(300, dtype=np.uint8)
        dense[299, 299] = 0
        with pytest.raises(DataError, match="self pair"):
            relation_from_dense(dense)

    def test_batch_slice(self):
        dense = np.eye(6, dtype=np.uint8)
        dense[1, 4] = dense[4, 1] = 1
        rel = relation_from_dense(dense)
        sub = rel.batch(np.array([1, 4, 5]))
        npt.assert_array_equal(sub, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def init_correlations_peak(si, st, kr, tau):
    """Traced peak bytes of one init_correlations call."""
    tracemalloc.start()
    try:
        corrmine.init_correlations(si, st, kr=kr, tau=tau)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInitCorrelations:
    def test_kr_one_gives_identity(self):
        rng = np.random.default_rng(6)
        si, st = cosine_of(rng, 12, 5), cosine_of(rng, 12, 4)
        rel = corrmine.init_correlations(si, st, kr=1, tau=1)
        # each neighbor set is {self}, so overlaps can only hit on the diagonal
        npt.assert_array_equal(to_dense(rel), np.eye(12))

    def test_two_clusters_stay_separate(self):
        rng = np.random.default_rng(7)
        fi, assign = clustered_features(rng, 30, 8, 2)
        ft, _ = clustered_features(rng, 30, 6, 2)
        rel = corrmine.init_correlations(simgraph.cosine_matrix(fi),
                                         simgraph.cosine_matrix(ft), kr=4)
        dense = to_dense(rel)
        cross = dense[np.ix_(assign == 0, assign == 1)]
        assert cross.sum() == 0

    def test_matches_naive_relation(self):
        rng = np.random.default_rng(8)
        for tau in (1, 2):
            si, st = cosine_of(rng, 25, 6), cosine_of(rng, 25, 5)
            rel = corrmine.init_correlations(si, st, kr=5, tau=tau)
            expect = naive_relation(si, st, kr=5, tau=tau)
            npt.assert_array_equal(to_dense(rel), expect)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((18, 5)).astype(np.float32)
        g = rng.standard_normal((18, 4)).astype(np.float32)
        rel_a = corrmine.init_correlations(simgraph.cosine_matrix(f),
                                           simgraph.cosine_matrix(g), 4)
        rel_b = corrmine.init_correlations(simgraph.cosine_matrix(f * 3.5),
                                           simgraph.cosine_matrix(g * 0.2), 4)
        npt.assert_array_equal(to_dense(rel_a), to_dense(rel_b))

    @pytest.mark.parametrize("tau", [1, 2])
    def test_peak_memory_below_1_5_bytes_per_pair(self, tau):
        # the relation and the listing sets are packed bits; the top-k
        # selection's copy of a 256-row block is the largest temporary.
        # Measured 1.2 B/pair at tau 1 and 0.9 at tau 2.
        m = 2000
        rng = np.random.default_rng(17)
        si, st = cosine_of(rng, m, 8), cosine_of(rng, m, 6)
        peak = init_correlations_peak(si, st, 20, tau)
        assert peak < 1.5 * m * m, peak / m / m

    def test_tied_rows_peak_memory_below_4_5_bytes_per_pair(self):
        # five distinct rows repeated: every row ties with hundreds of others,
        # so top_k_indices' tie fix-up runs on every row.  Per block of rows
        # it measured 2.1 B/pair (3.6 with an int64 tie count); on the whole
        # matrix at once it took 27.
        m = 2000
        rng = np.random.default_rng(19)
        five = np.arange(m) % 5
        si = simgraph.cosine_matrix(rng.standard_normal((5, 8))[five])
        st = simgraph.cosine_matrix(rng.standard_normal((5, 6))[five])
        peak = init_correlations_peak(si, st, 20, 1)
        assert peak < 4.5 * m * m, peak / m / m


class TestFirstOrderCorrelations:
    def test_symmetrized_union(self):
        rng = np.random.default_rng(10)
        si, st = cosine_of(rng, 15, 5), cosine_of(rng, 15, 4)
        rel = corrmine.init_correlations(si, st, kr=3, pairwise=True)
        r1i = dense_adjacency(corrmine.knn_adjacency(si, 3), 15)
        r1t = dense_adjacency(corrmine.knn_adjacency(st, 3), 15)
        expect = r1i | r1i.T | r1t | r1t.T
        np.fill_diagonal(expect, 1)
        npt.assert_array_equal(to_dense(rel), expect)


class TestAdaptiveUpdate:
    def test_absorbing_update_adds_nothing(self):
        rng = np.random.default_rng(11)
        h_i = rng.standard_normal((20, 8))
        h_t = rng.standard_normal((20, 8))
        rel0 = corrmine.adaptive_update(
            corrmine.CorrelationSet.identity(20), h_i, h_t, kr=3)
        rel1 = corrmine.adaptive_update(rel0, h_i, h_t, kr=3)
        npt.assert_array_equal(to_dense(rel0), to_dense(rel1))

    def test_union_is_monotone(self):
        rng = np.random.default_rng(12)
        rel = corrmine.CorrelationSet.identity(25)
        counts = [corrmine.correlation_stats(rel, None)["count"]]
        for _ in range(4):
            h_i = rng.standard_normal((25, 6))
            h_t = rng.standard_normal((25, 6))
            new = corrmine.adaptive_update(rel, h_i, h_t, kr=3)
            assert np.array_equal(new.bits & rel.bits, rel.bits)
            rel = new
            counts.append(corrmine.correlation_stats(rel, None)["count"])
        assert counts == sorted(counts)

    def test_clustered_embeddings_fill_blocks(self):
        rng = np.random.default_rng(13)
        h, assign = clustered_features(rng, 24, 8, 2)
        rel = corrmine.adaptive_update(corrmine.CorrelationSet.identity(24),
                                       h.astype(np.float64),
                                       h.astype(np.float64), kr=12)
        dense = to_dense(rel)
        same = assign[:, None] == assign[None, :]
        assert dense[same].mean() > 0.9
        assert dense[~same].sum() == 0

    def test_peak_memory_below_10_bytes_per_pair(self):
        # one side's float64 product (8 B/pair) and one float32 block of
        # cosine rows are the most that is held; measured 9.6 B/pair, where
        # a whole float32 cosine beside the product took 16.1
        m = 2000
        rng = np.random.default_rng(23)
        h_i = np.tanh(rng.standard_normal((m, 32)))
        h_t = np.tanh(rng.standard_normal((m, 32)))
        rel = corrmine.CorrelationSet.identity(m)
        tracemalloc.start()
        try:
            corrmine.adaptive_update(rel, h_i, h_t, kr=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * m * m, peak / m / m

    def test_tied_rows_peak_memory_below_11_bytes_per_pair(self):
        # five distinct rows repeated: top_k_indices' tie fix-up runs on
        # every row.  Its per-row tie count is held in the narrowest
        # integer type that counts a row, not int64: measured 10.85 B/pair,
        # 12.4 with an int64 count, 9.6 on spread codes
        m = 2000
        rng = np.random.default_rng(26)
        five = np.arange(m) % 5
        h_i = np.tanh(rng.standard_normal((5, 32)))[five]
        h_t = np.tanh(rng.standard_normal((5, 32)))[five]
        rel = corrmine.CorrelationSet.identity(m)
        tracemalloc.start()
        try:
            corrmine.adaptive_update(rel, h_i, h_t, kr=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * m * m, peak / m / m

    def test_zero_norm_row_diverges(self):
        h = np.ones((5, 4))
        h[2] = 0.0
        with pytest.raises(DivergenceError, match="text embedding: zero-norm row 2"):
            corrmine.adaptive_update(corrmine.CorrelationSet.identity(5),
                                     np.ones((5, 4)), h, kr=2)


class TestCorrelationStats:
    def test_identity_reports_no_offdiag(self):
        rel = corrmine.CorrelationSet.identity(6)
        labels = np.eye(6, dtype=np.int8)
        stats = corrmine.correlation_stats(rel, corrmine.label_share(labels))
        assert stats == {"count": 6, "precision": 1.0, "no_offdiag": True}

    def test_same_class_all_pairs(self):
        rel = relation_from_dense(np.ones((5, 5), dtype=np.uint8))
        labels = np.tile([[1, 0]], (5, 1)).astype(np.int8)
        stats = corrmine.correlation_stats(rel, corrmine.label_share(labels))
        assert stats["precision"] == 1.0
        assert stats["count"] == 25

    def test_two_disjoint_classes_all_pairs(self):
        m = 8
        rel = relation_from_dense(np.ones((m, m), dtype=np.uint8))
        labels = np.zeros((m, 2), dtype=np.int8)
        labels[: m // 2, 0] = 1
        labels[m // 2:, 1] = 1
        stats = corrmine.correlation_stats(rel, corrmine.label_share(labels))
        expect = (m // 2 - 1) / (m - 1)  # fraction of same-class others
        npt.assert_allclose(stats["precision"], expect)


    @pytest.mark.parametrize("labeled", [True, False])
    def test_build_sim_counts_the_relation_once(self, tmp_path, monkeypatch, capsys,
                                                labeled):
        bundle = dataio.generate_synthetic(config.SynthConfig(
            classes=3, instances=60, dim_image=6, dim_text=5, seed=2))
        if not labeled:
            bundle = dataclasses.replace(bundle, labels=None)
        dataio.save_bundle(bundle, str(tmp_path / "bundle"))
        counts = []
        real = corrmine._count_bits

        def spy(packed):
            counts.append(real(packed))
            return counts[-1]

        monkeypatch.setattr(corrmine, "_count_bits", spy)
        out = tmp_path / "sim"
        assert cli.dispatch(["build-sim", "--bundle", str(tmp_path / "bundle"),
                             "--out", str(out), "--ks", "10", "--kr", "3",
                             "--batch-size", "8"]) == 0
        # the relation's count, then with labels the count of its shared pairs
        assert len(counts) == 1 + labeled
        stats = json.loads((out / "stats.json").read_text())
        assert stats["count"] == counts[0]
        assert capsys.readouterr().out.endswith(f", {counts[0]} correlated pairs\n")


class TestLabelShare:
    def test_stats_match_dense_reference(self):
        rng = np.random.default_rng(15)
        for m in (9, 16, 29):
            base = (rng.random((m, m)) < 0.25).astype(np.uint8)
            dense = base | base.T
            np.fill_diagonal(dense, 1)
            rel = relation_from_dense(dense)
            labels = (rng.random((m, 4)) < 0.3).astype(np.int8)
            labels[0] = 0  # an unlabeled row shares no label, not even with itself
            expect = dense_correlation_stats(dense, labels)
            share = corrmine.label_share(labels)
            assert corrmine.correlation_stats(rel, share) == expect


def hidden_codes(kind, m, d, seed):
    """Embeddings of one regime: spread, all rows equal, or five distinct
    rows repeated (the collapsed-code regime, every cosine tied)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return np.tanh(rng.standard_normal((m, d)))
    if kind == "identical":
        return np.tile(np.tanh(rng.standard_normal(d)), (m, 1))
    return np.sign(rng.standard_normal((5, d)))[np.arange(m) % 5]


REGIMES = ["random", "identical", "five"]
BLOCK = kernels.BLOCK_ROWS


class TestStreamedMining:
    """adaptive_update selects neighbors from cosine_blocks as they stream;
    lists and relations equal those of the whole float32 cosine."""

    @pytest.mark.parametrize("m", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 549])
    @pytest.mark.parametrize("kind", REGIMES)
    def test_lists_equal_knn_of_cosine_matrix(self, m, kind):
        h = hidden_codes(kind, m, 12, m)
        unit = kernels.unit_rows(h, "embedding")[0]
        for kr in (1, 5, m, m + 3):
            streamed = corrmine._select(simgraph.cosine_blocks(unit), m, kr)
            npt.assert_array_equal(
                streamed, corrmine.knn_adjacency(simgraph.cosine_matrix(h), kr))

    @pytest.mark.parametrize("m", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 549])
    @pytest.mark.parametrize("kind", REGIMES)
    def test_relations_equal_the_miners_on_cosine_matrices(self, m, kind):
        h_i = hidden_codes(kind, m, 12, m)
        h_t = hidden_codes(kind, m, 10, m + 1)
        si, st = simgraph.cosine_matrix(h_i), simgraph.cosine_matrix(h_t)
        base = corrmine.CorrelationSet.identity(m)
        for kr in (1, 5, m + 2):
            for tau, pairwise in ((1, False), (2, False), (1, True)):
                want = corrmine.init_correlations(si, st, kr, tau, pairwise)
                got = corrmine.adaptive_update(base, h_i, h_t, kr, tau, pairwise)
                npt.assert_array_equal(got.bits, want.bits)

    def test_bad_kr_rejected_before_any_product(self, tmp_path, monkeypatch):
        def no_product(*args):
            raise AssertionError("cosine formed")

        monkeypatch.setattr(corrmine, "cosine_blocks", no_product)
        monkeypatch.setattr(simgraph, "cosine_matrix", no_product)
        # exit 2, not the missing bundle's 3: the config is rejected first
        assert cli.dispatch(["train", "--bundle", str(tmp_path / "none"),
                             "--out", str(tmp_path / "out"), "--kr", "0"]) == 2

"""Correlation mining: KNN adjacency, neighborhood overlaps, adaptive growth."""

import numpy as np
import numpy.testing as npt
import pytest

from assph import corrmine, simgraph
from assph.errors import ConfigError, DataError, DivergenceError
from oracles import dense_correlation_stats, dense_second_order, naive_relation


def cosine_of(rng, m, d):
    return simgraph.cosine_matrix(rng.standard_normal((m, d)).astype(np.float32))


def clustered_features(rng, m, d, n_clusters):
    centers = rng.standard_normal((n_clusters, d)) * 4.0
    assign = np.arange(m) % n_clusters
    feats = centers[assign] + 0.05 * rng.standard_normal((m, d))
    return feats.astype(np.float32), assign


class TestKnnAdjacency:
    def test_identity_like_kr_one(self):
        s = simgraph.SimMatrix(np.eye(4, dtype=np.float32), "cosine")
        npt.assert_array_equal(corrmine.knn_adjacency(s, 1), np.eye(4))

    def test_kr_at_least_order_gives_all_ones(self):
        rng = np.random.default_rng(0)
        s = cosine_of(rng, 6, 3)
        npt.assert_array_equal(corrmine.knn_adjacency(s, 99), np.ones((6, 6)))

    def test_exact_row_count_and_self_membership(self):
        rng = np.random.default_rng(1)
        for kr in (1, 3, 7):
            s = cosine_of(rng, 20, 5)
            adj = corrmine.knn_adjacency(s, kr)
            npt.assert_array_equal(adj.sum(axis=1), kr)
            npt.assert_array_equal(np.diag(adj), 1)

    def test_hand_built_top2(self):
        vals = np.array([
            [1.0, 0.9, 0.1, 0.0],
            [0.9, 1.0, 0.2, 0.1],
            [0.1, 0.2, 1.0, 0.8],
            [0.0, 0.1, 0.8, 1.0],
        ], dtype=np.float32)
        s = simgraph.SimMatrix(vals, "cosine")
        expect = np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ])
        npt.assert_array_equal(corrmine.knn_adjacency(s, 2), expect)

    def test_tie_breaks_ascending_index(self):
        vals = np.full((3, 3), 0.5, dtype=np.float32)  # every entry ties
        s = simgraph.SimMatrix(vals, "probability")
        adj = corrmine.knn_adjacency(s, 2)
        npt.assert_array_equal(adj, [[1, 1, 0], [1, 1, 0], [1, 1, 0]])

    def test_bad_kr(self):
        s = simgraph.SimMatrix(np.eye(3, dtype=np.float32), "cosine")
        with pytest.raises(ConfigError, match="kr"):
            corrmine.knn_adjacency(s, 0)


class TestSecondOrder:
    def test_identity_adjacency(self):
        eye = np.eye(5, dtype=np.uint8)
        npt.assert_array_equal(corrmine.second_order(eye, eye, 1), eye)

    def test_shared_neighbor_worked_example(self):
        a = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=np.uint8)
        # a @ a.T = [[2,1,1],[1,2,1],[1,1,1]] -> all ones at tau=1
        out = corrmine.second_order(a, a, 1)
        npt.assert_array_equal(out, np.ones((3, 3)))

    def test_tau_two_thresholds_counts(self):
        a = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=np.uint8)
        out = corrmine.second_order(a, a, 2)
        # only rows 0 and 1 own two neighbors, so only their self-overlaps hit
        npt.assert_array_equal(out, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_cross_direction_max(self):
        a = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        b = np.array([[0, 1], [0, 1]], dtype=np.uint8)
        # a@b.T = [[0,0],[1,1]]; the transpose direction fills (0,1)
        out = corrmine.second_order(a, b, 1)
        npt.assert_array_equal(out, [[0, 1], [1, 1]])

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = (rng.random((15, 15)) < 0.3).astype(np.uint8)
            b = (rng.random((15, 15)) < 0.3).astype(np.uint8)
            out = corrmine.second_order(a, b, 1)
            npt.assert_array_equal(out, out.T)

    def test_matches_set_intersections(self):
        rng = np.random.default_rng(3)
        m, kr = 20, 4
        for tau in (1, 2, 3):
            s = cosine_of(rng, m, 6)
            adj = corrmine.knn_adjacency(s, kr)
            out = corrmine.second_order(adj, adj, tau)
            sets = [set(np.nonzero(adj[i])[0].tolist()) for i in range(m)]
            expect = np.zeros((m, m), dtype=np.uint8)
            for i in range(m):
                for j in range(m):
                    expect[i, j] = 1 if len(sets[i] & sets[j]) >= tau else 0
            npt.assert_array_equal(out, expect)

    def test_matches_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(14)
        m = 23
        a = (rng.random((m, m)) < 0.2).astype(np.uint8)
        b = (rng.random((m, m)) < 0.3).astype(np.uint8)
        a[:, [3, 8]] = 0  # neighbors no row of a picks
        b[:, [8, 15]] = 0  # ... or no row of b
        a[5] = 0  # a row with no neighbors at all
        cases = [(a, b), (b, a), (a, a), (a, np.zeros_like(a))]
        for join_pairs in (corrmine._JOIN_PAIRS, 7):  # one block, many
            monkeypatch.setattr(corrmine, "_JOIN_PAIRS", join_pairs)
            for x, y in cases:
                for tau in (1, 2, 3):
                    out = corrmine.second_order(x, y, tau)
                    assert out.dtype == np.uint8
                    npt.assert_array_equal(out, dense_second_order(x, y, tau))

    def test_tau_above_kr_keeps_only_diagonal_or_less(self):
        rng = np.random.default_rng(4)
        adj = corrmine.knn_adjacency(cosine_of(rng, 10, 4), 2)
        out = corrmine.second_order(adj, adj, 5)
        assert out.sum() == 0  # no pair can share five of two neighbors


class TestCorrelationSet:
    def test_dense_roundtrip_and_popcount(self):
        rng = np.random.default_rng(5)
        base = (rng.random((13, 13)) < 0.3).astype(np.uint8)
        dense = base | base.T
        np.fill_diagonal(dense, 1)
        rel = corrmine.CorrelationSet.from_dense(dense)
        npt.assert_array_equal(rel.to_dense(), dense)
        assert rel.popcount() == int(dense.sum())

    def test_asymmetric_rejected(self):
        dense = np.eye(3, dtype=np.uint8)
        dense[0, 1] = 1
        with pytest.raises(DataError, match="symmetric"):
            corrmine.CorrelationSet.from_dense(dense)

    def test_missing_diagonal_rejected(self):
        with pytest.raises(DataError, match="self pair"):
            corrmine.CorrelationSet.from_dense(np.zeros((3, 3), dtype=np.uint8))

    def test_batch_slice(self):
        dense = np.eye(6, dtype=np.uint8)
        dense[1, 4] = dense[4, 1] = 1
        rel = corrmine.CorrelationSet.from_dense(dense)
        sub = rel.batch(np.array([1, 4, 5]))
        npt.assert_array_equal(sub, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


class TestInitCorrelations:
    def test_kr_one_gives_identity(self):
        rng = np.random.default_rng(6)
        si, st = cosine_of(rng, 12, 5), cosine_of(rng, 12, 4)
        rel = corrmine.init_correlations(si, st, kr=1, tau=1)
        # each neighbor set is {self}, so overlaps can only hit on the diagonal
        npt.assert_array_equal(rel.to_dense(), np.eye(12))

    def test_two_clusters_stay_separate(self):
        rng = np.random.default_rng(7)
        fi, assign = clustered_features(rng, 30, 8, 2)
        ft, _ = clustered_features(rng, 30, 6, 2)
        rel = corrmine.init_correlations(simgraph.cosine_matrix(fi),
                                         simgraph.cosine_matrix(ft), kr=4)
        dense = rel.to_dense()
        cross = dense[np.ix_(assign == 0, assign == 1)]
        assert cross.sum() == 0

    def test_matches_naive_relation(self):
        rng = np.random.default_rng(8)
        for tau in (1, 2):
            si, st = cosine_of(rng, 25, 6), cosine_of(rng, 25, 5)
            rel = corrmine.init_correlations(si, st, kr=5, tau=tau)
            expect = naive_relation(si.values, st.values, kr=5, tau=tau)
            npt.assert_array_equal(rel.to_dense(), expect)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((18, 5)).astype(np.float32)
        g = rng.standard_normal((18, 4)).astype(np.float32)
        rel_a = corrmine.init_correlations(simgraph.cosine_matrix(f),
                                           simgraph.cosine_matrix(g), 4)
        rel_b = corrmine.init_correlations(simgraph.cosine_matrix(f * 3.5),
                                           simgraph.cosine_matrix(g * 0.2), 4)
        npt.assert_array_equal(rel_a.to_dense(), rel_b.to_dense())


class TestFirstOrderCorrelations:
    def test_symmetrized_union(self):
        rng = np.random.default_rng(10)
        si, st = cosine_of(rng, 15, 5), cosine_of(rng, 15, 4)
        rel = corrmine.first_order_correlations(si, st, kr=3)
        r1i = corrmine.knn_adjacency(si, 3)
        r1t = corrmine.knn_adjacency(st, 3)
        expect = r1i | r1i.T | r1t | r1t.T
        np.fill_diagonal(expect, 1)
        npt.assert_array_equal(rel.to_dense(), expect)


class TestAdaptiveUpdate:
    def test_absorbing_update_keeps_epoch_moving(self):
        rng = np.random.default_rng(11)
        h_i = rng.standard_normal((20, 8))
        h_t = rng.standard_normal((20, 8))
        rel0 = corrmine.adaptive_update(
            corrmine.CorrelationSet.identity(20), h_i, h_t, kr=3)
        rel1 = corrmine.adaptive_update(rel0, h_i, h_t, kr=3)
        assert rel1.epoch == 2
        npt.assert_array_equal(rel0.to_dense(), rel1.to_dense())

    def test_union_is_monotone(self):
        rng = np.random.default_rng(12)
        rel = corrmine.CorrelationSet.identity(25)
        counts = [rel.popcount()]
        for _ in range(4):
            h_i = rng.standard_normal((25, 6))
            h_t = rng.standard_normal((25, 6))
            new = corrmine.adaptive_update(rel, h_i, h_t, kr=3)
            assert new.contains(rel)
            rel = new
            counts.append(rel.popcount())
        assert counts == sorted(counts)

    def test_clustered_embeddings_fill_blocks(self):
        rng = np.random.default_rng(13)
        h, assign = clustered_features(rng, 24, 8, 2)
        rel = corrmine.adaptive_update(corrmine.CorrelationSet.identity(24),
                                       h.astype(np.float64),
                                       h.astype(np.float64), kr=12)
        dense = rel.to_dense()
        same = assign[:, None] == assign[None, :]
        assert dense[same].mean() > 0.9
        assert dense[~same].sum() == 0

    def test_zero_norm_row_diverges(self):
        h = np.ones((5, 4))
        h[2] = 0.0
        with pytest.raises(DivergenceError, match="zero-norm text embedding row 2"):
            corrmine.adaptive_update(corrmine.CorrelationSet.identity(5),
                                     np.ones((5, 4)), h, kr=2)

    def test_order_mismatch(self):
        with pytest.raises(DataError, match="rows"):
            corrmine.adaptive_update(corrmine.CorrelationSet.identity(4),
                                     np.ones((5, 3)), np.ones((5, 3)), kr=2)


class TestCorrelationStats:
    def test_identity_reports_no_offdiag(self):
        rel = corrmine.CorrelationSet.identity(6)
        labels = np.eye(6, dtype=np.int8)
        stats = corrmine.correlation_stats(rel, labels)
        assert stats == {"count": 6, "precision": 1.0, "no_offdiag": True}

    def test_same_class_all_pairs(self):
        rel = corrmine.CorrelationSet.from_dense(np.ones((5, 5), dtype=np.uint8))
        labels = np.tile([[1, 0]], (5, 1)).astype(np.int8)
        stats = corrmine.correlation_stats(rel, labels)
        assert stats["precision"] == 1.0
        assert stats["count"] == 25

    def test_two_disjoint_classes_all_pairs(self):
        m = 8
        rel = corrmine.CorrelationSet.from_dense(np.ones((m, m), dtype=np.uint8))
        labels = np.zeros((m, 2), dtype=np.int8)
        labels[: m // 2, 0] = 1
        labels[m // 2:, 1] = 1
        stats = corrmine.correlation_stats(rel, labels)
        expect = (m // 2 - 1) / (m - 1)  # fraction of same-class others
        npt.assert_allclose(stats["precision"], expect)


class TestLabelShare:
    def test_stats_match_dense_reference(self):
        rng = np.random.default_rng(15)
        for m in (9, 16, 29):
            base = (rng.random((m, m)) < 0.25).astype(np.uint8)
            dense = base | base.T
            np.fill_diagonal(dense, 1)
            rel = corrmine.CorrelationSet.from_dense(dense)
            labels = (rng.random((m, 4)) < 0.3).astype(np.int8)
            labels[0] = 0  # an unlabeled row shares no label, not even with itself
            expect = dense_correlation_stats(dense, labels)
            assert corrmine.correlation_stats(rel, labels) == expect
            share = corrmine.label_share(labels)
            assert corrmine.correlation_stats(rel, labels, share=share) == expect

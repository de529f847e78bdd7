"""Retrieval metrics: hand values, metric axioms, brute-force parity."""

import inspect
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from assph import evalkit, kernels
from assph.errors import ConfigError, DataError
from oracles import (block_average_precision, naive_average_precision, naive_hamming,
                     naive_rank, naive_relevance, sorted_gather_direction)


def random_codes(rng, rows, k):
    return np.where(rng.standard_normal((rows, k)) >= 0, 1, -1).astype(np.int8)


class TestHamming:
    def test_examples(self):
        npt.assert_array_equal(
            evalkit.hamming_matrix([[1, 1, 1]], [[1, 1, 1], [-1, -1, -1]]), [[0, 3]])
        npt.assert_array_equal(
            evalkit.hamming_matrix([[1, -1, 1, -1]], [[1, 1, 1, 1]]), [[2]])

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        q = random_codes(rng, 7, 16)
        d = random_codes(rng, 9, 16)
        expected = [[naive_hamming(a, b) for b in d] for a in q]
        npt.assert_array_equal(evalkit.hamming_matrix(q, d), expected)

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        k = 16
        for _ in range(50):
            # all 22**3 = 10648 ordered triples of rows
            codes = random_codes(rng, 22, k)
            dist = evalkit.hamming_matrix(codes, codes).astype(int)
            assert ((0 <= dist) & (dist <= k)).all()
            npt.assert_array_equal(dist, dist.T)
            npt.assert_array_equal(np.diag(dist), 0)
            # dist[a, b] <= dist[a, c] + dist[c, b] for every c
            assert (dist[:, None, :] <= dist[:, :, None] + dist[None, :, :]).all()
            npt.assert_array_equal(dist, (codes[:, None] != codes[None]).sum(axis=2))

    def test_dtype_holds_code_length(self):
        rng = np.random.default_rng(9)
        for k, dtype in ((8, np.uint8), (255, np.uint8), (256, np.uint16),
                         (300, np.uint16)):
            codes = random_codes(rng, 3, k)
            dist = evalkit.hamming_matrix(codes, -codes)
            assert dist.dtype == dtype
            npt.assert_array_equal(np.diag(dist), k)

    def test_rejects_non_binary(self):
        with pytest.raises(DataError, match="-1 or \\+1"):
            evalkit.hamming_matrix(np.zeros((2, 4)), np.ones((2, 4)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            evalkit.hamming_matrix(np.ones((1, 4)), np.ones((1, 5)))

    @pytest.mark.parametrize("role", ["query", "db"])
    def test_rejects_complex_entries(self, role):
        # abs(1j) == 1, so only the dtype tells this entry from a code bit
        q, db = np.array([[1, 1]]), np.array([[1, 1], [1, -1]])
        if role == "query":
            q = np.array([[1, 1j]])
        else:
            db = np.array([[1, 1], [1j, -1]])
        with pytest.raises(DataError, match=f"{role} codes: code entries must be -1 or"):
            evalkit.hamming_matrix(q, db)
        with pytest.raises(DataError, match=f"{role} codes: code entries must be -1 or"):
            evalkit.evaluate_direction("i2t", q, db, np.ones((1, 2)), np.ones((2, 2)))


class TestRank:
    def test_exact_match_first_ties_by_index(self):
        q = np.array([[1, 1]])
        db = np.array([[1, -1], [-1, 1], [1, 1]])
        ordering, distances = evalkit.rank(q, db)
        npt.assert_array_equal(ordering, [[2, 0, 1]])
        npt.assert_array_equal(distances, [[0, 1, 1]])

    def test_matches_scalar_ranker(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = random_codes(rng, 4, 8)
            db = random_codes(rng, 15, 8)
            ordering, _ = evalkit.rank(q, db)
            npt.assert_array_equal(ordering, naive_rank(q, db))

    def test_distances_non_decreasing(self):
        rng = np.random.default_rng(3)
        q = random_codes(rng, 5, 12)
        db = random_codes(rng, 40, 12)
        ordering, distances = evalkit.rank(q, db)
        assert (np.diff(distances.astype(int), axis=1) >= 0).all()
        npt.assert_array_equal(
            distances, np.take_along_axis(evalkit.hamming_matrix(q, db), ordering, 1))


def ap_of_flags(flags, cutoff=None):
    """average_precision of each row of a ranked 0/1 block, truncated at
    cutoff when given: each row's precisions at its hits, laid end to end."""
    ranks = [np.flatnonzero(row[:cutoff]) + 1 for row in np.asarray(flags)]
    precisions = np.concatenate([np.arange(1, r.size + 1) / r for r in ranks])
    stops = np.cumsum([r.size for r in ranks])
    return evalkit.average_precision(precisions, stops - [r.size for r in ranks], stops)


class TestAveragePrecision:
    def test_hand_values(self):
        assert ap_of_flags([[1, 1, 0]])[0] == pytest.approx(1.0)
        assert ap_of_flags([[0, 1]])[0] == pytest.approx(0.5)
        assert ap_of_flags([[1, 0, 1]])[0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert ap_of_flags([[0, 0, 0]])[0] == 0.0
        # the same rows as one block, a trailing miss padding [0, 1]
        npt.assert_allclose(
            ap_of_flags([[1, 1, 0], [0, 1, 0], [1, 0, 1], [0, 0, 0]]),
            [1.0, 0.5, (1.0 + 2.0 / 3.0) / 2.0, 0.0])

    def test_cutoff_window(self):
        flags = [[0, 1, 0, 1]]
        # within the first two entries only the rank-2 hit counts
        assert ap_of_flags(flags, cutoff=2)[0] == pytest.approx(0.5)
        assert ap_of_flags(flags, cutoff=1)[0] == 0.0
        assert ap_of_flags(flags, cutoff=4)[0] == pytest.approx((0.5 + 0.5) / 2.0)
        # the same windows as stops inside the row's precisions [1/2, 2/4]
        precisions, start = np.array([0.5, 0.5]), np.array([0])
        npt.assert_array_equal(
            [evalkit.average_precision(precisions, start, start + n)[0]
             for n in (0, 1, 2)], [0.0, 0.5, 0.5])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            # a block of rows, some without any hit
            flags = (rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 30))))
                     < rng.random()).astype(int)
            cutoff = int(rng.integers(1, 35))
            npt.assert_allclose(ap_of_flags(flags),
                                [naive_average_precision(list(row)) for row in flags])
            npt.assert_allclose(ap_of_flags(flags, cutoff),
                                [naive_average_precision(list(row), cutoff)
                                 for row in flags])

    def test_bits_match_the_flag_block_oracle(self):
        # long rows, so each row's sum runs numpy's pairwise blocks
        rng = np.random.default_rng(12)
        flags = rng.random((6, 700)) < [[0.0], [0.02], [0.3], [0.7], [1.0], [0.5]]
        for cutoff in (None, 1, 9, 200, 800):
            npt.assert_array_equal(ap_of_flags(flags, cutoff),
                                   block_average_precision(flags, cutoff))


def packed_relevance(query_labels, db_labels):
    """relevance_matrix of labels packed as evaluate_direction packs them."""
    return evalkit.relevance_matrix(kernels.pack_rows(np.asarray(query_labels) != 0),
                                    kernels.pack_rows(np.asarray(db_labels) != 0))


class TestRelevance:
    def test_any_shared_label(self):
        q = np.array([[1, 0, 1], [0, 1, 0]])
        d = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        npt.assert_array_equal(packed_relevance(q, d), [[1, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("n_labels", [1, 8, 9, 64, 65, 80, 130])
    def test_matches_pairwise_oracle(self, monkeypatch, n_labels):
        rng = np.random.default_rng(n_labels)
        ql = (rng.random((23, n_labels)) < 1.5 / n_labels).astype(np.int8)
        dl = (rng.random((57, n_labels)) < 1.5 / n_labels).astype(np.int8)
        ql[0], dl[0] = 0, 0  # rows with no label share none
        ql[1, -1] = dl[1, -1] = 1  # shared in the last column, in the last word
        want = naive_relevance(ql, dl)
        assert want.any() and not want.all()
        npt.assert_array_equal(packed_relevance(ql, dl), want)
        # chunks of one to three query rows
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 2 * len(dl))
        npt.assert_array_equal(packed_relevance(ql, dl), want)

    @pytest.mark.parametrize("width, dtype, n_words", [
        (1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1), (32, np.uint32, 1),
        (33, np.uint64, 1), (64, np.uint64, 1), (65, np.uint64, 2), (130, np.uint64, 3)])
    def test_pack_rows_narrowest_words(self, width, dtype, n_words):
        bits = np.ones((3, width), dtype=bool)
        words = kernels.pack_rows(bits)
        assert words.dtype == dtype and words.shape == (3, n_words)
        npt.assert_array_equal(np.bitwise_count(words).sum(axis=1), width)

    def test_shape_mismatch(self, monkeypatch):
        # checked once, at evaluate_direction's entry, before any ranking
        monkeypatch.setattr(kernels, "distances", None)
        q = np.ones((2, 4), dtype=np.int8)
        with pytest.raises(DataError, match="incompatible"):
            evalkit.evaluate_direction("i2t", q, q, np.ones((2, 3)), np.ones((2, 4)))

    def test_width_message_names_the_query_labels(self):
        # 2000 db rows make query blocks of 524 rows; the message names
        # the 600 x 24 query labels, not a block
        q, db = np.ones((600, 8), dtype=np.int8), np.ones((2000, 8), dtype=np.int8)
        with pytest.raises(DataError, match=r"label shapes \(600, 24\) and "
                                            r"\(2000, 25\) incompatible"):
            evalkit.evaluate_direction("i2t", q, db, np.ones((600, 24)),
                                       np.ones((2000, 25)))

    def test_eval_on_label_files_of_different_widths_exits_3(self, tmp_path, capsys):
        from assph import cli, dataio, hashnet
        paths = {name: str(tmp_path / name)
                 for name in ("q.assb", "d.assb", "ql.csv", "dl.csv")}
        hashnet.save_codes(np.ones((2, 4), dtype=np.int8), paths["q.assb"])
        hashnet.save_codes(np.ones((3, 4), dtype=np.int8), paths["d.assb"])
        dataio.write_labels(np.ones((2, 3), dtype=np.int8), paths["ql.csv"])
        dataio.write_labels(np.ones((3, 2), dtype=np.int8), paths["dl.csv"])
        assert cli.dispatch(["eval", "--query-codes", paths["q.assb"],
                             "--db-codes", paths["d.assb"],
                             "--query-labels", paths["ql.csv"],
                             "--db-labels", paths["dl.csv"],
                             "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("error: data: evaluate_direction: query and "
                                           "db label shapes (2, 3) and (3, 2) "
                                           "incompatible\n")


class TestMapEval:
    def _hand_fixture(self):
        q = np.array([[1, 1, 1, 1]])
        db = np.array([[1, 1, 1, 1], [1, 1, 1, -1],
                       [1, -1, -1, -1], [-1, -1, -1, -1]])
        ql = np.array([[1, 0]])
        dl = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        return q, db, ql, dl

    def test_hand_fixture(self):
        q, db, ql, dl = self._hand_fixture()
        report = evalkit.evaluate_direction("i2t", q, db, ql, dl, map_cutoffs=[2])
        # ranked relevance flags are [1, 0, 1, 0]
        assert report.map_all == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert report.map_at[2] == pytest.approx(1.0)

    def test_rejects_cutoff_below_one(self, monkeypatch):
        # checked once, at evaluate_direction's entry, before any ranking
        monkeypatch.setattr(kernels, "distances", None)
        q, db, ql, dl = self._hand_fixture()
        with pytest.raises(ConfigError, match="^evaluate_direction: cutoff must be >= 1, "
                                              "got 0$"):
            evalkit.evaluate_direction("i2t", q, db, ql, dl, map_cutoffs=[2, 0])

    def test_perfect_codes(self):
        rng = np.random.default_rng(5)
        db = random_codes(rng, 20, 16)
        labels = np.zeros((20, 4), dtype=int)
        labels[np.arange(20), np.arange(20) % 4] = 1
        # queries are exact copies of relevant-only neighborhoods: give every
        # class one unique code so distance 0 <=> same class
        class_codes = random_codes(rng, 4, 16)
        db = class_codes[np.arange(20) % 4]
        q = class_codes.copy()
        ql = np.eye(4, dtype=int)
        report = evalkit.evaluate_direction("i2t", q, db, ql, labels)
        assert report.map_all == pytest.approx(1.0)

    def test_random_codes_near_prior(self):
        rng = np.random.default_rng(6)
        q = random_codes(rng, 60, 8)
        db = random_codes(rng, 300, 8)
        ql = np.zeros((60, 2), dtype=int)
        ql[np.arange(60) % 2 == 0, 0] = 1
        ql[np.arange(60) % 2 == 1, 1] = 1
        dl = np.zeros((300, 2), dtype=int)
        dl[np.arange(300) % 2 == 0, 0] = 1
        dl[np.arange(300) % 2 == 1, 1] = 1
        score = evalkit.evaluate_direction("i2t", q, db, ql, dl).map_all
        assert 0.40 < score < 0.65


def naive_pr_curve(dist, rel):
    """Scalar mirror of the radius-parameterized PR protocol."""
    n_q, _ = dist.shape
    eligible = [qi for qi in range(n_q) if rel[qi].sum() > 0]
    raw = []
    for radius in range(int(dist.max()) + 1):
        precs, recs = [], []
        for qi in eligible:
            hit = [di for di in range(dist.shape[1]) if dist[qi, di] <= radius]
            got = sum(rel[qi, di] for di in hit)
            precs.append(got / len(hit) if hit else 0.0)
            recs.append(got / rel[qi].sum())
        raw.append((float(np.mean(recs)), float(np.mean(precs))))
    out, seen = [], set()
    for rec, prec in raw:
        if rec in seen:
            continue
        seen.add(rec)
        if 0.0 < rec < 1.0:
            out.append((rec, prec))
    return out


def curves_of(q, db, rel, k_grid):
    """evaluate_direction's (pr_curve, topk_curve) when query i's relevant
    items are the set entries of rel[i]: query i alone has label i."""
    rel = np.asarray(rel)
    report = evalkit.evaluate_direction("i2t", q, db, np.eye(len(rel), dtype=int),
                                        rel.T, map_cutoffs=[], k_grid=k_grid)
    return report.pr_curve, report.topk_curve


class TestCurves:
    def test_topk_hand_case(self):
        q = np.array([[1, 1, 1, 1]])
        db = np.array([[1, 1, 1, 1], [1, 1, 1, -1],
                       [1, -1, -1, -1], [-1, -1, -1, -1]])
        rel = np.array([[1, 0, 1, 0]])
        _, topk = curves_of(q, db, rel, [2, 4])
        assert topk == [(2, 0.5), (4, 0.5)]

    def test_topk_denominator_is_k(self):
        # k beyond the database size still divides by k
        q = np.array([[1, 1]])
        db = np.array([[1, 1], [1, -1]])
        rel = np.array([[1, 1]])
        _, topk = curves_of(q, db, rel, [4])
        assert topk == [(4, 0.5)]

    def test_pr_single_intermediate_point(self):
        # relevant at distances 0 and 2, an irrelevant item at distance 1
        q = np.array([[1, 1, 1, 1]])
        db = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1]])
        rel = np.array([[1, 0, 1]])
        pr, _ = curves_of(q, db, rel, [1])
        # radius 1 repeats recall 0.5 -> deduplicated; radius 2 reaches
        # recall 1 -> endpoint dropped; only radius 0 survives
        assert pr == [(0.5, 1.0)]

    def test_pr_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = random_codes(rng, 6, 8)
            db = random_codes(rng, 25, 8)
            rel = (rng.random((6, 25)) < 0.3).astype(int)
            dist = evalkit.hamming_matrix(q, db)
            got, _ = curves_of(q, db, rel, [5])
            npt.assert_allclose(got, naive_pr_curve(dist, rel), atol=1e-12)

    def test_no_relevant_queries(self):
        q = np.array([[1, 1]])
        db = np.array([[1, 1], [1, -1]])
        pr, topk = curves_of(q, db, np.zeros((1, 2), int), [1])
        assert pr == []
        assert topk == [(1, 0.0)]

    def test_bad_k_grid(self):
        q = np.array([[1, 1]])
        db = np.array([[1, 1]])
        with pytest.raises(ConfigError, match="k_grid"):
            curves_of(q, db, np.ones((1, 1), int), [5, 2])
        with pytest.raises(ConfigError, match="k_grid"):
            curves_of(q, db, np.ones((1, 1), int), [5, 5, 10])


class TestBlocks:
    """Queries ranked over several blocks give the one-block result,
    which matches the scalar oracles."""

    def _fixture(self, rng, k):
        n_q, n_db = 7, 40
        q = random_codes(rng, n_q, k)
        db = random_codes(rng, n_db, k)
        db[3] = -q[0]  # at distance K, past uint8 when K = 300
        db[20:] = db[:20]  # every item has a twin at equal distance
        q[2] = q[1]  # query twins on either side of a two-row block boundary
        q[5] = db[7]
        ql = (rng.random((n_q, 3)) < 0.5).astype(int)
        ql[[1, 2]] = [1, 0, 0]
        ql[4] = 0  # shares no label: no relevant item
        dl = (rng.random((n_db, 3)) < 0.4).astype(int)
        return q, db, ql, dl

    @pytest.mark.parametrize("k", [4, 300])
    def test_blocks_match_oracles(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        q, db, ql, dl = self._fixture(rng, k)
        args = (q, db, ql, dl, [5, 50], [1, 10, 40, 60])
        whole = evalkit.evaluate_direction("i2t", *args)
        # blocks of two queries: rows 0-1, 2-3, 4-5 and a one-row tail
        monkeypatch.setattr(evalkit, "_BLOCK_PAIRS", 2 * len(db))
        blocked = evalkit.evaluate_direction("i2t", *args)
        assert blocked == whole

        rel = naive_relevance(ql, dl)
        assert not rel[4].any() and rel.any(axis=1).sum() >= 5
        orders = naive_rank(q, db)
        ranked = [rel[qi][orders[qi]] for qi in range(len(q))]
        for cutoff, got in ((None, blocked.map_all), (5, blocked.map_at[5]),
                            (50, blocked.map_at[50])):
            want = np.mean([naive_average_precision(r, cutoff) for r in ranked])
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        assert blocked.topk_curve == [
            (top, float(np.mean([r[:top].sum() / top for r in ranked])))
            for top in (1, 10, 40, 60)]
        dist = np.array([[naive_hamming(a, b) for b in db] for a in q])
        assert dist.max() == k
        assert blocked.pr_curve == naive_pr_curve(dist, rel)


class TestBlockFootprint:
    """A block's arrays take about 10 bytes per query-item pair: the rank
    order is freed once the relevance flags are gathered, so no Q x D
    index array is alive while the AP and top-k counts run, and the word
    operations of the distances and the relevance run on chunks of rows
    whose temporaries do not grow with the block."""

    @pytest.mark.parametrize("k, n_labels", [(64, 24), (300, 80)])
    def test_bytes_per_block_pair(self, monkeypatch, k, n_labels):
        rng = np.random.default_rng(0)
        n_q, n_db = 256, 4096
        q, db = random_codes(rng, n_q, k), random_codes(rng, n_db, k)
        # about 2 labels per row, so about 1 pair in 6 is relevant at 24 labels
        ql, dl = ((rng.random((n, n_labels)) < 2 / n_labels).astype(np.int8)
                  for n in (n_q, n_db))

        def peak(block_pairs):
            monkeypatch.setattr(evalkit, "_BLOCK_PAIRS", block_pairs)
            tracemalloc.start()
            try:
                evalkit.evaluate_direction("i2t", q, db, ql, dl)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 4 and 16 blocks; the direction's fixed arrays (the packed codes
        # and labels, histograms, APs and top-k counts) cancel in the
        # difference
        big, small = 1 << 18, 1 << 16
        per_pair = (peak(big) - peak(small)) / (big - small)
        assert per_pair < 12, per_pair


class TestSortedGatherOracle:
    """The block loop counts unsorted distances per row and reads every
    metric from the hits; its reports equal the sorted-gather loop's
    exactly."""

    def _fixture(self, rng, k):
        n_q, n_db = 9, 64
        q = random_codes(rng, n_q, k)
        db = random_codes(rng, n_db, k)
        db[3] = -q[0]  # at distance K
        db[32:] = db[:32]  # every item has a twin at equal distance
        q[2] = q[1]
        q[6] = db[10]
        ql = (rng.random((n_q, 4)) < 0.4).astype(np.int8)
        ql[4] = 0  # shares no label: no relevant item
        dl = (rng.random((n_db, 4)) < 0.4).astype(np.int8)
        return q, db, ql, dl

    @pytest.mark.parametrize("k", [17, 64, 300])
    @pytest.mark.parametrize("block_rows", [2, 4, None])
    def test_reports_match(self, monkeypatch, k, block_rows):
        rng = np.random.default_rng(100 + k)
        q, db, ql, dl = self._fixture(rng, k)
        if block_rows is not None:
            # blocks of 2 leave a one-row tail of 9 queries, blocks of 4 too
            monkeypatch.setattr(evalkit, "_BLOCK_PAIRS", block_rows * len(db))
        rows = max(1, evalkit._BLOCK_PAIRS // len(db))
        cutoffs, k_grid = [1, 5, 50], [1, 3, 10, 64, 100]
        got = evalkit.evaluate_direction("t2i", q, db, ql, dl, cutoffs, k_grid)
        want = sorted_gather_direction("t2i", q, db, ql, dl, cutoffs, k_grid, rows)
        assert got == want
        assert evalkit.hamming_matrix(q, db).max() == k
        assert not naive_relevance(ql, dl)[4].any()
        assert got.pr_curve and 0.0 < got.map_all < 1.0


class TestReport:
    def _report(self):
        rng = np.random.default_rng(8)
        q = random_codes(rng, 10, 8)
        db = random_codes(rng, 30, 8)
        ql = (rng.random((10, 3)) < 0.5).astype(int)
        ql[ql.sum(axis=1) == 0, 0] = 1
        dl = (rng.random((30, 3)) < 0.5).astype(int)
        dl[dl.sum(axis=1) == 0, 0] = 1
        return evalkit.evaluate_direction("i2t", q, db, ql, dl,
                                          map_cutoffs=[5, 50])

    @pytest.mark.parametrize("role", ["query", "db"])
    def test_label_rows_must_match_code_rows(self, role):
        rng = np.random.default_rng(10)
        q = random_codes(rng, 4, 8)
        db = random_codes(rng, 30, 8)
        ql = (rng.random((4, 3)) < 0.5).astype(int)
        dl = (rng.random((30, 3)) < 0.5).astype(int)
        if role == "query":
            ql = np.vstack([ql, ql[:2]])  # 6 label rows for 4 query codes
        else:
            dl = dl[:25]  # 25 label rows for 30 db codes
        with pytest.raises(DataError, match=f"{role} labels and codes row count"):
            evalkit.evaluate_direction("i2t", q, db, ql, dl)

    @pytest.mark.parametrize("role", ["query", "db"])
    def test_codes_checked_once_per_direction(self, monkeypatch, role):
        monkeypatch.setattr(evalkit, "_BLOCK_PAIRS", 60)  # two queries per block
        checked = []
        real_check = evalkit._check_codes

        def spy(codes, name):
            checked.append(name)
            return real_check(codes, name)

        monkeypatch.setattr(evalkit, "_check_codes", spy)
        rng = np.random.default_rng(11)
        q = random_codes(rng, 9, 8)
        db = random_codes(rng, 30, 8)
        ql = np.ones((9, 2), dtype=int)
        dl = np.ones((30, 2), dtype=int)
        evalkit.evaluate_direction("i2t", q, db, ql, dl)
        assert checked == ["query codes", "db codes"]
        (q if role == "query" else db)[-1, -1] = 0  # in the last block
        with pytest.raises(DataError, match=f"{role} codes: code entries must be -1 or"):
            evalkit.evaluate_direction("i2t", q, db, ql, dl)

    @pytest.mark.parametrize("role", ["query", "db"])
    def test_zero_bit_codes_rejected(self, role):
        codes = {"query": np.ones((3, 0)), "db": np.ones((5, 0))}
        if role == "query":
            codes["db"] = np.ones((5, 1))
        else:
            codes["query"] = np.ones((3, 1))
        with pytest.raises(DataError, match=f"{role} codes: .*rows and bits"):
            evalkit.evaluate_direction("i2t", codes["query"], codes["db"],
                                       np.ones((3, 2), dtype=int),
                                       np.ones((5, 2), dtype=int))

    def test_one_map_cutoff_default(self):
        from assph import cli, config
        signature = inspect.signature(evalkit.evaluate_direction)
        assert signature.parameters["map_cutoffs"].default is config.MAP_CUTOFFS
        parser = cli.build_parser()
        eval_args = ["--query-codes", "q", "--db-codes", "d", "--query-labels", "ql",
                     "--db-labels", "dl"]
        for command, rest in (("train", ["--bundle", "b"]), ("eval", eval_args),
                              ("ablate", ["--bundle", "b"])):
            args = parser.parse_args([command, "--out", "o"] + rest)
            assert cli._map_cutoffs(args) == list(config.MAP_CUTOFFS)
            args = parser.parse_args([command, "--out", "o", "--map-at", "5,20"] + rest)
            assert cli._map_cutoffs(args) == [5, 20]

    def test_auto_k_grid_caps_at_db_size(self):
        report = self._report()
        ks = [k for k, _ in report.topk_curve]
        assert ks == sorted(ks)
        assert ks[-1] == 30
        assert all(k <= 30 for k in ks)

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        report.save_json(str(path))
        with open(path) as fh:
            back = json.load(fh)
        assert back == report.to_dict()
        assert (back["direction"], back["code_length"]) == ("i2t", 8)
        assert sorted(back["map_at"]) == ["5", "50"]

    def test_csv_layout(self, tmp_path):
        report = self._report()
        pr_path = tmp_path / "pr.csv"
        topk_path = tmp_path / "topk.csv"
        report.save_curves_csv(str(pr_path), str(topk_path))
        pr_lines = pr_path.read_text().splitlines()
        assert pr_lines[0] == "recall,precision"
        assert len(pr_lines) == 1 + len(report.pr_curve)
        topk_lines = topk_path.read_text().splitlines()
        assert topk_lines[0] == "k,precision"
        assert len(topk_lines) == 1 + len(report.topk_curve)
        first_k = int(topk_lines[1].split(",")[0])
        assert first_k == report.topk_curve[0][0]

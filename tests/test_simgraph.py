"""Similarity pipeline: stagewise contracts plus the scalar oracle."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from assph import config, kernels, simgraph
from assph.errors import ConfigError
from oracles import (argsort_top_k, naive_semantic, tril_mirror_cosine,
                     whole_matrix_semantic)


def random_features(rng, m, d):
    return rng.standard_normal((m, d)).astype(np.float32)


def clustered_features(rng, m, d):
    """Rows close to one of four well-separated centres."""
    centers = rng.standard_normal((4, d)) * 4.0
    feats = centers[np.arange(m) % 4] + 0.05 * rng.standard_normal((m, d))
    return feats.astype(np.float32)


def five_repeated_features(rng, m, d):
    """Five distinct rows repeated: each row's cosines tie with many others,
    so the top-k normalization breaks ties on every row."""
    return random_features(rng, 5, d)[np.arange(m) % 5]


def elementwise_rows(monkeypatch, rows, m):
    """Force the elementwise stages' block over m x m matrices to rows;
    None keeps the size derived from the order."""
    if rows is not None:
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * m)


def cosine(arr):
    return np.asarray(arr, dtype=np.float32)


def new_out(arr):
    """A fresh float32 buffer for a stage's out, shaped like arr."""
    return np.empty(np.shape(arr), dtype=np.float32)


def fused_of(fi, ft):
    """The fusion of the features' cosines, written over the image cosine."""
    cos_i = simgraph.cosine_matrix(fi)
    return simgraph.fuse(cos_i, simgraph.cosine_matrix(ft), out=cos_i)


def semantic(fi, ft, ks, gamma):
    """build_semantic from features; it writes over the fusion it is given."""
    return simgraph.build_semantic(fused_of(fi, ft), ks, gamma)


class TestCosineMatrix:
    def test_orthogonal_and_antipodal(self):
        f = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        s = simgraph.cosine_matrix(f)
        npt.assert_allclose(np.diag(s), 1.0)
        npt.assert_allclose(s[0, 1], 0.0, atol=1e-7)
        npt.assert_allclose(s[0, 2], -1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        f = random_features(rng, 12, 5)
        scaled = f * rng.uniform(0.1, 10.0, size=(12, 1)).astype(np.float32)
        npt.assert_allclose(simgraph.cosine_matrix(f),
                            simgraph.cosine_matrix(scaled), atol=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        s = simgraph.cosine_matrix(random_features(rng, 40, 7))
        npt.assert_array_equal(s, s.T)

    def test_output_contract(self):
        rng = np.random.default_rng(2)
        s = simgraph.cosine_matrix(random_features(rng, 20, 4))
        assert s.shape == (20, 20) and np.isfinite(s).all()
        npt.assert_array_equal(s, s.T)
        assert s.min() >= -1.0 and s.max() <= 1.0
        npt.assert_array_equal(np.diag(s), 1.0)

    def test_bits_match_tril_mirror(self):
        # no triangle is mirrored: numpy's f @ f.T must come out exactly
        # symmetric at every width, or these bits would move
        rng = np.random.default_rng(3)
        block = kernels.BLOCK_ROWS
        for d in (1, 6, 64, 300, 1386):
            for m in (1, 7, block, block + 1, 2 * block + 37):
                f = random_features(rng, m, d)
                got = simgraph.cosine_matrix(f)
                assert got.dtype == np.float32
                npt.assert_array_equal(got.view(np.uint32),
                                       tril_mirror_cosine(f).view(np.uint32))

    def test_blocks_reuse_one_buffer(self):
        f = random_features(np.random.default_rng(6), 600, 5)
        unit = kernels.unit_rows(f, "features")[0]
        whole = simgraph.cosine_matrix(f)
        bases = set()
        for lo, hi, rows in simgraph.cosine_blocks(unit):
            assert rows.dtype == np.float32 and rows.shape == (hi - lo, 600)
            npt.assert_array_equal(rows, whole[lo:hi])
            bases.add(rows.base.ctypes.data)
        assert len(bases) == 1

    def test_float64_input_left_unchanged(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((30, 6)) * 5.0
        before = f.copy()
        simgraph.cosine_matrix(f)
        npt.assert_array_equal(f, before)

    def test_peak_memory_one_feature_copy(self):
        # one float64 copy of the features (8 M d), the float64 product and
        # its float32 rounding (12 M^2); the norms' M x d square fits too
        m, d = 512, 512
        f = random_features(np.random.default_rng(5), m, d)
        assert 8 * m * d > 1 << 20
        tracemalloc.start()
        try:
            simgraph.cosine_matrix(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * d + 12 * m * m + (1 << 20), peak


class TestTopKIndices:
    def _check(self, values):
        n = values.shape[1]
        for k in sorted({1, 2, n // 2 + 1, n, n + 3}):
            got = simgraph.top_k_indices(values, k)
            npt.assert_array_equal(got, argsort_top_k(values, k))

    def test_random_rows(self):
        rng = np.random.default_rng(20)
        for m, n in ((1, 1), (5, 9), (30, 30), (17, 64)):
            self._check(rng.random((m, n)).astype(np.float32))

    def test_tie_heavy_rows(self):
        rng = np.random.default_rng(21)
        for m, n in ((6, 11), (40, 40), (9, 100)):
            self._check((np.round(rng.random((m, n)) * 8) / 8).astype(np.float32))

    def test_all_equal_rows(self):
        self._check(np.full((4, 10), 0.5, dtype=np.float32))
        mixed = np.full((6, 12), 0.25, dtype=np.float32)
        mixed[::2] = np.linspace(0.0, 1.0, 12, dtype=np.float32)
        self._check(mixed)

    def test_ties_counted_past_255_entries(self):
        # rows of more than 255 tied entries: the tie count must not wrap
        self._check(np.full((3, 600), 0.5, dtype=np.float32))
        rng = np.random.default_rng(23)
        self._check((np.round(rng.random((4, 700)) * 2) / 2).astype(np.float32))

    def test_k_at_least_row_length_keeps_every_index(self):
        rng = np.random.default_rng(22)
        values = rng.random((3, 5)).astype(np.float32)
        for k in (5, 8):
            npt.assert_array_equal(simgraph.top_k_indices(values, k),
                                   np.tile(np.arange(5), (3, 1)))


class TestProbabilityMap:
    """The remap of each cosine c onto p = (c + 1) / 2, which fuse applies
    to both modalities before the OR; against p = 0 the OR is p itself."""

    def test_endpoints(self):
        c = cosine([[1.0, -1.0], [-1.0, 1.0]])
        out = simgraph.fuse(c, cosine(-np.ones((2, 2))), new_out(c))
        npt.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_midpoint(self):
        c = cosine([[1.0, 0.0], [0.0, 1.0]])
        npt.assert_allclose(simgraph.fuse(c, cosine(-np.ones((2, 2))), new_out(c)),
                            [[1.0, 0.5], [0.5, 1.0]])
        # and 0.5 OR 0.5 is 0.75
        npt.assert_allclose(simgraph.fuse(c, cosine(c), new_out(c)),
                            [[1.0, 0.75], [0.75, 1.0]])

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        s = simgraph.cosine_matrix(random_features(rng, 15, 6))
        p = simgraph.fuse(s, cosine(-np.ones((15, 15))), new_out(s))
        npt.assert_array_equal(np.argsort(s, axis=1, kind="stable"),
                               np.argsort(p, axis=1, kind="stable"))


class TestFuse:
    """Probabilistic OR of the two probabilities: p_i + p_t - p_i * p_t."""

    def test_identity_and_absorb(self):
        a = cosine([[1.0, -1.0], [-1.0, 1.0]])
        b = cosine([[1.0, 0.4], [0.4, 1.0]])
        out = simgraph.fuse(a, b, new_out(a))
        # fuse(0, x) = x and fuse(1, x) = 1 on probabilities
        npt.assert_allclose(out, [[1.0, 0.7], [0.7, 1.0]], rtol=1e-6)

    def test_formula(self):
        a = cosine([[1.0, -0.6], [-0.6, 1.0]])
        b = cosine([[1.0, 0.0], [0.0, 1.0]])
        npt.assert_allclose(simgraph.fuse(a, b, new_out(a))[0, 1],
                            0.2 + 0.5 - 0.1, rtol=1e-6)

    def test_dominates_both_inputs(self):
        rng = np.random.default_rng(4)
        a = simgraph.cosine_matrix(random_features(rng, 20, 6))
        b = simgraph.cosine_matrix(random_features(rng, 20, 5))
        out = simgraph.fuse(a, b, new_out(a))
        assert (out >= (a + 1) / 2 - 1e-6).all()
        assert (out >= (b + 1) / 2 - 1e-6).all()

    def test_out_may_be_an_input(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(12)
        a = simgraph.cosine_matrix(random_features(rng, 30, 6))
        b = simgraph.cosine_matrix(random_features(rng, 30, 5))
        want = simgraph.fuse(a, b, new_out(a))
        got = simgraph.fuse(a, b, out=a)
        assert got is a
        npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_unit_diagonal_is_each_rows_largest_entry(self):
        # so every row's top-ks mass in topk_normalize is at least 1
        rng = np.random.default_rng(14)
        f = random_features(rng, 40, 6)
        a = simgraph.cosine_matrix(np.vstack([f, -f]))
        b = simgraph.cosine_matrix(random_features(rng, 80, 5))
        fused = simgraph.fuse(a, b, new_out(a))
        npt.assert_array_equal(np.diag(fused), 1.0)
        npt.assert_array_equal(fused.max(axis=1), 1.0)


class TestTopkNormalize:
    def _fused(self, arr):
        return np.asarray(arr, dtype=np.float32)

    def test_worked_row(self):
        row = self._fused([[1.0, 0.9, 0.6, 0.1]] * 4)
        out = simgraph.topk_normalize(row, 2)
        npt.assert_allclose(out[0], [1.0 / 1.9, 0.9 / 1.9, 0.0, 0.0],
                            rtol=1e-6)
        npt.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)

    def test_ks_at_least_order_normalizes_whole_row(self):
        rng = np.random.default_rng(5)
        fused = self._fused(rng.uniform(0.1, 1.0, (6, 6)).astype(np.float32))
        with pytest.warns(UserWarning, match="clamping"):
            out = simgraph.topk_normalize(fused, 10)
        expect = fused / fused.sum(axis=1, keepdims=True)
        npt.assert_allclose(out, expect, rtol=1e-5)

    def test_ties_break_by_ascending_index(self):
        fused = self._fused([[0.5, 0.5, 0.5, 0.5]] * 4)
        out = simgraph.topk_normalize(fused, 2)
        npt.assert_allclose(out[0], [0.5, 0.5, 0.0, 0.0])

    def test_row_counts_and_sums(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            fused = self._fused(rng.uniform(0.01, 1.0, (30, 30)).astype(np.float32))
            out = simgraph.topk_normalize(fused, 7)
            assert ((out > 0).sum(axis=1) <= 7).all()
            npt.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_weights_are_float32_values(self):
        rng = np.random.default_rng(13)
        out = simgraph.topk_normalize(
            self._fused(rng.uniform(0.01, 1.0, (20, 20))), 4)
        assert out.dtype == np.float64
        npt.assert_array_equal(out, out.astype(np.float32))

    def test_matches_scalar_selection(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.0, 1.0, (50, 50)).astype(np.float32)
        out = simgraph.topk_normalize(self._fused(vals), 5)
        for i in range(50):
            picked = sorted(range(50), key=lambda j: (-vals[i, j], j))[:5]
            expect = np.zeros(50)
            total = vals[i, picked].astype(np.float64).sum()
            expect[picked] = vals[i, picked] / total
            npt.assert_allclose(out[i], expect, rtol=1e-5, atol=1e-7)

    def test_bad_ks(self):
        # topk_normalize trusts ks: TrainConfig is its one check
        with pytest.raises(ConfigError, match="ks"):
            config.TrainConfig(ks=0)


class TestStructural:
    def test_identity_weights(self):
        # each row's single strongest link is itself, so W is the identity
        out = simgraph.structural(np.eye(4, dtype=np.float32), 1)
        assert out.dtype == np.float64
        npt.assert_array_equal(out, np.eye(4))

    def test_identical_uniform_rows(self):
        # W is 1/2 everywhere; ks = 2 times W @ W.T is the all-ones map
        fused = np.full((2, 2), 0.5, dtype=np.float32)
        npt.assert_array_equal(2 * simgraph.structural(fused, 2), np.ones((2, 2)))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        fused = rng.uniform(0.01, 1.0, (60, 60)).astype(np.float32)
        out = simgraph.structural(fused, 10)
        npt.assert_array_equal(out, out.T)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        m, ks = 40, 6
        fused = rng.uniform(0.01, 1.0, (m, m)).astype(np.float32)
        out = simgraph.structural(fused, ks)
        w = simgraph.topk_normalize(fused, ks)
        expect = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                expect[i, j] = sum(w[i, k] * w[j, k] for k in range(m))
        npt.assert_allclose(out, expect, rtol=1e-12, atol=1e-15)


class TestCombine:
    """combine(fused, W @ W.T, ks, gamma): with ks 1 and a product already
    in [0, 1] with float32 values, the structural map is the product."""

    def _pair(self):
        fused = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=np.float32)
        struct = np.array([[1.0, 0.8], [0.8, 1.0]], dtype=np.float32)
        return fused, struct.astype(np.float64)

    def test_gamma_zero_keeps_fused(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 1, 0.0, new_out(fused))
        npt.assert_allclose(out, 2 * fused - 1, rtol=1e-6)

    def test_skipped_structural_equals_zero_structural(self):
        fused, struct = self._pair()
        zero = np.zeros_like(struct)
        npt.assert_array_equal(simgraph.combine(fused, None, 1, 0.0, new_out(fused)),
                               simgraph.combine(fused, zero, 1, 0.0, new_out(fused)))

    def test_gamma_one_keeps_structural(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 1, 1.0, new_out(fused))
        npt.assert_allclose(out, 2 * struct - 1, rtol=1e-6)

    def test_blend(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 1, 0.25, new_out(fused))
        expect = 2 * (0.75 * fused + 0.25 * struct) - 1
        npt.assert_allclose(out, expect, atol=1e-6)

    def test_product_scaled_by_clamped_ks_then_clipped(self):
        fused, _ = self._pair()
        cooc = np.array([[0.75, 0.3], [0.3, 0.75]])
        # ks 5 clamps to the order 2: the map is [[1, 0.6], [0.6, 1]]
        out = simgraph.combine(fused, cooc, 5, 1.0, new_out(fused))
        struct = np.float32([[1.0, 0.6], [0.6, 1.0]]).astype(np.float64)
        npt.assert_array_equal(out, (2.0 * struct - 1.0).astype(np.float32))

    def test_structural_map_rounded_to_float32(self):
        # the scaled, clipped product is rounded to float32 before the blend
        rng = np.random.default_rng(24)
        cooc = rng.uniform(0.0, 0.5, (40, 40))
        fused = rng.uniform(0.0, 1.0, (40, 40)).astype(np.float32)
        got = simgraph.combine(fused, cooc, 3, 0.6, new_out(fused))

        def blend(struct):
            s = 2.0 * (0.4 * fused.astype(np.float64) + 0.6 * struct) - 1.0
            return np.clip(s, -1.0, 1.0).astype(np.float32)

        scaled = np.clip(3 * cooc, 0.0, 1.0)
        npt.assert_array_equal(got, blend(scaled.astype(np.float32).astype(np.float64)))
        assert not np.array_equal(got, blend(scaled))

    def test_gamma_out_of_range(self):
        # combine and build_semantic trust gamma: TrainConfig is its one check
        for gamma in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="gamma must be in"):
                config.TrainConfig(gamma=gamma)


class TestBuildSemantic:
    def test_identical_rows_give_all_ones(self):
        f = np.tile(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), (5, 1))
        out = semantic(f, f, ks=2, gamma=0.3)
        npt.assert_allclose(out, np.ones((5, 5)), atol=1e-6)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(10)
        for gamma in (0.0, 0.5, 1.0):
            fi = random_features(rng, 25, 6)
            ft = random_features(rng, 25, 4)
            v = semantic(fi, ft, ks=5, gamma=gamma)
            assert v.dtype == np.float32 and v.shape == (25, 25)
            assert np.isfinite(v).all()
            npt.assert_array_equal(v, v.T)
            assert v.min() >= -1.0 and v.max() <= 1.0

    def test_matches_scalar_oracle_small(self):
        rng = np.random.default_rng(11)
        fi = random_features(rng, 30, 5)
        ft = random_features(rng, 30, 4)
        for gamma in (0.0, 0.3, 1.0):
            got = semantic(fi, ft, ks=6, gamma=gamma)
            expect = naive_semantic(fi, ft, ks=6, gamma=gamma)
            npt.assert_allclose(got, expect, atol=1e-5)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_blocks_match_whole_matrix_oracle(self, monkeypatch, gamma):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(14)
        for m in (1, 6, 13, 50):
            fi = random_features(rng, m, 8)
            ft = random_features(rng, m, 5)
            for ks in sorted({1, 4, m - 1, m, m + 3} - {0}):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # ks > m clamps
                    got = semantic(fi, ft, ks, gamma)
                want = whole_matrix_semantic(fi, ft, ks, gamma)
                npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32),
                                       err_msg=f"m={m} ks={ks} gamma={gamma}")

    def test_default_blocks_match_whole_matrix_oracle(self):
        rng = np.random.default_rng(15)
        m = kernels.BLOCK_ROWS + 45
        fi = random_features(rng, m, 12)
        ft = random_features(rng, m, 7)
        for gamma in (0.0, 0.3):
            got = semantic(fi, ft, 20, gamma)
            want = whole_matrix_semantic(fi, ft, 20, gamma)
            npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("make", [clustered_features, five_repeated_features])
    def test_elementwise_blocks_match_whole_matrix_oracle(self, monkeypatch, rows,
                                                          make):
        # elementwise blocks of 1 row, of 7 and of the size derived from M,
        # across the selection blocks' edges at 256 rows
        rng = np.random.default_rng(25)
        for m in (1, 7, 255, 256, 257, 600):
            elementwise_rows(monkeypatch, rows, m)
            fi, ft = make(rng, m, 12), make(rng, m, 7)
            for ks in sorted({1, max(1, m // 3), m, m + 5}):
                for gamma in (0.0, 0.3, 1.0):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # ks > m clamps
                        got = semantic(fi, ft, ks, gamma)
                        want = whole_matrix_semantic(fi, ft, ks, gamma)
                    npt.assert_array_equal(got.view(np.uint32), want.view(np.uint32),
                                           err_msg=f"m={m} ks={ks} gamma={gamma}")

    def test_result_is_the_fused_buffer(self):
        rng = np.random.default_rng(16)
        for gamma in (0.3, 0.0):
            fused = fused_of(random_features(rng, 12, 4), random_features(rng, 12, 3))
            assert simgraph.build_semantic(fused, 3, gamma) is fused

    def test_peak_memory_below_16_5_bytes_per_pair(self):
        # W and W @ W.T, 8 bytes per pair each, are the most that is held
        # beside the fusion: the structural map is formed one elementwise
        # block at a time and the selection's block buffers are freed
        # before the product.  Measured 16.0 B/pair, 17.7 with a whole
        # float32 structural map and 256-row float64 blocks.
        m = 600
        rng = np.random.default_rng(17)
        fused = fused_of(random_features(rng, m, 16), random_features(rng, m, 8))
        tracemalloc.start()
        try:
            simgraph.build_semantic(fused, 60, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16.5 * m * m, peak / m / m

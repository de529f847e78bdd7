"""Similarity pipeline: stagewise contracts plus the scalar oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from assph import simgraph
from assph.errors import ConfigError, DataError
from oracles import argsort_top_k, naive_semantic, tril_mirror_cosine


def random_features(rng, m, d):
    return rng.standard_normal((m, d)).astype(np.float32)


class TestCosineMatrix:
    def test_orthogonal_and_antipodal(self):
        f = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        s = simgraph.cosine_matrix(f).values
        npt.assert_allclose(np.diag(s), 1.0)
        npt.assert_allclose(s[0, 1], 0.0, atol=1e-7)
        npt.assert_allclose(s[0, 2], -1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        f = random_features(rng, 12, 5)
        scaled = f * rng.uniform(0.1, 10.0, size=(12, 1)).astype(np.float32)
        npt.assert_allclose(simgraph.cosine_matrix(f).values,
                            simgraph.cosine_matrix(scaled).values, atol=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        s = simgraph.cosine_matrix(random_features(rng, 40, 7)).values
        npt.assert_array_equal(s, s.T)

    def test_zero_row_rejected(self):
        f = np.array([[1, 1], [0, 0]], dtype=np.float32)
        with pytest.raises(DataError, match="zero-norm row 1"):
            simgraph.cosine_matrix(f)

    def test_validator_accepts_output(self):
        rng = np.random.default_rng(2)
        simgraph.cosine_matrix(random_features(rng, 20, 4)).validate()

    def test_bits_match_tril_mirror(self):
        rng = np.random.default_rng(3)
        block = simgraph._MIRROR_ROWS
        for m in (1, 7, block, block + 1, 2 * block + 37):
            f = random_features(rng, m, 6)
            got = simgraph.cosine_matrix(f).values
            assert got.dtype == np.float32
            npt.assert_array_equal(got.view(np.uint32),
                                   tril_mirror_cosine(f).view(np.uint32))


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

    def test_k_at_least_row_length_keeps_every_index(self):
        rng = np.random.default_rng(22)
        values = rng.random((3, 5)).astype(np.float32)
        for k in (5, 8):
            npt.assert_array_equal(simgraph.top_k_indices(values, k),
                                   np.tile(np.arange(5), (3, 1)))


class TestProbabilityMap:
    def test_endpoints(self):
        s = simgraph.SimMatrix(
            np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float32), "cosine")
        p = simgraph.probability_map(s)
        npt.assert_allclose(p.values, [[1.0, 0.0], [0.0, 1.0]])
        assert p.kind == "probability"

    def test_midpoint(self):
        s = simgraph.SimMatrix(np.zeros((2, 2), dtype=np.float32), "cosine")
        s.values[:] = [[1.0, 0.0], [0.0, 1.0]]
        npt.assert_allclose(simgraph.probability_map(s).values,
                            [[1.0, 0.5], [0.5, 1.0]])

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        s = simgraph.cosine_matrix(random_features(rng, 15, 6))
        p = simgraph.probability_map(s)
        npt.assert_array_equal(np.argsort(s.values, axis=1),
                               np.argsort(p.values, axis=1))

    def test_wrong_kind_rejected(self):
        p = simgraph.SimMatrix(np.full((2, 2), 0.5, dtype=np.float32),
                               "probability")
        with pytest.raises(ConfigError, match="expects a cosine"):
            simgraph.probability_map(p)


class TestFuse:
    def _prob(self, arr):
        return simgraph.SimMatrix(np.asarray(arr, dtype=np.float32),
                                  "probability")

    def test_identity_and_absorb(self):
        a = self._prob([[1.0, 0.0], [0.0, 1.0]])
        b = self._prob([[1.0, 0.7], [0.7, 1.0]])
        out = simgraph.fuse(a, b).values
        # fuse(0, x) = x and fuse(1, x) = 1
        npt.assert_allclose(out, [[1.0, 0.7], [0.7, 1.0]])

    def test_formula(self):
        a = self._prob([[1.0, 0.2], [0.2, 1.0]])
        b = self._prob([[1.0, 0.5], [0.5, 1.0]])
        npt.assert_allclose(simgraph.fuse(a, b).values[0, 1],
                            0.2 + 0.5 - 0.1, rtol=1e-6)

    def test_dominates_both_inputs(self):
        rng = np.random.default_rng(4)
        a = self._prob(rng.random((20, 20)).astype(np.float32))
        a.values[:] = (a.values + a.values.T) / 2
        b = self._prob(rng.random((20, 20)).astype(np.float32))
        b.values[:] = (b.values + b.values.T) / 2
        out = simgraph.fuse(a, b).values
        assert (out >= a.values - 1e-6).all()
        assert (out >= b.values - 1e-6).all()


class TestTopkNormalize:
    def _fused(self, arr):
        return simgraph.SimMatrix(np.asarray(arr, dtype=np.float32), "fused")

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
        expect = fused.values / fused.values.sum(axis=1, keepdims=True)
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
        with pytest.raises(ConfigError, match="ks"):
            simgraph.topk_normalize(self._fused(np.ones((3, 3))), 0)


class TestStructural:
    def test_identity_weights(self):
        out = simgraph.structural(np.eye(4, dtype=np.float32), 1)
        npt.assert_allclose(out.values, np.eye(4))

    def test_identical_uniform_rows(self):
        w = np.full((2, 2), 0.5, dtype=np.float32)
        out = simgraph.structural(w, 2)
        npt.assert_allclose(out.values, np.ones((2, 2)))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        w = rng.random((60, 60))
        w /= w.sum(axis=1, keepdims=True)
        out = simgraph.structural(w, 10).values
        npt.assert_array_equal(out, out.T)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        m, ks = 40, 6
        w = np.zeros((m, m))
        for i in range(m):
            cols = rng.choice(m, size=ks, replace=False)
            vals = rng.random(ks)
            w[i, cols] = vals / vals.sum()
        out = simgraph.structural(w.astype(np.float32), ks).values
        expect = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                expect[i, j] = min(ks * sum(w[i, k] * w[j, k] for k in range(m)), 1.0)
        npt.assert_allclose(out, expect, atol=2e-6)


class TestCombine:
    def _pair(self):
        fused = simgraph.SimMatrix(
            np.array([[1.0, 0.4], [0.4, 1.0]], dtype=np.float32), "fused")
        struct = simgraph.SimMatrix(
            np.array([[1.0, 0.8], [0.8, 1.0]], dtype=np.float32), "structural")
        return fused, struct

    def test_gamma_zero_keeps_fused(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 0.0)
        npt.assert_allclose(out.values, 2 * fused.values - 1, rtol=1e-6)
        assert out.kind == "semantic"

    def test_gamma_one_keeps_structural(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 1.0)
        npt.assert_allclose(out.values, 2 * struct.values - 1, rtol=1e-6)

    def test_blend(self):
        fused, struct = self._pair()
        out = simgraph.combine(fused, struct, 0.25)
        expect = 2 * (0.75 * fused.values + 0.25 * struct.values) - 1
        npt.assert_allclose(out.values, expect, atol=1e-6)

    def test_gamma_out_of_range(self):
        fused, struct = self._pair()
        with pytest.raises(ConfigError, match="gamma"):
            simgraph.combine(fused, struct, 1.5)


class TestBuildSemantic:
    def test_identical_rows_give_all_ones(self):
        f = np.tile(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), (5, 1))
        out = simgraph.build_semantic(f, f, ks=2, gamma=0.3)
        npt.assert_allclose(out.values, np.ones((5, 5)), atol=1e-6)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(10)
        for gamma in (0.0, 0.5, 1.0):
            fi = random_features(rng, 25, 6)
            ft = random_features(rng, 25, 4)
            out = simgraph.build_semantic(fi, ft, ks=5, gamma=gamma)
            out.validate()
            assert out.values.min() >= -1.0 - 1e-6
            assert out.values.max() <= 1.0 + 1e-6

    def test_matches_scalar_oracle_small(self):
        rng = np.random.default_rng(11)
        fi = random_features(rng, 30, 5)
        ft = random_features(rng, 30, 4)
        for gamma in (0.0, 0.3, 1.0):
            got = simgraph.build_semantic(fi, ft, ks=6, gamma=gamma).values
            expect = naive_semantic(fi, ft, ks=6, gamma=gamma)
            npt.assert_allclose(got, expect, atol=1e-5)

    def test_row_mismatch(self):
        with pytest.raises(DataError, match="row mismatch"):
            simgraph.build_semantic(np.ones((3, 2), dtype=np.float32),
                                    np.ones((4, 2), dtype=np.float32), 2, 0.3)

"""Objective terms: values against scalar loops, gradients against FD."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from assph import objective
from assph.config import TrainConfig
from assph.errors import ConfigError, DivergenceError
from oracles import central_difference, gradient_errors


def scalar_cosine(a, b):
    out = np.zeros((len(a), len(b)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dot = math.fsum(p * q for p, q in zip(x, y))
            nx = math.sqrt(math.fsum(p * p for p in x))
            ny = math.sqrt(math.fsum(q * q for q in y))
            out[i, j] = dot / (nx * ny)
    return out


def terms(hi, ht, s=None, r=None, beta=1.5):
    """total_loss_and_grads with zero S and R unless given."""
    m = len(hi)
    s = np.zeros((m, m)) if s is None else s
    r = np.zeros((m, m)) if r is None else r
    return objective.total_loss_and_grads(
        hi, ht, s, r, TrainConfig(beta=beta))


def objective_cosine(hi, ht, beta=1.5):
    """The cross-modal cosine matrix the objective uses, read back from the
    cp term one masked pair at a time: cp = (c_ij - beta)^2, c_ij <= beta."""
    m = len(hi)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            r = np.zeros((m, m))
            r[i, j] = 1.0
            out[i, j] = beta - math.sqrt(terms(hi, ht, r=r, beta=beta).cp)
    return out


class TestPairwiseCosine:
    """The cross-modal cosines inside the objective, read back through cp."""

    def test_orthonormal_identity(self):
        npt.assert_allclose(objective_cosine(np.eye(3), np.eye(3)),
                            np.eye(3), atol=1e-12)

    def test_orthogonal_rows(self):
        out = objective_cosine(np.array([[1.0, 0.0]]),
                               np.array([[0.0, 1.0]]))
        npt.assert_allclose(out, [[0.0]], atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal((5, 8))
        npt.assert_allclose(objective_cosine(a, b), scalar_cosine(a, b),
                            atol=1e-12)

    def test_zero_row_diverges(self):
        a = np.ones((3, 4))
        a[1] = 0.0
        with pytest.raises(DivergenceError, match="row 1"):
            terms(a, np.ones((3, 4)))
        with pytest.raises(DivergenceError, match="row 1"):
            terms(np.ones((3, 4)), a)


class TestLossValues:
    def test_sr_zero_when_cosines_equal_target(self):
        hi = np.eye(3) * 2.0  # orthonormal directions, scaled
        ht = np.eye(3) * 0.5
        s = np.eye(3)
        assert terms(hi, ht, s=s).sr == pytest.approx(0.0, abs=1e-20)

    def test_sr_single_pair(self):
        hi = np.array([[1.0, 0.0]])
        ht = np.array([[0.0, 1.0]])
        # C_it = 0, C_ii = C_tt = 1, target 1 -> only the cross term misses
        assert terms(hi, ht, s=np.array([[1.0]])).sr == pytest.approx(1.0)

    def test_sa_single_pair(self):
        hi = np.array([[1.0, 0.0]])
        ht = np.array([[0.0, 1.0]])
        # C_ii = C_tt = 1 agree; the two cross-vs-intra gaps are 1 each
        assert terms(hi, ht).sa == pytest.approx(2.0)

    def test_cp_single_pair(self):
        hi = np.array([[1.0, 0.0]])
        ht = np.array([[0.0, 1.0]])
        out = terms(hi, ht, r=np.array([[1.0]]), beta=1.5).cp
        assert out == pytest.approx(2.25)

    def test_cp_mask_is_elementwise(self):
        rng = np.random.default_rng(1)
        hi = rng.standard_normal((4, 6))
        ht = rng.standard_normal((4, 6))
        r = np.zeros((4, 4))
        assert terms(hi, ht, r=r).cp == 0.0
        r[2, 3] = 1.0
        c = scalar_cosine(hi, ht)
        assert terms(hi, ht, r=r).cp == pytest.approx((c[2, 3] - 1.5) ** 2)

    def test_total_worked_example(self):
        hi = np.array([[1.0, 0.0]])
        ht = np.array([[0.0, 1.0]])
        weights = TrainConfig(mu1=2.0, mu2=1.0, beta=1.5)
        out = objective.total_loss_and_grads(hi, ht, np.array([[1.0]]),
                                             np.array([[1.0]]), weights)
        assert out.sr == pytest.approx(1.0)
        assert out.sa == pytest.approx(2.0)
        assert out.cp == pytest.approx(2.25)
        assert out.total == pytest.approx(1.0 + 2.0 * 2.25 + 1.0 * 2.0)

    def test_terms_match_scalar_loops(self):
        rng = np.random.default_rng(2)
        hi = rng.standard_normal((6, 5))
        ht = rng.standard_normal((6, 5))
        s = np.clip(rng.standard_normal((6, 6)), -1, 1)
        s = (s + s.T) / 2
        r = (rng.random((6, 6)) < 0.4).astype(float)
        r = np.maximum(r, r.T)
        np.fill_diagonal(r, 1)
        weights = TrainConfig(mu1=1.7, mu2=0.6, beta=1.2)
        out = objective.total_loss_and_grads(hi, ht, s, r, weights)
        c_it = scalar_cosine(hi, ht)
        c_ii = scalar_cosine(hi, hi)
        c_tt = scalar_cosine(ht, ht)
        assert out.sr == pytest.approx(((s - c_it) ** 2).sum()
                                       + ((s - c_ii) ** 2).sum()
                                       + ((s - c_tt) ** 2).sum())
        assert out.sa == pytest.approx(((c_ii - c_tt) ** 2).sum()
                                       + ((c_it - c_ii) ** 2).sum()
                                       + ((c_it - c_tt) ** 2).sum())
        assert out.cp == pytest.approx((r * (c_it - 1.2) ** 2).sum())
        assert out.total == pytest.approx(
            out.sr + 1.7 * out.cp + 0.6 * out.sa)

    def test_loss_invariant_to_row_scaling(self):
        rng = np.random.default_rng(3)
        hi = rng.standard_normal((5, 4))
        ht = rng.standard_normal((5, 4))
        s = np.zeros((5, 5))
        r = np.eye(5)
        weights = TrainConfig()
        base = objective.total_loss_and_grads(hi, ht, s, r, weights).total
        scale = rng.uniform(0.5, 3.0, size=(5, 1))
        scaled = objective.total_loss_and_grads(hi * scale, ht, s, r,
                                                weights).total
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_loss_invariant_to_joint_permutation(self):
        rng = np.random.default_rng(4)
        hi = rng.standard_normal((6, 4))
        ht = rng.standard_normal((6, 4))
        s = rng.uniform(-1, 1, (6, 6))
        s = (s + s.T) / 2
        r = np.eye(6)
        weights = TrainConfig()
        base = objective.total_loss_and_grads(hi, ht, s, r, weights).total
        perm = rng.permutation(6)
        permuted = objective.total_loss_and_grads(
            hi[perm], ht[perm], s[np.ix_(perm, perm)],
            r[np.ix_(perm, perm)], weights).total
        assert permuted == pytest.approx(base, rel=1e-12)


class TestGradients:
    def test_matches_finite_differences_all_modes(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            hi = rng.standard_normal((3, 4))
            ht = rng.standard_normal((3, 4))
            s = np.clip((rng.random((3, 3)) - 0.5) * 2, -1, 1)
            s = (s + s.T) / 2
            r = np.eye(3)
            r[0, 2] = r[2, 0] = 1
            weights = TrainConfig(mu1=2.0, mu2=1.0, beta=1.5)
            out = objective.total_loss_and_grads(hi, ht, s, r, weights)

            def loss():
                return objective.total_loss_and_grads(hi, ht, s, r, weights).total

            fd = central_difference(loss, hi, step=1e-4)
            assert gradient_errors(out.grad_image, fd).max() <= 1e-4
            fd = central_difference(loss, ht, step=1e-4)
            assert gradient_errors(out.grad_text, fd).max() <= 1e-4

    def test_binary_codes_as_frozen_side(self):
        # the asymmetric phase feeds +-1 codes; the gradients must still match
        rng = np.random.default_rng(10)
        hi = rng.standard_normal((4, 6))
        b_t = np.where(rng.standard_normal((4, 6)) >= 0, 1.0, -1.0)
        s = np.zeros((4, 4))
        r = np.eye(4)
        weights = TrainConfig()
        out = objective.total_loss_and_grads(hi, b_t, s, r, weights)

        def loss():
            return objective.total_loss_and_grads(hi, b_t, s, r, weights).total

        fd = central_difference(loss, hi, step=1e-4)
        assert gradient_errors(out.grad_image, fd).max() <= 1e-4


class TestOneSidedGradients:
    """image_grad and text_grad, which the asymmetric updates call, return
    exactly the side total_loss_and_grads computes."""

    @staticmethod
    def _batch(rng, m, d=8):
        s = np.clip(rng.standard_normal((m, m)) * 0.5, -1, 1)
        r = (rng.random((m, m)) < 0.3).astype(float)
        weights = TrainConfig(mu1=0.7, mu2=0.3, beta=1.2)
        return (np.tanh(rng.standard_normal((m, d))),
                np.tanh(rng.standard_normal((m, d))), (s + s.T) / 2, r, weights)

    @staticmethod
    def _assert_sides_equal(hi, ht, s, r, weights):
        out = objective.total_loss_and_grads(hi, ht, s, r, weights)
        npt.assert_array_equal(objective.image_grad(hi, ht, s, r, weights),
                               out.grad_image)
        npt.assert_array_equal(objective.text_grad(hi, ht, s, r, weights),
                               out.grad_text)

    @pytest.mark.parametrize("m", [1, 2, 32])
    def test_random_batches(self, m):
        rng = np.random.default_rng(11 + m)
        for _ in range(3):
            self._assert_sides_equal(*self._batch(rng, m))

    @pytest.mark.parametrize("m", [1, 5, 32])
    def test_sign_code_batches(self, m):
        # the two asymmetric updates: one side is the other's sign codes
        rng = np.random.default_rng(21 + m)
        hi, ht, s, r, weights = self._batch(rng, m)
        b_i = np.where(hi >= 0, 1.0, -1.0)
        b_t = np.where(ht >= 0, 1.0, -1.0)
        for pair in ((hi, b_t), (b_i, ht), (b_i, b_t)):
            self._assert_sides_equal(*pair, s, r, weights)

    def test_checks_its_inputs(self):
        weights = TrainConfig()
        h = np.ones((3, 4))
        h[1] = 0.0
        with pytest.raises(DivergenceError, match="zero-norm row 1"):
            objective.text_grad(np.ones((3, 4)), h, np.zeros((3, 3)),
                                np.eye(3), weights)


class TestValidation:
    def test_bad_weights(self):
        with pytest.raises(ConfigError, match="beta"):
            TrainConfig(beta=0.5)
        with pytest.raises(ConfigError, match="mu1"):
            TrainConfig(mu1=-1.0)

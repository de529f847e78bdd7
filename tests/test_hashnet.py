"""Encoder networks: init, forward/backward, SGD, codes, and containers."""

import copy
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from assph import config, dataio, evalkit, hashnet, kernels
from assph.errors import ConfigError, DataError, DivergenceError
from oracles import central_difference, gradient_errors, naive_backward, naive_sgd_step


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = hashnet.init_params(6, 10, 4, seed=3)
        b = hashnet.init_params(6, 10, 4, seed=3)
        npt.assert_array_equal(a.w1, b.w1)
        npt.assert_array_equal(a.w2, b.w2)

    def test_seeds_differ(self):
        a = hashnet.init_params(6, 10, 4, seed=3)
        b = hashnet.init_params(6, 10, 4, seed=4)
        assert not np.array_equal(a.w1, b.w1)

    def test_biases_and_velocities_zero(self):
        p = hashnet.init_params(5, 8, 3, seed=0)
        v = hashnet.zeros_like(p)
        for arr in (p.b1, p.b2, v.w1, v.b1, v.w2, v.b2):
            npt.assert_array_equal(arr, 0.0)
        assert [a.shape for a in v.arrays()] == [a.shape for a in p.arrays()]

    def test_uniform_bounds(self):
        p = hashnet.init_params(40, 60, 30, seed=1)
        bound1 = np.sqrt(6.0 / (40 + 60))
        bound2 = np.sqrt(6.0 / (60 + 30))
        assert np.abs(p.w1).max() <= bound1
        assert np.abs(p.w2).max() <= bound2
        # the draw should actually fill the interval
        assert np.abs(p.w1).max() > 0.9 * bound1

    def test_bad_dims(self):
        # init_params trusts its dimensions: d_hidden and code_length are a
        # TrainConfig's, d_in a DatasetBundle's feature width
        with pytest.raises(ConfigError, match="d_hidden"):
            config.TrainConfig(d_hidden=0)
        with pytest.raises(ConfigError, match="code_length"):
            config.TrainConfig(code_length=0)
        with pytest.raises(DataError, match="non-empty"):
            dataio.DatasetBundle(np.ones((2, 0), dtype=np.float32),
                                 np.ones((2, 3), dtype=np.float32), None,
                                 dataio.Split(train=[0], query=[1], retrieval=[0]))


class TestForward:
    def test_zero_weights_give_zero_output(self):
        p = hashnet.HashNetParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)), b2=np.zeros(2))
        h = hashnet.forward(p, np.ones((5, 3)), eta=1.0).h
        npt.assert_array_equal(h, 0.0)

    def test_constant_bias_path(self):
        p = hashnet.HashNetParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)),
                                  b2=np.array([0.5, -0.25]))
        h = hashnet.forward(p, np.zeros((3, 3)), eta=2.0).h
        npt.assert_allclose(h, np.tile(np.tanh([1.0, -0.5]), (3, 1)))

    def test_output_in_open_interval(self):
        rng = np.random.default_rng(0)
        p = hashnet.init_params(6, 12, 8, seed=0)
        h = hashnet.forward(p, rng.standard_normal((30, 6)), eta=3.0).h
        assert np.abs(h).max() < 1.0

    def test_large_eta_saturates(self):
        rng = np.random.default_rng(1)
        p = hashnet.init_params(6, 12, 8, seed=1)
        h = hashnet.forward(p, rng.standard_normal((20, 6)), eta=1e3).h
        assert np.abs(h).min() > 0.99

    def test_abs_output_monotone_in_eta(self):
        rng = np.random.default_rng(2)
        p = hashnet.init_params(5, 9, 6, seed=2)
        x = rng.standard_normal((15, 5))
        prev = np.abs(hashnet.forward(p, x, eta=1.0).h)
        for eta in (2.0, 4.0, 8.0):
            cur = np.abs(hashnet.forward(p, x, eta=eta).h)
            assert (cur >= prev - 1e-12).all()
            prev = cur

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        p = hashnet.init_params(5, 7, 4, seed=3)
        x = rng.standard_normal((10, 5))
        perm = rng.permutation(10)
        npt.assert_allclose(hashnet.forward(p, x, 2.0).h[perm],
                            hashnet.forward(p, x[perm], 2.0).h)

    def test_bad_eta(self):
        p = hashnet.init_params(3, 4, 2, seed=0)
        with pytest.raises(ConfigError, match="eta"):
            hashnet.forward(p, np.ones((2, 3)), eta=0.0)

    def test_bad_input_width(self):
        p = hashnet.init_params(3, 4, 2, seed=0)
        with pytest.raises(DataError, match="incompatible"):
            hashnet.forward(p, np.ones((2, 5)), eta=1.0)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        p = hashnet.init_params(4, 6, 3, seed=5)
        acts = hashnet.forward(p, rng.standard_normal((7, 4)), 2.0)
        g = hashnet.backward(p, acts, np.zeros((7, 3)), hashnet.shared_grads(p)[0])
        for arr in (g.w1, g.b1, g.w2, g.b2):
            npt.assert_array_equal(arr, 0.0)

    def test_single_unit_closed_form(self):
        # one input, one hidden unit, one output: L = h => dL/db2 = eta*(1-h^2)
        p = hashnet.HashNetParams(w1=np.array([[1.0]]), b1=np.zeros(1),
                                  w2=np.array([[1.0]]), b2=np.array([0.3]))
        x = np.array([[0.7]])
        eta = 2.5
        acts = hashnet.forward(p, x, eta)
        g = hashnet.backward(p, acts, np.ones((1, 1)), hashnet.shared_grads(p)[0])
        h = acts.h
        npt.assert_allclose(g.b2, eta * (1 - h[0, 0] ** 2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = hashnet.init_params(4, 6, 3, seed=7)
        x = rng.standard_normal((5, 4))
        d_h = rng.standard_normal((5, 3))
        eta = 1.7
        grads = hashnet.backward(p, hashnet.forward(p, x, eta), d_h,
                                 hashnet.shared_grads(p)[0])

        def loss():
            return float((hashnet.forward(p, x, eta).h * d_h).sum())

        for analytic, arr in ((grads.w1, p.w1), (grads.b1, p.b1),
                              (grads.w2, p.w2), (grads.b2, p.b2)):
            numeric = central_difference(loss, arr, step=1e-3)
            errors = gradient_errors(analytic, numeric)
            assert errors.max() <= 1e-4


    def test_reuses_forward_activations_exactly(self):
        rng = np.random.default_rng(11)
        p = hashnet.init_params(6, 9, 5, seed=11)
        p.w1[2] = 0.0  # hidden unit 2 and input row 0 pre-activate to exactly 0
        p.b1[:] = np.where(np.arange(9) % 2, 0.1, 0.0)
        x = rng.standard_normal((8, 6))
        x[0] = 0.0
        d_h = rng.standard_normal((8, 5))
        assert ((x @ p.w1.T + p.b1) == 0.0).sum() >= 8
        acts = hashnet.forward(p, x, 1.3)
        expect = naive_backward(p, x, 1.3, d_h)
        fresh = hashnet.backward(p, acts, d_h, hashnet.shared_grads(p)[0])
        earlier = hashnet.backward(p, acts, rng.standard_normal((8, 5)),
                                   hashnet.shared_grads(p)[0])
        reused = hashnet.backward(p, acts, d_h, earlier)
        assert reused is earlier
        for grads in (fresh, reused):
            for name in ("w1", "b1", "w2", "b2"):
                npt.assert_array_equal(getattr(grads, name), expect[name])

    def test_shared_workspace_views(self):
        rng = np.random.default_rng(12)
        big = hashnet.init_params(6, 9, 5, seed=12)
        small = hashnet.init_params(4, 9, 5, seed=13)
        g_big, g_small = hashnet.shared_grads(big, small)
        names = ("w1", "b1", "w2", "b2")
        workspace = g_big.w1.base
        assert workspace.size == sum(getattr(big, n).size for n in names)
        for grads, p in ((g_big, big), (g_small, small)):
            for name in names:
                assert getattr(grads, name).shape == getattr(p, name).shape
                assert getattr(grads, name).base is workspace
        x, d_h = rng.standard_normal((8, 4)), rng.standard_normal((8, 5))
        acts = hashnet.forward(small, x, 1.3)
        fresh = hashnet.backward(small, acts, d_h, hashnet.shared_grads(small)[0])
        assert hashnet.backward(small, acts, d_h, g_small) is g_small
        for name in names:
            npt.assert_array_equal(getattr(g_small, name), getattr(fresh, name))


class TestSgdStep:
    def _unit_params(self):
        return hashnet.HashNetParams(w1=np.full((1, 1), 2.0), b1=np.full(1, 0.5),
                                     w2=np.full((1, 1), -1.0), b2=np.full(1, 0.25))

    def _zero_grads(self):
        return hashnet.zeros_like(self._unit_params())

    def test_zero_grad_zero_decay_is_identity(self):
        p = self._unit_params()
        hashnet.sgd_step(p, hashnet.zeros_like(p), self._zero_grads(), lr=0.1,
                         momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(p.w1, 2.0)
        npt.assert_allclose(p.b1, 0.5)

    def test_weight_decay_shrinks_weights_not_biases(self):
        p = self._unit_params()
        hashnet.sgd_step(p, hashnet.zeros_like(p), self._zero_grads(), lr=0.1,
                         momentum=0.0, weight_decay=0.5)
        npt.assert_allclose(p.w1, 2.0 - 0.1 * 0.5 * 2.0)
        npt.assert_allclose(p.w2, -1.0 - 0.1 * 0.5 * -1.0)
        npt.assert_allclose(p.b1, 0.5)
        npt.assert_allclose(p.b2, 0.25)

    def test_two_step_momentum_unroll(self):
        p = self._unit_params()
        v = hashnet.zeros_like(p)
        g = hashnet.HashNetParams(w1=np.full((1, 1), 1.0), b1=np.zeros(1),
                                  w2=np.zeros((1, 1)), b2=np.zeros(1))
        lr, mu = 0.1, 0.9
        # v1 = g, p1 = p0 - lr*g; v2 = mu*g + g, p2 = p1 - lr*v2
        hashnet.sgd_step(p, v, g, lr, mu, 0.0)
        npt.assert_allclose(p.w1, 2.0 - lr * 1.0)
        npt.assert_allclose(v.w1, 1.0)
        hashnet.sgd_step(p, v, g, lr, mu, 0.0)
        npt.assert_allclose(p.w1, 2.0 - lr * 1.0 - lr * (mu * 1.0 + 1.0))
        npt.assert_allclose(v.w1, mu * 1.0 + 1.0)

    def test_bad_hyperparams(self):
        # sgd_step trusts its settings: TrainConfig is their one check
        with pytest.raises(ConfigError, match="learning_rate"):
            config.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="momentum"):
            config.TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
        dict(weight_decay=float("nan")), dict(weight_decay=float("inf")),
        dict(momentum=float("nan")),
    ])
    def test_non_finite_hyperparams_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            config.TrainConfig(**kwargs)

    @staticmethod
    def _random_grads(rng, p):
        return hashnet.HashNetParams(*(rng.standard_normal(a.shape) for a in p.arrays()))

    @pytest.mark.parametrize("block, dims", [(7, (5, 9, 4)), (None, (300, 250, 3))])
    def test_blocks_match_whole_array_update(self, monkeypatch, block, dims):
        # (5, 9, 4): sizes 45, 9, 36, 4, none a multiple of 7;
        # (300, 250, 3): w1 has 75000 elements, past one default block
        if block is not None:
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
        rng = np.random.default_rng(12)
        p = hashnet.init_params(*dims, seed=12)
        v = hashnet.zeros_like(p)
        ref, ref_v = copy.deepcopy(p), copy.deepcopy(v)
        for _ in range(3):
            g = self._random_grads(rng, p)
            hashnet.sgd_step(p, v, g, 0.05, 0.9, 0.3)
            naive_sgd_step(ref, ref_v, vars(g), 0.05, 0.9, 0.3)
        for got, want in ((p, ref), (v, ref_v)):
            for a, b in zip(got.arrays(), want.arrays()):
                npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("name, value", [("w1", np.nan), ("b2", np.inf)])
    def test_non_finite_gradient_names_parameter(self, monkeypatch, name, value):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 7)
        rng = np.random.default_rng(13)
        p = hashnet.init_params(5, 9, 4, seed=13)
        g = self._random_grads(rng, p)
        getattr(g, name).flat[-1] = value  # w1's last block holds 3 elements
        with pytest.raises(DivergenceError,
                           match=f"^sgd_step: non-finite gradient for {name}$"):
            hashnet.sgd_step(p, hashnet.zeros_like(p), g, 0.05, 0.9, 0.3)

    def test_non_contiguous_parameters_update_in_place(self):
        w1 = np.arange(6.0).reshape(2, 3).T  # transposed view
        p = hashnet.HashNetParams(w1=w1, b1=np.zeros(3), w2=np.ones((1, 3)),
                                  b2=np.zeros(1))
        ref = copy.deepcopy(p)
        g = hashnet.HashNetParams(w1=np.ones((3, 2)), b1=np.ones(3),
                                  w2=np.ones((1, 3)), b2=np.ones(1))
        hashnet.sgd_step(p, hashnet.zeros_like(p), g, 0.1, 0.5, 0.2)
        naive_sgd_step(ref, hashnet.zeros_like(ref), vars(g), 0.1, 0.5, 0.2)
        npt.assert_array_equal(p.w1, ref.w1)


class TestSignCodes:
    def test_examples_and_zero_rule(self):
        h = np.array([[0.3, -0.7, 0.0], [-0.1, 0.9, -0.0]])
        npt.assert_array_equal(hashnet.sign_codes(h),
                               [[1, -1, 1], [-1, 1, 1]])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        codes = hashnet.sign_codes(rng.standard_normal((9, 5)))
        npt.assert_array_equal(hashnet.sign_codes(codes), codes)

    def test_scale_invariant(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((9, 5))
        npt.assert_array_equal(hashnet.sign_codes(h),
                               hashnet.sign_codes(7.3 * h))

    def test_dtype(self):
        assert hashnet.sign_codes(np.zeros((2, 2))).dtype == np.int8


class TestEncode:
    """encode gives the signs of forward's soft values at any eta."""

    @pytest.mark.parametrize("eta", [0.05, 1.0, 40.0])
    def test_signs_of_forward(self, eta):
        p = hashnet.init_params(7, 12, 9, seed=4)
        x = np.random.default_rng(6).standard_normal((30, 7)).astype(np.float32)
        codes = hashnet.encode(p, x)
        assert codes.dtype == np.int8
        npt.assert_array_equal(codes, hashnet.sign_codes(
            hashnet.forward(p, x, eta).h))

    def test_zero_weights_give_plus_one(self):
        p = hashnet.HashNetParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((5, 4)), b2=np.zeros(5))
        codes = hashnet.encode(p, -np.ones((6, 3), dtype=np.float32))
        npt.assert_array_equal(codes, np.ones((6, 5), dtype=np.int8))


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        p = hashnet.init_params(5, 8, 4, seed=9)
        path = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(p, path)
        q = hashnet.load_checkpoint(path)
        npt.assert_allclose(q.w1, p.w1, atol=1e-6)
        npt.assert_allclose(q.b2, p.b2, atol=1e-6)
        assert [a.dtype for a in q.arrays()] == [np.float64] * 4
        assert (q.d_in, q.d_hidden, q.code_length) == (5, 8, 4)

    def test_load_allocates_no_momentum(self, tmp_path):
        # the file's 4 B per parameter and the 8 B float64 copy, plus slack;
        # zero velocities would add 8 B per parameter more
        p = hashnet.init_params(300, 400, 64, seed=0)
        path = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(p, path)
        n = sum(arr.size for arr in (p.w1, p.b1, p.w2, p.b2))
        tracemalloc.start()
        try:
            q = hashnet.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.d_in == 300
        assert peak < 13 * n

    def test_save_converts_one_row_block_at_a_time(self, tmp_path):
        # w1's float32 copy would take 8 MiB; a block's, 4 bytes an entry
        p = hashnet.init_params(1024, 2048, 64, seed=0)
        path = str(tmp_path / "net.assp")
        tracemalloc.start()
        try:
            hashnet.save_checkpoint(p, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 4 * kernels.BLOCK_ENTRIES
        npt.assert_array_equal(hashnet.load_checkpoint(path).w1,
                               p.w1.astype(np.float32))

    def test_header_layout(self, tmp_path):
        p = hashnet.init_params(3, 4, 2, seed=0)
        path = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(p, path)
        raw = open(path, "rb").read()
        assert raw[:4] == b"ASSP"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 3, 4, 2]
        assert len(raw) == 20 + 4 * (4 * 3 + 4 + 2 * 4 + 2)

    @pytest.mark.parametrize("d_in, d_hidden, k", [(0, 4, 2), (3, 0, 4), (3, 4, 0)])
    def test_zero_dimension_rejected(self, tmp_path, d_in, d_hidden, k):
        p = hashnet.HashNetParams(w1=np.zeros((d_hidden, d_in)), b1=np.zeros(d_hidden),
                                  w2=np.zeros((k, d_hidden)), b2=np.zeros(k))
        path = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(p, path)
        with pytest.raises(DataError, match=f"bad dimensions {d_in}x{d_hidden}x{k}"):
            hashnet.load_checkpoint(path)


class TestCodesIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        codes = hashnet.sign_codes(rng.standard_normal((12, 6)))
        path = str(tmp_path / "codes.assb")
        hashnet.save_codes(codes, path)
        npt.assert_array_equal(hashnet.load_codes(path), codes)

    @pytest.mark.parametrize("bad", [
        np.array([[1, -128]], dtype=np.int8),  # abs(-128) wraps to -128
        np.array([[1, 2]]),
        np.array([[1.0, 0.5]]),
        np.array([[1.0, np.nan]]),
        np.array([[True, False]]),
        np.array([[1 + 0j, 1j]]),
        np.array([["1", "-1"]]),
    ], ids=["int8-min", "two", "half", "nan", "bool-false", "complex", "str"])
    def test_non_code_values_rejected(self, bad):
        # the one sign rule load_codes and evaluate_direction's code check apply
        assert not kernels.all_signs(bad)

    def test_bool_true_saves_as_plus_one(self, tmp_path):
        path = str(tmp_path / "c.assb")
        hashnet.save_codes(np.ones((2, 3), dtype=bool), path)
        npt.assert_array_equal(hashnet.load_codes(path), np.ones((2, 3), np.int8))

    @pytest.mark.parametrize("byte", [0x80, 0x02, 0x00])
    def test_payload_byte_other_than_code_rejected(self, tmp_path, byte):
        path = str(tmp_path / "c.assb")
        hashnet.save_codes(-np.ones((3, 4), dtype=np.int8), path)
        raw = bytearray(open(path, "rb").read())
        raw[-5] = byte
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(DataError, match="other than"):
            hashnet.load_codes(path)

    @staticmethod
    def _load(codes, path):
        with open(path, "wb") as fh:
            fh.write(b"ASSB" + np.array(codes.shape, dtype="<u4").tobytes())
            fh.write(codes.astype(np.int8).tobytes())
        hashnet.load_codes(path)

    @staticmethod
    def _check(codes, path):
        evalkit._check_codes(codes, "db codes")

    # a file holds int8 bytes, so load_codes never sees 1.5 or 1j
    @pytest.mark.parametrize("caller, entry, message", [
        pytest.param(caller, entry, message, id=f"{caller[1:]}-{name}")
        for caller, message, names in (
            ("_load", "codes contain values other than -1/\\+1",
             ("zero", "two", "int8-min")),
            ("_check", "db codes: code entries must be -1 or \\+1",
             ("zero", "two", "int8-min", "half", "complex")))
        for name, entry in zip(names, (0, 2, np.int8(-128), 1.5, 1j))
    ])
    def test_one_sign_rule(self, tmp_path, monkeypatch, caller, entry, message):
        # several check blocks, the bad entry in the last one
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 8)
        codes = np.ones((5, 4), dtype=np.result_type(np.int8, entry))
        codes[::2] = -1
        codes[-1, -1] = entry
        with pytest.raises(DataError, match=message):
            getattr(self, caller)(codes, str(tmp_path / "c.assb"))

    def test_corrupted_payload_rejected(self, tmp_path):
        path = str(tmp_path / "c.assb")
        hashnet.save_codes(np.ones((2, 2), dtype=np.int8), path)
        raw = bytearray(open(path, "rb").read())
        raw[-1] = 0
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(DataError, match="other than"):
            hashnet.load_codes(path)

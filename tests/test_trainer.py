"""Training loop: schedule, config plumbing, determinism, update order."""

import copy
import dataclasses
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from assph import config, corrmine, dataio, evalkit, hashnet, kernels, objective, trainer
from assph.errors import ConfigError, DivergenceError
from oracles import naive_backward, naive_sgd_step, to_dense, whole_matrix_semantic


@pytest.fixture(scope="module")
def bundle():
    cfg = dataio.SynthConfig(classes=3, instances=100, dim_image=16,
                             dim_text=12, noise_sigma=0.05, seed=1)
    return dataio.generate_synthetic(cfg)


def count_calls(monkeypatch, module, name):
    """A list that grows by one on each call of module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def small_config(**overrides):
    base = dict(code_length=16, epochs=3, batch_size=30, ks=15, kr=4,
                d_hidden=32, seed=5, learning_rate=3e-4)
    base.update(overrides)
    return config.TrainConfig(**base)


class TestEtaSchedule:
    def test_linear_ramp(self, bundle, monkeypatch):
        # every forward pass of epoch n runs at tanh sharpness n
        state = trainer.init_state(bundle, small_config(epochs=7))
        etas = []
        real = hashnet.forward

        def forward(params, x, eta):
            etas.append(eta)
            return real(params, x, eta)

        monkeypatch.setattr(hashnet, "forward", forward)
        for epoch in (1, 7):
            etas.clear()
            rec = trainer.train_epoch(state, epoch)
            assert rec.eta == float(epoch)
            assert etas and set(etas) == {float(epoch)}


class TestConfig:
    def test_round_trip(self):
        cfg = small_config(gamma=0.7, adaptive=False, pair_corr=True)
        assert config.TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config.TrainConfig.from_dict({"epochs": 3, "learning_rte": 0.1})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad config value"):
            config.TrainConfig.from_dict({"epochs": "many"})

    @pytest.mark.parametrize("key, value", [
        ("adaptive", "false"), ("adaptive", 0), ("epochs", 2.9),
        ("epochs", True), ("tau", True), ("gamma", False), ("seed", "1.5"),
        ("epochs", float("inf")),
    ])
    def test_value_of_wrong_kind_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"bad config value: {key}"):
            config.TrainConfig.from_dict({key: value})

    def test_whole_numbers_coerced(self):
        cfg = config.TrainConfig.from_dict({"epochs": 3.0, "gamma": 1,
                                             "adaptive": False})
        assert cfg.epochs == 3 and type(cfg.epochs) is int
        assert cfg.gamma == 1.0 and type(cfg.gamma) is float
        assert cfg.adaptive is False

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay",
                                     "gamma", "mu1", "beta"])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config.TrainConfig.from_dict({key: value})

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="gamma"):
            small_config(gamma=1.5)
        with pytest.raises(ConfigError, match="batch_size"):
            small_config(batch_size=0)
        with pytest.raises(ConfigError, match="momentum"):
            small_config(momentum=1.0)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            small_config(seed=-1)

    def test_checked_whenever_built(self):
        cfg = small_config()
        with pytest.raises(ConfigError, match="momentum"):
            dataclasses.replace(cfg, momentum=1.0)
        # frozen: no value changes after its check
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.gamma = 1.5

    def test_reference_profile_resolves(self):
        # the paper's hyperparameters are the defaults, which the one
        # profile names and leaves as they are
        from assph import cli
        args = cli.build_parser().parse_args(
            ["train", "--bundle", "b", "--out", "o", "--profile", "paper-default"])
        cfg = cli._resolve_config(args)
        assert cfg == config.TrainConfig()
        assert cfg.epochs == 50
        assert cfg.batch_size == 32
        assert cfg.d_hidden == 4096
        assert cfg.learning_rate == pytest.approx(0.001)
        assert cfg.beta == pytest.approx(1.5)


class TestInitState:
    def test_batch_size_exceeds_rows(self, bundle):
        with pytest.raises(ConfigError, match="batch_size"):
            trainer.init_state(bundle, small_config(batch_size=91))

    def test_no_corr_uses_identity_relation(self, bundle):
        state = trainer.init_state(bundle, small_config(mu1=0.0))
        m = state.features[0].shape[0]
        npt.assert_array_equal(to_dense(state.rel), np.eye(m))

    def test_no_struct_ignores_gamma(self, bundle):
        # gamma = 0 is the nostruct ablation: the fused cosine alone
        flat = trainer.init_state(bundle, small_config(gamma=0.0))
        full = trainer.init_state(bundle, small_config(gamma=0.7))
        assert not np.array_equal(flat.semantic, full.semantic)

    def test_pair_corr_relation(self, bundle):
        state = trainer.init_state(bundle, small_config(pair_corr=True))
        idx = np.asarray(bundle.split.train)
        from assph import simgraph
        sim_i = simgraph.cosine_matrix(bundle.image_features[idx])
        sim_t = simgraph.cosine_matrix(bundle.text_features[idx])
        expected = corrmine.init_correlations(sim_i, sim_t, 4, pairwise=True)
        npt.assert_array_equal(to_dense(state.rel), to_dense(expected))

    @pytest.mark.parametrize("overrides", [{}, {"mu1": 0.0}, {"pair_corr": True}])
    def test_each_cosine_computed_once(self, bundle, monkeypatch, overrides):
        from assph import simgraph
        calls = []
        real = simgraph.cosine_matrix

        def counted(features):
            calls.append(features.shape)
            return real(features)

        monkeypatch.setattr(simgraph, "cosine_matrix", counted)
        monkeypatch.setattr(corrmine, "cosine_matrix", counted)
        trainer.init_state(bundle, small_config(**overrides))
        assert calls == [(90, 16), (90, 12)]

    def test_targets_match_separate_cosines(self, bundle):
        from assph import simgraph
        cfg = small_config()
        idx = np.asarray(bundle.split.train)
        fi, ft = bundle.image_features[idx], bundle.text_features[idx]
        semantic, rel, _ = trainer.build_targets(fi, ft, cfg)
        cos_i = simgraph.cosine_matrix(fi)
        fused = simgraph.fuse(cos_i, simgraph.cosine_matrix(ft), out=cos_i)
        want = simgraph.build_semantic(fused, cfg.ks, cfg.gamma)
        npt.assert_array_equal(semantic, want)
        expected = corrmine.init_correlations(simgraph.cosine_matrix(fi),
                                              simgraph.cosine_matrix(ft),
                                              cfg.kr, cfg.tau)
        npt.assert_array_equal(rel.bits, expected.bits)

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("overrides", [{}, {"tau": 2}, {"pair_corr": True},
                                           {"mu1": 0.0}, {"gamma": 0.0},
                                           {"ks": 1}, {"ks": 300}])
    def test_targets_match_oracle_at_any_elementwise_block(self, monkeypatch,
                                                           rows, overrides):
        # elementwise blocks of 1 row, of 7 and of the size derived from M,
        # over 257 clustered rows: one selection block and one row more
        from assph import simgraph
        rng = np.random.default_rng(27)
        m = kernels.BLOCK_ROWS + 1
        if rows is not None:
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * m)
        centers = rng.standard_normal((4, 20)) * 4.0
        fi = (centers[np.arange(m) % 4]
              + 0.05 * rng.standard_normal((m, 20))).astype(np.float32)
        ft = rng.standard_normal((m, 9)).astype(np.float32)
        cfg = small_config(**{"ks": m // 3, "kr": 8, "gamma": 0.3, **overrides})
        cos_i = simgraph.cosine_matrix(fi)
        fused = simgraph.fuse(cos_i, simgraph.cosine_matrix(ft), out=cos_i)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # ks > m clamps
            semantic, rel, _ = trainer.build_targets(fi, ft, cfg)
            separate = simgraph.build_semantic(fused, cfg.ks, cfg.gamma)
            want = whole_matrix_semantic(fi, ft, cfg.ks, cfg.gamma)
        npt.assert_array_equal(semantic.view(np.uint32), want.view(np.uint32))
        npt.assert_array_equal(semantic.view(np.uint32), separate.view(np.uint32))
        si, st = simgraph.cosine_matrix(fi), simgraph.cosine_matrix(ft)
        if cfg.mu1 > 0:
            expected = corrmine.init_correlations(si, st, cfg.kr, cfg.tau, cfg.pair_corr)
        else:
            expected = corrmine.CorrelationSet.identity(m)
        npt.assert_array_equal(rel.bits, expected.bits)

    def test_targets_peak_memory_below_21_bytes_per_pair(self):
        # the text cosine is freed before structural holds W and W @ W.T
        # beside the fusion: 4 + 8 + 8 bytes per pair at most
        m = 1000
        rng = np.random.default_rng(18)
        fi = rng.standard_normal((m, 16)).astype(np.float32)
        ft = rng.standard_normal((m, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            trainer.build_targets(fi, ft, small_config(ks=100, kr=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21 * m * m + (1 << 20), peak

    def test_initial_codes_shape(self, bundle):
        state = trainer.init_state(bundle, small_config())
        assert [c.shape for c in state.codes] == [(90, 16), (90, 16)]


class TestTrainEpoch:
    def test_one_training_row_is_no_collapse(self):
        # one row always has one code; only two or more rows can collapse
        one = dataio.generate_synthetic(dataio.SynthConfig(
            classes=3, instances=40, dim_image=8, dim_text=6, seed=1, train_size=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # ks clamps to 1
            res = trainer.train(one, small_config(epochs=2, batch_size=1))
        assert len(res.history) == 2

    def test_iteration_count_drops_partial_batch(self, bundle):
        # at learning rate 3e-4 batches of 40 collapse the image codes
        res = trainer.train(bundle, small_config(epochs=1, batch_size=30,
                                                 learning_rate=1e-4))
        assert res.history[0].iterations == 3
        res = trainer.train(bundle, small_config(epochs=1, batch_size=40,
                                                 learning_rate=1e-4))
        assert res.history[0].iterations == 2

    def test_epoch_numbering_and_eta(self, bundle):
        res = trainer.train(bundle, small_config(epochs=3))
        assert [r.epoch for r in res.history] == [1, 2, 3]
        assert [r.eta for r in res.history] == [1.0, 2.0, 3.0]

    @staticmethod
    def record_updates(state, monkeypatch):
        """Spy on backward and sgd_step: "bi" is an image backward, "st" a
        text step, and so on."""
        order = []
        real_backward, real_step = hashnet.backward, hashnet.sgd_step

        def side(params):
            return "i" if params is state.params[0] else "t"

        def backward(params, acts, d_h, grads):
            order.append("b" + side(params))
            return real_backward(params, acts, d_h, grads)

        def step(params, velocity, grads, lr, momentum, weight_decay):
            order.append("s" + side(params))
            return real_step(params, velocity, grads, lr, momentum, weight_decay)

        monkeypatch.setattr(hashnet, "backward", backward)
        monkeypatch.setattr(hashnet, "sgd_step", step)
        return order

    # both sides' gradients share one workspace, so each side is stepped
    # before the other side's backward overwrites it

    def test_update_order_with_binary_refinement(self, bundle, monkeypatch):
        state = trainer.init_state(bundle, small_config(epochs=1))
        order = self.record_updates(state, monkeypatch)
        rec = trainer.train_epoch(state, 1)
        # symmetric update then image-vs-binary then text-vs-binary
        assert order == ["bi", "si", "bt", "st"] * 2 * rec.iterations

    def test_update_order_without_binary_refinement(self, bundle, monkeypatch):
        state = trainer.init_state(bundle, small_config(epochs=1, bin_opt=False))
        order = self.record_updates(state, monkeypatch)
        rec = trainer.train_epoch(state, 1)
        assert order == ["bi", "si", "bt", "st"] * rec.iterations

    def test_epoch_holds_one_gradient_workspace(self):
        # 512/256-d features and 512 hidden units: the image encoder's
        # gradients dominate.  With both encoders' gradients and a float64
        # copy of the features the peak was 2.2 times them; one workspace
        # sized for the image encoder and float32 features hold it near 1.5
        wide = dataio.generate_synthetic(dataio.SynthConfig(
            classes=3, instances=200, dim_image=512, dim_text=256,
            noise_sigma=0.05, seed=1))
        # at learning rates from 1e-4 up the codes collapse onto one (an error)
        state = trainer.init_state(wide, small_config(epochs=1, d_hidden=512,
                                                      learning_rate=3e-5))
        assert [f.dtype for f in state.features] == [np.float32, np.float32]
        p = state.params[0]
        grad_bytes = p.w1.nbytes + p.b1.nbytes + p.w2.nbytes + p.b2.nbytes
        tracemalloc.start()
        try:
            trainer.train_epoch(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * grad_bytes, peak / grad_bytes

    def test_end_pass_holds_one_side_at_a_time(self):
        # many rows against a small network, so the end-of-epoch pass sets
        # the peak.  Each side's float64 input copy and hidden layer are
        # dropped once its soft codes are taken: near 1.3 times one side's,
        # and 2.4 when both sides' activations are alive at once
        dim = 256
        tall = dataio.generate_synthetic(dataio.SynthConfig(
            classes=3, instances=1500, dim_image=dim, dim_text=dim,
            noise_sigma=0.05, seed=1))
        # at learning rate 3e-4 the codes collapse onto one (an error)
        state = trainer.init_state(tall, small_config(epochs=1, adaptive=False,
                                                      learning_rate=1e-4))
        one_side = 8 * len(state.features[0]) * (dim + state.cfg.d_hidden)
        tracemalloc.start()
        try:
            trainer.train_epoch(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * one_side, peak / one_side


def reference_batches(state, epoch):
    """train_epoch's batches with a recomputing backward and whole-array SGD;
    the tanh sharpness is the epoch."""
    cfg = state.cfg
    fi, ft = state.features
    pi, pt = state.params
    vi, vt = state.velocity
    m = cfg.batch_size
    perm = state.rng.permutation(fi.shape[0])

    def step(params, velocity, x, d_h):
        naive_sgd_step(params, velocity,
                       naive_backward(params, x, epoch, d_h),
                       cfg.learning_rate, cfg.momentum, cfg.weight_decay)

    for it in range(fi.shape[0] // m):
        idx = perm[it * m:(it + 1) * m]
        xi, xt = fi[idx], ft[idx]
        s_b = state.semantic[np.ix_(idx, idx)].astype(np.float64)
        r_b = state.rel.batch(idx)
        hi = hashnet.forward(pi, xi, epoch).h
        ht = hashnet.forward(pt, xt, epoch).h
        out = objective.total_loss_and_grads(hi, ht, s_b, r_b, cfg)
        step(pi, vi, xi, out.grad_image)  # both gradients read pre-update weights
        step(pt, vt, xt, out.grad_text)
        if cfg.bin_opt:
            hi = hashnet.forward(pi, xi, epoch).h
            ht = hashnet.forward(pt, xt, epoch).h
            b_i = hashnet.sign_codes(hi).astype(np.float64)
            b_t = hashnet.sign_codes(ht).astype(np.float64)
            step(pi, vi, xi, objective.total_loss_and_grads(
                hi, b_t, s_b, r_b, cfg).grad_image)
            step(pt, vt, xt, objective.total_loss_and_grads(
                b_i, ht, s_b, r_b, cfg).grad_text)


class TestEpochExactness:
    @pytest.mark.parametrize("bin_opt", [True, False])
    def test_epoch_matches_recomputing_reference(self, bundle, bin_opt):
        cfg = small_config(bin_opt=bin_opt, weight_decay=0.01)
        state = trainer.init_state(bundle, cfg)
        ref = copy.deepcopy(state)
        for epoch in (1, 2):
            trainer.train_epoch(state, epoch)
            reference_batches(ref, epoch)
            ref.rel = state.rel  # the reference mines nothing
            for record in ("params", "velocity"):
                for got, want in zip(getattr(state, record), getattr(ref, record)):
                    for a, b in zip(got.arrays(), want.arrays()):
                        npt.assert_array_equal(a, b)


class TestTrain:
    def test_deterministic_given_seed(self, bundle):
        cfg = small_config(epochs=2)
        a = trainer.train(bundle, cfg)
        b = trainer.train(bundle, small_config(epochs=2))
        npt.assert_array_equal(a.params[0].w1, b.params[0].w1)
        npt.assert_array_equal(a.params[1].w2, b.params[1].w2)
        npt.assert_array_equal(a.rel.bits, b.rel.bits)
        for ra, rb in zip(a.history, b.history):
            da, db = ra.to_dict(), rb.to_dict()
            da.pop("wall_time"), db.pop("wall_time")
            assert da == db

    def test_seed_changes_run(self, bundle):
        a = trainer.train(bundle, small_config(epochs=1))
        b = trainer.train(bundle, small_config(epochs=1, seed=6))
        assert not np.array_equal(a.params[0].w1, b.params[0].w1)

    def test_adaptive_growth_monotone(self, bundle, monkeypatch):
        updates = count_calls(monkeypatch, corrmine, "adaptive_update")
        res = trainer.train(bundle, small_config(epochs=4))
        pops = [r.r_popcount for r in res.history]
        assert all(b >= a for a, b in zip(pops, pops[1:]))
        assert len(updates) == 4  # re-mined every epoch

    def test_no_adapt_keeps_relation_fixed(self, bundle, monkeypatch):
        cfg = small_config(epochs=3, adaptive=False)
        state = trainer.init_state(bundle, cfg)
        pop0 = corrmine.correlation_stats(state.rel, None)["count"]
        updates = count_calls(monkeypatch, corrmine, "adaptive_update")
        res = trainer.train(bundle, cfg)
        assert [r.r_popcount for r in res.history] == [pop0] * 3
        assert not updates

    def test_pair_corr_never_counts_shared_neighbors(self, bundle, monkeypatch):
        calls = count_calls(monkeypatch, corrmine, "second_order")
        trainer.train(bundle, small_config(epochs=2, pair_corr=True))
        assert calls == []
        trainer.train(bundle, small_config(epochs=2))
        assert len(calls) > 0

    def test_loss_decreases_on_easy_data(self, bundle):
        cfg = small_config(epochs=8, adaptive=False)
        state = trainer.init_state(bundle, cfg)
        m = state.features[0].shape[0]
        r_full = state.rel.batch(np.arange(m))
        semantic = state.semantic.astype(np.float64)

        def full_loss(params_image, params_text):
            hi = hashnet.forward(params_image, state.features[0], cfg.epochs).h
            ht = hashnet.forward(params_text, state.features[1], cfg.epochs).h
            return objective.total_loss_and_grads(
                hi, ht, semantic, r_full, cfg).total

        before = full_loss(*state.params)
        res = trainer.train(bundle, cfg)
        after = full_loss(*res.params)
        assert after < before
        assert res.history[-1].loss_total < res.history[0].loss_total

    def test_codes_become_discriminative(self, bundle):
        cfg = small_config(epochs=8, adaptive=False)
        res = trainer.train(bundle, cfg)
        idx = np.asarray(bundle.split.train)
        labels = bundle.labels[idx]
        fi = bundle.image_features[idx].astype(np.float64)
        ft = bundle.text_features[idx].astype(np.float64)
        ci = hashnet.encode(res.params[0], fi)
        ct = hashnet.encode(res.params[1], ft)
        score = evalkit.evaluate_direction("I2T", ci, ct, labels, labels).map_all
        assert score > 0.85

    def test_divergence_raises(self, bundle):
        cfg = small_config(epochs=5, learning_rate=1e308)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="non-finite"):
                trainer.train(bundle, cfg)

    def test_precision_tracked_with_labels(self, bundle):
        res = trainer.train(bundle, small_config(epochs=1))
        assert res.history[0].r_precision is not None
        assert 0.0 <= res.history[0].r_precision <= 1.0

    def test_code_flip_counters_settle(self, bundle):
        res = trainer.train(bundle, small_config(epochs=8, adaptive=False))
        first, last = res.history[0], res.history[-1]
        total_bits = 90 * 16
        assert 0 <= first.code_flips_image <= total_bits
        # once training settles, far fewer bits flip than at the start
        assert last.code_flips_image + last.code_flips_text < \
            first.code_flips_image + first.code_flips_text

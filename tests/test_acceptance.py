"""Acceptance suite: one test per shipped guarantee, one verdict line each.

The synthetic efficacy and ablation checks share a single block of
training runs, trainer.ablate over the six config.VARIANTS for each of
three seeds, through a module fixture; its wall time is charged to the
efficacy budget.
"""

import json
import os
import time

import numpy as np
import pytest

from assph import cli, config, corrmine, dataio, evalkit, hashnet, objective, simgraph, trainer
from oracles import (central_difference, code_distances, naive_average_precision,
                     naive_combine, naive_pipeline_stages, naive_rank, naive_relation,
                     naive_relevance, to_dense)

GEOMETRY = dict(classes=5, instances=2000, dim_image=24, dim_text=48,
                label_cardinality=0.5, noise_sigma=0.45, seed=100)
SCALED = dict(code_length=32, ks=400, kr=10, epochs=25,
              learning_rate=1e-4, d_hidden=256)
SEEDS = (0, 1, 2)


def _verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def _efficacy_bundle() -> dataio.DatasetBundle:
    gen = dataio.generate_synthetic(dataio.SynthConfig(**GEOMETRY))
    perm = np.random.default_rng(100).permutation(GEOMETRY["instances"])
    split = dataio.Split(train=np.sort(perm[:1000]),
                         query=np.sort(perm[1000:1200]),
                         retrieval=np.sort(perm[1200:2000]))
    return dataio.DatasetBundle(gen.image_features, gen.text_features,
                                gen.labels, split)


@pytest.fixture(scope="module")
def ablation_suite():
    bundle = _efficacy_bundle()
    t0 = time.perf_counter()
    runs = {name: [] for name in config.VARIANTS}
    for seed in SEEDS:
        cfg = config.TrainConfig.from_dict({**SCALED, "seed": seed})
        scored = trainer.ablate(bundle, cfg, list(runs))
        for rows, (_, history, _, reports) in zip(runs.values(), scored):
            i2t, t2i = reports["I2T"].map_all, reports["T2I"].map_all
            rows.append({"i2t": i2t, "t2i": t2i, "mean": (i2t + t2i) / 2,
                         "history": history})
    return {"bundle": bundle, "runs": runs,
            "elapsed": time.perf_counter() - t0}


class TestGradients:
    def test_full_chain_matches_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        weights = config.TrainConfig(mu1=2.0, mu2=1.0, beta=1.5)
        worst_rel = 0.0
        tiny_ok = True
        for case in range(20):
            # the named side is replaced by its detached sign codes, a constant
            constant = ("none", "image", "text")[case % 3]
            m = int(rng.integers(2, 5))
            xi = rng.standard_normal((m, 8))
            xt = rng.standard_normal((m, 8))
            s = np.clip(rng.uniform(-1, 1, (m, m)), -1, 1)
            s = (s + s.T) / 2
            r = (rng.random((m, m)) < 0.5).astype(float)
            r = np.maximum(r, r.T)
            np.fill_diagonal(r, 1.0)
            eta = float(rng.uniform(0.5, 3.0))
            pi = hashnet.init_params(8, 16, 8, seed=case)
            pt = hashnet.init_params(8, 16, 8, seed=100 + case)

            if constant == "text":
                const_t = hashnet.sign_codes(
                    hashnet.forward(pt, xt, eta).h).astype(np.float64)
            if constant == "image":
                const_i = hashnet.sign_codes(
                    hashnet.forward(pi, xi, eta).h).astype(np.float64)

            def loss():
                hi = (const_i if constant == "image"
                      else hashnet.forward(pi, xi, eta).h)
                ht = (const_t if constant == "text"
                      else hashnet.forward(pt, xt, eta).h)
                return objective.total_loss_and_grads(hi, ht, s, r, weights).total

            acts_i = hashnet.forward(pi, xi, eta)
            acts_t = hashnet.forward(pt, xt, eta)
            hi = const_i if constant == "image" else acts_i.h
            ht = const_t if constant == "text" else acts_t.h
            out = objective.total_loss_and_grads(hi, ht, s, r, weights)
            checks = []
            if constant != "image":
                gi = hashnet.backward(pi, acts_i, out.grad_image,
                                      hashnet.shared_grads(pi)[0])
                checks += [(pi.w1, gi.w1), (pi.b1, gi.b1),
                           (pi.w2, gi.w2), (pi.b2, gi.b2)]
            if constant != "text":
                gt = hashnet.backward(pt, acts_t, out.grad_text,
                                      hashnet.shared_grads(pt)[0])
                checks += [(pt.w1, gt.w1), (pt.b1, gt.b1),
                           (pt.w2, gt.w2), (pt.b2, gt.b2)]
            for arr, analytic in checks:
                numeric = central_difference(loss, arr, step=1e-5)
                a, n = analytic.ravel(), numeric.ravel()
                both_tiny = (np.abs(a) < 1e-8) & (np.abs(n) < 1e-8)
                if both_tiny.any():
                    tiny_ok &= bool(
                        (np.abs(a - n)[both_tiny] <= 1e-8).all())
                live = ~both_tiny
                if live.any():
                    rel = (np.abs(a - n)[live]
                           / np.maximum(np.abs(a), np.abs(n))[live])
                    worst_rel = max(worst_rel, float(rel.max()))
        elapsed = time.perf_counter() - t0
        ok = worst_rel <= 1e-4 and tiny_ok and elapsed < 10.0
        _verdict(ok, "network gradients match finite differences",
                 f"max rel err {worst_rel:.2e}, tiny entries ok={tiny_ok}, "
                 f"{elapsed:.1f}s of 10s")


class TestSimilarityOracle:
    def test_pipeline_matches_scalar_reference(self):
        t0 = time.perf_counter()
        max_gap = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            fi = rng.standard_normal((200, 10)).astype(np.float32)
            ft = rng.standard_normal((200, 8)).astype(np.float32)
            fused, struct = naive_pipeline_stages(fi, ft, 40)
            for gamma in (0.0, 0.3, 1.0):
                cos_i = simgraph.cosine_matrix(fi)
                got = simgraph.build_semantic(
                    simgraph.fuse(cos_i, simgraph.cosine_matrix(ft), out=cos_i),
                    40, gamma)
                want = naive_combine(fused, struct, gamma)
                max_gap = max(max_gap, float(np.abs(got - want).max()))
        elapsed = time.perf_counter() - t0
        ok = max_gap <= 1e-5 and elapsed < 30.0
        _verdict(ok, "similarity pipeline matches scalar reference",
                 f"max gap {max_gap:.2e} over 5 seeds x 3 gammas, "
                 f"{elapsed:.1f}s of 30s")


class TestMiningOracle:
    def test_correlations_match_set_reference(self):
        t0 = time.perf_counter()
        identical = True
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            fi = rng.standard_normal((50, 8)).astype(np.float32)
            ft = rng.standard_normal((50, 6)).astype(np.float32)
            kr = (5, 7, 10)[seed % 3]
            tau = 1 + seed % 2
            sim_i = simgraph.cosine_matrix(fi)
            sim_t = simgraph.cosine_matrix(ft)
            got = to_dense(corrmine.init_correlations(sim_i, sim_t, kr, tau))
            want = naive_relation(sim_i, sim_t, kr, tau)
            identical &= bool(np.array_equal(got, want))
        elapsed = time.perf_counter() - t0
        ok = identical and elapsed < 5.0
        _verdict(ok, "correlation mining matches set reference",
                 f"bit-identical over 10 seeds={identical}, "
                 f"{elapsed:.1f}s of 5s")


class TestEvaluationExactness:
    def test_map_matches_brute_force(self):
        t0 = time.perf_counter()
        max_gap = 0.0
        rng = np.random.default_rng(3)
        for _ in range(100):
            nq = int(rng.integers(3, 8))
            nd = int(rng.integers(10, 80))
            qc = np.where(rng.standard_normal((nq, 8)) >= 0, 1, -1)
            dc = np.where(rng.standard_normal((nd, 8)) >= 0, 1, -1)
            ql = (rng.random((nq, 3)) < 0.5).astype(np.int8)
            ql[ql.sum(axis=1) == 0, 0] = 1
            dl = (rng.random((nd, 3)) < 0.5).astype(np.int8)
            dl[dl.sum(axis=1) == 0, 0] = 1
            rel = naive_relevance(ql, dl)
            orders = naive_rank(qc, dc)
            report = evalkit.evaluate_direction("I2T", qc, dc, ql, dl, [50])
            for cutoff, got in ((None, report.map_all), (50, report.map_at[50])):
                want = float(np.mean([
                    naive_average_precision(rel[qi][orders[qi]], cutoff)
                    for qi in range(nq)]))
                max_gap = max(max_gap, abs(got - want))

        axioms = True
        for _ in range(10_000):
            abc = np.where(rng.standard_normal((3, 16)) >= 0, 1, -1)
            dist = code_distances(abc, abc).astype(int)  # rows a, b, c
            axioms &= dist[0, 1] == dist[1, 0]
            axioms &= dist[0, 0] == 0
            axioms &= dist[0, 1] <= dist[0, 2] + dist[2, 1]
            axioms &= 0 <= dist[0, 1] <= 16
        elapsed = time.perf_counter() - t0
        ok = max_gap <= 1e-9 and axioms and elapsed < 5.0
        _verdict(ok, "evaluation metrics exact",
                 f"max MAP gap {max_gap:.1e} over 100 fixtures, "
                 f"metric axioms={axioms}, {elapsed:.1f}s of 5s")


class TestDeterminism:
    def test_repeated_cli_runs_are_byte_identical(self, tmp_path):
        data = str(tmp_path / "data")
        assert cli.dispatch(["synth", "--out", data, "--classes", "3",
                             "--instances", "120", "--dim-image", "10",
                             "--dim-text", "8", "--noise-sigma", "0.3",
                             "--seed", "5"]) == 0
        flags = ["--code-length", "16", "--epochs", "3", "--batch-size", "24",
                 "--ks", "20", "--kr", "5", "--d-hidden", "32",
                 "--learning-rate", "1e-4", "--seed", "0"]
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.dispatch(["train", "--bundle", data, "--out", out_a]
                            + flags) == 0
        assert cli.dispatch(["train", "--bundle", data, "--out", out_b]
                            + flags) == 0
        artifacts = ["imgnet.assp", "txtnet.assp", "query_image.assb",
                     "query_text.assb", "db_image.assb", "db_text.assb",
                     "eval_i2t.json", "eval_t2i.json"]
        same = all(
            open(os.path.join(out_a, n), "rb").read()
            == open(os.path.join(out_b, n), "rb").read()
            for n in artifacts)
        _verdict(same, "repeated training runs are byte-identical",
                 f"{len(artifacts)} artifacts compared")


class TestSaturation:
    def test_magnitude_monotone_in_schedule(self):
        rng = np.random.default_rng(1)
        params = hashnet.init_params(12, 16, 8, seed=1)
        x = rng.standard_normal((20, 12))
        means = [float(np.abs(hashnet.forward(params, x, float(e)).h).mean())
                 for e in range(1, 51)]
        diffs = np.diff(means)
        ok = bool((diffs >= -1e-12).all())
        _verdict(ok, "code magnitude non-decreasing over sharpness schedule",
                 f"min step {diffs.min():.2e} across 50 schedule points")

    def test_codes_freeze_on_converged_run(self):
        cfg_d = dataio.SynthConfig(classes=3, instances=500, dim_image=16,
                                   dim_text=12, label_cardinality=0.5,
                                   noise_sigma=0.05, seed=9)
        bundle = dataio.generate_synthetic(cfg_d)
        result = trainer.train(bundle, config.TrainConfig(
            code_length=16, ks=50, kr=8, epochs=50, seed=0, learning_rate=1e-4,
            d_hidden=64))
        tail = result.history[-5:]
        flips = sum(r.code_flips_image + r.code_flips_text for r in tail)
        _verdict(flips == 0, "sign codes stable over final schedule steps",
                 f"{flips} bit flips across last 5 of 50 epochs")


class TestAdaptiveGrowth:
    def test_relation_growth_monotone_and_settling(self, ablation_suite):
        runs = ablation_suite["runs"]
        monotone = True
        settled = True
        worst_growth = 0.0
        for row in runs["full"]:
            pops = [rec.r_popcount for rec in row["history"]]
            monotone &= all(b >= a for a, b in zip(pops, pops[1:]))
            growth = (pops[-1] - pops[-2]) / pops[-1]
            worst_growth = max(worst_growth, growth)
            settled &= growth < 0.01
        constant = all(
            len({rec.r_popcount for rec in row["history"]}) == 1
            for row in runs["noadapt"])
        ok = monotone and settled and constant
        _verdict(ok, "correlation set grows monotonically and settles",
                 f"monotone={monotone}, final growth "
                 f"{100 * worst_growth:.2f}% < 1%, fixed when disabled="
                 f"{constant}")


class TestSyntheticEfficacy:
    def test_beats_random_codes_and_uncorrelated_variant(self, ablation_suite):
        bundle = ablation_suite["bundle"]
        runs = ablation_suite["runs"]
        q, r = bundle.split.query, bundle.split.retrieval
        ql, dl = bundle.labels[q], bundle.labels[r]
        rng = np.random.default_rng(7)
        base = []
        for _ in range(10):
            qc = np.where(rng.standard_normal((len(q), 32)) >= 0, 1, -1)
            dc = np.where(rng.standard_normal((len(r), 32)) >= 0, 1, -1)
            base.append(evalkit.evaluate_direction("I2T", qc, dc, ql, dl).map_all)
        bar = float(np.mean(base) + 3.0 * np.std(base))

        mean_i2t = float(np.mean([row["i2t"] for row in runs["full"]]))
        mean_t2i = float(np.mean([row["t2i"] for row in runs["full"]]))
        full_mean = float(np.mean([row["mean"] for row in runs["full"]]))
        nocorr_mean = float(np.mean([row["mean"] for row in runs["nocorr"]]))
        elapsed = ablation_suite["elapsed"]
        ok = (mean_i2t > bar and mean_t2i > bar
              and full_mean > nocorr_mean and elapsed < 600.0)
        _verdict(ok, "synthetic training beats random codes",
                 f"I2T {mean_i2t:.4f} / T2I {mean_t2i:.4f} vs bar {bar:.4f}; "
                 f"full {full_mean:.4f} > uncorrelated {nocorr_mean:.4f}; "
                 f"{elapsed:.0f}s of 600s for all runs")


class TestAblationOrdering:
    def test_full_method_dominates_its_ablations(self, ablation_suite):
        runs = ablation_suite["runs"]
        means = {name: float(np.mean([row["mean"] for row in rows]))
                 for name, rows in runs.items()}
        full = means["full"]
        dominated = {name: full >= means[name]
                     for name in ("noadapt", "paircorr", "nocorr", "nostruct")}
        nobin_rows = [row["mean"] for row in runs["nobinopt"]]
        nobin_slack = float(np.std(nobin_rows))
        nobin_ok = full >= means["nobinopt"] - nobin_slack
        ok = all(dominated.values()) and nobin_ok
        detail = ", ".join(f"{n} {means[n]:.4f}" for n in means)
        _verdict(ok, "ablation ordering holds",
                 f"{detail}; margins "
                 + ", ".join(f"{n}:{full - means[n]:+.4f}" for n in dominated)
                 + f"; refinement slack {nobin_slack:.4f}")

"""Command-line surface: file layouts, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from assph import cli, dataio, hashnet, kernels, trainer
from assph.config import SynthConfig, TrainConfig
from golden import regenerate
from oracles import relation_from_dense, to_dense

TRAIN_FLAGS = ["--code-length", "8", "--epochs", "2", "--batch-size", "24",
               "--ks", "12", "--kr", "4", "--d-hidden", "16",
               "--learning-rate", "0.0003", "--seed", "3"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("synth"))
    code = cli.dispatch(["synth", "--out", out, "--classes", "3",
                         "--instances", "80", "--dim-image", "12",
                         "--dim-text", "10", "--noise-sigma", "0.05",
                         "--seed", "1"])
    assert code == 0
    # centred per column, as golden/regenerate.py::write_bundle centres its
    # bundle, so the toy runs keep more than one code a side
    for name in ("image.assf", "text.assf"):
        path = os.path.join(out, name)
        f = dataio.load_features(path).astype(np.float64)
        dataio.write_features((f - f.mean(axis=0)).astype(np.float32), path)
    return out


@pytest.fixture(scope="module")
def train_dir(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train"))
    code = cli.dispatch(["train", "--bundle", data_dir, "--out", out]
                        + TRAIN_FLAGS)
    assert code == 0
    return out


class TestSynth:
    def test_writes_bundle_and_manifest(self, data_dir):
        for name in ("bundle.json", "image.assf", "text.assf", "labels.csv",
                     "manifest.json"):
            assert os.path.exists(os.path.join(data_dir, name)), name
        manifest = json.load(open(os.path.join(data_dir, "manifest.json")))
        assert manifest["command"] == "synth"
        assert manifest["config"]["classes"] == 3

    def test_bundle_loads_with_expected_split(self, data_dir):
        bundle = dataio.load_bundle(data_dir)
        assert bundle.n_rows == 80
        assert len(bundle.split.query) == 8
        assert len(bundle.split.retrieval) == 72
        np.testing.assert_array_equal(bundle.split.train,
                                      bundle.split.retrieval)

    def test_summary_line(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert cli.dispatch(["synth", "--out", out, "--classes", "2",
                             "--instances", "30", "--dim-image", "6",
                             "--dim-text", "5"]) == 0
        assert "synth: wrote 30 instances" in capsys.readouterr().out


    def test_flags_are_the_config_fields(self):
        synth = next(a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices["synth"]
        flags = {s for a in synth._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == {"--out"} | {
            "--" + f.name.replace("_", "-") for f in dataclasses.fields(SynthConfig)}

    def test_no_flags_records_the_config_defaults(self, tmp_path):
        out = str(tmp_path / "data")
        assert cli.dispatch(["synth", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"] == dataclasses.asdict(SynthConfig())


class TestBuildSim:
    def test_outputs(self, data_dir, tmp_path):
        out = str(tmp_path / "sim")
        code = cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out,
                             "--ks", "12", "--kr", "4"])
        assert code == 0
        semantic = dataio.load_features(os.path.join(out, "semantic.assf"))
        assert semantic.shape == (72, 72)
        assert semantic.min() >= -1.0 and semantic.max() <= 1.0
        lines = open(os.path.join(out, "correlations.csv")).read().splitlines()
        assert lines[0] == "i,j"
        pairs = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
        assert all(i <= j for i, j in pairs)
        assert (0, 0) in pairs  # self-pairs always correlated
        stats = json.load(open(os.path.join(out, "stats.json")))
        assert stats["order"] == 72
        assert stats["epoch"] == 0
        assert 0.0 <= stats["precision"] <= 1.0

    @pytest.mark.parametrize("tau", [1, 2])
    def test_correlations_csv_lists_the_relation(self, data_dir, tmp_path, tau):
        out = str(tmp_path / f"simt{tau}")
        assert cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out,
                             "--ks", "12", "--kr", "4", "--tau", str(tau)]) == 0
        config = json.load(open(os.path.join(out, "manifest.json")))["config"]
        assert config["tau"] == tau
        bundle = dataio.load_bundle(data_dir)
        idx = bundle.split.train
        _, rel, _ = trainer.build_targets(bundle.image_features[idx],
                                          bundle.text_features[idx],
                                          TrainConfig.from_dict(config))
        ii, jj = np.nonzero(np.triu(to_dense(rel)))
        assert ii.size > rel.order  # some off-diagonal pairs to pin
        want = "i,j\n" + "".join(f"{i},{j}\n" for i, j in zip(ii, jj))
        with open(os.path.join(out, "correlations.csv"), newline="") as fh:
            assert fh.read() == want

    def test_each_cosine_computed_once(self, data_dir, tmp_path, monkeypatch):
        from assph import corrmine, simgraph
        calls = []
        real = simgraph.cosine_matrix

        def counted(features):
            calls.append(features.shape)
            return real(features)

        monkeypatch.setattr(simgraph, "cosine_matrix", counted)
        monkeypatch.setattr(corrmine, "cosine_matrix", counted)
        out = str(tmp_path / "simc")
        assert cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out,
                             "--ks", "12", "--kr", "4"]) == 0
        assert len(calls) == 2

    def test_pair_corr_variant(self, data_dir, tmp_path):
        out = str(tmp_path / "simp")
        code = cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out,
                             "--ks", "12", "--kr", "4", "--pair-corr"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "stats.json"))

    def test_no_corr_writes_the_identity(self, data_dir, tmp_path):
        out = str(tmp_path / "simn")
        assert cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out,
                             "--ks", "12", "--kr", "4", "--mu1", "0"]) == 0
        lines = open(os.path.join(out, "correlations.csv")).read().splitlines()
        assert lines == ["i,j"] + [f"{i},{i}" for i in range(72)]
        stats = json.load(open(os.path.join(out, "stats.json")))
        assert stats["count"] == stats["order"] == 72
        assert stats["no_offdiag"] is True
        # the relation train starts from under the same config
        config = json.load(open(os.path.join(out, "manifest.json")))["config"]
        assert config["mu1"] == 0.0
        state = trainer.init_state(dataio.load_bundle(data_dir),
                                   TrainConfig.from_dict(config))
        ii, jj = np.nonzero(np.triu(to_dense(state.rel)))
        assert lines[1:] == [f"{i},{j}" for i, j in zip(ii, jj)]


    def test_pair_listing_unpacks_one_row_block_at_a_time(self, data_dir, tmp_path,
                                                          monkeypatch):
        # a banded relation of order 2000 stands in for the mined one; the
        # listing holds one 256-row block of unpacked bits and its pairs,
        # where unpacking and triu-masking the whole relation took 3 B/pair
        from assph import corrmine
        m = 2000
        offset = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        rel = relation_from_dense(offset <= 3)
        del offset
        monkeypatch.setattr(trainer, "build_targets",
                            lambda fi, ft, cfg: (np.eye(2, dtype=np.float32), rel, {}))
        monkeypatch.setattr(corrmine, "correlation_stats",
                            lambda rel, share: {"count": int(np.bitwise_count(rel.bits).sum())})
        out = str(tmp_path / "band")
        tracemalloc.start()
        try:
            assert cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * m * m, peak / m / m
        with open(os.path.join(out, "correlations.csv")) as fh:
            lines = fh.read().splitlines()
        ii, jj = np.nonzero(np.triu(to_dense(rel)))
        assert lines == ["i,j"] + [f"{i},{j}" for i, j in zip(ii, jj)]

    def test_pair_listing_matches_savetxt(self, data_dir, tmp_path, monkeypatch):
        # order 600 spans three 256-row strips; a random symmetric relation
        # of about 80% of all pairs puts more pairs in the first strip than
        # one block holds, so the listing is formatted in several chunks
        from assph import corrmine
        m = 600
        rng = np.random.default_rng(4)
        dense = np.triu(rng.random((m, m)) < 0.8)
        dense = dense | dense.T | np.eye(m, dtype=bool)
        rel = relation_from_dense(dense)
        first_strip = next(rel.upper_pairs())
        assert len(first_strip) > kernels.rows_within(kernels.BLOCK_ENTRIES, 2)
        monkeypatch.setattr(trainer, "build_targets",
                            lambda fi, ft, cfg: (np.eye(2, dtype=np.float32), rel, {}))
        monkeypatch.setattr(corrmine, "correlation_stats",
                            lambda rel, share: {"count": int(np.bitwise_count(rel.bits).sum())})
        out = str(tmp_path / "dense")
        assert cli.dispatch(["build-sim", "--bundle", data_dir, "--out", out]) == 0
        expect = tmp_path / "expect.csv"
        with open(expect, "w") as fh:
            fh.write("i,j\n")
            np.savetxt(fh, np.argwhere(np.triu(dense)), fmt="%d", delimiter=",")
        with open(os.path.join(out, "correlations.csv"), "rb") as fh:
            assert fh.read() == expect.read_bytes()


class TestInputsCheckedOnce:
    @staticmethod
    def counter(monkeypatch):
        """(checks, count): count(owner, attr, key) makes each call of
        owner.attr append key(*args) to checks."""
        checks = []

        def count(owner, attr, key):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                checks.append(key(*args, **kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        return checks, count

    def test_train_checks_each_input_once(self, data_dir, tmp_path, monkeypatch):
        checks, count = self.counter(monkeypatch)
        count(dataio, "validate_features", lambda arr, name: os.path.basename(name))
        count(dataio, "validate_labels", lambda arr, name: os.path.basename(name))
        count(dataio.Split, "validate", lambda split, rows, name: "split")
        count(TrainConfig, "__post_init__", lambda cfg: "config")
        out = str(tmp_path / "run")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out]
                            + TRAIN_FLAGS) == 0
        with open(os.path.join(out, "history.jsonl")) as fh:
            assert sum(json.loads(line)["iterations"] for line in fh) > 2
        # one config, whatever the iteration count: the loss reads its
        # weights from it
        assert sorted(checks) == sorted(["image.assf", "text.assf", "labels.csv",
                                         "split", "config"])

    def test_build_sim_checks_each_input_once(self, data_dir, tmp_path, monkeypatch):
        checks, count = self.counter(monkeypatch)
        count(dataio, "validate_features",
              lambda arr, name="features": os.path.basename(name))
        assert cli.dispatch(["build-sim", "--bundle", data_dir,
                             "--out", str(tmp_path / "sim")] + TRAIN_FLAGS) == 0
        # the semantic matrix build-sim writes is its own, not an input
        assert sorted(checks) == ["image.assf", "text.assf"]

    def test_synth_checks_each_array_once(self, tmp_path, monkeypatch):
        checks, count = self.counter(monkeypatch)
        # the writers' own checks pass no name
        count(dataio, "validate_features", lambda arr, name="features": name)
        count(dataio, "validate_labels", lambda arr, name="labels": name)
        assert cli.dispatch(["synth", "--out", str(tmp_path / "data"),
                             "--instances", "60", "--seed", "2"]) == 0
        assert sorted(checks) == ["image features", "labels", "text features"]

    def test_encode_reads_and_checks_its_features_once(self, data_dir, train_dir,
                                                       tmp_path, monkeypatch):
        checks, count = self.counter(monkeypatch)
        count(dataio, "_read_file", lambda path, kind: ("read", os.path.basename(path)))
        count(dataio, "validate_features",
              lambda arr, name="features": ("check", os.path.basename(name)))
        assert cli.dispatch(["encode", "--features", os.path.join(data_dir, "image.assf"),
                             "--checkpoint", os.path.join(train_dir, "imgnet.assp"),
                             "--out", str(tmp_path / "c.assb")]) == 0
        assert sorted(checks) == [("check", "image.assf"), ("read", "image.assf"),
                                  ("read", "imgnet.assp")]

    def test_eval_reads_each_file_and_checks_each_label_file_once(
            self, data_dir, train_dir, tmp_path, monkeypatch):
        bundle = dataio.load_bundle(data_dir)
        labels = [str(tmp_path / "q.csv"), str(tmp_path / "d.csv")]
        for path, rows in zip(labels, (bundle.split.query, bundle.split.retrieval)):
            dataio.write_labels(bundle.labels[rows], path)
        checks, count = self.counter(monkeypatch)
        count(dataio, "_read_file", lambda path, kind: ("read", os.path.basename(path)))
        count(dataio, "validate_labels",
              lambda arr, name="labels": ("check", os.path.basename(name)))
        assert cli.dispatch(["eval", "--query-codes", os.path.join(train_dir, "query_image.assb"),
                             "--db-codes", os.path.join(train_dir, "db_text.assb"),
                             "--query-labels", labels[0], "--db-labels", labels[1],
                             "--out", str(tmp_path / "ev")]) == 0
        assert sorted(checks) == [("check", "d.csv"), ("check", "q.csv"),
                                  ("read", "d.csv"), ("read", "db_text.assb"),
                                  ("read", "q.csv"), ("read", "query_image.assb")]


class TestManifestInputs:
    @pytest.mark.parametrize("command", ["build-sim", "train"])
    def test_same_for_directory_and_manifest_path(self, data_dir, tmp_path,
                                                  command):
        keys = []
        for name, bundle in (("dir", data_dir),
                             ("path", os.path.join(data_dir, "bundle.json"))):
            out = str(tmp_path / name)
            assert cli.dispatch([command, "--bundle", bundle, "--out", out]
                                + TRAIN_FLAGS) == 0
            manifest = json.load(open(os.path.join(out, "manifest.json")))
            keys.append(sorted(manifest["inputs"]))
        assert keys[0] == keys[1]
        assert keys[0] == [os.path.join(data_dir, name) for name in
                           ("bundle.json", "image.assf", "labels.csv",
                            "text.assf")]

    @pytest.mark.parametrize("command", ["build-sim", "train"])
    def test_config_file_listed(self, data_dir, tmp_path, command):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"ks": 10}, open(cfg_path, "w"))
        out = str(tmp_path / command)
        assert cli.dispatch([command, "--bundle", data_dir, "--out", out,
                             "--config", cfg_path] + TRAIN_FLAGS) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert sorted(manifest["inputs"]) == sorted(
            [os.path.join(data_dir, name) for name in
             ("bundle.json", "image.assf", "labels.csv", "text.assf")] + [cfg_path])
        assert manifest["inputs"][cfg_path] == cli._sha256(cfg_path)

    def test_unlabeled_bundle_lists_three_files(self, data_dir, tmp_path):
        bundle = dataclasses.replace(dataio.load_bundle(data_dir), labels=None)
        unlabeled = str(tmp_path / "unlabeled")
        dataio.save_bundle(bundle, unlabeled)
        out = str(tmp_path / "sim")
        assert cli.dispatch(["build-sim", "--bundle", unlabeled, "--out", out]
                            + TRAIN_FLAGS) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert sorted(manifest["inputs"]) == [
            os.path.join(unlabeled, name)
            for name in ("bundle.json", "image.assf", "text.assf")]


def _files_under(root: str) -> set:
    return {os.path.join(d, name) for d, _, names in os.walk(root) for name in names}


class TestManifestContract:
    """Every command's manifest: the same keys, a total time, every file
    the run wrote, relative to the manifest's directory, and every file it
    read."""

    @pytest.mark.parametrize("command", ["synth", "build-sim", "train", "encode",
                                         "eval", "ablate"])
    def test_keys_outputs_and_inputs(self, data_dir, train_dir, tmp_path, monkeypatch,
                                     command):
        bundle = dataio.load_bundle(data_dir)
        labels = [str(tmp_path / "q.csv"), str(tmp_path / "d.csv")]
        for path, rows in zip(labels, (bundle.split.query, bundle.split.retrieval)):
            dataio.write_labels(bundle.labels[rows], path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = str(tmp_path / "out")
        training = ["--bundle", data_dir, "--config", str(cfg)] + TRAIN_FLAGS + [
            "--epochs", "1"]
        argv = {
            "synth": ["--instances", "30", "--classes", "2", "--dim-image", "6",
                      "--dim-text", "5"],
            "build-sim": training,
            "train": training,
            "encode": ["--features", os.path.join(data_dir, "image.assf"),
                       "--checkpoint", os.path.join(train_dir, "imgnet.assp")],
            "eval": ["--query-codes", os.path.join(train_dir, "query_image.assb"),
                     "--db-codes", os.path.join(train_dir, "db_text.assb"),
                     "--query-labels", labels[0], "--db-labels", labels[1]],
            "ablate": training + ["--variants", "nocorr"],
        }[command]
        if command == "encode":
            out = os.path.join(out, "c.assb")  # encode's --out is its one file
        read = set()
        real = dataio._read_file

        def recorded(path, kind):
            read.add(os.path.abspath(path))
            return real(path, kind)

        monkeypatch.setattr(dataio, "_read_file", recorded)
        before = _files_under(str(tmp_path))
        assert cli.dispatch([command, "--out", out] + argv) == 0
        path = out + ".manifest.json" if command == "encode" else os.path.join(
            out, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        assert set(manifest) == {"command", "version", "config", "inputs", "outputs",
                                 "timings"}
        assert manifest["command"] == command
        assert manifest["timings"]["total_s"] >= 0.0
        created = _files_under(str(tmp_path)) - before - {path}
        home = os.path.dirname(path)
        assert set(manifest["outputs"]) == {os.path.relpath(p, home) for p in created}
        assert {os.path.abspath(p) for p in manifest["inputs"]} == read
        assert read or command == "synth"


class TestManifestPlacement:
    """encode writes <out>.manifest.json, so no run's manifest is replaced."""

    def _encode(self, data_dir, train_dir, out):
        assert cli.dispatch(["encode", "--features", os.path.join(data_dir, "image.assf"),
                             "--checkpoint", os.path.join(train_dir, "imgnet.assp"),
                             "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "encode"
        assert manifest["outputs"] == [os.path.basename(out)]

    def test_two_encodes_into_one_directory(self, data_dir, train_dir, tmp_path):
        for name in ("a.assb", "b.assb"):
            self._encode(data_dir, train_dir, str(tmp_path / name))
        assert sorted(os.listdir(tmp_path)) == ["a.assb", "a.assb.manifest.json",
                                                "b.assb", "b.assb.manifest.json"]

    def test_encode_into_a_train_run(self, data_dir, train_dir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(train_dir, run)
        self._encode(data_dir, train_dir, str(run / "image_codes.assb"))
        with open(run / "manifest.json") as fh:
            assert json.load(fh)["command"] == "train"


class TestManifestTimings:
    @pytest.mark.parametrize("command", ["build-sim", "train"])
    def test_setup_stages_timed(self, data_dir, tmp_path, command):
        out = str(tmp_path / command)
        assert cli.dispatch([command, "--bundle", data_dir, "--out", out]
                            + TRAIN_FLAGS) == 0
        timings = json.load(open(os.path.join(out, "manifest.json")))["timings"]
        stages = [timings[k] for k in ("cosine_s", "seed_mine_s", "semantic_s")]
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= timings["total_s"]


class TestTrain:
    def test_output_layout(self, train_dir):
        expected = ["imgnet.assp", "txtnet.assp", "history.jsonl",
                    "query_image.assb", "query_text.assb", "db_image.assb",
                    "db_text.assb", "eval_i2t.json", "eval_t2i.json",
                    "manifest.json"]
        for name in expected:
            assert os.path.exists(os.path.join(train_dir, name)), name

    def test_history_records(self, train_dir):
        lines = open(os.path.join(train_dir, "history.jsonl")).read().splitlines()
        assert len(lines) == 2
        records = [json.loads(ln) for ln in lines]
        assert [r["epoch"] for r in records] == [1, 2]
        assert records[0]["iterations"] == 3  # 72 // 24
        assert all(np.isfinite(r["loss_total"]) for r in records)

    def test_manifest_snapshot(self, train_dir, data_dir):
        manifest = json.load(open(os.path.join(train_dir, "manifest.json")))
        assert manifest["command"] == "train"
        assert manifest["config"]["code_length"] == 8
        assert manifest["config"]["learning_rate"] == pytest.approx(3e-4)
        bundled = {os.path.basename(p) for p in manifest["inputs"]}
        assert "image.assf" in bundled
        assert "train_s" in manifest["timings"]

    def test_codes_match_split_sizes(self, train_dir):
        q = hashnet.load_codes(os.path.join(train_dir, "query_image.assb"))
        d = hashnet.load_codes(os.path.join(train_dir, "db_text.assb"))
        assert q.shape == (8, 8)
        assert d.shape == (72, 8)

    def test_rerun_is_byte_identical(self, data_dir, train_dir, tmp_path):
        out = str(tmp_path / "again")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out]
                            + TRAIN_FLAGS) == 0
        for name in ("imgnet.assp", "txtnet.assp", "query_image.assb",
                     "db_text.assb", "eval_i2t.json", "eval_t2i.json"):
            a = open(os.path.join(train_dir, name), "rb").read()
            b = open(os.path.join(out, name), "rb").read()
            assert a == b, name

    def test_summary_line(self, data_dir, tmp_path, capsys):
        out = str(tmp_path / "t")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out]
                            + TRAIN_FLAGS + ["--epochs", "1"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("train: 1 epochs done, I2T MAP@all")
        assert "T2I MAP@all" in line


class TestEncodeEval:
    def test_encode_then_eval_reproduces_self_report(self, data_dir, train_dir,
                                                     tmp_path):
        bundle = dataio.load_bundle(data_dir)
        q, r = bundle.split.query, bundle.split.retrieval
        ql_path = str(tmp_path / "query_labels.csv")
        dl_path = str(tmp_path / "db_labels.csv")
        dataio.write_labels(bundle.labels[q], ql_path)
        dataio.write_labels(bundle.labels[r], dl_path)

        # every split's codes must agree with the ones the train command wrote
        for split, rows in (("query", q), ("db", r)):
            for modality, features, net in (
                    ("image", bundle.image_features, "imgnet.assp"),
                    ("text", bundle.text_features, "txtnet.assp")):
                name = f"{split}_{modality}"
                feats, codes = str(tmp_path / f"{name}.assf"), str(tmp_path / f"{name}.assb")
                dataio.write_features(features[rows], feats)
                assert cli.dispatch(["encode", "--features", feats, "--checkpoint",
                                     os.path.join(train_dir, net),
                                     "--out", codes]) == 0
                np.testing.assert_array_equal(
                    hashnet.load_codes(codes),
                    hashnet.load_codes(os.path.join(train_dir, f"{name}.assb")))
        qi_codes = str(tmp_path / "query_image.assb")
        dt_codes = str(tmp_path / "db_text.assb")

        out = str(tmp_path / "eval")
        assert cli.dispatch(["eval", "--query-codes", qi_codes,
                             "--db-codes", dt_codes,
                             "--query-labels", ql_path,
                             "--db-labels", dl_path,
                             "--direction", "I2T", "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        self_report = json.load(open(os.path.join(train_dir, "eval_i2t.json")))
        assert report["map_all"] == self_report["map_all"]
        assert report["direction"] == "I2T"
        pr_lines = open(os.path.join(out, "pr_curve.csv")).read().splitlines()
        assert pr_lines[0] == "recall,precision"
        topk_lines = open(os.path.join(out, "topk_curve.csv")).read().splitlines()
        assert topk_lines[0] == "k,precision"

    def test_encode_decodes_a_checkpoint_one_way(self, data_dir, train_dir,
                                                 tmp_path, capsys):
        # the hidden layer is ReLU, so a checkpoint alone gives the run's codes
        bundle = dataio.load_bundle(data_dir)
        feats = str(tmp_path / "db_image.assf")
        dataio.write_features(bundle.image_features[bundle.split.retrieval], feats)
        argv = ["encode", "--features", feats,
                "--checkpoint", os.path.join(train_dir, "imgnet.assp")]
        out = str(tmp_path / "codes" / "db_image.assb")
        assert cli.dispatch(argv + ["--out", out]) == 0
        with open(out, "rb") as got, open(os.path.join(train_dir, "db_image.assb"),
                                          "rb") as want:
            assert got.read() == want.read()

        # no activation can be named, as a flag or a config key
        training = ["--bundle", data_dir] + TRAIN_FLAGS
        for command, args in (("train", training), ("build-sim", training),
                              ("ablate", training), ("encode", argv[1:])):
            sub = str(tmp_path / command)
            assert cli.dispatch([command, *args, "--hidden-act", "relu",
                                 "--out", sub]) == 2
            assert "unrecognized arguments: --hidden-act relu" in capsys.readouterr().err
            assert not os.path.exists(sub)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden_act": "relu"}))
        sub = str(tmp_path / "config")
        assert cli.dispatch(["train", *training, "--config", str(cfg),
                             "--out", sub]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not os.path.exists(sub)

    def test_eval_k_grid_flag(self, data_dir, train_dir, tmp_path, capsys):
        bundle = dataio.load_bundle(data_dir)
        ql_path = str(tmp_path / "ql.csv")
        dl_path = str(tmp_path / "dl.csv")
        dataio.write_labels(bundle.labels[bundle.split.query], ql_path)
        dataio.write_labels(bundle.labels[bundle.split.retrieval], dl_path)
        out = str(tmp_path / "ev")
        argv = ["eval", "--query-codes", os.path.join(train_dir, "query_image.assb"),
                "--db-codes", os.path.join(train_dir, "db_text.assb"),
                "--query-labels", ql_path, "--db-labels", dl_path, "--out", out]
        # an empty grid is no grid: it exits 2, not ranks on the default one
        for empty in ("", ","):
            assert cli.dispatch(argv + ["--k-grid", empty]) == 2
            assert capsys.readouterr().err == (
                "error: config: --k-grid: values must be positive ints\n")
            assert not os.path.exists(out)
        assert cli.dispatch(argv + ["--k-grid", "5,10"]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert [k for k, _ in report["topk_curve"]] == [5, 10]

    def test_windows_beyond_int64(self, data_dir, train_dir, tmp_path):
        # a cutoff or a top-k window past the database is clipped to it, so
        # MAP at such a cutoff is MAP@all, even past int64's range
        huge = 10**23
        out = str(tmp_path / "tr")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out,
                             "--map-at", f"5,{huge}"] + TRAIN_FLAGS) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))
        report = json.load(open(os.path.join(out, "eval_i2t.json")))
        assert report["map_at"][str(huge)] == report["map_all"]

        bundle = dataio.load_bundle(data_dir)
        ql_path, dl_path = str(tmp_path / "ql.csv"), str(tmp_path / "dl.csv")
        dataio.write_labels(bundle.labels[bundle.split.query], ql_path)
        dataio.write_labels(bundle.labels[bundle.split.retrieval], dl_path)
        out = str(tmp_path / "ev")
        assert cli.dispatch(["eval", "--query-codes",
                             os.path.join(train_dir, "query_image.assb"),
                             "--db-codes", os.path.join(train_dir, "db_text.assb"),
                             "--query-labels", ql_path, "--db-labels", dl_path,
                             "--map-at", str(huge), "--k-grid", f"5,{huge}",
                             "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert [k for k, _ in report["topk_curve"]] == [5, huge]
        assert report["map_at"][str(huge)] == report["map_all"]


class TestAblate:
    def test_table_layout(self, data_dir, tmp_path):
        out = str(tmp_path / "ab")
        code = cli.dispatch(["ablate", "--bundle", data_dir, "--out", out,
                             "--variants", "noadapt,nocorr"] + TRAIN_FLAGS
                            + ["--epochs", "1"])
        assert code == 0
        table = json.load(open(os.path.join(out, "ablation.json")))
        assert set(table["rows"]) == {"ASSPH", "ASSPH_NoAdapt", "ASSPH_NoCorr"}
        for row in table["rows"].values():
            assert set(row) == {"I2T", "T2I"}
            assert 0.0 <= row["I2T"] <= 1.0
        assert table["code_length"] == 8
        for title in table["rows"]:
            assert os.path.exists(os.path.join(out, title, "eval_i2t.json"))

    def test_unknown_variant(self, data_dir, tmp_path):
        out = str(tmp_path / "ab2")
        code = cli.dispatch(["ablate", "--bundle", data_dir, "--out", out,
                             "--variants", "nothing"] + TRAIN_FLAGS)
        assert code == 2

    def test_repeated_variant(self, data_dir, tmp_path, capsys):
        # rejected before any training: each variant is trained once
        out = str(tmp_path / "ab3")
        code = cli.dispatch(["ablate", "--bundle", data_dir, "--out", out,
                             "--variants", "noadapt,nocorr,noadapt"] + TRAIN_FLAGS)
        assert code == 2
        assert "['noadapt']" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_divergent_full_model_exit_4_with_no_output(self, data_dir, tmp_path):
        # the weights past float32's range end the first run, the full model
        out = tmp_path / "ab4"
        assert cli.dispatch(["ablate", "--bundle", data_dir, "--out", str(out)]
                            + TRAIN_FLAGS + ["--learning-rate", "1e9"]) == 4
        assert not out.exists()


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, data_dir, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        # at learning rate 3e-4 this run's codes collapse onto one (exit 4)
        json.dump({"epochs": 5, "code_length": 8, "batch_size": 24,
                   "ks": 12, "kr": 4, "d_hidden": 16,
                   "learning_rate": 1e-4}, open(cfg_path, "w"))
        out = str(tmp_path / "run")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out,
                             "--config", cfg_path, "--epochs", "1"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["epochs"] == 1       # flag beats file
        assert manifest["config"]["code_length"] == 8  # file beats default
        lines = open(os.path.join(out, "history.jsonl")).read().splitlines()
        assert len(lines) == 1

    def test_profile_applies_under_overrides(self, data_dir, tmp_path):
        out = str(tmp_path / "prof")
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", out,
                             "--profile", "paper-default", "--epochs", "1",
                             "--batch-size", "24", "--ks", "12", "--kr", "4",
                             # 8 bits collapse onto one code at lr 1e-3 (exit 4)
                             "--d-hidden", "16", "--code-length", "16"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["learning_rate"] == pytest.approx(0.001)
        assert manifest["config"]["momentum"] == pytest.approx(0.9)
        assert manifest["config"]["epochs"] == 1

    def test_unknown_profile(self, data_dir, tmp_path, capsys):
        code = cli.dispatch(["train", "--bundle", data_dir,
                             "--out", str(tmp_path / "x"),
                             "--profile", "mystery"])
        assert code == 2
        assert "--profile: invalid choice: 'mystery'" in capsys.readouterr().err

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        cfg_path = str(tmp_path / "bad.json")
        json.dump({"learning_rte": 0.1}, open(cfg_path, "w"))
        code = cli.dispatch(["train", "--bundle", data_dir,
                             "--out", str(tmp_path / "x"),
                             "--config", cfg_path])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_boolean_switch_in_config_file(self, data_dir, tmp_path,
                                               capsys):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"adaptive": "false"}, open(cfg_path, "w"))
        code = cli.dispatch(["train", "--bundle", data_dir,
                             "--out", str(tmp_path / "x"),
                             "--config", cfg_path] + TRAIN_FLAGS)
        assert code == 2
        assert "bad config value: adaptive" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x"))


class TestTermWeights:
    """A loss term is off when its weight is 0, and that is the one way to
    turn it off: no flag or config key names the term itself."""

    def test_mu1_zero_mines_no_relation(self, data_dir, tmp_path, monkeypatch):
        from assph import corrmine

        def no_mining(*args, **kwargs):
            raise AssertionError("mined a relation under mu1 = 0")

        monkeypatch.setattr(corrmine, "init_correlations", no_mining)
        monkeypatch.setattr(corrmine, "adaptive_update", no_mining)
        out = tmp_path / "run"
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", str(out)]
                            + TRAIN_FLAGS + ["--epochs", "3", "--mu1", "0"]) == 0
        with open(out / "history.jsonl") as fh:
            popcounts = [json.loads(line)["r_popcount"] for line in fh]
        assert popcounts == [72] * 3  # the identity over the training rows

    def test_gamma_zero_skips_structural(self, data_dir, tmp_path, monkeypatch):
        from assph import simgraph

        def no_structural(*args, **kwargs):
            raise AssertionError("structural similarity under gamma = 0")

        monkeypatch.setattr(simgraph, "structural", no_structural)
        # at TRAIN_FLAGS' learning rate the text codes collapse onto one (exit 4)
        assert cli.dispatch(["train", "--bundle", data_dir, "--out",
                             str(tmp_path / "run")] + TRAIN_FLAGS
                            + ["--gamma", "0", "--learning-rate", "1e-4"]) == 0

    @pytest.mark.parametrize("flag", ["--no-corr", "--no-struct"])
    def test_removed_switch_flag(self, data_dir, tmp_path, capsys, flag):
        assert cli.dispatch(["train", "--bundle", data_dir, "--out",
                             str(tmp_path / "run"), flag] + TRAIN_FLAGS) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["corr", "struct"])
    def test_removed_switch_key(self, data_dir, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: False}))
        assert cli.dispatch(["train", "--bundle", data_dir, "--out", str(tmp_path / "run"),
                             "--config", str(cfg_path)] + TRAIN_FLAGS) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _with_keys(raw: bytes, **values) -> bytes:
    """A bundle.json's bytes with some keys set to other JSON values."""
    return json.dumps({**json.loads(raw), **values}).encode()


class TestMalformedTextInputs:
    """Undecodable bytes or wrong JSON types in a text input: exit 3 for
    data, 2 for a config file, with one error line naming the file or key."""

    @pytest.mark.parametrize("name, edit, code, named", [
        ("labels.csv", lambda raw: b"\xff" + raw[1:], 3, "labels.csv"),
        ("bundle.json", lambda raw: b"\xff\xfe" + raw, 3, "bundle.json"),
        ("bundle.json", lambda raw: b"7", 3, "bundle.json"),
        ("bundle.json", lambda raw: _with_keys(raw, image_features=5), 3,
         "'image_features'"),
        ("bundle.json", lambda raw: _with_keys(raw, split=["train", "query", "retrieval"]),
         3, "'split'"),
        ("cfg.json", lambda raw: b'{"ks": 10\xff}', 2, "cfg.json"),
        ("bundle.json", lambda raw: _with_keys(raw, labels=""), 3, "'labels'"),
    ], ids=["labels-bytes", "manifest-bytes", "manifest-number", "image-number",
            "split-list", "config-bytes", "labels-empty-name"])
    def test_train(self, data_dir, tmp_path, capsys, name, edit, code, named):
        bundle = tmp_path / "bundle"
        shutil.copytree(data_dir, bundle)
        cfg = bundle / "cfg.json"
        cfg.write_text("{}")
        path = bundle / name
        path.write_bytes(edit(path.read_bytes()))
        out = tmp_path / "run"
        assert cli.dispatch(["train", "--bundle", str(bundle), "--out", str(out),
                             "--config", str(cfg)] + TRAIN_FLAGS) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err
        assert not out.exists()

    def test_eval_label_bytes(self, data_dir, train_dir, tmp_path, capsys):
        with open(os.path.join(data_dir, "labels.csv"), "rb") as fh:
            raw = fh.read()
        labels = tmp_path / "ql.csv"
        labels.write_bytes(b"\xff" + raw[1:])
        out = tmp_path / "ev"
        assert cli.dispatch(["eval", "--query-codes",
                             os.path.join(train_dir, "query_image.assb"),
                             "--db-codes", os.path.join(train_dir, "db_text.assb"),
                             "--query-labels", str(labels),
                             "--db-labels", str(labels), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: data: {labels}: not UTF-8 text: 'utf-8' codec can't "
                       f"decode byte 0xff in position 0: invalid start byte\n")
        assert not out.exists()


def _non_default(field):
    """A valid value of a non-bool config field other than its default."""
    return field.default + (1 if field.type is int else 0.05)


class TestFlagsMatchFields:
    """Every TrainConfig field is a flag of each training command, and the
    flag's value lands in the resolved config."""

    @pytest.mark.parametrize("command", ["train", "build-sim", "ablate"])
    @pytest.mark.parametrize("field", dataclasses.fields(TrainConfig),
                             ids=lambda f: f.name)
    def test_flag_lands_in_config(self, command, field):
        flag = field.name.replace("_", "-")
        if field.type is bool:
            cases = [([f"--{flag}"], True), ([f"--no-{flag}"], False)]
        else:
            value = _non_default(field)
            cases = [([f"--{flag}", str(value)], value)]
        for extra, value in cases:
            args = cli.build_parser().parse_args(
                [command, "--bundle", "b", "--out", "o"] + extra)
            assert getattr(cli._resolve_config(args), field.name) == value


class TestUnusablePaths:
    """An input path naming a directory exits 3 (a --config file, 2), and
    an --out that cannot be a directory exits 2 before any input is read;
    each with one error line, leaving no output behind."""

    @staticmethod
    def _one_error(capsys, kind):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err
        return err

    def test_encode_checkpoint_is_a_directory(self, tmp_path, capsys):
        d = str(tmp_path)
        out = str(tmp_path / "o" / "c.assb")
        assert cli.dispatch(["encode", "--features", d, "--checkpoint", d,
                             "--out", out]) == 3
        assert self._one_error(capsys, "data") == (
            f"error: data: {d}: cannot read checkpoint file: Is a directory\n")
        assert not os.path.exists(out)

    def test_encode_features_is_a_directory(self, train_dir, tmp_path, capsys):
        d = str(tmp_path)
        assert cli.dispatch(["encode", "--features", d,
                             "--checkpoint", os.path.join(train_dir, "imgnet.assp"),
                             "--out", str(tmp_path / "c.assb")]) == 3
        assert "cannot read feature file" in self._one_error(capsys, "data")

    def test_eval_codes_is_a_directory(self, data_dir, tmp_path, capsys):
        d, labels = str(tmp_path), os.path.join(data_dir, "labels.csv")
        assert cli.dispatch(["eval", "--query-codes", d, "--db-codes", d,
                             "--query-labels", labels, "--db-labels", labels,
                             "--out", str(tmp_path / "ev")]) == 3
        assert "cannot read codes file" in self._one_error(capsys, "data")
        assert not (tmp_path / "ev").exists()

    def test_bundle_feature_name_is_a_directory(self, data_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(data_dir, bundle)
        (bundle / "sub").mkdir()
        raw = (bundle / "bundle.json").read_bytes()
        (bundle / "bundle.json").write_bytes(_with_keys(raw, image_features="sub"))
        assert cli.dispatch(["train", "--bundle", str(bundle),
                             "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == 3
        assert f"{bundle / 'sub'}: cannot read feature file" in self._one_error(capsys, "data")

    def test_config_is_a_directory(self, data_dir, tmp_path, capsys):
        assert cli.dispatch(["train", "--bundle", data_dir, "--config", str(tmp_path),
                             "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == 2
        assert "cannot read config file" in self._one_error(capsys, "config")

    @staticmethod
    def _no_read(monkeypatch):
        def no_read(path, kind):
            raise AssertionError(f"read {kind} file {path} before checking --out")

        monkeypatch.setattr(dataio, "_read_file", no_read)

    @staticmethod
    def _inputs(command, data_dir):
        """Each command's flags besides --out."""
        return {
            "synth": [],
            "build-sim": ["--bundle", data_dir],
            "train": ["--bundle", data_dir] + TRAIN_FLAGS,
            "encode": ["--features", "f.assf", "--checkpoint", "n.assp"],
            "eval": ["--query-codes", "q", "--db-codes", "d", "--query-labels", "ql",
                     "--db-labels", "dl"],
            "ablate": ["--bundle", data_dir] + TRAIN_FLAGS,
        }[command]

    def test_encode_out_is_a_directory(self, tmp_path, monkeypatch, capsys):
        self._no_read(monkeypatch)
        out = tmp_path / "codes"
        out.mkdir()
        assert cli.dispatch(["encode", "--features", "f.assf", "--checkpoint", "n.assp",
                             "--out", str(out)]) == 2
        assert self._one_error(capsys, "config") == (
            f"error: config: output file {out} is a directory\n")
        assert os.listdir(tmp_path) == ["codes"] and os.listdir(out) == []

    @pytest.mark.parametrize("title", ["ASSPH", "ASSPH_NoCorr"])
    def test_ablate_run_directory_taken(self, data_dir, tmp_path, monkeypatch,
                                        capsys, title):
        # each run's subdirectory is checked before the bundle is read, so
        # no variant trains into an --out that cannot hold its outputs
        self._no_read(monkeypatch)
        out = tmp_path / "ab"
        out.mkdir()
        (out / title).write_bytes(b"a file")
        assert cli.dispatch(["ablate", "--bundle", data_dir, "--out", str(out),
                             "--variants", "noadapt,nocorr"] + TRAIN_FLAGS) == 2
        assert "is not a writable directory" in self._one_error(capsys, "config")
        assert os.listdir(out) == [title]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["synth", "build-sim", "train", "encode",
                                         "eval", "ablate"])
    def test_unusable_out_read_no_input(self, data_dir, tmp_path, monkeypatch,
                                        capsys, command, below):
        self._no_read(monkeypatch)
        blocker = tmp_path / "taken"
        blocker.write_bytes(b"a file")
        out = str(blocker / "x" if below else blocker)
        if command == "encode":
            out = os.path.join(out, "c.assb")  # encode's --out is a file in the directory
        assert cli.dispatch([command, "--out", out]
                            + self._inputs(command, data_dir)) == 2
        assert "is not a writable directory" in self._one_error(capsys, "config")
        assert blocker.read_bytes() == b"a file"
        assert os.listdir(tmp_path) == ["taken"]

    @pytest.mark.parametrize("command", ["synth", "build-sim", "train", "encode",
                                         "eval", "ablate"])
    def test_empty_out_reads_no_input(self, data_dir, tmp_path, monkeypatch,
                                      capsys, command):
        # "" is no path, though abspath makes it the working directory
        self._no_read(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.dispatch([command, "--out", ""]
                            + self._inputs(command, data_dir)) == 2
        self._one_error(capsys, "config")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("tail", [os.sep, os.sep + "."], ids=["separator", "dot"])
    def test_encode_out_names_no_file(self, tmp_path, monkeypatch, capsys, tail):
        self._no_read(monkeypatch)
        out = str(tmp_path / "codes") + tail
        assert cli.dispatch(["encode", "--out", out]
                            + self._inputs("encode", None)) == 2
        assert self._one_error(capsys, "config") == (
            f"error: config: output file '{out}' names no file\n")
        assert os.listdir(tmp_path) == []


class TestExitCodes:
    def test_bad_config_value(self, data_dir, tmp_path, capsys):
        code = cli.dispatch(["train", "--bundle", data_dir,
                             "--out", str(tmp_path / "x"), "--epochs", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("flag, value, message", [
        ("--classes", "0", "synth: classes"),
        # one row always goes to the query split, so one instance trains nothing
        ("--instances", "1", "synth: instances must be >= 2"),
        ("--noise-sigma", "nan", "synth: noise_sigma must be a finite real >= 0"),
        ("--noise-sigma", "inf", "synth: noise_sigma must be a finite real >= 0"),
        ("--seed", "-3", "synth: seed must be >= 0"),
        # 2000 instances by default, 200 of them queries
        ("--train-size", "0", "synth: train_size 0 outside [1, 1800]"),
        ("--train-size", "1801", "synth: train_size 1801 outside [1, 1800]"),
    ], ids=["classes", "instances", "noise-nan", "noise-inf", "seed", "train-size-0",
            "train-size-past-retrieval"])
    def test_bad_synth_value(self, tmp_path, capsys, monkeypatch, flag, value, message):
        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus generated")

        monkeypatch.setattr(dataio, "generate_synthetic", no_corpus)
        code = cli.dispatch(["synth", "--out", str(tmp_path / "x"), flag, value])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config: {message}")
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("command", ["build-sim", "train", "ablate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_reads_no_input(self, tmp_path, capsys, command, source):
        # the bundle does not exist, so reading it would exit 3
        if source == "flag":
            given = ["--seed", "-1"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": -2}))
            given = ["--config", str(tmp_path / "cfg.json")]
        code = cli.dispatch([command, "--bundle", str(tmp_path / "none"),
                             "--out", str(tmp_path / "x")] + given)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: seed must be >= 0, got {-1 if source == 'flag' else -2}\n")
        assert not os.path.exists(tmp_path / "x")

    def test_weights_past_float32_exit_4_with_no_output(self, data_dir, tmp_path,
                                                        capsys):
        # a huge step leaves finite float64 weights that a float32
        # checkpoint cannot hold, which encode would then refuse
        out = tmp_path / "x"
        code = cli.dispatch(["train", "--bundle", data_dir, "--out", str(out)]
                            + TRAIN_FLAGS + ["--learning-rate", "1e9"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: divergence: image network: w")
        assert "beyond float32's range" in err
        assert not out.exists()

    @pytest.mark.parametrize("centre, lr, epochs, code", [
        (False, "1e-2", "2", 4), (True, "1e-3", "4", 0)], ids=["collapsed", "learning"])
    def test_codes_collapsed_onto_one_exit_4(self, tmp_path, capsys, centre, lr,
                                             epochs, code):
        # the CLI fixture: uncentred at 1e-2, each side's training codes are
        # one row after epoch 1; centred at 1e-3 a few codes remain
        bundle, out = str(tmp_path / "bundle"), tmp_path / "x"
        regenerate.write_bundle(bundle, centre=centre)
        assert cli.dispatch(["train", "--bundle", bundle, "--out", str(out)]
                            + regenerate.TRAIN_FLAGS
                            + ["--learning-rate", lr, "--epochs", epochs]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("error: divergence: epoch 1: the image training codes "
                           "collapsed onto one code, relation fill 1\n")
            assert not out.exists()
        else:
            assert err == "" and (out / "history.jsonl").read_text().count("\n") == 4

    def test_missing_bundle(self, tmp_path, capsys):
        code = cli.dispatch(["train", "--bundle", str(tmp_path / "nope"),
                             "--out", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: data:")

    def test_missing_checkpoint(self, data_dir, tmp_path):
        code = cli.dispatch(["encode", "--features",
                             os.path.join(data_dir, "image.assf"),
                             "--checkpoint", str(tmp_path / "nope.assp"),
                             "--out", str(tmp_path / "c.assb")])
        assert code == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint(self, data_dir, train_dir, tmp_path, capsys, value):
        # a non-finite weight would give every row the same code
        params = hashnet.load_checkpoint(os.path.join(train_dir, "imgnet.assp"))
        params.w2[:] = value
        ckpt = str(tmp_path / "bad.assp")
        hashnet.save_checkpoint(params, ckpt)
        out = str(tmp_path / "o" / "c.assb")
        code = cli.dispatch(["encode", "--features", os.path.join(data_dir, "image.assf"),
                             "--checkpoint", ckpt, "--out", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: data: {ckpt}: non-finite entry in w2\n"
        assert not os.path.exists(tmp_path / "o")

    def test_damaged_feature_magic(self, tmp_path, capsys):
        # a 3 x 4 container whose magic is overwritten; its payload is not text
        feats = str(tmp_path / "f.assf")
        dataio.write_features(np.full((3, 4), -1.5, dtype=np.float32), feats)
        with open(feats, "r+b") as fh:
            fh.write(b"JUNK")
        ckpt = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(hashnet.HashNetParams(
            w1=np.ones((2, 4)), b1=np.zeros(2), w2=np.ones((8, 2)), b2=np.zeros(8)), ckpt)
        out = str(tmp_path / "c.assb")
        code = cli.dispatch(["encode", "--features", feats, "--checkpoint", ckpt,
                             "--out", out])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: data: {feats}: neither a feature container "
            f"(magic b'JUNK', expected b'ASSF') nor UTF-8 CSV text\n")
        assert not os.path.exists(out)

    def test_feature_csv_not_utf8(self, tmp_path, capsys):
        # CSV text whose last row holds a byte UTF-8 cannot decode
        feats = tmp_path / "f.csv"
        feats.write_bytes(b"1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,\xff\n")
        ckpt = str(tmp_path / "net.assp")
        hashnet.save_checkpoint(hashnet.HashNetParams(
            w1=np.ones((2, 2)), b1=np.zeros(2), w2=np.ones((8, 2)), b2=np.zeros(8)), ckpt)
        out = str(tmp_path / "c.assb")
        code = cli.dispatch(["encode", "--features", str(feats), "--checkpoint", ckpt,
                             "--out", out])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: data: {feats}: neither a feature container "
            f"(magic b'1.0,', expected b'ASSF') nor UTF-8 CSV text\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"],
                             ids=["empty", "blank", "comment"])
    def test_feature_csv_of_no_rows(self, train_dir, tmp_path, text):
        # numpy's parser warns on a table of no rows; a separate process
        # shows the warning, which pytest would otherwise capture
        feats = tmp_path / "f.csv"
        feats.write_text(text)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "assph.cli", "encode", "--features", str(feats),
             "--checkpoint", os.path.join(train_dir, "imgnet.assp"),
             "--out", str(tmp_path / "c.assb")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 3
        assert out.stderr == (f"error: data: {feats}: expected a non-empty 2-d "
                              f"matrix, got shape (0, 1)\n")

    def test_warning_prints_one_line(self, data_dir, tmp_path):
        # a child process, as above: --ks past the 72 training rows clamps
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "assph.cli", "build-sim", "--bundle", data_dir,
             "--ks", "1000", "--out", str(tmp_path / "sim")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0
        assert out.stderr == "warning: topk_normalize: ks=1000 exceeds order 72, clamping\n"

    @pytest.mark.parametrize("d_in, d_hidden, k", [(0, 16, 8), (12, 0, 8), (12, 16, 0)])
    def test_zero_dimension_checkpoint(self, data_dir, tmp_path, capsys,
                                       d_in, d_hidden, k):
        ckpt = str(tmp_path / "zero.assp")
        hashnet.save_checkpoint(hashnet.HashNetParams(
            w1=np.zeros((d_hidden, d_in)), b1=np.zeros(d_hidden),
            w2=np.zeros((k, d_hidden)), b2=np.zeros(k)), ckpt)
        out = str(tmp_path / "c.assb")
        code = cli.dispatch(["encode", "--features",
                             os.path.join(data_dir, "image.assf"),
                             "--checkpoint", ckpt, "--out", out])
        assert code == 3
        assert "bad dimensions" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zero_bit_codes_eval(self, data_dir, tmp_path, capsys):
        paths = []
        for name, rows in (("q", 3), ("d", 5)):
            paths.append(str(tmp_path / f"{name}.assb"))
            with open(paths[-1], "wb") as fh:
                fh.write(b"ASSB" + np.array([rows, 0], dtype="<u4").tobytes())
        labels = str(tmp_path / "l.csv")
        dataio.write_labels(np.ones((5, 2), dtype=np.int8), labels)
        out = str(tmp_path / "ev")
        code = cli.dispatch(["eval", "--query-codes", paths[0], "--db-codes", paths[1],
                             "--query-labels", labels, "--db-labels", labels,
                             "--out", out])
        assert code == 3
        assert "bad dimensions" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_fractional_split_cell(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bundle"
        dataio.save_bundle(dataio.load_bundle(data_dir), str(bad))
        manifest = json.loads((bad / "bundle.json").read_text())
        manifest["split"]["query"] = [i + 0.5 for i in manifest["split"]["query"]]
        (bad / "bundle.json").write_text(json.dumps(manifest))
        code = cli.dispatch(["train", "--bundle", str(bad),
                             "--out", str(tmp_path / "x")] + TRAIN_FLAGS)
        assert code == 3
        assert "split cell 'query'" in capsys.readouterr().err

    def test_eval_row_mismatch(self, data_dir, train_dir, tmp_path, capsys):
        bundle = dataio.load_bundle(data_dir)
        dl_path = str(tmp_path / "dl.csv")
        dataio.write_labels(bundle.labels[bundle.split.retrieval], dl_path)
        code = cli.dispatch(["eval", "--query-codes",
                             os.path.join(train_dir, "query_image.assb"),
                             "--db-codes",
                             os.path.join(train_dir, "db_text.assb"),
                             "--query-labels", dl_path,  # wrong row count
                             "--db-labels", dl_path,
                             "--out", str(tmp_path / "ev")])
        assert code == 3
        assert "row count" in capsys.readouterr().err

    def test_divergence_exit_code(self, data_dir, tmp_path, capsys):
        with np.errstate(all="ignore"):
            # the repeated flags at the tail override the baseline ones
            code = cli.dispatch(["train", "--bundle", data_dir,
                                 "--out", str(tmp_path / "d")] + TRAIN_FLAGS
                                + ["--learning-rate", "1e308", "--epochs", "1"])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: divergence:")

    def test_unknown_flag(self, capsys):
        assert cli.dispatch(["synth", "--out", "x", "--bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.dispatch(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_import_loads_no_numpy(self):
        # --threads only caps the BLAS pools if numpy loads after dispatch
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import sys, assph.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("exported, flag, want", [
        ("2", ["--threads", "1"], "1"),  # an explicit flag wins
        ("2", [], "2"),  # an exported value stands without it
        (None, [], "1"),  # and unset variables default to 1
    ])
    def test_threads_precedence(self, tmp_path, exported, flag, want):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        if exported:
            env.update(OMP_NUM_THREADS=exported, OPENBLAS_NUM_THREADS=exported,
                       MKL_NUM_THREADS=exported)
        probe = ("import os, sys; from assph import cli; cli.dispatch(sys.argv[1:]); "
                 "print(*(os.environ[v] for v in "
                 "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
        argv = flag + ["synth", "--out", str(tmp_path / "s"), "--classes", "2",
                       "--instances", "30", "--dim-image", "6", "--dim-text", "5"]
        out = subprocess.run([sys.executable, "-c", probe, *argv], check=True,
                             capture_output=True, text=True,
                             env={**env, "PYTHONPATH": src})
        assert out.stdout.splitlines()[-1] == f"{want} {want} {want}"

    def test_threads_flag_accepted(self, tmp_path):
        out = str(tmp_path / "s")
        assert cli.dispatch(["--threads", "2", "synth", "--out", out,
                             "--classes", "2", "--instances", "30",
                             "--dim-image", "6", "--dim-text", "5"]) == 0

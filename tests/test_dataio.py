"""Feature/label containers, bundle manifests, and the synthetic corpus."""

import dataclasses
import itertools
import json
import os
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from assph import dataio, hashnet, kernels
from assph.errors import ConfigError, DataError


class TestFeatureContainer:
    """Binary feature container round trips and validation."""

    def test_roundtrip_known_matrix(self, tmp_path):
        path = str(tmp_path / "f.assf")
        mat = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        dataio.write_features(mat, path)
        got = dataio.load_features(path)
        npt.assert_array_equal(got, mat)
        assert got.dtype == np.float32

    def test_load_write_is_byte_identical(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mat = rng.standard_normal((17, 9)).astype(np.float32)
            p1 = str(tmp_path / f"a{seed}.assf")
            p2 = str(tmp_path / f"b{seed}.assf")
            dataio.write_features(mat, p1)
            dataio.write_features(dataio.load_features(p1), p2)
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "f.assf")
        dataio.write_features(np.ones((3, 2), dtype=np.float32), path)
        raw = open(path, "rb").read()
        assert raw[:4] == b"ASSF"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [1, 3, 2]
        assert len(raw) == 16 + 3 * 2 * 4

    def test_zero_row_rejected(self, tmp_path):
        path = str(tmp_path / "f.assf")
        mat = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
        dataio.write_features(np.ones((2, 2), dtype=np.float32), path)
        with pytest.raises(DataError, match="zero-norm row 1"):
            dataio.validate_features(mat)

    def test_nonfinite_rejected(self):
        mat = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(DataError, match="non-finite"):
            dataio.validate_features(mat)

    @pytest.mark.parametrize("bad, message", [
        ({1: 0.0, 5: np.nan}, "non-finite entry in row 5"),
        ({3: 0.0, 6: 0.0}, "zero-norm row 3"),
        ({4: np.inf, 6: np.nan}, "non-finite entry in row 4"),
    ], ids=["non-finite-first", "first-zero", "first-non-finite"])
    def test_row_blocks_keep_first_bad_row(self, monkeypatch, bad, message):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 6)  # two rows per block
        mat = np.ones((8, 3), dtype=np.float32)
        for row, value in bad.items():
            mat[row] = 0.0
            mat[row, -1] = value
        with pytest.raises(DataError, match=message):
            dataio.validate_features(mat)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "f.assf")
        dataio.write_features(np.ones((4, 4), dtype=np.float32), path)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:-8])
        with pytest.raises(DataError, match="payload"):
            dataio.load_features(path)

    def test_csv_fallback(self, tmp_path):
        path = str(tmp_path / "f.csv")
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.0,4.0\n")
        got = dataio.load_features(path)
        npt.assert_allclose(got, [[1, 2], [3, 4]])

    def test_csv_not_utf8_named_as_text(self, tmp_path):
        # the message fits a CSV file as well as a container with a damaged magic
        path = tmp_path / "f.csv"
        path.write_bytes(b"1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,\xff\n")
        with pytest.raises(DataError, match=r"f\.csv: neither a feature container "
                                            r"\(magic b'1\.0,', expected b'ASSF'\) "
                                            r"nor UTF-8 CSV text$"):
            dataio.load_features(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02 not a container")
        with pytest.raises(DataError):
            dataio.load_features(path)

    def test_expected_dim_mismatch(self, tmp_path):
        path = str(tmp_path / "f.assf")
        dataio.write_features(np.ones((2, 3), dtype=np.float32), path)
        with pytest.raises(DataError, match="expected 4 columns"):
            dataio.load_features(path, expected_dim=4)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            dataio.load_features(str(tmp_path / "nope.assf"))


def _container(kind, path):
    """Write a small valid .assf, .assp or .assb file."""
    if kind == "assf":
        dataio.write_features(np.ones((3, 4), dtype=np.float32), path)
    elif kind == "assp":
        hashnet.save_checkpoint(hashnet.init_params(4, 3, 2, seed=0), path)
    else:
        hashnet.save_codes(np.ones((3, 4), dtype=np.int8), path)


_LOADERS = {"assf": dataio.load_features, "assp": hashnet.load_checkpoint,
            "assb": hashnet.load_codes}


class TestContainerReads:
    """The three containers share one codec: their bytes, their messages
    for each malformed file, and one read holding about one copy."""

    @pytest.mark.parametrize("kind, expected", [
        ("assf", b"ASSF" + bytes.fromhex("01000000 02000000 01000000"
                                          "0000803f 000000c0")),
        ("assb", b"ASSB" + bytes.fromhex("02000000 03000000 01ff01 ff01ff")),
    ], ids=["assf", "assb"])
    def test_exact_bytes(self, tmp_path, kind, expected):
        path = str(tmp_path / f"f.{kind}")
        if kind == "assf":
            dataio.write_features(np.array([[1.0], [-2.0]], dtype=np.float32), path)
        else:
            hashnet.save_codes(np.array([[1, -1, 1], [-1, 1, -1]], dtype=np.int8), path)
        assert open(path, "rb").read() == expected

    @pytest.mark.parametrize("kind, defect, message", [
        ("assf", "truncated", "payload is 44 bytes, header implies 48"),
        ("assf", "oversized", "payload is 52 bytes, header implies 48"),
        ("assf", "bad-dimensions", "bad dimensions 0x4"),
        ("assf", "bad-version", "unsupported version 2"),
        ("assf", "short-header", "not a feature file"),
        ("assp", "truncated", "payload is 88 bytes, header implies 92"),
        ("assp", "oversized", "payload is 96 bytes, header implies 92"),
        ("assp", "bad-dimensions", "bad dimensions 0x3x2"),
        ("assp", "bad-version", "unsupported version 2"),
        ("assp", "short-header", "not a checkpoint file"),
        ("assp", "wrong-magic", "not a checkpoint file"),
        ("assb", "truncated", "payload is 8 bytes, header implies 12"),
        ("assb", "oversized", "payload is 16 bytes, header implies 12"),
        ("assb", "bad-dimensions", "bad dimensions 3x0"),
        ("assb", "bad-rows", "bad dimensions 0x4"),
        ("assb", "short-header", "not a codes file"),
        ("assb", "wrong-magic", "not a codes file"),
    ])  # a .assf without its magic is read as CSV (TestFeatureContainer)
    def test_malformed_payload_messages(self, tmp_path, kind, defect, message):
        path = str(tmp_path / f"f.{kind}")
        _container(kind, path)
        raw = bytearray(open(path, "rb").read())
        if defect == "truncated":
            raw = raw[:-4]
        elif defect == "oversized":
            raw += bytes(4)
        elif defect == "bad-dimensions":  # rows, d_in or bits: the uint32 at offset 8
            raw[8:12] = bytes(4)
        elif defect == "bad-rows":  # the rows of a header with no version
            raw[4:8] = bytes(4)
        elif defect == "bad-version":
            raw[4] = 2
        elif defect == "short-header":
            raw = raw[:8]
        else:
            raw[:4] = b"JUNK"
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(DataError, match=f"{path}: {message}$"):
            _LOADERS[kind](path)

    @staticmethod
    def _label_bytes(labels):
        """A canonical label CSV of a 0/1 matrix, built without a row loop."""
        cells = np.full((labels.shape[0], 2 * labels.shape[1]), ord(","), np.uint8)
        cells[:, ::2] = labels + ord("0")
        cells[:, -1] = ord("\n")
        return cells.tobytes()

    @pytest.mark.parametrize("loader, bound", [("features", 1.25), ("codes", 1.25),
                                               ("labels", 2.5)])
    def test_loading_holds_about_one_copy(self, tmp_path, loader, bound):
        rng = np.random.default_rng(5)
        path = str(tmp_path / loader)
        if loader == "features":
            dataio.write_features(rng.standard_normal((1000, 2000)).astype(np.float32),
                                  path)
            load = dataio.load_features
        elif loader == "codes":
            hashnet.save_codes(np.where(rng.random((100000, 64)) < 0.5, 1, -1), path)
            load = hashnet.load_codes
        else:
            labels = (rng.random((100000, 24)) < 0.2).astype(np.uint8)
            labels[:, 0] = 1
            with open(path, "wb") as fh:
                fh.write(self._label_bytes(labels))
            load = dataio.load_labels
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * os.path.getsize(path)


class TestLabels:
    """CSV label matrices: strict 0/1, rectangular, no empty rows."""

    def test_parse_small(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("1,0,1\n0,1,0\n")
        got = dataio.load_labels(path)
        npt.assert_array_equal(got, [[1, 0, 1], [0, 1, 0]])

    def test_empty_label_row_rejected(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("0,0\n")
        with pytest.raises(DataError, match="empty label row 0"):
            dataio.load_labels(path)

    def test_ragged_rejected(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("1,0\n1,0,1\n")
        with pytest.raises(DataError, match="ragged row 1"):
            dataio.load_labels(path)

    def test_nonbinary_rejected(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("1,2\n")
        with pytest.raises(DataError, match="non-binary"):
            dataio.load_labels(path)

    def test_float_entry_rejected(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("1,0.5\n")
        with pytest.raises(DataError):
            dataio.load_labels(path)

    @pytest.mark.parametrize("bad, message", [
        ("1,2", "non-binary entry at row 3"),
        ("1,x", "non-integer entry at row 3"),
        ("1,", "non-integer entry at row 3"),
        ("1,0,1", "ragged row 3 \\(3 cells, expected 2\\)"),
    ])
    def test_blank_lines_count_in_row_numbers(self, tmp_path, bad, message):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write(f"1,0\n\n0,1\n{bad}\n1,1\n")
        with pytest.raises(DataError, match=message):
            dataio.load_labels(path)

    def test_first_bad_row_wins(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("1,0\n1,5\n1\n")
        with pytest.raises(DataError, match="non-binary entry at row 1"):
            dataio.load_labels(path)
        with open(path, "w") as fh:
            fh.write("1,0\n1\n1,5\n")
        with pytest.raises(DataError, match="ragged row 1"):
            dataio.load_labels(path)

    def test_no_label_rows(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("\n  \n")
        with pytest.raises(DataError, match="no label rows"):
            dataio.load_labels(path)

    def test_int_spellings_and_blank_lines_parse(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("\n 1, 0 \n\n+0,01\r\n")
        npt.assert_array_equal(dataio.load_labels(path), [[1, 0], [0, 1]])

    @pytest.mark.parametrize("raw", [b"1,0,1\r\n0,1,1\r\n", b"1,0\n0,1\n1,1",
                                     b"1\n0\n1\n"],
                             ids=["crlf", "no-final-newline", "width-1"])
    def test_canonical_file_parses_in_one_pass(self, tmp_path, raw):
        path = tmp_path / "l.csv"
        path.write_bytes(raw)
        fast = dataio._canonical_labels(raw)
        assert fast is not None
        npt.assert_array_equal(fast, dataio._parse_labels(str(path), raw))
        npt.assert_array_equal(dataio._read_labels(str(path)), fast)

    def test_one_pass_agrees_with_text_parser(self):
        # every file of up to 6 bytes from these: whatever the one pass
        # accepts, the row-by-row parser reads the same
        accepted = 0
        for n in range(7):
            for cells in itertools.product((b"0", b"1", b",", b"\n", b"\r"), repeat=n):
                raw = b"".join(cells)
                fast = dataio._canonical_labels(raw)
                if fast is not None:
                    accepted += 1
                    npt.assert_array_equal(fast, dataio._parse_labels("l.csv", raw))
        assert accepted > 50

    @pytest.mark.parametrize("raw, expected", [
        (b"1,0\n\n0,1\n\n", [[1, 0], [0, 1]]),
        (b"1, 0\n0 ,1\n", [[1, 0], [0, 1]]),
        (b"+0, 1\n1,0\n", [[0, 1], [1, 0]]),
        (b"1,0\r0,1\r", [[1, 0], [0, 1]]),
        (b"1,0\n2,1\n", "non-binary entry at row 1"),
        (b"1,0\n1,0,1\n", "ragged row 1 \\(3 cells, expected 2\\)"),
        (b"", "no label rows"),
        (b"\xef\xbb\xbf1,0\n0,1\n", "non-integer entry at row 0"),
    ], ids=["blank-lines", "spaces", "plus-zero", "cr-only", "two", "ragged",
            "empty", "bom"])
    def test_other_files_parse_row_by_row(self, tmp_path, raw, expected):
        path = tmp_path / "l.csv"
        path.write_bytes(raw)
        assert dataio._canonical_labels(raw) is None
        if isinstance(expected, str):
            with pytest.raises(DataError, match=f"{path}: {expected}"):
                dataio.load_labels(str(path))
        else:
            npt.assert_array_equal(dataio.load_labels(str(path)), expected)

    @pytest.mark.parametrize("bad", [
        np.array([[1, 0], [0, 1], [1, -128]], dtype=np.int8),
        np.array([[1, 0], [0, 1], [2, 1]]),
        np.array([[1, 0], [0, 1], [1, 0.5]]),
        np.array([[1, 0], [0, 1], [np.nan, 1]]),
    ], ids=["int8-min", "two", "half", "nan"])
    def test_validate_rejects_non_binary(self, bad):
        with pytest.raises(DataError, match="labels: non-binary entry at row 2"):
            dataio.validate_labels(bad)
        # the first bad row is named
        with pytest.raises(DataError, match="non-binary entry at row 0"):
            dataio.validate_labels(np.vstack([bad[2:], bad]))

    def test_validate_accepts_bool(self):
        labels = np.array([[True, False], [True, True]])
        got = dataio.validate_labels(labels)
        assert got.dtype == np.int8
        npt.assert_array_equal(got, [[1, 0], [1, 1]])

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = (rng.random((100, 10)) < 0.3).astype(np.int8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        path = str(tmp_path / "l.csv")
        dataio.write_labels(labels, path)
        npt.assert_array_equal(dataio.load_labels(path), labels)


class TestSynthetic:
    """Deterministic prototype-plus-noise corpus generation."""

    def test_deterministic_per_seed(self):
        cfg = dataio.SynthConfig(classes=4, instances=120, dim_image=8,
                                 dim_text=6, seed=7)
        a = dataio.generate_synthetic(cfg)
        b = dataio.generate_synthetic(cfg)
        npt.assert_array_equal(a.image_features, b.image_features)
        npt.assert_array_equal(a.text_features, b.text_features)
        npt.assert_array_equal(a.labels, b.labels)
        npt.assert_array_equal(a.split.train, b.split.train)
        npt.assert_array_equal(a.split.query, b.split.query)

    def test_seeds_differ(self):
        cfg_a = dataio.SynthConfig(instances=60, seed=1)
        cfg_b = dataio.SynthConfig(instances=60, seed=2)
        a = dataio.generate_synthetic(cfg_a)
        b = dataio.generate_synthetic(cfg_b)
        assert not np.array_equal(a.image_features, b.image_features)

    def test_zero_noise_collapses_single_label_classes(self):
        cfg = dataio.SynthConfig(classes=2, instances=80, dim_image=5,
                                 dim_text=4, label_cardinality=1.0,
                                 noise_sigma=0.0, seed=11)
        bundle = dataio.generate_synthetic(cfg)
        single = bundle.labels.sum(axis=1) == 1
        for c in range(2):
            rows = bundle.image_features[single & (bundle.labels[:, c] == 1)]
            if len(rows) > 1:
                npt.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_intra_class_cosine_exceeds_inter(self):
        cfg = dataio.SynthConfig(classes=5, instances=400, dim_image=24,
                                 dim_text=20, noise_sigma=0.1, seed=0)
        bundle = dataio.generate_synthetic(cfg)
        f = bundle.image_features / np.linalg.norm(
            bundle.image_features, axis=1, keepdims=True)
        cos = f @ f.T
        share = (bundle.labels.astype(np.float32) @ bundle.labels.T.astype(np.float32)) > 0
        off = ~np.eye(len(f), dtype=bool)
        assert cos[share & off].mean() > cos[~share & off].mean() + 0.3

    def test_split_layout(self):
        cfg = dataio.SynthConfig(instances=200, seed=5)
        bundle = dataio.generate_synthetic(cfg)
        assert bundle.split.query.size == 20
        assert bundle.split.retrieval.size == 180
        npt.assert_array_equal(bundle.split.train, bundle.split.retrieval)
        assert not set(bundle.split.query) & set(bundle.split.retrieval)

    def test_train_size_subset(self):
        cfg = dataio.SynthConfig(instances=200, seed=5)
        bundle = dataio.generate_synthetic(cfg, train_size=50)
        assert bundle.split.train.size == 50
        assert set(bundle.split.train) <= set(bundle.split.retrieval)

    def test_bad_train_size(self):
        cfg = dataio.SynthConfig(instances=100, seed=5)
        with pytest.raises(ConfigError, match="train_size"):
            dataio.generate_synthetic(cfg, train_size=91)

    def test_bad_cardinality(self):
        with pytest.raises(ConfigError, match="label_cardinality"):
            dataio.generate_synthetic(dataio.SynthConfig(classes=3,
                                                         label_cardinality=4.0))

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="noise_sigma"):
            dataio.SynthConfig(noise_sigma=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dataio.SynthConfig().noise_sigma = -1.0

    def test_every_row_has_a_label(self):
        for seed in range(3):
            cfg = dataio.SynthConfig(classes=8, instances=150,
                                     label_cardinality=0.5, seed=seed)
            bundle = dataio.generate_synthetic(cfg)
            assert (bundle.labels.sum(axis=1) >= 1).all()


class TestBundle:
    """Manifest save/load and split validation."""

    def test_save_load_roundtrip(self, tmp_path):
        cfg = dataio.SynthConfig(instances=60, seed=2)
        bundle = dataio.generate_synthetic(cfg)
        dataio.save_bundle(bundle, str(tmp_path))
        got = dataio.load_bundle(str(tmp_path))
        npt.assert_array_equal(got.image_features, bundle.image_features)
        npt.assert_array_equal(got.text_features, bundle.text_features)
        npt.assert_array_equal(got.labels, bundle.labels)
        npt.assert_array_equal(got.split.retrieval, bundle.split.retrieval)

    def test_query_retrieval_overlap_rejected(self):
        split = dataio.Split(train=np.array([0, 1]), query=np.array([2]),
                             retrieval=np.array([2, 3]))
        with pytest.raises(DataError, match="overlap"):
            split.validate(4)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError, match="rows"):
            dataio.DatasetBundle(
                image_features=np.ones((4, 3), dtype=np.float32),
                text_features=np.ones((5, 3), dtype=np.float32),
                labels=None,
                split=dataio.Split(train=np.array([0]), query=np.array([1]),
                                   retrieval=np.array([0, 2, 3])),
            )

    @pytest.mark.parametrize("cell", [
        [0.7, 1.7, 2.7],
        ["0", "1", "2"],
        [True, 2, 3],
        [[0, 1], [2, 3]],
        "0,1,2",
        {"0": 1},
    ], ids=["fractions", "strings", "booleans", "nested", "string", "object"])
    def test_split_cell_of_non_indices_rejected(self, tmp_path, cell):
        dataio.save_bundle(dataio.generate_synthetic(
            dataio.SynthConfig(instances=60, seed=2)), str(tmp_path))
        path = tmp_path / "bundle.json"
        manifest = json.loads(path.read_text())
        manifest["split"]["train"] = cell
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="split cell 'train'"):
            dataio.load_bundle(str(tmp_path))

    def test_checked_when_built(self):
        fi = np.ones((4, 3), dtype=np.float32)
        fi[2] = 0.0
        split = dataio.Split(train=[0, 1], query=[3], retrieval=[0, 1, 2])
        with pytest.raises(DataError, match="image features: zero-norm row 2"):
            dataio.DatasetBundle(fi, np.ones((4, 3), dtype=np.float32), None, split)

    @pytest.mark.parametrize("bad, message", [
        ("image", r"image\.assf: zero-norm row 5"),
        ("labels", r"labels\.csv: empty label row 7"),
        ("split", r"bundle\.json: split: query and retrieval cells overlap"),
    ], ids=["image", "labels", "split"])
    def test_loaded_bundle_names_its_file(self, tmp_path, bad, message):
        bundle = dataio.generate_synthetic(dataio.SynthConfig(instances=60, seed=2))
        dataio.save_bundle(bundle, str(tmp_path))
        if bad == "image":
            # a container with a zero row, written by hand
            fi = bundle.image_features.copy()
            fi[5] = 0.0
            with open(tmp_path / "image.assf", "wb") as fh:
                fh.write(struct.pack("<4sIII", b"ASSF", 1, *fi.shape))
                fh.write(fi.tobytes())
        elif bad == "labels":
            labels = bundle.labels.copy()
            labels[7] = 0
            (tmp_path / "labels.csv").write_text(
                "".join(",".join(map(str, row)) + "\n" for row in labels))
        else:
            path = tmp_path / "bundle.json"
            manifest = json.loads(path.read_text())
            manifest["split"]["query"] = manifest["split"]["train"][:1]
            path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=message):
            dataio.load_bundle(str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest not found"):
            dataio.load_bundle(str(tmp_path))

    @staticmethod
    def _manifest_with(raw: bytes, **values) -> bytes:
        manifest = json.loads(raw)
        manifest.update(values)
        return json.dumps(manifest).encode()

    @pytest.mark.parametrize("name, edit, message", [
        ("bundle.json", lambda raw: b"7", "manifest file must hold a JSON object"),
        ("bundle.json", lambda raw: b"[]", "manifest file must hold a JSON object"),
        ("bundle.json", lambda raw: TestBundle._manifest_with(raw, image_features=5),
         "manifest key 'image_features' must be a file name$"),
        ("bundle.json", lambda raw: TestBundle._manifest_with(raw, text_features=None),
         "manifest key 'text_features' must be a file name$"),
        ("bundle.json", lambda raw: TestBundle._manifest_with(raw, labels=True),
         "manifest key 'labels' must be a file name or null$"),
        ("bundle.json",
         lambda raw: TestBundle._manifest_with(raw, split=["train", "query", "retrieval"]),
         "manifest key 'split' must be an object$"),
        ("bundle.json",
         lambda raw: json.dumps({k: v for k, v in json.loads(raw).items()
                                 if k != "split"}).encode(),
         "manifest key 'split' must be an object$"),
        ("bundle.json", lambda raw: b"\xff\xfe" + raw,
         "invalid manifest JSON: 'utf-8' codec can't decode byte 0xff"),
        ("labels.csv", lambda raw: b"\xff" + raw[1:],
         "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["number", "list", "image-number", "text-null", "labels-bool", "split-list",
            "split-missing", "manifest-bytes", "labels-bytes"])
    def test_malformed_text_names_its_file(self, tmp_path, name, edit, message):
        dataio.save_bundle(dataio.generate_synthetic(
            dataio.SynthConfig(instances=60, seed=2)), str(tmp_path))
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            dataio.load_bundle(str(tmp_path))

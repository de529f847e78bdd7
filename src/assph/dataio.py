"""Dataset loading, validation, the binary containers and synthetic corpus
generation.

Every binary file the program reads or writes is one Container: a 4-byte
magic, little-endian uint32 header fields (a version, where the format has
one, then the dimensions), then the row-major little-endian payload.  The
three formats, feature matrices (``ASSF``), network checkpoints (``ASSP``)
and sign codes (``ASSB``), are the Container instances FEATURES,
CHECKPOINT and CODES below; hashnet writes and reads its files through the
last two.  Label matrices are plain CSV of 0/1 ints.  A dataset bundle
ties two feature files, an optional label file, and a train/query/retrieval
split together through a JSON manifest.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import SynthConfig
from .errors import ConfigError, DataError


def validate_features(arr: np.ndarray, name: str = "features") -> np.ndarray:
    """Check the feature-matrix contract: 2-d float32, finite, no zero rows.

    The rows are checked in blocks of about kernels.BLOCK_ENTRIES entries,
    so the check's temporaries stay small whatever the matrix size; a
    non-finite entry anywhere is reported before a zero-norm row.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"{name}: expected a non-empty 2-d matrix, got shape {arr.shape}")
    zero = None
    step = kernels.rows_within(kernels.BLOCK_ENTRIES, arr.shape[1])
    for lo, hi in kernels.row_blocks(len(arr), step):
        finite = np.isfinite(arr[lo:hi]).all(axis=1)
        if not finite.all():
            raise DataError(f"{name}: non-finite entry in row {lo + int(np.argmin(finite))}")
        if zero is None:
            norms = np.linalg.norm(arr[lo:hi], axis=1)
            if np.any(norms == 0.0):
                zero = lo + int(np.argmax(norms == 0.0))
    if zero is not None:
        raise DataError(f"{name}: zero-norm row {zero}")
    return arr


def _read_file(path: str, kind: str) -> bytes:
    """The bytes of an input file, read once; kind names the file in the
    message for a missing one."""
    if not os.path.exists(path):
        raise DataError(f"{kind} file not found: {path}")
    with open(path, "rb") as fh:
        return fh.read()


class Container:
    """One binary format: its magic, the kind of file messages name, the
    header's version (None for a format without one) and dimension count,
    the payload's dtype, and shapes, which maps the dimensions to the
    shapes of the arrays the payload holds one after another."""

    def __init__(self, magic: bytes, kind: str, version: int | None, n_dims: int,
                 dtype: str, shapes=lambda rows, cols: [(rows, cols)]):
        self.magic, self.kind, self.version = magic, kind, version
        self.dtype, self.shapes = np.dtype(dtype), shapes
        self.header = struct.Struct("<4s" + "I" * (n_dims + (version is not None)))

    def write(self, path: str, dims, arrays) -> None:
        """Write the header and each array's payload, unchecked: the arrays
        have the shapes dims implies.  Each array is converted to the payload
        dtype one block of kernels.BLOCK_ENTRIES entries at a time."""
        version = () if self.version is None else (self.version,)
        with open(path, "wb") as fh:
            fh.write(self.header.pack(self.magic, *version, *dims))
            for arr in arrays:
                step = kernels.rows_within(kernels.BLOCK_ENTRIES, math.prod(arr.shape[1:]))
                for lo, hi in kernels.row_blocks(len(arr), step):
                    fh.write(np.ascontiguousarray(arr[lo:hi], dtype=self.dtype))

    def unpack(self, path: str, raw: bytes) -> list[np.ndarray]:
        """The payload arrays in a file's bytes, read-only views of them,
        once the magic, version, dimensions and payload length check."""
        if len(raw) < self.header.size or raw[:4] != self.magic:
            raise DataError(f"{path}: not a {self.kind} file")
        _, *dims = self.header.unpack_from(raw)
        if self.version is not None:
            version = dims.pop(0)
            if version != self.version:
                raise DataError(f"{path}: unsupported version {version}")
        if min(dims) < 1:
            raise DataError(f"{path}: bad dimensions {'x'.join(map(str, dims))}")
        shapes = self.shapes(*dims)
        want = sum(map(math.prod, shapes)) * self.dtype.itemsize
        if len(raw) - self.header.size != want:
            raise DataError(
                f"{path}: payload is {len(raw) - self.header.size} bytes, header implies {want}"
            )
        arrays, offset = [], self.header.size
        for shape in shapes:
            count = math.prod(shape)
            arrays.append(np.frombuffer(raw, dtype=self.dtype, count=count,
                                        offset=offset).reshape(shape))
            offset += count * self.dtype.itemsize
        return arrays

    def read(self, path: str) -> list[np.ndarray]:
        """The payload arrays of a file, read once (see unpack)."""
        return self.unpack(path, _read_file(path, self.kind))


FEATURES = Container(b"ASSF", "feature", 1, 2, "<f4")
CHECKPOINT = Container(b"ASSP", "checkpoint", 1, 3, "<f4",
                       lambda d_in, d_hidden, k: [(d_hidden, d_in), (d_hidden,),
                                                  (k, d_hidden), (k,)])
CODES = Container(b"ASSB", "codes", None, 2, "i1")


def write_features(arr: np.ndarray, path: str) -> None:
    """Serialize a feature matrix to its container, unchecked: the matrix
    is one validate_features returned or one built from such."""
    FEATURES.write(path, arr.shape, [arr])


def _read_features(path: str) -> np.ndarray:
    """Parse a feature file, the binary container or CSV text as its first
    four bytes say; the values are not checked.

    The container is read once and its matrix is a read-only view of the
    file's bytes; CSV text is left to numpy's parser."""
    raw = _read_file(path, "feature")
    if raw[:4] != FEATURES.magic:
        magic, raw = raw[:4], None  # freed before numpy parses the text
        try:
            return np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
        except UnicodeDecodeError:  # a damaged container, or text that is not UTF-8
            raise DataError(f"{path}: neither a feature container (magic {magic!r}, "
                            f"expected {FEATURES.magic!r}) nor UTF-8 CSV text")
        except ValueError as exc:
            raise DataError(f"{path}: not a feature container and CSV parse failed: {exc}")
    return FEATURES.unpack(path, raw)[0]


def load_features(path: str, expected_dim: int | None = None) -> np.ndarray:
    """Load and check a feature matrix, the binary container or CSV text.

    Malformed headers, dimension mismatches, zero-norm rows and non-finite
    entries all raise :class:`DataError` with the offending location.
    """
    arr = validate_features(_read_features(path), name=path)
    if expected_dim is not None and arr.shape[1] != expected_dim:
        raise DataError(f"{path}: expected {expected_dim} columns, found {arr.shape[1]}")
    return arr


def validate_labels(labels: np.ndarray, name: str = "labels") -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DataError(f"{name}: expected a 2-d matrix, got shape {labels.shape}")
    binary = labels == (labels != 0)
    if not binary.all():
        bad = int(np.argwhere(~binary.all(axis=1))[0, 0])
        raise DataError(f"{name}: non-binary entry at row {bad}")
    labels = labels.astype(np.int8)
    sums = labels.sum(axis=1)
    if np.any(sums == 0):
        bad = int(np.argmax(sums == 0))
        raise DataError(f"{name}: empty label row {bad}")
    return labels


def _canonical_labels(raw: bytes) -> np.ndarray | None:
    """The 0/1 matrix of a canonical label file, or None for any other.

    Canonical rows hold one-character 0/1 cells with one ',' between them
    and end in LF or CR LF, the same in every row; the last row's line end
    is optional.  Every byte is checked through strided uint8 views of the
    file, one comparison per role (cell, separator, line end).
    """
    end = raw.find(b"\n")
    if end < 0:
        end = len(raw)  # one row, no line end
    eol = b"\r\n" if raw[end - 1:end + 1] == b"\r\n" else b"\n"
    stride = end + 1  # a row and its line end
    width = stride - len(eol)  # a row's cells and separators
    ended, rest = divmod(len(raw), stride)  # rows with a line end, and the rest
    if width % 2 == 0 or rest not in (0, width):
        return None
    rows = ended + (rest > 0)
    grid = np.ndarray((rows, width), dtype=np.uint8, buffer=raw, strides=(stride, 1))
    ends = np.ndarray((ended, len(eol)), dtype=np.uint8, buffer=raw, offset=width,
                      strides=(stride, 1))
    if not ((grid[:, 1::2] == ord(",")).all()
            and (ends == np.frombuffer(eol, dtype=np.uint8)).all()):
        return None
    labels = grid[:, ::2] - np.uint8(ord("0"))
    return labels if (labels <= 1).all() else None


def _parse_labels(path: str, raw: bytes) -> np.ndarray:
    """Parse the bytes of any label file, decoded as UTF-8 with universal
    newlines, row by row with int().

    Blank lines are skipped, but the row numbers in parse errors count
    them; int() takes spellings such as " 1" or "+0", and the first bad
    row is the one reported.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [(i, s) for i, s in enumerate(map(str.strip, text.split("\n"))) if s]
    if not lines:
        raise DataError(f"{path}: no label rows")
    width = lines[0][1].count(",") + 1
    ragged = next((n for n, (_, s) in enumerate(lines) if s.count(",") + 1 != width),
                  len(lines))
    labels = np.empty((ragged, width), dtype=np.int8)
    for n, (i, s) in enumerate(lines[:ragged]):
        try:
            row = [int(c) for c in s.split(",")]
        except ValueError:
            raise DataError(f"{path}: non-integer entry at row {i}") from None
        if any(v not in (0, 1) for v in row):
            raise DataError(f"{path}: non-binary entry at row {i}")
        labels[n] = row
    if ragged < len(lines):
        i, s = lines[ragged]
        raise DataError(f"{path}: ragged row {i} ({s.count(',') + 1} cells, expected {width})")
    return labels


def _read_labels(path: str) -> np.ndarray:
    """Parse a CSV label matrix of 0/1 ints; empty rows are left to
    validate_labels.

    The file is read once.  A canonical file (_canonical_labels) parses in
    one pass over its bytes; any other is parsed row by row (_parse_labels).
    """
    raw = _read_file(path, "label")
    labels = _canonical_labels(raw)
    if labels is None:
        labels = _parse_labels(path, raw)
    return labels


def load_labels(path: str) -> np.ndarray:
    """Load and check a CSV label matrix; every row needs at least one 1."""
    return validate_labels(_read_labels(path), name=path)


def write_labels(labels: np.ndarray, path: str) -> None:
    """Write a label matrix validate_labels returned as canonical CSV,
    unchecked."""
    with open(path, "w") as fh:
        for row in labels:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")


@dataclass
class Split:
    """Index lists partitioning a dataset into train/query/retrieval roles."""

    train: np.ndarray
    query: np.ndarray
    retrieval: np.ndarray

    def __post_init__(self) -> None:
        self.train = np.asarray(self.train, dtype=np.int64)
        self.query = np.asarray(self.query, dtype=np.int64)
        self.retrieval = np.asarray(self.retrieval, dtype=np.int64)

    def validate(self, n_rows: int, name: str = "split") -> None:
        for cell, idx in (("train", self.train), ("query", self.query),
                          ("retrieval", self.retrieval)):
            if idx.size == 0:
                raise DataError(f"{name}: empty {cell} cell")
            if idx.min() < 0 or idx.max() >= n_rows:
                raise DataError(f"{name}: {cell} index out of range for {n_rows} rows")
            if len(np.unique(idx)) != len(idx):
                raise DataError(f"{name}: duplicate indices in {cell}")
        q, r, t = set(self.query.tolist()), set(self.retrieval.tolist()), set(self.train.tolist())
        if q & r:
            raise DataError(f"{name}: query and retrieval cells overlap")
        # train may sit inside retrieval (database includes the training set)
        # or stand apart from it, but never inside the query cell
        if q & t:
            raise DataError(f"{name}: query and train cells overlap")


@dataclass
class DatasetBundle:
    """Paired image/text features with labels and a role split.

    files lists the paths load_bundle read it from, bundle.json first;
    it is empty for a bundle built in memory.  The bundle checks its
    features, labels and split once, when built, and keeps the checked
    arrays: C-contiguous float32 features and int8 labels.  The messages
    of a loaded bundle name its files.
    """

    image_features: np.ndarray
    text_features: np.ndarray
    labels: np.ndarray | None
    split: Split
    files: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        where = self.files or ["bundle", "image features", "text features", "labels"]
        self.image_features = validate_features(self.image_features, where[1])
        self.text_features = validate_features(self.text_features, where[2])
        rows = self.n_rows
        if self.text_features.shape[0] != rows:
            raise DataError(
                f"{where[0]}: image rows {rows} != text rows {self.text_features.shape[0]}"
            )
        if self.labels is not None:
            self.labels = validate_labels(self.labels, where[3])
            if self.labels.shape[0] != rows:
                raise DataError(
                    f"{where[0]}: label rows {self.labels.shape[0]} != feature rows {rows}"
                )
        self.split.validate(rows, f"{where[0]}: split" if self.files else "split")

    @property
    def n_rows(self) -> int:
        return self.image_features.shape[0]


def generate_synthetic(cfg: SynthConfig, train_size: int | None = None) -> DatasetBundle:
    """Build a deterministic synthetic bundle with shared class structure.

    Each class owns one fixed random unit prototype per modality.  An
    instance samples its label set (every class independently with
    probability ``label_cardinality / classes``, redrawn while empty), and
    its feature in each modality is the sum of the owned prototypes plus
    isotropic Gaussian noise.  The split reserves 10% of rows as queries,
    the remainder as retrieval, and takes ``train_size`` retrieval rows
    (all of them by default) as the training set.
    """
    rng = np.random.default_rng(cfg.seed)
    protos_i = rng.standard_normal((cfg.classes, cfg.dim_image))
    protos_i /= np.linalg.norm(protos_i, axis=1, keepdims=True)
    protos_t = rng.standard_normal((cfg.classes, cfg.dim_text))
    protos_t /= np.linalg.norm(protos_t, axis=1, keepdims=True)

    p = cfg.label_cardinality / cfg.classes
    labels = np.zeros((cfg.instances, cfg.classes), dtype=np.int8)
    for i in range(cfg.instances):
        row = (rng.random(cfg.classes) < p).astype(np.int8)
        while not row.any():
            row = (rng.random(cfg.classes) < p).astype(np.int8)
        labels[i] = row

    fi = labels @ protos_i + cfg.noise_sigma * rng.standard_normal((cfg.instances, cfg.dim_image))
    ft = labels @ protos_t + cfg.noise_sigma * rng.standard_normal((cfg.instances, cfg.dim_text))

    perm = rng.permutation(cfg.instances)
    n_query = max(1, cfg.instances // 10)
    query = np.sort(perm[:n_query])
    retrieval = np.sort(perm[n_query:])
    if train_size is None:
        train = retrieval.copy()
    else:
        if not 1 <= train_size <= retrieval.size:
            raise ConfigError(
                f"synth: train_size {train_size} outside [1, {retrieval.size}]"
            )
        train = np.sort(rng.permutation(retrieval)[:train_size])

    return DatasetBundle(
        image_features=fi.astype(np.float32),
        text_features=ft.astype(np.float32),
        labels=labels,
        split=Split(train=train, query=query, retrieval=retrieval),
    )


_MANIFEST_NAME = "bundle.json"


def write_json(obj, path: str) -> None:
    """Write obj as every JSON file the program writes: indent 1, sorted
    keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str, kind: str) -> dict:
    """The JSON object a UTF-8 file holds, read once; kind names the file
    in the messages."""
    raw = _read_file(path, kind)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: invalid {kind} JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {kind} file must hold a JSON object")
    return obj


def save_bundle(bundle: DatasetBundle, out_dir: str) -> list[str]:
    """Write the bundle's files plus a JSON manifest; returns the names of
    the files written.

    The arrays are written as the bundle checked them when built."""
    os.makedirs(out_dir, exist_ok=True)
    write_features(bundle.image_features, os.path.join(out_dir, "image.assf"))
    write_features(bundle.text_features, os.path.join(out_dir, "text.assf"))
    manifest = {
        "image_features": "image.assf",
        "text_features": "text.assf",
        "labels": None,
        "split": {
            "train": bundle.split.train.tolist(),
            "query": bundle.split.query.tolist(),
            "retrieval": bundle.split.retrieval.tolist(),
        },
    }
    if bundle.labels is not None:
        write_labels(bundle.labels, os.path.join(out_dir, "labels.csv"))
        manifest["labels"] = "labels.csv"
    write_json(manifest, os.path.join(out_dir, _MANIFEST_NAME))
    return [name for name in manifest.values() if isinstance(name, str)] + [_MANIFEST_NAME]


def load_bundle(path: str) -> DatasetBundle:
    """Load a bundle from its manifest path or the directory holding it.

    Only the files' formats are checked here; the bundle checks their
    values when built."""
    if os.path.isdir(path):
        path = os.path.join(path, _MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataError(f"bundle manifest not found: {path}")
    manifest = read_json(path, "manifest")
    base = os.path.dirname(path)
    # labels alone may be absent
    for key, kind, want in (("image_features", str, "a file name"),
                            ("text_features", str, "a file name"),
                            ("labels", (str, type(None)), "a file name or null"),
                            ("split", dict, "an object")):
        if not isinstance(manifest.get(key), kind):
            raise DataError(f"{path}: manifest key '{key}' must be {want}")
    files = [path, os.path.join(base, manifest["image_features"]),
             os.path.join(base, manifest["text_features"])]
    fi = _read_features(files[1])
    ft = _read_features(files[2])
    labels = None
    if manifest.get("labels"):
        files.append(os.path.join(base, manifest["labels"]))
        labels = _read_labels(files[3])
    sp = manifest["split"]
    for cell in ("train", "query", "retrieval"):
        if cell not in sp:
            raise DataError(f"{path}: split missing cell '{cell}'")
        # bool is an int subclass, and np.asarray would truncate 0.7 to 0
        if not isinstance(sp[cell], list) or any(type(v) is not int for v in sp[cell]):
            raise DataError(f"{path}: split cell '{cell}' is not a list of integer indices")
    split = Split(train=sp["train"], query=sp["query"], retrieval=sp["retrieval"])
    return DatasetBundle(image_features=fi, text_features=ft, labels=labels,
                         split=split, files=files)

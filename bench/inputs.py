"""Benchmark inputs, generated from the workload seed.

The benchmark writes the program's documented file formats itself (the
``ASSF`` feature container, 0/1 label CSV, ``bundle.json`` and the ``ASSB``
code container) instead of calling ``assph synth``, so a change to the
program's own generator cannot change what the benchmark measures.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

_FEATURES_HEADER = struct.Struct("<4sIII")  # magic, version, rows, cols
_CODES_HEADER = struct.Struct("<4sII")  # magic, rows, bits


def write_features(path: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_FEATURES_HEADER.pack(b"ASSF", 1, *arr.shape))
        fh.write(arr.tobytes())


def write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in labels:
            fh.write(",".join("1" if v else "0" for v in row))
            fh.write("\n")


def write_codes(path: str, codes: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_CODES_HEADER.pack(b"ASSB", *codes.shape))
        fh.write(np.ascontiguousarray(codes, dtype=np.int8).tobytes())


def read_codes(path: str) -> np.ndarray:
    """Parse an ASSB file without the program's reader; raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CODES_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, rows, bits = _CODES_HEADER.unpack_from(raw)
    if magic != b"ASSB" or len(raw) != _CODES_HEADER.size + rows * bits:
        raise ValueError(f"{path}: not a {rows}x{bits} code file")
    return np.frombuffer(raw, dtype=np.int8,
                         offset=_CODES_HEADER.size).reshape(rows, bits)


def multi_hot(rng: np.random.Generator, n: int, classes: int,
              cardinality: float) -> np.ndarray:
    """Rows with each class on independently at cardinality/classes, never empty."""
    p = cardinality / classes
    labels = rng.random((n, classes)) < p
    empty = ~labels.any(axis=1)
    labels[empty, rng.integers(0, classes, size=int(empty.sum()))] = True
    return labels.astype(np.int8)


def make_train_inputs(out_dir: str, seed: int, geo: dict) -> str:
    """A paired-modality bundle with disjoint train/query/retrieval rows.

    Each class owns a random unit prototype per modality; a row's feature
    is the sum of its classes' prototypes plus Gaussian noise.  Returns the
    bundle directory.
    """
    rng = np.random.default_rng(seed)
    n = geo["n_train"] + geo["n_query"] + geo["n_db"]
    if geo.get("single_label"):
        labels = np.eye(geo["classes"], dtype=np.int8)[
            rng.integers(0, geo["classes"], size=n)]
    else:
        labels = multi_hot(rng, n, geo["classes"], geo["label_cardinality"])
    feats = []
    for dim in (geo["dim_image"], geo["dim_text"]):
        protos = rng.standard_normal((geo["classes"], dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        f = labels @ protos + geo["noise_sigma"] * rng.standard_normal((n, dim))
        if geo.get("center"):
            f -= f.mean(axis=0)
        feats.append(f)
    perm = rng.permutation(n)
    cuts = np.cumsum([geo["n_train"], geo["n_query"]])
    split = {name: np.sort(part).tolist() for name, part in
             zip(("train", "query", "retrieval"), np.split(perm, cuts))}

    bundle_dir = os.path.join(out_dir, "bundle")
    os.makedirs(bundle_dir)
    write_features(os.path.join(bundle_dir, "image.assf"), feats[0])
    write_features(os.path.join(bundle_dir, "text.assf"), feats[1])
    write_labels(os.path.join(bundle_dir, "labels.csv"), labels)
    with open(os.path.join(bundle_dir, "bundle.json"), "w") as fh:
        json.dump({"image_features": "image.assf", "text_features": "text.assf",
                   "labels": "labels.csv", "split": split}, fh)
    return bundle_dir


def make_eval_inputs(out_dir: str, seed: int, geo: dict) -> dict:
    """Stored codes for both retrieval directions plus their label files.

    Every class owns a random +-1 prototype code; an item's code is the
    sign of the sum of its classes' prototypes (ties to +1), with each bit
    then flipped with probability ``flip``.  Image and text codes of one
    item flip independently.  Returns the file paths by role.
    """
    rng = np.random.default_rng(seed)
    protos = rng.choice(np.array([-1, 1], dtype=np.int8),
                        size=(geo["classes"], geo["bits"]))
    paths = {}
    for role in ("query", "db"):
        n = geo[f"n_{role}"]
        labels = multi_hot(rng, n, geo["classes"], geo["label_cardinality"])
        paths[f"{role}_labels"] = os.path.join(out_dir, f"{role}_labels.csv")
        write_labels(paths[f"{role}_labels"], labels)
        base = np.where(labels.astype(np.int64) @ protos >= 0, 1, -1)
        for modality in ("image", "text"):
            flips = rng.random(base.shape) < geo["flip"]
            codes = np.where(flips, -base, base).astype(np.int8)
            key = f"{role}_{modality}"
            paths[key] = os.path.join(out_dir, f"{key}.assb")
            write_codes(paths[key], codes)
    return paths

#!/usr/bin/env python3
"""Golden digests of the CLI's outputs on fixed-seed fixtures.

Rewrites ``tests/golden/eval_digests.json`` and
``tests/golden/cli_digests.json`` from this checkout's ``src``:

    python tests/golden/regenerate.py

The eval fixture: 300 queries and 3000 database items with 24 multi-hot
labels, image and text codes of 64 and of 300 bits (either side of the
uint8 distance range).  Every class owns a random +-1 prototype; an
item's code is the sign of the sum of its classes' prototypes, each bit
flipped with probability 0.3, so ranks hold many ties.  Two queries share
no label with any item.  Eval's float work is exact (+-1 products) or
numpy's own sums, so its digests hold on any BLAS.

The CLI fixture: a 240-row bundle of 8 multi-hot classes with centred
48-d image and 32-d text features, in which 60 rows repeat earlier ones,
so similarities tie and tie-breaking shows in the outputs.  One process
pinned to 1 BLAS thread runs build-sim (base and four switches), train
for 2 epochs (base and four switches), encode of the base image
checkpoint and ablate with its default variants, and digests every
semantic matrix, correlation list, statistics file, checkpoint, code
file, self-evaluation report, ablation table, history (without
wall_time) and manifest (without timings, its input paths relative to
the fixture directory).  These outputs hold BLAS sums, so cli_digests.json records
the environment they were made in: numpy, the BLAS build, its thread
count and the CPU.

``tests/test_golden.py`` recomputes the digests and compares them with
the files; run this script only when a change to the outputs is
intended, and name the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "eval_digests.json")
CLI_DIGESTS = os.path.join(HERE, "cli_digests.json")
REGENERATE = "python tests/golden/regenerate.py"

SEED = 22
N_QUERY, N_DB, CLASSES, FLIP = 300, 3000, 24, 0.3
BITS = (64, 300)
OUTPUTS = ("report.json", "pr_curve.csv", "topk_curve.csv")
# MAP cutoffs inside and past the database size
MAP_AT = "5,50,5000"


def write_fixture(out_dir: str, bits: int) -> dict:
    """Codes of both modalities and the label files; returns paths by role."""
    from assph import dataio, hashnet

    rng = np.random.default_rng([SEED, bits])
    protos = rng.choice(np.array([-1, 1], dtype=np.int8), size=(CLASSES, bits))
    paths = {}
    for role, n in (("query", N_QUERY), ("db", N_DB)):
        labels = (rng.random((n, CLASSES)) < 2 / CLASSES).astype(np.int8)
        if role == "query":
            labels[:2] = 0
            labels[:2, -1] = 1
        else:
            labels[:, -1] = 0  # the last class belongs to no item
        labels[~labels.any(axis=1), 0] = 1
        paths[f"{role}_labels"] = os.path.join(out_dir, f"{role}_labels.csv")
        dataio.write_labels(labels, paths[f"{role}_labels"])
        base = np.where(labels.astype(np.int64) @ protos >= 0, 1, -1)
        for modality in ("image", "text"):
            flips = rng.random(base.shape) < FLIP
            paths[f"{role}_{modality}"] = os.path.join(out_dir, f"{role}_{modality}.assb")
            hashnet.save_codes(np.where(flips, -base, base).astype(np.int8),
                               paths[f"{role}_{modality}"])
    return paths


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def eval_digests() -> dict:
    """sha256 of each eval output, keyed "<bits>/<direction>/<file>"."""
    from assph import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bits in BITS:
            paths = write_fixture(tmp, bits)
            for direction, q, d in (("I2T", "image", "text"), ("T2I", "text", "image")):
                out = os.path.join(tmp, f"{bits}_{direction}")
                argv = ["--threads", "1", "eval",
                        "--query-codes", paths[f"query_{q}"],
                        "--db-codes", paths[f"db_{d}"],
                        "--query-labels", paths["query_labels"],
                        "--db-labels", paths["db_labels"],
                        "--direction", direction, "--map-at", MAP_AT, "--out", out]
                if cli.dispatch(argv) != 0:
                    raise RuntimeError(f"assph eval failed: {argv}")
                for name in OUTPUTS:
                    digests[f"{bits}/{direction}/{name}"] = _sha256(os.path.join(out, name))
    return digests


BUNDLE_SEED = 25
BUNDLE_ROWS, BUNDLE_DISTINCT, BUNDLE_CLASSES, BUNDLE_DIMS, BUNDLE_NOISE = (
    240, 180, 8, (48, 32), 0.2)
# small enough that the whole matrix runs in a few seconds; at this
# learning rate the codes neither saturate nor collapse (about 70
# distinct codes per side after 2 epochs), and adaptive mining grows the
# relation, so every update's arithmetic reaches the outputs
TRAIN_FLAGS = ["--code-length", "16", "--d-hidden", "32", "--epochs", "2",
               "--batch-size", "16", "--ks", "60", "--kr", "8",
               "--learning-rate", "0.0001", "--seed", "5"]
BUILD_SIM = {"base": [], "tau2": ["--tau", "2"], "nostruct": ["--no-struct"],
             "paircorr": ["--pair-corr"], "nocorr": ["--no-corr"]}
TRAIN = {"base": [], "tanh": ["--hidden-act", "tanh"], "nobinopt": ["--no-bin-opt"],
         "noadapt": ["--no-adaptive"], "paircorr": ["--pair-corr"]}


def write_bundle(out_dir: str) -> None:
    """The CLI fixture: BUNDLE_DISTINCT rows, then repeats of some of them
    up to BUNDLE_ROWS, shuffled.  Each class owns a random unit prototype
    per modality; a row's feature is the sum of its classes' prototypes
    plus Gaussian noise, centred.  Every 6th row is a query, the rest form
    the database, whose first 160 rows train."""
    from assph import dataio

    rng = np.random.default_rng(BUNDLE_SEED)
    n, classes = BUNDLE_DISTINCT, BUNDLE_CLASSES
    labels = (rng.random((n, classes)) < 1.5 / classes).astype(np.int8)
    labels[~labels.any(axis=1), 0] = 1
    feats = []
    for dim in BUNDLE_DIMS:
        protos = rng.standard_normal((classes, dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        f = labels @ protos + BUNDLE_NOISE * rng.standard_normal((n, dim))
        feats.append(f - f.mean(axis=0))
    rows = rng.permutation(np.concatenate(
        [np.arange(n), rng.choice(n, BUNDLE_ROWS - n, replace=False)]))
    query = np.arange(0, BUNDLE_ROWS, 6)
    retrieval = np.setdiff1d(np.arange(BUNDLE_ROWS), query)
    split = dataio.Split(train=retrieval[:160], query=query, retrieval=retrieval)
    dataio.save_bundle(dataio.DatasetBundle(feats[0][rows].astype(np.float32),
                                            feats[1][rows].astype(np.float32),
                                            labels[rows], split), out_dir)


def _history_digest(path: str) -> str:
    """sha256 of a history.jsonl with each record's wall_time dropped."""
    digest = hashlib.sha256()
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            del record["wall_time"]
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def _manifest_digest(path: str, fixture: str) -> str:
    """sha256 of a manifest.json with its timings dropped and its input
    paths made relative to the fixture directory."""
    with open(path) as fh:
        manifest = json.load(fh)
    del manifest["timings"]
    manifest["inputs"] = {os.path.relpath(p, fixture).replace(os.sep, "/"): digest
                          for p, digest in manifest["inputs"].items()}
    return hashlib.sha256((json.dumps(manifest, sort_keys=True) + "\n").encode()).hexdigest()


def tree_digests(run_dir: str, fixture: str) -> dict:
    """sha256 of every file under run_dir, keyed by its path relative to
    run_dir: a history without its wall times, a manifest without its
    timings (see _manifest_digest)."""
    digests = {}
    for root, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(root, name)
            key = os.path.relpath(path, run_dir).replace(os.sep, "/")
            if name == "history.jsonl":
                digests[key] = _history_digest(path)
            elif name == "manifest.json":
                digests[key] = _manifest_digest(path, fixture)
            else:
                digests[key] = _sha256(path)
    return digests


def cli_digests() -> dict:
    """sha256 of each digested output of the CLI matrix, keyed by its
    path under the run directory, such as "train/tanh/imgnet.assp"."""
    from assph import cli

    def run(*argv):
        if cli.dispatch(["--threads", "1", *argv]) != 0:
            raise RuntimeError(f"assph failed: {list(argv)}")

    with tempfile.TemporaryDirectory() as tmp:
        bundle, runs = os.path.join(tmp, "bundle"), os.path.join(tmp, "runs")
        write_bundle(bundle)
        for name, flags in BUILD_SIM.items():
            run("build-sim", "--bundle", bundle, "--out",
                os.path.join(runs, "build-sim", name), *TRAIN_FLAGS, *flags)
        for name, flags in TRAIN.items():
            run("train", "--bundle", bundle, "--out",
                os.path.join(runs, "train", name), *TRAIN_FLAGS, *flags)
        run("encode", "--features", os.path.join(bundle, "image.assf"),
            "--checkpoint", os.path.join(runs, "train", "base", "imgnet.assp"),
            "--hidden-act", "relu", "--out", os.path.join(runs, "encode", "image.assb"))
        run("ablate", "--bundle", bundle, "--out", os.path.join(runs, "ablate"),
            *TRAIN_FLAGS)
        return tree_digests(runs, tmp)


def environment() -> dict:
    """What the CLI digests' float sums depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "cpu": cpu}


def pinned_cli_digests() -> dict:
    """{"environment", "digests"} of the CLI matrix, computed by this script
    in a child process whose BLAS pools hold 1 thread from the start."""
    env = {**os.environ, **{var: "1" for var in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--cli-json"],
                         check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    if argv == ["--cli-json"]:
        with contextlib.redirect_stdout(sys.stderr):  # the commands' summary lines
            result = {"environment": environment(), "digests": cli_digests()}
        json.dump(result, sys.stdout)
        return 0
    _write(DIGESTS, {"numpy": np.__version__, "digests": eval_digests()})
    _write(CLI_DIGESTS, pinned_cli_digests())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

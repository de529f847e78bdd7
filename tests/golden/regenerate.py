#!/usr/bin/env python3
"""Golden digests of ``assph eval``'s outputs on a fixed-seed fixture.

Rewrites ``tests/golden/eval_digests.json`` from this checkout's ``src``:

    python tests/golden/regenerate.py

The fixture: 300 queries and 3000 database items with 24 multi-hot
labels, image and text codes of 64 and of 300 bits (either side of the
uint8 distance range).  Every class owns a random +-1 prototype; an
item's code is the sign of the sum of its classes' prototypes, each bit
flipped with probability 0.3, so ranks hold many ties.  Two queries share
no label with any item.  ``tests/test_golden.py`` recomputes the digests
and compares them with the file; run this script only when a change to
the outputs is intended, and name the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "eval_digests.json")
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
                    with open(os.path.join(out, name), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    digests[f"{bits}/{direction}/{name}"] = digest
    return digests


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    with open(DIGESTS, "w") as fh:
        json.dump({"numpy": np.__version__, "digests": eval_digests()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

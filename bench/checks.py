"""Output checks, run outside the timed window.

Every check returns a list of problems (empty when the output is right).
The MAP reference here shares no code with ``assph.evalkit``: distances
come from popcounts of packed bits, and the ranking sorts a unique key
``distance * n_db + index``, so ties resolve by ascending index without
relying on a stable sort.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from inputs import read_codes

_CHUNK = 256  # queries per block, bounds the reference's memory


def _pack(codes: np.ndarray) -> np.ndarray:
    return np.packbits(np.asarray(codes) > 0, axis=1)


def naive_map(query_codes, db_codes, query_labels, db_labels) -> float:
    """MAP@all by brute force: exact distances, ties by ascending index."""
    q_bits, d_bits = _pack(query_codes), _pack(db_codes)
    q_labels, d_labels = _pack(query_labels), _pack(db_labels)
    n_db = d_bits.shape[0]
    index = np.arange(n_db, dtype=np.int64)
    aps = []
    for lo in range(0, q_bits.shape[0], _CHUNK):
        xor = q_bits[lo:lo + _CHUNK, None, :] ^ d_bits[None, :, :]
        dist = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
        order = np.argsort(dist * n_db + index, axis=1)
        rel = (q_labels[lo:lo + _CHUNK, None, :] & d_labels[None, :, :]).any(axis=2)
        rel_sorted = np.take_along_axis(rel, order, axis=1)
        for flags in rel_sorted:
            hits = np.flatnonzero(flags)
            if hits.size == 0:
                aps.append(0.0)
                continue
            precision = np.arange(1, hits.size + 1) / (hits + 1)
            aps.append(float(precision.sum() / hits.size))
    return float(np.mean(aps))


def random_map(query_labels, db_labels, bits: int, seed: int) -> float:
    """MAP@all of uniformly random codes on the same labels.

    Averaged over as many independent draws (1 to 8) as fit in 2M
    query-item pairs, so the baseline of a small evaluation is not one
    lucky or unlucky draw.
    """
    rng = np.random.default_rng(seed)
    pairs = len(query_labels) * len(db_labels)
    draws = min(8, max(1, 2_000_000 // pairs))
    signs = np.array([-1, 1], dtype=np.int8)
    return float(np.mean([
        naive_map(rng.choice(signs, size=(len(query_labels), bits)),
                  rng.choice(signs, size=(len(db_labels), bits)),
                  query_labels, db_labels)
        for _ in range(draws)]))


def read_labels(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.int8, ndmin=2)


def check_codes(path: str, rows: int, bits: int) -> list:
    try:
        codes = read_codes(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems = []
    if codes.shape != (rows, bits):
        problems.append(f"{path}: shape {codes.shape}, expected {(rows, bits)}")
    if not np.isin(codes, (-1, 1)).all():
        problems.append(f"{path}: entries other than -1/+1")
    return problems


def check_history(path: str, epochs: int) -> list:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    problems = []
    if len(records) != epochs:
        problems.append(f"history has {len(records)} epochs, expected {epochs}")
    for rec in records:
        for key in ("loss_total", "loss_sr", "loss_cp", "loss_sa"):
            if not math.isfinite(rec[key]):
                problems.append(f"epoch {rec['epoch']}: {key} is {rec[key]}")
    pops = [rec["r_popcount"] for rec in records]
    if any(b < a for a, b in zip(pops, pops[1:])):
        problems.append(f"correlation popcount decreased: {pops}")
    return problems


def check_map(direction: str, reported: float, codes_q, codes_d,
              labels_q, labels_d, baseline: float) -> list:
    """Reported MAP equals the reference exactly and beats random codes."""
    reference = naive_map(codes_q, codes_d, labels_q, labels_d)
    problems = []
    if reported != reference:
        problems.append(f"{direction}: MAP@all {reported!r} != reference {reference!r}")
    if not reported > baseline:
        problems.append(f"{direction}: MAP@all {reported} not above random {baseline}")
    return problems


def digest(paths) -> str:
    """sha256 over the named files' bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()

"""Two-layer modality encoders with hand-rolled backprop.

Each modality owns one network mapping features to K soft hash values:
H = tanh(eta * (W2 @ act(W1 @ x + b1) + b2)).  The eta factor scales only
the final pre-activation; pushing it up over training drives tanh toward
its saturated +-1 plateau so the soft values approach binary codes.
Gradients are computed analytically (no autodiff), and the optimizer is
plain SGD with momentum and weight decay on the weight matrices only.

Checkpoints serialize as magic ``ASSP`` + version/dims (uint32 LE) + the
four parameter arrays as float32.  Code matrices serialize as magic
``ASSB`` + rows/K (uint32 LE) + signed bytes in {-1, +1}.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import HIDDEN_ACTS
from .errors import ConfigError, DataError, DivergenceError

_CKPT_MAGIC = b"ASSP"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIII")
_CODES_MAGIC = b"ASSB"
_CODES_HEADER = struct.Struct("<4sII")


@dataclass
class HashNetParams:
    """Weights, biases, and momentum state of one modality encoder."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    vw1: np.ndarray = field(repr=False, default=None)
    vb1: np.ndarray = field(repr=False, default=None)
    vw2: np.ndarray = field(repr=False, default=None)
    vb2: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for name in ("vw1", "vb1", "vw2", "vb2"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros_like(getattr(self, name[1:])))

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def code_length(self) -> int:
        return self.w2.shape[0]


@dataclass
class Grads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_params(d_in: int, d_hidden: int, code_length: int, seed: int) -> HashNetParams:
    """Glorot-uniform weights, zero biases, zero velocities; fixed per seed."""
    if min(d_in, d_hidden, code_length) < 1:
        raise ConfigError("init_params: all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    bound1 = np.sqrt(6.0 / (d_in + d_hidden))
    bound2 = np.sqrt(6.0 / (d_hidden + code_length))
    return HashNetParams(
        w1=rng.uniform(-bound1, bound1, size=(d_hidden, d_in)),
        b1=np.zeros(d_hidden),
        w2=rng.uniform(-bound2, bound2, size=(code_length, d_hidden)),
        b2=np.zeros(code_length),
    )


def _check_forward_args(params: HashNetParams, x: np.ndarray, eta: float,
                        hidden_act: str) -> np.ndarray:
    if hidden_act not in HIDDEN_ACTS:
        raise ConfigError(f"hidden_act must be one of {HIDDEN_ACTS}, got '{hidden_act}'")
    if eta <= 0.0 or not np.isfinite(eta):
        raise ConfigError(f"eta must be a positive finite real, got {eta}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise DataError(
            f"forward: input shape {x.shape} incompatible with d_in {params.d_in}"
        )
    return x


def forward(params: HashNetParams, x: np.ndarray, eta: float,
            hidden_act: str = "relu") -> np.ndarray:
    """Soft hash values in (-1, 1) for a batch of feature rows."""
    x = _check_forward_args(params, x, eta, hidden_act)
    pre1 = x @ params.w1.T + params.b1
    a1 = np.maximum(pre1, 0.0) if hidden_act == "relu" else np.tanh(pre1)
    pre2 = a1 @ params.w2.T + params.b2
    return np.tanh(eta * pre2)


def backward(params: HashNetParams, x: np.ndarray, eta: float,
             d_h: np.ndarray, hidden_act: str = "relu") -> Grads:
    """Parameter gradients given dL/dH at the network output.

    Recomputes the forward caches internally; dL/dpre2 = dL/dH * eta *
    (1 - H^2), then the usual two-layer chain.
    """
    x = _check_forward_args(params, x, eta, hidden_act)
    d_h = np.asarray(d_h, dtype=np.float64)
    if d_h.shape != (x.shape[0], params.code_length):
        raise DataError(f"backward: dLdH shape {d_h.shape} mismatches output")
    pre1 = x @ params.w1.T + params.b1
    a1 = np.maximum(pre1, 0.0) if hidden_act == "relu" else np.tanh(pre1)
    h = np.tanh(eta * (a1 @ params.w2.T + params.b2))

    d_pre2 = d_h * eta * (1.0 - h * h)
    g_w2 = d_pre2.T @ a1
    g_b2 = d_pre2.sum(axis=0)
    d_a1 = d_pre2 @ params.w2
    if hidden_act == "relu":
        d_pre1 = d_a1 * (pre1 > 0.0)
    else:
        d_pre1 = d_a1 * (1.0 - a1 * a1)
    g_w1 = d_pre1.T @ x
    g_b1 = d_pre1.sum(axis=0)
    return Grads(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def sgd_step(params: HashNetParams, grads: Grads, lr: float,
             momentum: float, weight_decay: float) -> None:
    """In-place SGD update: vel <- momentum*vel + (g + wd*p); p <- p - lr*vel.

    Weight decay touches the weight matrices only, never the biases.
    """
    if lr <= 0.0:
        raise ConfigError(f"sgd_step: lr must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"sgd_step: momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0.0:
        raise ConfigError(f"sgd_step: weight_decay must be >= 0, got {weight_decay}")
    for p_name, v_name, g, decayed in (
        ("w1", "vw1", grads.w1, True),
        ("b1", "vb1", grads.b1, False),
        ("w2", "vw2", grads.w2, True),
        ("b2", "vb2", grads.b2, False),
    ):
        p = getattr(params, p_name)
        v = getattr(params, v_name)
        step = g + weight_decay * p if decayed else g
        if not np.all(np.isfinite(step)):
            raise DivergenceError(f"sgd_step: non-finite gradient for {p_name}")
        v *= momentum
        v += step
        p -= lr * v


def sign_codes(h: np.ndarray) -> np.ndarray:
    """Binary codes from soft values; zero maps to +1 so entries are never 0."""
    h = np.asarray(h)
    return np.where(h >= 0.0, 1, -1).astype(np.int8)


def save_checkpoint(params: HashNetParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION,
                                   params.d_in, params.d_hidden, params.code_length))
        for arr in (params.w1, params.b1, params.w2, params.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> HashNetParams:
    """Read a checkpoint back; momentum state is not stored and loads as zero."""
    if not os.path.exists(path):
        raise DataError(f"checkpoint file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(_CKPT_HEADER.size)
        if len(head) < _CKPT_HEADER.size or head[:4] != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        _, version, d_in, d_hidden, k = _CKPT_HEADER.unpack(head)
        if version != _CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        sizes = (d_hidden * d_in, d_hidden, k * d_hidden, k)
        payload = fh.read()
    if len(payload) != 4 * sum(sizes):
        raise DataError(f"{path}: checkpoint payload size mismatch")
    arrs = []
    offset = 0
    for size in sizes:
        arrs.append(np.frombuffer(payload, dtype="<f4", count=size,
                                  offset=offset).astype(np.float64))
        offset += size * 4
    return HashNetParams(
        w1=arrs[0].reshape(d_hidden, d_in),
        b1=arrs[1],
        w2=arrs[2].reshape(k, d_hidden),
        b2=arrs[3],
    )


def save_codes(codes: np.ndarray, path: str) -> None:
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise DataError(f"save_codes: expected a 2-d matrix, got {codes.shape}")
    if not np.isin(codes, (-1, 1)).all():
        raise DataError("save_codes: entries must be -1 or +1")
    with open(path, "wb") as fh:
        fh.write(_CODES_HEADER.pack(_CODES_MAGIC, codes.shape[0], codes.shape[1]))
        fh.write(codes.astype(np.int8).tobytes())


def load_codes(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DataError(f"codes file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(_CODES_HEADER.size)
        if len(head) < _CODES_HEADER.size or head[:4] != _CODES_MAGIC:
            raise DataError(f"{path}: not a codes file")
        _, rows, k = _CODES_HEADER.unpack(head)
        payload = fh.read()
    if len(payload) != rows * k:
        raise DataError(f"{path}: codes payload size mismatch")
    codes = np.frombuffer(payload, dtype=np.int8).reshape(rows, k)
    if not np.isin(codes, (-1, 1)).all():
        raise DataError(f"{path}: codes contain values other than -1/+1")
    return codes

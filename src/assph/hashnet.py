"""Two-layer modality encoders with hand-rolled backprop.

Each modality owns one network mapping features to K soft hash values:
H = tanh(eta * (W2 @ act(W1 @ x + b1) + b2)).  The eta factor scales only
the final pre-activation; pushing it up over training drives tanh toward
its saturated +-1 plateau so the soft values approach binary codes.
Gradients are computed analytically (no autodiff): forward returns an
Activations record (input, hidden layer, output) and backward reads it,
so no pass is run twice.  Callers that only need the output take ``.h``
and drop the record; encode gives the sign codes of feature rows.
Parameters, gradients and momentum are all HashNetParams records of w1,
b1, w2 and b2.  The optimizer is plain SGD with momentum and weight
decay on the weight matrices only, an elementwise walk under the block
policy of kernels.  The caller owns the velocity, so a loaded checkpoint
holds weights only.  A training loop that updates several networks one
after another holds their gradients in one workspace (shared_grads),
sized for the largest network, so it keeps parameters, velocities and
one gradient set, not one per network.

Checkpoints (the four parameter arrays as float32) and code matrices
(signed bytes in {-1, +1}) are written and read through dataio's
containers CHECKPOINT and CODES, which hold their layouts and their checks;
load_checkpoint also rejects a non-finite weight (unstorable), and
load_codes an entry other than -1/+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import HIDDEN_ACTS
from .dataio import CHECKPOINT, CODES
from .errors import ConfigError, DataError, DivergenceError

_PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class HashNetParams:
    """The four arrays of one modality encoder, as a checkpoint holds
    them: its weights and biases, or a gradient or momentum of the same
    shapes."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        # sgd_step updates flat views in place, so every array is held
        # C-contiguous float64 (only load_checkpoint's float32 arrays are
        # copied; init_params, zeros_like and shared_grads build them so)
        for name in _PARAM_NAMES:
            setattr(self, name, np.ascontiguousarray(getattr(self, name),
                                                     dtype=np.float64))

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_NAMES]

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def code_length(self) -> int:
        return self.w2.shape[0]


def zeros_like(params: HashNetParams) -> HashNetParams:
    """A record of params' shapes holding zeros: a run's initial momentum."""
    return HashNetParams(*map(np.zeros_like, params.arrays()))


def shared_grads(*nets: HashNetParams) -> list[HashNetParams]:
    """One gradient record per network, all views into one float64
    workspace sized for the largest network.

    The views alias, so a network's backward and its sgd_step must both
    run before the next network's backward writes into the workspace.
    """
    workspace = np.empty(max(sum(arr.size for arr in p.arrays()) for p in nets))
    grads = []
    for p in nets:
        views, lo = [], 0
        for arr in p.arrays():
            views.append(workspace[lo:lo + arr.size].reshape(arr.shape))
            lo += arr.size
        grads.append(HashNetParams(*views))
    return grads


def init_params(d_in: int, d_hidden: int, code_length: int, seed: int) -> HashNetParams:
    """Glorot-uniform weights and zero biases; fixed per seed."""
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


@dataclass
class Activations:
    """One forward pass, as backward needs it: the float64 input rows x,
    the hidden layer a1 = act(W1 x + b1) and the output h."""

    x: np.ndarray
    a1: np.ndarray
    h: np.ndarray
    eta: float
    hidden_act: str


def forward(params: HashNetParams, x: np.ndarray, eta: float,
            hidden_act: str) -> Activations:
    """Soft hash values in (-1, 1) for a batch of feature rows (``.h``),
    with the activations backward reuses."""
    x = _check_forward_args(params, x, eta, hidden_act)
    a1 = x @ params.w1.T
    a1 += params.b1  # pre-activation, replaced in place by the activation
    a1 = np.maximum(a1, 0.0, out=a1) if hidden_act == "relu" else np.tanh(a1, out=a1)
    pre2 = a1 @ params.w2.T + params.b2
    return Activations(x=x, a1=a1, h=np.tanh(eta * pre2), eta=eta,
                       hidden_act=hidden_act)


def backward(params: HashNetParams, acts: Activations, d_h: np.ndarray,
             grads: HashNetParams) -> HashNetParams:
    """Parameter gradients given dL/dH at the network output.

    acts must come from forward on these parameters, before any update.
    dL/dpre2 = dL/dH * eta * (1 - H^2), then the usual two-layer chain;
    the relu mask a1 > 0 selects the same entries as pre1 > 0.  The
    gradients are written into the arrays of grads, a record of this
    network's shapes such as shared_grads gives, and grads is returned.
    """
    a1 = acts.a1
    d_pre2 = d_h * acts.eta * (1.0 - acts.h * acts.h)
    np.matmul(d_pre2.T, a1, out=grads.w2)
    np.sum(d_pre2, axis=0, out=grads.b2)
    d_a1 = d_pre2 @ params.w2
    if acts.hidden_act == "relu":
        d_pre1 = d_a1 * (a1 > 0.0)
    else:
        d_pre1 = d_a1 * (1.0 - a1 * a1)
    np.matmul(d_pre1.T, acts.x, out=grads.w1)
    np.sum(d_pre1, axis=0, out=grads.b1)
    return grads


def sgd_step(params: HashNetParams, velocity: HashNetParams, grads: HashNetParams,
             lr: float, momentum: float, weight_decay: float) -> None:
    """In-place SGD update: vel <- momentum*vel + (g + wd*p); p <- p - lr*vel.

    Weight decay touches the weight matrices only, never the biases.  The
    settings are a TrainConfig's, checked when it was built; velocity and
    grads have the parameters' shapes, as zeros_like and shared_grads
    build them.  Each parameter is walked in flat blocks of
    kernels.BLOCK_ENTRIES elements through one scratch buffer, so a step
    reads and writes each parameter, velocity and gradient once and
    allocates no parameter-sized temporaries.  Each block is checked for
    a finite step before it is applied; a DivergenceError may leave the
    parameters partly updated, which ends the run anyway.
    """
    size = min(kernels.BLOCK_ENTRIES, max(arr.size for arr in params.arrays()))
    scratch, finite = np.empty(size), np.empty(size, dtype=bool)
    for name, p, v, g in zip(_PARAM_NAMES, params.arrays(), velocity.arrays(),
                             grads.arrays()):
        p, v, g = p.reshape(-1), v.reshape(-1), g.reshape(-1)
        for lo, hi in kernels.row_blocks(p.size, kernels.BLOCK_ENTRIES):
            pb, vb, gb = p[lo:hi], v[lo:hi], g[lo:hi]
            buf = scratch[:pb.size]
            if name.startswith("w"):
                np.multiply(weight_decay, pb, out=buf)
                step = np.add(gb, buf, out=buf)
            else:
                step = gb
            if not np.isfinite(step, out=finite[:pb.size]).all():
                raise DivergenceError(f"sgd_step: non-finite gradient for {name}")
            vb *= momentum
            vb += step
            pb -= np.multiply(lr, vb, out=buf)


def sign_codes(h: np.ndarray) -> np.ndarray:
    """Binary codes from soft values; zero maps to +1 so entries are never 0."""
    h = np.asarray(h)
    return np.where(h >= 0.0, 1, -1).astype(np.int8)


def encode(params: HashNetParams, x: np.ndarray, hidden_act: str) -> np.ndarray:
    """The sign codes of feature rows.  tanh keeps the sign of its
    argument, so any eta gives these codes; they are computed at eta 1."""
    return sign_codes(forward(params, x, 1.0, hidden_act).h)


def save_checkpoint(params: HashNetParams, path: str) -> None:
    CHECKPOINT.write(path, (params.d_in, params.d_hidden, params.code_length),
                     params.arrays())


def unstorable(params: HashNetParams) -> str | None:
    """The name of the first array no checkpoint can hold (an entry not
    finite or past float32's range), or None: one walk in flat blocks."""
    limit = np.finfo(np.float32).max
    for name, arr in zip(_PARAM_NAMES, params.arrays()):
        flat = arr.reshape(-1)
        for lo, hi in kernels.row_blocks(flat.size, kernels.BLOCK_ENTRIES):
            if not np.abs(flat[lo:hi]).max() <= limit:  # NaN fails too
                return name
    return None


def load_checkpoint(path: str) -> HashNetParams:
    """Read a checkpoint's weights and biases back as float64.  Every
    finite float32 is storable, so no code is computed from a non-finite
    weight."""
    params = HashNetParams(*CHECKPOINT.read(path))
    name = unstorable(params)
    if name is not None:
        raise DataError(f"{path}: non-finite entry in {name}")
    return params


def save_codes(codes: np.ndarray, path: str) -> None:
    """Write sign_codes output as it is; load_codes checks what it reads."""
    CODES.write(path, codes.shape, [codes])


def load_codes(path: str) -> np.ndarray:
    """Read a code matrix, a read-only view of the file's bytes."""
    codes = CODES.read(path)[0]
    if not kernels.all_signs(codes):
        raise DataError(f"{path}: codes contain values other than -1/+1")
    return codes

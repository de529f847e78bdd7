"""Alternating training loop with asymmetric binary refinement.

One run seeds the semantic matrix and correlation set from the training
split, then for each epoch walks floor(M/m) disjoint batches of a fresh
permutation (the trailing partial batch is dropped).  Every iteration
does a symmetric update of both encoders against the soft codes, and,
when binary refinement is on, two further asymmetric updates where one
side is replaced by its detached sign codes.  At the end of an epoch the
whole training set is pushed through both encoders once for diagnostics
and, when adaptive mining is on, to grow the correlation set.

The tanh sharpness follows eta = eta_base * epoch, so codes soften early
and freeze late.  Ablation switches turn off adaptive mining, binary
refinement, the correlation term (identity relation, mu1 forced to 0),
or the structural similarity stage (gamma forced to 0); pair_corr swaps
the neighborhood-overlap mining rule for plain symmetrized KNN.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import corrmine, hashnet, objective, simgraph
from .dataio import DatasetBundle
from .errors import ConfigError, DivergenceError

PROFILES = {
    # reference hyperparameters the published MAP numbers were produced with
    "paper-default": {
        "epochs": 50,
        "batch_size": 32,
        "ks": 2000,
        "kr": 50,
        "tau": 1,
        "gamma": 0.3,
        "mu1": 2.0,
        "mu2": 1.0,
        "beta": 1.5,
        "learning_rate": 0.001,
        "momentum": 0.9,
        "weight_decay": 0.0005,
        "eta_base": 1.0,
        "d_hidden": 4096,
        "hidden_act": "relu",
    },
}


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class TrainConfig:
    """Everything one training run depends on, seed included."""

    code_length: int = 64
    epochs: int = 50
    batch_size: int = 32
    ks: int = 2000
    kr: int = 50
    tau: int = 1
    gamma: float = 0.3
    weights: objective.LossWeights = field(default_factory=objective.LossWeights)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    eta_base: float = 1.0
    d_hidden: int = 4096
    seed: int = 0
    hidden_act: str = "relu"
    adaptive: bool = True
    bin_opt: bool = True
    corr: bool = True
    struct: bool = True
    pair_corr: bool = False

    def validate(self) -> None:
        for name in ("code_length", "epochs", "batch_size", "ks", "kr", "d_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.eta_base <= 0:
            raise ConfigError(f"eta_base must be > 0, got {self.eta_base}")
        if self.hidden_act not in hashnet.HIDDEN_ACTS:
            raise ConfigError(f"hidden_act must be one of {hashnet.HIDDEN_ACTS}")
        self.weights.validate()
        self.opt.validate()

    def to_dict(self) -> dict:
        flat = {
            "code_length": self.code_length,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "ks": self.ks,
            "kr": self.kr,
            "tau": self.tau,
            "gamma": self.gamma,
            "mu1": self.weights.mu1,
            "mu2": self.weights.mu2,
            "beta": self.weights.beta,
            "learning_rate": self.opt.learning_rate,
            "momentum": self.opt.momentum,
            "weight_decay": self.opt.weight_decay,
            "eta_base": self.eta_base,
            "d_hidden": self.d_hidden,
            "seed": self.seed,
            "hidden_act": self.hidden_act,
            "adaptive": self.adaptive,
            "bin_opt": self.bin_opt,
            "corr": self.corr,
            "struct": self.struct,
            "pair_corr": self.pair_corr,
        }
        return flat

    @classmethod
    def from_dict(cls, flat: dict) -> "TrainConfig":
        cfg = cls()
        known = set(cfg.to_dict())
        unknown = set(flat) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = cfg.to_dict()
        merged.update(flat)
        try:
            cfg = cls(
                code_length=int(merged["code_length"]),
                epochs=int(merged["epochs"]),
                batch_size=int(merged["batch_size"]),
                ks=int(merged["ks"]),
                kr=int(merged["kr"]),
                tau=int(merged["tau"]),
                gamma=float(merged["gamma"]),
                weights=objective.LossWeights(
                    mu1=float(merged["mu1"]),
                    mu2=float(merged["mu2"]),
                    beta=float(merged["beta"]),
                ),
                opt=OptimizerConfig(
                    learning_rate=float(merged["learning_rate"]),
                    momentum=float(merged["momentum"]),
                    weight_decay=float(merged["weight_decay"]),
                ),
                eta_base=float(merged["eta_base"]),
                d_hidden=int(merged["d_hidden"]),
                seed=int(merged["seed"]),
                hidden_act=str(merged["hidden_act"]),
                adaptive=bool(merged["adaptive"]),
                bin_opt=bool(merged["bin_opt"]),
                corr=bool(merged["corr"]),
                struct=bool(merged["struct"]),
                pair_corr=bool(merged["pair_corr"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}")
        cfg.validate()
        return cfg


def eta_schedule(epoch: int, eta_base: float = 1.0) -> float:
    """Linear sharpness ramp: eta = eta_base * epoch, epochs count from 1."""
    if epoch < 1:
        raise ConfigError(f"eta_schedule: epoch must be >= 1, got {epoch}")
    if eta_base <= 0:
        raise ConfigError(f"eta_schedule: eta_base must be > 0, got {eta_base}")
    return eta_base * epoch


@dataclass
class EpochRecord:
    """Per-epoch training diagnostics; wall_time is the only
    non-deterministic field."""

    epoch: int
    eta: float
    iterations: int
    loss_total: float
    loss_sr: float
    loss_cp: float
    loss_sa: float
    r_popcount: int
    r_precision: float | None
    code_flips_image: int
    code_flips_text: int
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainState:
    """Everything train_epoch needs; restartable across epochs."""

    cfg: TrainConfig
    weights_eff: objective.LossWeights
    features_image: np.ndarray
    features_text: np.ndarray
    labels: np.ndarray | None
    label_share: np.ndarray | None  # corrmine.label_share(labels)
    semantic: np.ndarray
    rel: corrmine.CorrelationSet
    params_image: hashnet.HashNetParams
    params_text: hashnet.HashNetParams
    rng: np.random.Generator
    prev_codes_image: np.ndarray
    prev_codes_text: np.ndarray


@dataclass
class TrainResult:
    params_image: hashnet.HashNetParams
    params_text: hashnet.HashNetParams
    rel: corrmine.CorrelationSet
    history: list


def init_state(bundle: DatasetBundle, cfg: TrainConfig) -> TrainState:
    """Validate inputs and build all pre-training artifacts."""
    cfg.validate()
    bundle.validate()
    train_idx = np.asarray(bundle.split.train)
    m_train = train_idx.size
    if cfg.batch_size > m_train:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training rows {m_train}"
        )
    fi32 = bundle.image_features[train_idx]
    ft32 = bundle.text_features[train_idx]
    labels = bundle.labels[train_idx] if bundle.labels is not None else None

    gamma_eff = cfg.gamma if cfg.struct else 0.0
    semantic = simgraph.build_semantic(fi32, ft32, cfg.ks, gamma_eff).values

    weights_eff = objective.LossWeights(
        mu1=cfg.weights.mu1 if cfg.corr else 0.0,
        mu2=cfg.weights.mu2,
        beta=cfg.weights.beta,
    )
    if cfg.corr:
        sim_i = simgraph.cosine_matrix(fi32)
        sim_t = simgraph.cosine_matrix(ft32)
        if cfg.pair_corr:
            rel = corrmine.first_order_correlations(sim_i, sim_t, cfg.kr)
        else:
            rel = corrmine.init_correlations(sim_i, sim_t, cfg.kr, cfg.tau)
    else:
        rel = corrmine.CorrelationSet.identity(m_train)

    fi = fi32.astype(np.float64)
    ft = ft32.astype(np.float64)
    params_image = hashnet.init_params(fi.shape[1], cfg.d_hidden,
                                       cfg.code_length, cfg.seed)
    params_text = hashnet.init_params(ft.shape[1], cfg.d_hidden,
                                      cfg.code_length, cfg.seed + 1)
    eta0 = eta_schedule(1, cfg.eta_base)
    prev_i = hashnet.sign_codes(hashnet.forward(params_image, fi, eta0,
                                                cfg.hidden_act))
    prev_t = hashnet.sign_codes(hashnet.forward(params_text, ft, eta0,
                                                cfg.hidden_act))
    return TrainState(
        cfg=cfg,
        weights_eff=weights_eff,
        features_image=fi,
        features_text=ft,
        labels=labels,
        label_share=corrmine.label_share(labels) if labels is not None else None,
        semantic=semantic,
        rel=rel,
        params_image=params_image,
        params_text=params_text,
        rng=np.random.default_rng(cfg.seed + 2),
        prev_codes_image=prev_i,
        prev_codes_text=prev_t,
    )


def train_epoch(state: TrainState, epoch: int) -> EpochRecord:
    """Run one epoch's batches plus the end-of-epoch full pass."""
    t0 = time.perf_counter()
    cfg = state.cfg
    eta = eta_schedule(epoch, cfg.eta_base)
    fi, ft = state.features_image, state.features_text
    m = cfg.batch_size
    n_iter = fi.shape[0] // m
    perm = state.rng.permutation(fi.shape[0])
    opt = cfg.opt
    sums = np.zeros(4)

    for it in range(n_iter):
        idx = perm[it * m:(it + 1) * m]
        xi, xt = fi[idx], ft[idx]
        s_b = state.semantic[np.ix_(idx, idx)].astype(np.float64)
        r_b = state.rel.batch(idx)

        hi = hashnet.forward(state.params_image, xi, eta, cfg.hidden_act)
        ht = hashnet.forward(state.params_text, xt, eta, cfg.hidden_act)
        out = objective.total_loss_and_grads(hi, ht, s_b, r_b,
                                             state.weights_eff, freeze="none")
        if not np.isfinite(out.total):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} iteration {it}"
            )
        sums += (out.total, out.sr, out.cp, out.sa)
        g_i = hashnet.backward(state.params_image, xi, eta, out.grad_image,
                               cfg.hidden_act)
        g_t = hashnet.backward(state.params_text, xt, eta, out.grad_text,
                               cfg.hidden_act)
        hashnet.sgd_step(state.params_image, g_i, opt.learning_rate,
                         opt.momentum, opt.weight_decay)
        hashnet.sgd_step(state.params_text, g_t, opt.learning_rate,
                         opt.momentum, opt.weight_decay)

        if cfg.bin_opt:
            # refresh soft codes under the just-updated parameters, then
            # hold each side's detached sign codes fixed in turn
            hi2 = hashnet.forward(state.params_image, xi, eta, cfg.hidden_act)
            ht2 = hashnet.forward(state.params_text, xt, eta, cfg.hidden_act)
            b_i = hashnet.sign_codes(hi2).astype(np.float64)
            b_t = hashnet.sign_codes(ht2).astype(np.float64)
            out_i = objective.total_loss_and_grads(hi2, b_t, s_b, r_b,
                                                   state.weights_eff,
                                                   freeze="text")
            g_i = hashnet.backward(state.params_image, xi, eta,
                                   out_i.grad_image, cfg.hidden_act)
            hashnet.sgd_step(state.params_image, g_i, opt.learning_rate,
                             opt.momentum, opt.weight_decay)
            out_t = objective.total_loss_and_grads(b_i, ht2, s_b, r_b,
                                                   state.weights_eff,
                                                   freeze="image")
            g_t = hashnet.backward(state.params_text, xt, eta,
                                   out_t.grad_text, cfg.hidden_act)
            hashnet.sgd_step(state.params_text, g_t, opt.learning_rate,
                             opt.momentum, opt.weight_decay)

    # end of epoch: one full pass for diagnostics and adaptive mining
    hi_all = hashnet.forward(state.params_image, fi, eta, cfg.hidden_act)
    ht_all = hashnet.forward(state.params_text, ft, eta, cfg.hidden_act)
    codes_i = hashnet.sign_codes(hi_all)
    codes_t = hashnet.sign_codes(ht_all)
    flips_i = int((codes_i != state.prev_codes_image).sum())
    flips_t = int((codes_t != state.prev_codes_text).sum())
    state.prev_codes_image = codes_i
    state.prev_codes_text = codes_t

    if cfg.adaptive and cfg.corr:
        state.rel = corrmine.adaptive_update(state.rel, hi_all, ht_all,
                                             cfg.kr, cfg.tau,
                                             pairwise=cfg.pair_corr)
    stats = None
    if state.labels is not None:
        stats = corrmine.correlation_stats(state.rel, state.labels,
                                           share=state.label_share)

    mean = sums / max(n_iter, 1)
    return EpochRecord(
        epoch=epoch,
        eta=eta,
        iterations=n_iter,
        loss_total=float(mean[0]),
        loss_sr=float(mean[1]),
        loss_cp=float(mean[2]),
        loss_sa=float(mean[3]),
        r_popcount=stats["count"] if stats else state.rel.popcount(),
        r_precision=stats["precision"] if stats else None,
        code_flips_image=flips_i,
        code_flips_text=flips_t,
        wall_time=time.perf_counter() - t0,
    )


def train(bundle: DatasetBundle, cfg: TrainConfig) -> TrainResult:
    """Full run over cfg.epochs; deterministic given (bundle, cfg)."""
    state = init_state(bundle, cfg)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        history.append(train_epoch(state, epoch))
    return TrainResult(
        params_image=state.params_image,
        params_text=state.params_text,
        rel=state.rel,
        history=history,
    )

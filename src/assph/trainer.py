"""Alternating training loop with asymmetric binary refinement.

One run seeds the semantic matrix and correlation set from the training
split, then for each epoch walks floor(M/m) disjoint batches of a fresh
permutation (the trailing partial batch is dropped).  Every iteration
does a symmetric update of both encoders against the soft codes, and,
when binary refinement is on, two further asymmetric updates where one
side is replaced by its detached sign codes.  At the end of an epoch the
whole training set is pushed through both encoders once for diagnostics
and, when adaptive mining is on, to grow the correlation set.

A run is one TrainState, which train returns with its history.  The two
encoders share one gradient workspace (hashnet.shared_grads): each
update runs the image backward and step, then the text backward and
step.  The training features stay float32; each batch converts its rows
to float64 once, and the end-of-epoch pass converts inside forward.

The tanh sharpness follows eta = eta_base * epoch, so codes soften early
and settle late.  Ablation switches turn off adaptive mining, binary
refinement, the correlation term (identity relation, mu1 forced to 0),
or the structural similarity stage (gamma forced to 0); pair_corr swaps
the neighborhood-overlap mining rule for plain symmetrized KNN.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import corrmine, hashnet, objective, simgraph
from .config import TrainConfig
from .dataio import DatasetBundle
from .errors import ConfigError, DivergenceError


def eta_schedule(epoch: int, eta_base: float = 1.0) -> float:
    """Linear sharpness ramp: eta = eta_base * epoch, epochs count from 1."""
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
    """One training run: everything train_epoch needs, restartable across
    epochs, and the history train appends to.  The features are the
    training split's float32 rows, as loaded."""

    cfg: TrainConfig
    weights_eff: objective.LossWeights
    features_image: np.ndarray
    features_text: np.ndarray
    label_share: np.ndarray | None  # corrmine.label_share of the labels
    semantic: np.ndarray
    rel: corrmine.CorrelationSet
    setup_timings: dict  # build_targets' stage timings
    params_image: hashnet.HashNetParams
    params_text: hashnet.HashNetParams
    velocity_image: hashnet.HashNetParams
    velocity_text: hashnet.HashNetParams
    rng: np.random.Generator
    prev_codes_image: np.ndarray
    prev_codes_text: np.ndarray
    history: list = field(default_factory=list)  # train's EpochRecords


def build_targets(image_features: np.ndarray, text_features: np.ndarray,
                  cfg: TrainConfig
                  ) -> tuple[np.ndarray, corrmine.CorrelationSet, dict]:
    """The semantic matrix and the seed relation of one training split,
    plus the wall time of each setup stage.

    Each modality's cosine is computed once: the seed mining reads both,
    then the fusion and the target overwrite the image cosine.  With
    cfg.corr off the relation is the identity.  gamma counts only when
    cfg.struct is on.  The timings are perf_counter seconds: cosine_s for
    the two cosines, seed_mine_s for the relation and semantic_s for the
    fusion and the target.
    """
    t0 = time.perf_counter()
    cos_i = simgraph.cosine_matrix(image_features)
    cos_t = simgraph.cosine_matrix(text_features)
    t1 = time.perf_counter()
    if cfg.corr:
        rel = corrmine.init_correlations(cos_i, cos_t, cfg.kr, cfg.tau,
                                         pairwise=cfg.pair_corr)
    else:
        rel = corrmine.CorrelationSet.identity(len(cos_i))
    t2 = time.perf_counter()
    fused = simgraph.fuse(cos_i, cos_t, out=cos_i)
    # free the text cosine before structural holds W and W @ W.T beside fused
    del cos_t
    gamma = cfg.gamma if cfg.struct else 0.0
    semantic = simgraph.build_semantic(fused, cfg.ks, gamma)
    timings = {"cosine_s": t1 - t0, "seed_mine_s": t2 - t1,
               "semantic_s": time.perf_counter() - t2}
    return semantic, rel, timings


def init_state(bundle: DatasetBundle, cfg: TrainConfig) -> TrainState:
    """Build all pre-training artifacts.  bundle and cfg checked themselves
    when built; the batch size against the training rows, which needs
    both, is checked here."""
    train_idx = bundle.split.train
    m_train = train_idx.size
    if cfg.batch_size > m_train:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training rows {m_train}"
        )
    fi32 = bundle.image_features[train_idx]
    ft32 = bundle.text_features[train_idx]

    semantic, rel, setup_timings = build_targets(fi32, ft32, cfg)
    weights_eff = objective.LossWeights(
        mu1=cfg.mu1 if cfg.corr else 0.0,
        mu2=cfg.mu2,
        beta=cfg.beta,
    )

    params_image = hashnet.init_params(fi32.shape[1], cfg.d_hidden,
                                       cfg.code_length, cfg.seed)
    params_text = hashnet.init_params(ft32.shape[1], cfg.d_hidden,
                                      cfg.code_length, cfg.seed + 1)
    velocity_image = hashnet.zeros_like(params_image)
    velocity_text = hashnet.zeros_like(params_text)
    eta0 = eta_schedule(1, cfg.eta_base)
    prev_i = hashnet.sign_codes(hashnet.forward(params_image, fi32, eta0,
                                                cfg.hidden_act).h)
    prev_t = hashnet.sign_codes(hashnet.forward(params_text, ft32, eta0,
                                                cfg.hidden_act).h)
    return TrainState(
        cfg=cfg,
        weights_eff=weights_eff,
        features_image=fi32,
        features_text=ft32,
        label_share=(None if bundle.labels is None
                     else corrmine.label_share(bundle.labels[train_idx])),
        semantic=semantic,
        rel=rel,
        setup_timings=setup_timings,
        params_image=params_image,
        params_text=params_text,
        velocity_image=velocity_image,
        velocity_text=velocity_text,
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
    sums = np.zeros(4)
    g_i, g_t = hashnet.shared_grads(state.params_image, state.params_text)

    def update(params, velocity, acts, d_h, grads):
        # the two sides' gradients share one workspace, so each side's
        # step is applied before the other side's backward overwrites it
        hashnet.backward(params, acts, d_h, grads)
        hashnet.sgd_step(params, velocity, grads, cfg.learning_rate,
                         cfg.momentum, cfg.weight_decay)

    for it in range(n_iter):
        idx = perm[it * m:(it + 1) * m]
        xi, xt = fi[idx].astype(np.float64), ft[idx].astype(np.float64)
        s_b = state.semantic[np.ix_(idx, idx)].astype(np.float64)
        r_b = state.rel.batch(idx)

        acts_i = hashnet.forward(state.params_image, xi, eta, cfg.hidden_act)
        acts_t = hashnet.forward(state.params_text, xt, eta, cfg.hidden_act)
        out = objective.total_loss_and_grads(acts_i.h, acts_t.h, s_b, r_b,
                                             state.weights_eff)
        if not np.isfinite(out.total):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} iteration {it}"
            )
        sums += (out.total, out.sr, out.cp, out.sa)
        # the text backward reads only text parameters and activations
        # formed before either step, so stepping the image side first
        # changes no bit
        update(state.params_image, state.velocity_image, acts_i, out.grad_image, g_i)
        update(state.params_text, state.velocity_text, acts_t, out.grad_text, g_t)

        if cfg.bin_opt:
            # refresh soft codes under the just-updated parameters, then
            # fit each side against the other's detached sign codes, whose
            # gradient is not applied
            acts_i = hashnet.forward(state.params_image, xi, eta, cfg.hidden_act)
            acts_t = hashnet.forward(state.params_text, xt, eta, cfg.hidden_act)
            b_i = hashnet.sign_codes(acts_i.h).astype(np.float64)
            b_t = hashnet.sign_codes(acts_t.h).astype(np.float64)
            d_hi = objective.image_grad(acts_i.h, b_t, s_b, r_b, state.weights_eff)
            update(state.params_image, state.velocity_image, acts_i, d_hi, g_i)
            d_ht = objective.text_grad(b_i, acts_t.h, s_b, r_b, state.weights_eff)
            update(state.params_text, state.velocity_text, acts_t, d_ht, g_t)

    del g_i, g_t  # free the gradient workspace before the full pass
    # end of epoch: one full pass for diagnostics and adaptive mining
    hi_all = hashnet.forward(state.params_image, fi, eta, cfg.hidden_act).h
    ht_all = hashnet.forward(state.params_text, ft, eta, cfg.hidden_act).h
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
    stats = corrmine.correlation_stats(state.rel, state.label_share)

    mean = sums / max(n_iter, 1)
    return EpochRecord(
        epoch=epoch,
        eta=eta,
        iterations=n_iter,
        loss_total=float(mean[0]),
        loss_sr=float(mean[1]),
        loss_cp=float(mean[2]),
        loss_sa=float(mean[3]),
        r_popcount=stats["count"],
        r_precision=stats.get("precision"),
        code_flips_image=flips_i,
        code_flips_text=flips_t,
        wall_time=time.perf_counter() - t0,
    )


def train(bundle: DatasetBundle, cfg: TrainConfig) -> TrainState:
    """Full run over cfg.epochs; deterministic given (bundle, cfg)."""
    state = init_state(bundle, cfg)
    for epoch in range(1, cfg.epochs + 1):
        state.history.append(train_epoch(state, epoch))
    return state

"""Alternating training loop with asymmetric binary refinement.

One run seeds the semantic matrix and correlation set from the training
split, then for each epoch walks floor(M/m) disjoint batches of a fresh
permutation (the trailing partial batch is dropped).  Every iteration
does a symmetric update of both encoders against the soft codes, and,
when binary refinement is on, two further asymmetric updates where one
side is replaced by its detached sign codes.  At the end of an epoch the
whole training set is pushed through both encoders once for diagnostics,
to grow the correlation set when adaptive mining is on, and to stop with
DivergenceError a run whose training rows all got one code on a side.

A run is one TrainState, which train returns with its history.  Each
per-modality field of the state is an (image, text) pair, and each
per-side step is one loop over the pairs, image first.  The two encoders
share one gradient workspace (hashnet.shared_grads): each update runs
the image backward and step, then the text backward and step.  The
training features stay float32; each batch converts its rows to float64
once, and the end-of-epoch pass converts inside forward, one side at a
time.

The tanh sharpness is the epoch number, eta = epoch, so codes soften early
and settle late.  Ablation switches turn off adaptive mining or binary
refinement; pair_corr swaps the neighborhood-overlap mining rule for
plain symmetrized KNN.  The two term ablations are weights: with mu1 = 0
there is no correlation term, so no relation is mined and the identity
stands in for it, and with gamma = 0 the structural similarity stage is
skipped.  ablate trains and scores (score) the config.VARIANTS named.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import corrmine, evalkit, hashnet, objective, simgraph
from .config import MAP_CUTOFFS, VARIANTS, TrainConfig
from .dataio import DatasetBundle
from .errors import ConfigError, DivergenceError


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
    epochs, and the history train appends to.  Each per-modality field is
    an (image, text) pair; the features are the training split's float32
    rows, as loaded."""

    cfg: TrainConfig
    features: tuple[np.ndarray, np.ndarray]
    label_share: np.ndarray | None  # corrmine.label_share of the labels
    semantic: np.ndarray
    rel: corrmine.CorrelationSet
    setup_timings: dict  # build_targets' stage timings
    params: tuple[hashnet.HashNetParams, hashnet.HashNetParams]
    velocity: tuple[hashnet.HashNetParams, hashnet.HashNetParams]
    rng: np.random.Generator
    codes: tuple[np.ndarray, np.ndarray]  # the training rows' latest sign codes
    history: list = field(default_factory=list)  # train's EpochRecords


def build_targets(image_features: np.ndarray, text_features: np.ndarray,
                  cfg: TrainConfig
                  ) -> tuple[np.ndarray, corrmine.CorrelationSet, dict]:
    """The semantic matrix and the seed relation of one training split,
    plus the wall time of each setup stage.

    Each modality's cosine is computed once: the seed mining reads both,
    then the fusion and the target overwrite the image cosine.  With
    cfg.mu1 == 0 the relation is the identity, and with cfg.gamma == 0
    build_semantic skips the structural stage.  The timings are
    perf_counter seconds: cosine_s for the two cosines, seed_mine_s for
    the relation and semantic_s for the fusion and the target.
    """
    t0 = time.perf_counter()
    cos_i = simgraph.cosine_matrix(image_features)
    cos_t = simgraph.cosine_matrix(text_features)
    t1 = time.perf_counter()
    if cfg.mu1 > 0:
        rel = corrmine.init_correlations(cos_i, cos_t, cfg.kr, cfg.tau,
                                         pairwise=cfg.pair_corr)
    else:
        rel = corrmine.CorrelationSet.identity(len(cos_i))
    t2 = time.perf_counter()
    fused = simgraph.fuse(cos_i, cos_t, out=cos_i)
    # free the text cosine before structural holds W and W @ W.T beside fused
    del cos_t
    semantic = simgraph.build_semantic(fused, cfg.ks, cfg.gamma)
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
    features = (bundle.image_features[train_idx], bundle.text_features[train_idx])

    semantic, rel, setup_timings = build_targets(*features, cfg)
    params = tuple(hashnet.init_params(f.shape[1], cfg.d_hidden, cfg.code_length,
                                       cfg.seed + side)
                   for side, f in enumerate(features))
    return TrainState(
        cfg=cfg,
        features=features,
        label_share=(None if bundle.labels is None
                     else corrmine.label_share(bundle.labels[train_idx])),
        semantic=semantic,
        rel=rel,
        setup_timings=setup_timings,
        params=params,
        velocity=tuple(map(hashnet.zeros_like, params)),
        rng=np.random.default_rng(cfg.seed + 2),
        codes=tuple(hashnet.encode(p, f) for p, f in zip(params, features)),
    )


def train_epoch(state: TrainState, epoch: int) -> EpochRecord:
    """Run one epoch's batches plus the end-of-epoch full pass."""
    t0 = time.perf_counter()
    cfg = state.cfg
    eta = float(epoch)  # the tanh sharpness
    m = cfg.batch_size
    rows = len(state.features[0])
    n_iter = rows // m
    perm = state.rng.permutation(rows)
    sums = np.zeros(4)
    grads = hashnet.shared_grads(*state.params)

    def forward(xs):
        return [hashnet.forward(p, x, eta) for p, x in zip(state.params, xs)]

    def signs(hs):
        return tuple(hashnet.sign_codes(h) for h in hs)

    def update(acts, d_hs):
        # the two sides' gradients share one workspace, so each side's
        # step is applied before the other side's backward overwrites it;
        # the text backward reads only text parameters and activations
        # formed before either step, so stepping the image side first
        # changes no bit
        for p, v, g, a, d_h in zip(state.params, state.velocity, grads, acts, d_hs):
            hashnet.backward(p, a, d_h, g)
            hashnet.sgd_step(p, v, g, cfg.learning_rate, cfg.momentum,
                             cfg.weight_decay)

    for it in range(n_iter):
        idx = perm[it * m:(it + 1) * m]
        xs = [f[idx].astype(np.float64) for f in state.features]
        s_b = state.semantic[np.ix_(idx, idx)].astype(np.float64)
        r_b = state.rel.batch(idx)

        acts = forward(xs)
        out = objective.total_loss_and_grads(acts[0].h, acts[1].h, s_b, r_b, cfg)
        if not np.isfinite(out.total):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} iteration {it}"
            )
        sums += (out.total, out.sr, out.cp, out.sa)
        update(acts, (out.grad_image, out.grad_text))

        if cfg.bin_opt:
            # refresh soft codes under the just-updated parameters, then
            # fit each side against the other's detached sign codes, whose
            # gradient is not applied; both gradients read only what this
            # forward formed, so both are taken before either step
            acts = forward(xs)
            b_i, b_t = signs(a.h for a in acts)
            update(acts, (
                objective.image_grad(acts[0].h, b_t, s_b, r_b, cfg),
                objective.text_grad(b_i, acts[1].h, s_b, r_b, cfg)))

    del grads  # free the gradient workspace before the full pass
    # end of epoch: one full pass for diagnostics and adaptive mining; each
    # side's activations are dropped as soon as its soft codes are taken
    hs = [hashnet.forward(p, f, eta).h for p, f in zip(state.params, state.features)]
    codes = signs(hs)
    flips = [int((c != prev).sum()) for c, prev in zip(codes, state.codes)]
    state.codes = codes

    if cfg.adaptive and cfg.mu1 > 0:
        state.rel = corrmine.adaptive_update(state.rel, *hs, cfg.kr, cfg.tau,
                                             pairwise=cfg.pair_corr)
    stats = corrmine.correlation_stats(state.rel, state.label_share)
    for side, c in zip(("image", "text"), codes):
        if rows > 1 and (c == c[0]).all():
            raise DivergenceError(f"epoch {epoch}: the {side} training codes collapsed onto "
                                  f"one code, relation fill {stats['count'] / rows ** 2:.4g}")

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
        code_flips_image=flips[0],
        code_flips_text=flips[1],
        wall_time=time.perf_counter() - t0,
    )


def train(bundle: DatasetBundle, cfg: TrainConfig) -> TrainState:
    """Full run over cfg.epochs; deterministic given (bundle, cfg).  A
    weight no checkpoint can hold (hashnet.unstorable) means it diverged."""
    state = init_state(bundle, cfg)
    for epoch in range(1, cfg.epochs + 1):
        state.history.append(train_epoch(state, epoch))
    for side, name in zip(("image", "text"), map(hashnet.unstorable, state.params)):
        if name is not None:
            raise DivergenceError(f"{side} network: {name} beyond float32's range")
    return state


def score(bundle: DatasetBundle, state: TrainState,
          map_cutoffs=MAP_CUTOFFS) -> tuple[dict, dict]:
    """The sign codes of the bundle's query and retrieval rows under a
    trained run's two encoders, keyed query_image, query_text, db_image
    and db_text, and the I2T and T2I reports of each side's query codes
    against the other side's retrieval codes, {} for an unlabeled bundle."""
    splits = {"query": bundle.split.query, "db": bundle.split.retrieval}
    features = (bundle.image_features, bundle.text_features)
    codes = {f"{split}_{side}": hashnet.encode(params, f[rows])
             for split, rows in splits.items()
             for side, params, f in zip(("image", "text"), state.params, features)}
    reports = {}
    if bundle.labels is not None:
        ql, dl = (bundle.labels[rows] for rows in splits.values())
        for direction, query, db in (("I2T", "image", "text"), ("T2I", "text", "image")):
            reports[direction] = evalkit.evaluate_direction(
                direction, codes[f"query_{query}"], codes[f"db_{db}"], ql, dl, map_cutoffs)
    return codes, reports


def ablate(bundle: DatasetBundle, cfg: TrainConfig, names, map_cutoffs=MAP_CUTOFFS):
    """Train and score the named variants of config.VARIANTS in turn, each
    being cfg with its variant's fields changed.  Yields (title, history,
    codes, reports) per run, codes and reports as score gives them; each
    run's state is freed before the next variant trains."""
    for name in names:
        title, patch = VARIANTS[name]
        state = train(bundle, replace(cfg, **patch))
        codes, reports = score(bundle, state, map_cutoffs)
        history = state.history
        del state  # freed before the next variant trains
        yield title, history, codes, reports

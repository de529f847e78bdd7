"""Command-line front end.

Subcommands: synth, build-sim, train, encode, eval, ablate.  Exit codes
are 0 on success, 2 for configuration errors, 3 for data errors, and 4
for numeric divergence; failures print a single machine-parsable line
``error: <kind>: <message>`` on stderr.

Every run writes a manifest.json into its output directory recording the
resolved configuration, sha256 digests of the inputs, the output files,
the package version, and wall-clock timings.

The training flags of build-sim, train and ablate are generated from the
fields of ``config.TrainConfig``, the same keys a --config file and the
manifest use, and synth's corpus flags from those of ``config.SynthConfig``.
This module and ``config`` import no numpy; the handlers import the
numeric modules, so the --threads flag caps the BLAS thread pools before
numpy loads (without it an exported pool size stands, and an unset one
is 1, for bit-reproducible runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from .config import HIDDEN_ACTS, MAP_CUTOFFS, SynthConfig, TrainConfig
from .errors import ConfigError, DataError, DivergenceError


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _write_manifest(out_dir: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str],
                    timings: dict) -> None:
    from . import __version__
    from .dataio import write_json

    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
        "outputs": sorted(outputs),
        "timings": timings,
    }
    write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _inputs(bundle, args: argparse.Namespace) -> list[str]:
    """The files a training command read: the bundle's, then --config."""
    return list(bundle.files) + ([args.config] if args.config else [])


def _add_fields(sub: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the config dataclass cls, with no default of
    its own, so an absent flag leaves the field to cls."""
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction)
        elif f.name == "hidden_act":
            sub.add_argument(flag, choices=HIDDEN_ACTS)
        else:
            sub.add_argument(flag, type=f.type)


def _given(args: argparse.Namespace, cls) -> dict:
    """The fields of cls whose flags were given on the command line."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name) is not None}


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with training config keys")
    # the paper's hyperparameters are TrainConfig's defaults, so the one
    # profile changes nothing; the flag stays for scripts that name it
    sub.add_argument("--profile", choices=["paper-default"],
                     help="the paper's hyperparameters, which are the defaults")
    _add_fields(sub, TrainConfig)


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    """defaults < config file < explicit flags."""
    flat = {}
    if args.config:
        from .dataio import read_json

        try:
            flat.update(read_json(args.config, "config"))
        except DataError as exc:  # a config file's faults are config errors
            raise ConfigError(str(exc)) from None
    flat.update(_given(args, TrainConfig))
    return TrainConfig.from_dict(flat)


def cmd_synth(args: argparse.Namespace) -> int:
    from .dataio import generate_synthetic, save_bundle

    t0 = time.perf_counter()
    cfg = SynthConfig(**_given(args, SynthConfig))
    bundle = generate_synthetic(cfg, train_size=args.train_size)
    outputs = save_bundle(bundle, args.out)
    config = {**dataclasses.asdict(cfg), "train_size": args.train_size}
    _write_manifest(args.out, "synth", config, [], outputs,
                    {"total_s": time.perf_counter() - t0})
    print(f"synth: wrote {bundle.n_rows} instances to {args.out}")
    return 0


def cmd_build_sim(args: argparse.Namespace) -> int:
    from . import corrmine, kernels, trainer
    from .dataio import load_bundle, write_features, write_json

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    bundle = load_bundle(args.bundle)
    train_idx = bundle.split.train
    semantic, rel, timings = trainer.build_targets(
        bundle.image_features[train_idx], bundle.text_features[train_idx], cfg)

    os.makedirs(args.out, exist_ok=True)
    # built from checked features, so written unchecked
    write_features(semantic, os.path.join(args.out, "semantic.assf"))
    with open(os.path.join(args.out, "correlations.csv"), "w") as fh:
        fh.write("i,j\n")
        step = kernels.rows_within(kernels.BLOCK_ENTRIES, 2)  # a pair is a row of 2
        for pairs in rel.upper_pairs():
            for lo, hi in kernels.row_blocks(len(pairs), step):
                chunk = pairs[lo:hi]
                fh.write(("%d,%d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))
    share = (None if bundle.labels is None
             else corrmine.label_share(bundle.labels[train_idx]))
    stats = {"order": rel.order, "epoch": rel.epoch,
             **corrmine.correlation_stats(rel, share)}
    write_json(stats, os.path.join(args.out, "stats.json"))
    outputs = ["semantic.assf", "correlations.csv", "stats.json"]
    _write_manifest(args.out, "build-sim", cfg.to_dict(), _inputs(bundle, args),
                    outputs, {**timings, "total_s": time.perf_counter() - t0})
    print(f"build-sim: semantic {len(semantic)}x{len(semantic)}, "
          f"{stats['count']} correlated pairs")
    return 0


def _encode(params, features, hidden_act):
    """Sign codes of feature rows; forward converts them to float64."""
    from .hashnet import forward, sign_codes

    return sign_codes(forward(params, features, 1.0, hidden_act).h)


def _self_evaluate(bundle, state, out_dir, map_cutoffs):
    """Encode the query/retrieval splits with a trained run's encoders and
    write both direction reports."""
    from .evalkit import evaluate_direction
    from .hashnet import save_codes

    q, r = bundle.split.query, bundle.split.retrieval
    fi, ft, pi, pt = (bundle.image_features, bundle.text_features,
                      state.params_image, state.params_text)
    act = state.cfg.hidden_act
    codes = {
        "query_image": _encode(pi, fi[q], act),
        "query_text": _encode(pt, ft[q], act),
        "db_image": _encode(pi, fi[r], act),
        "db_text": _encode(pt, ft[r], act),
    }
    outputs = []
    for name, mat in codes.items():
        fname = f"{name}.assb"
        save_codes(mat, os.path.join(out_dir, fname))
        outputs.append(fname)
    reports = {}
    if bundle.labels is not None:
        ql, dl = bundle.labels[q], bundle.labels[r]
        reports["I2T"] = evaluate_direction("I2T", codes["query_image"],
                                            codes["db_text"], ql, dl,
                                            map_cutoffs)
        reports["T2I"] = evaluate_direction("T2I", codes["query_text"],
                                            codes["db_image"], ql, dl,
                                            map_cutoffs)
        for direction, report in reports.items():
            fname = f"eval_{direction.lower()}.json"
            report.save_json(os.path.join(out_dir, fname))
            outputs.append(fname)
    return reports, outputs


def cmd_train(args: argparse.Namespace) -> int:
    from .dataio import load_bundle
    from .hashnet import save_checkpoint
    from .trainer import train

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    map_cutoffs = _map_cutoffs(args)
    bundle = load_bundle(args.bundle)
    state = train(bundle, cfg)
    t_train = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(state.params_image, os.path.join(args.out, "imgnet.assp"))
    save_checkpoint(state.params_text, os.path.join(args.out, "txtnet.assp"))
    with open(os.path.join(args.out, "history.jsonl"), "w") as fh:
        for record in state.history:
            fh.write(json.dumps(record.to_dict(), sort_keys=True))
            fh.write("\n")
    outputs = ["imgnet.assp", "txtnet.assp", "history.jsonl"]
    reports, eval_outputs = _self_evaluate(bundle, state, args.out, map_cutoffs)
    outputs.extend(eval_outputs)
    _write_manifest(args.out, "train", cfg.to_dict(), _inputs(bundle, args), outputs,
                    {**state.setup_timings, "train_s": t_train,
                     "total_s": time.perf_counter() - t0})
    line = f"train: {cfg.epochs} epochs done"
    for direction, report in sorted(reports.items()):
        line += f", {direction} MAP@all {report.map_all:.4f}"
    print(line)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .dataio import load_features
    from .hashnet import load_checkpoint, save_codes

    t0 = time.perf_counter()
    params = load_checkpoint(args.checkpoint)
    feats = load_features(args.features, expected_dim=params.d_in)
    codes = _encode(params, feats, args.hidden_act)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_codes(codes, args.out)
    _write_manifest(out_dir, "encode", {"hidden_act": args.hidden_act},
                    [args.features, args.checkpoint],
                    [os.path.basename(args.out)],
                    {"total_s": time.perf_counter() - t0})
    print(f"encode: {codes.shape[0]} codes of {codes.shape[1]} bits -> {args.out}")
    return 0


def _map_cutoffs(args: argparse.Namespace) -> list[int]:
    """The cutoffs --map-at lists, or MAP_CUTOFFS when it is not given."""
    if args.map_at is None:
        return list(MAP_CUTOFFS)
    return _parse_int_list(args.map_at, "map-at")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"--{flag}: expected comma-separated ints, got '{text}'")
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"--{flag}: values must be positive ints")
    return values


def cmd_eval(args: argparse.Namespace) -> int:
    from .dataio import load_labels
    from .evalkit import evaluate_direction
    from .hashnet import load_codes

    t0 = time.perf_counter()
    map_cutoffs = _map_cutoffs(args)
    k_grid = _parse_int_list(args.k_grid, "k-grid") if args.k_grid else None
    query_codes = load_codes(args.query_codes)
    db_codes = load_codes(args.db_codes)
    query_labels = load_labels(args.query_labels)
    db_labels = load_labels(args.db_labels)
    report = evaluate_direction(args.direction, query_codes, db_codes,
                                query_labels, db_labels, map_cutoffs, k_grid)
    os.makedirs(args.out, exist_ok=True)
    report.save_json(os.path.join(args.out, "report.json"))
    report.save_curves_csv(os.path.join(args.out, "pr_curve.csv"),
                           os.path.join(args.out, "topk_curve.csv"))
    _write_manifest(args.out, "eval",
                    {"direction": args.direction, "map_at": map_cutoffs},
                    [args.query_codes, args.db_codes, args.query_labels,
                     args.db_labels],
                    ["report.json", "pr_curve.csv", "topk_curve.csv"],
                    {"total_s": time.perf_counter() - t0})
    line = f"eval {args.direction}: MAP@all {report.map_all:.4f}"
    for k, v in sorted(report.map_at.items()):
        line += f", MAP@{k} {v:.4f}"
    print(line)
    return 0


_VARIANTS = {
    "noadapt": ("ASSPH_NoAdapt", {"adaptive": False}),
    "paircorr": ("ASSPH_PairCorr", {"pair_corr": True}),
    "nocorr": ("ASSPH_NoCorr", {"corr": False}),
    "nobinopt": ("ASSPH_NoBinOpt", {"bin_opt": False}),
    "nostruct": ("ASSPH_NoStruct", {"struct": False}),
}


def cmd_ablate(args: argparse.Namespace) -> int:
    from .dataio import load_bundle, write_json
    from .trainer import train

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    map_cutoffs = _map_cutoffs(args)
    names = [v for v in args.variants.split(",") if v]
    unknown = [v for v in names if v not in _VARIANTS]
    if unknown:
        raise ConfigError(
            f"unknown variants {unknown}; available: {sorted(_VARIANTS)}"
        )
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise ConfigError(f"variants repeated: {repeated}")
    bundle = load_bundle(args.bundle)
    if bundle.labels is None:
        raise DataError("ablate needs a labeled bundle to score variants")

    os.makedirs(args.out, exist_ok=True)
    rows = {}
    outputs = ["ablation.json"]
    runs = [("ASSPH", {})] + [_VARIANTS[v] for v in names]
    for title, patch in runs:
        state = train(bundle, dataclasses.replace(cfg, **patch))
        sub = os.path.join(args.out, title)
        os.makedirs(sub, exist_ok=True)
        reports, sub_outputs = _self_evaluate(bundle, state, sub, map_cutoffs)
        del state  # free this run's state before the next variant trains
        outputs.extend(os.path.join(title, name) for name in sub_outputs)
        rows[title] = {d: reports[d].map_all for d in ("I2T", "T2I")}
        print(f"ablate {title}: I2T {rows[title]['I2T']:.4f}, "
              f"T2I {rows[title]['T2I']:.4f}")
    table = {
        "code_length": cfg.code_length,
        "seed": cfg.seed,
        "rows": rows,
    }
    write_json(table, os.path.join(args.out, "ablation.json"))
    _write_manifest(args.out, "ablate", cfg.to_dict(), _inputs(bundle, args), outputs,
                    {"total_s": time.perf_counter() - t0})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assph",
        description="Unsupervised cross-modal hashing with structural "
                    "similarity and adaptive correlation mining.",
    )
    parser.add_argument("--threads", type=int,
                        help="BLAS thread cap; overrides exported OMP_/OPENBLAS_/"
                             "MKL_NUM_THREADS, which default to 1 for reproducibility")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-modality bundle")
    p.add_argument("--out", required=True)
    _add_fields(p, SynthConfig)
    p.add_argument("--train-size", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-sim",
                       help="dump the semantic matrix and seed correlations")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_build_sim)

    p = sub.add_parser("train", help="train both modality encoders")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map-at",
                   help="comma-separated MAP cutoffs for the self-evaluation")
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="binary codes for a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    # the checkpoint does not record its activation, so nothing can default it
    p.add_argument("--hidden-act", choices=HIDDEN_ACTS, required=True,
                   help="hidden activation the checkpoint was trained with")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="score stored codes against labels")
    p.add_argument("--query-codes", required=True)
    p.add_argument("--db-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--direction", default="I2T")
    p.add_argument("--map-at")
    p.add_argument("--k-grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train the full model plus ablations")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map-at")
    p.add_argument("--variants", default=",".join(_VARIANTS))
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # cap BLAS pools before numpy comes in; harmless if numpy is loaded.
    # An explicit --threads wins, then an exported value, then 1.
    threads = None if args.threads is None else str(max(args.threads, 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads or os.environ.get(var, "1")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: synth, build-sim, train, encode, eval, ablate.  Exit codes
are 0 on success, 2 for configuration errors, 3 for data errors, and 4
for numeric divergence.  A failure prints one machine-parsable stderr
line ``error: <kind>: <message>``, and a warning ``warning: <message>``.

Every command runs in one skeleton, ``_run``: it checks --out before any
input is read, times the run, writes the manifest beside the outputs and
prints the summary line.  A handler ``cmd_*`` only reads its inputs, does
its work and returns a ``_Run`` for the manifest: the resolved config, the
input files (recorded with their sha256), the outputs, the handler's own
stage timings (total_s is added) and the summary line.

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
import typing
import warnings

from .config import HIDDEN_ACTS, MAP_CUTOFFS, VARIANTS, SynthConfig, TrainConfig
from .errors import ConfigError, DataError, DivergenceError


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


@dataclasses.dataclass
class _Run:
    """What a handler did.  outputs are relative to the manifest's
    directory; ablate has no summary, it prints a line per variant."""

    config: dict
    inputs: list
    outputs: list
    summary: str = ""
    timings: dict = dataclasses.field(default_factory=dict)


def _out_dir(path: str) -> str:
    """path, checked before a command reads any input to name a directory
    it can write or make; it is made only to write, so a failed run leaves none."""
    if not path:  # abspath would make it the working directory
        raise ConfigError("output directory: empty path")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):  # its nearest existing ancestor
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {path}: {probe} is not a writable directory")
    return path


def _manifest_path(args: argparse.Namespace) -> str:
    """Where the manifest goes once --out is checked: <out>/manifest.json,
    or <out>.manifest.json for encode, whose --out names its one file."""
    if args.command != "encode":
        return os.path.join(_out_dir(args.out), "manifest.json")
    if os.path.isdir(args.out):
        raise ConfigError(f"output file {args.out} is a directory")
    if os.path.basename(args.out) in ("", ".", ".."):
        raise ConfigError(f"output file '{args.out}' names no file")
    _out_dir(os.path.dirname(os.path.abspath(args.out)))
    return args.out + ".manifest.json"


def _inputs(bundle, args: argparse.Namespace) -> list[str]:
    """The files a training command read: the bundle's, then --config."""
    return list(bundle.files) + ([args.config] if args.config else [])


def _add_fields(sub: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the config dataclass cls, with no default of
    its own, so an absent flag leaves the field to cls; int | None takes ints."""
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction)
        elif f.name == "hidden_act":
            sub.add_argument(flag, choices=HIDDEN_ACTS)
        else:
            sub.add_argument(flag, type=(typing.get_args(f.type) or (f.type,))[0])


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


def cmd_synth(args: argparse.Namespace, elapsed) -> _Run:
    from .dataio import generate_synthetic, save_bundle

    cfg = SynthConfig(**_given(args, SynthConfig))
    bundle = generate_synthetic(cfg)
    outputs = save_bundle(bundle, args.out)
    return _Run(dataclasses.asdict(cfg), [], outputs,
                f"synth: wrote {bundle.n_rows} instances to {args.out}")


def cmd_build_sim(args: argparse.Namespace, elapsed) -> _Run:
    from . import corrmine, kernels, trainer
    from .dataio import load_bundle, write_features, write_json

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
    # the seed relation, mined before any epoch
    stats = {"order": rel.order, "epoch": 0, **corrmine.correlation_stats(rel, share)}
    write_json(stats, os.path.join(args.out, "stats.json"))
    outputs = ["semantic.assf", "correlations.csv", "stats.json"]
    return _Run(cfg.to_dict(), _inputs(bundle, args), outputs,
                f"build-sim: semantic {len(semantic)}x{len(semantic)}, "
                f"{stats['count']} correlated pairs", timings)


def _write_scores(codes: dict, reports: dict, out_dir: str) -> list[str]:
    """Write a scored run's codes and reports (trainer.score) into out_dir;
    returns the file names."""
    from .hashnet import save_codes

    for name, mat in codes.items():
        save_codes(mat, os.path.join(out_dir, f"{name}.assb"))
    for direction, report in reports.items():
        report.save_json(os.path.join(out_dir, f"eval_{direction.lower()}.json"))
    return [f"{name}.assb" for name in codes] + [f"eval_{d.lower()}.json" for d in reports]


def cmd_train(args: argparse.Namespace, elapsed) -> _Run:
    from .dataio import load_bundle
    from .hashnet import save_checkpoint
    from .trainer import score, train

    cfg = _resolve_config(args)
    map_cutoffs = _map_cutoffs(args)
    bundle = load_bundle(args.bundle)
    state = train(bundle, cfg)
    timings = {**state.setup_timings, "train_s": elapsed()}

    os.makedirs(args.out, exist_ok=True)
    outputs = ["imgnet.assp", "txtnet.assp"]
    for params, fname in zip(state.params, outputs):
        save_checkpoint(params, os.path.join(args.out, fname))
    with open(os.path.join(args.out, "history.jsonl"), "w") as fh:
        for record in state.history:
            fh.write(json.dumps(record.to_dict(), sort_keys=True))
            fh.write("\n")
    codes, reports = score(bundle, state, map_cutoffs)
    outputs += ["history.jsonl"] + _write_scores(codes, reports, args.out)
    line = f"train: {cfg.epochs} epochs done" + "".join(
        f", {direction} MAP@all {report.map_all:.4f}" for direction, report in reports.items())
    return _Run(cfg.to_dict(), _inputs(bundle, args), outputs, line, timings)


def cmd_encode(args: argparse.Namespace, elapsed) -> _Run:
    from .dataio import load_features
    from .hashnet import encode, load_checkpoint, save_codes

    params = load_checkpoint(args.checkpoint)
    feats = load_features(args.features, expected_dim=params.d_in)
    codes = encode(params, feats, args.hidden_act)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_codes(codes, args.out)
    return _Run({"hidden_act": args.hidden_act}, [args.features, args.checkpoint],
                [os.path.basename(args.out)],
                f"encode: {codes.shape[0]} codes of {codes.shape[1]} bits -> {args.out}")


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


def cmd_eval(args: argparse.Namespace, elapsed) -> _Run:
    from .dataio import load_labels
    from .evalkit import evaluate_direction
    from .hashnet import load_codes

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
    line = f"eval {args.direction}: MAP@all {report.map_all:.4f}"
    for k, v in sorted(report.map_at.items()):
        line += f", MAP@{k} {v:.4f}"
    return _Run({"direction": args.direction, "map_at": map_cutoffs},
                [args.query_codes, args.db_codes, args.query_labels, args.db_labels],
                ["report.json", "pr_curve.csv", "topk_curve.csv"], line)


# the variants --variants may name; the full model always runs first
_ABLATIONS = list(VARIANTS)[1:]


def cmd_ablate(args: argparse.Namespace, elapsed) -> _Run:
    from .dataio import load_bundle, write_json
    from .trainer import ablate

    cfg = _resolve_config(args)
    map_cutoffs = _map_cutoffs(args)
    names = [v for v in args.variants.split(",") if v]
    unknown = [v for v in names if v not in _ABLATIONS]
    if unknown:
        raise ConfigError(f"unknown variants {unknown}; available: {sorted(_ABLATIONS)}")
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise ConfigError(f"variants repeated: {repeated}")
    names = ["full", *names]
    for name in names:  # each run writes into its own subdirectory
        _out_dir(os.path.join(args.out, VARIANTS[name][0]))
    bundle = load_bundle(args.bundle)
    if bundle.labels is None:
        raise DataError("ablate needs a labeled bundle to score variants")

    rows = {}
    outputs = ["ablation.json"]
    for title, _, codes, reports in ablate(bundle, cfg, names, map_cutoffs):
        sub = os.path.join(args.out, title)
        os.makedirs(sub, exist_ok=True)
        outputs.extend(os.path.join(title, name)
                       for name in _write_scores(codes, reports, sub))
        rows[title] = {d: reports[d].map_all for d in ("I2T", "T2I")}
        print(f"ablate {title}: I2T {rows[title]['I2T']:.4f}, "
              f"T2I {rows[title]['T2I']:.4f}")
    write_json({"code_length": cfg.code_length, "seed": cfg.seed, "rows": rows},
               os.path.join(args.out, "ablation.json"))
    return _Run(cfg.to_dict(), _inputs(bundle, args), outputs)


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
    p.add_argument("--variants", default=",".join(_ABLATIONS))
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def _run(args: argparse.Namespace) -> int:
    """The skeleton every command runs in (see the module docstring)."""
    from . import __version__
    from .dataio import write_json

    t0 = time.perf_counter()
    manifest = _manifest_path(args)

    def elapsed() -> float:  # seconds since the run started
        return time.perf_counter() - t0

    run = args.func(args, elapsed)
    run.timings["total_s"] = elapsed()
    write_json({"command": args.command, "version": __version__, "config": run.config,
                "inputs": {p: _sha256(p) for p in sorted(set(run.inputs))},
                "outputs": sorted(run.outputs), "timings": run.timings}, manifest)
    if run.summary:
        print(run.summary)
    return 0


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
        with warnings.catch_warnings():  # a warning shows as one line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return _run(args)
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

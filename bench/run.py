#!/usr/bin/env python3
"""Benchmark of assph training and Hamming-ranking evaluation.

One workload, one fresh process:

    python3 bench/run.py --workload accept --seed 0 --seconds 25 --trace 0

generates the workload's inputs from the seed under ``.bench_work/``,
then repeats the workload's ``assph`` command(s) through ``cli.dispatch``
until the next repetition would run past ``--seconds``, checks the
outputs, and prints one JSON line as the last line of stdout::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (defined in
``bench/spec.py``); with ``--trace 1`` untraced and traced repetitions
alternate, and the metrics are the per-layer ones from the traced
repetitions plus the tracing overhead.  Spans are dumped to
``.bench_work/traces/``.  An operation is one ``assph`` command; it fails
on a nonzero exit code, an exception, a wrong output or a result that
differs from an earlier run of the same workload, seed and source tree.

All workloads, several seeds, one summary table:

    python3 bench/run.py --all --seeds 0,1,2

Regenerate ``BENCHMARK.json`` from ``bench/spec.py``:

    python3 bench/run.py --write-spec

``--toy`` swaps in tiny geometries that run the same code path in about
a second (used by ``bench/tests``).
"""

import os
import sys

# Pin the BLAS pools before numpy is imported anywhere in this process.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_STAGES = ("dataio.load_bundle", "dataio.load_labels",
                "hashnet.load_codes", "trainer.init_state")


def import_program():
    """Import assph from this checkout's src/, never from site-packages."""
    sys.path.insert(0, SRC)
    try:
        import assph
        from assph import (cli, corrmine, dataio, evalkit, hashnet,  # noqa: F401
                           objective, simgraph, trainer)
    except ImportError as exc:
        sys.exit(f"bench: cannot import assph from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(assph.__file__)) != os.path.join(SRC, "assph"):
        sys.exit(f"bench: assph was imported from {assph.__file__}, not {SRC}")
    return assph


def source_digest() -> str:
    """Hash of the program and benchmark sources, naming one commit's code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "assph"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(workload: str, seed: int, toy: bool) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "workload": workload, "seed": seed, "toy": toy,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
    }


# --------------------------------------------------------------------------
# one repetition


def commands(kind: str, geo: dict, files, seed: int, out_dir: str) -> list:
    """argv lists of the assph commands one repetition runs."""
    if kind == "train":
        argv = ["--threads", str(THREADS), "train", "--bundle", files,
                "--out", out_dir, "--profile", "paper-default",
                "--seed", str(seed)]
        for key, value in geo["flags"].items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return [argv]
    return [["--threads", str(THREADS), "eval",
             "--query-codes", files[f"query_{q}"], "--db-codes", files[f"db_{d}"],
             "--query-labels", files["query_labels"],
             "--db-labels", files["db_labels"],
             "--direction", direction, "--out", os.path.join(out_dir, direction)]
            for direction, q, d in (("I2T", "image", "text"),
                                    ("T2I", "text", "image"))]


def output_files(kind: str, out_dir: str) -> list:
    """The outputs whose bytes must repeat exactly from run to run."""
    if kind == "train":
        return [os.path.join(out_dir, f"{n}.assb")
                for n in ("query_image", "query_text", "db_image", "db_text")]
    return [os.path.join(out_dir, d, n) for d in ("I2T", "T2I")
            for n in ("report.json", "pr_curve.csv", "topk_curve.csv")]


def reported_maps(kind: str, out_dir: str) -> dict:
    paths = ({"I2T": "eval_i2t.json", "T2I": "eval_t2i.json"} if kind == "train"
             else {"I2T": "I2T/report.json", "T2I": "T2I/report.json"})
    maps = {}
    for direction, rel in paths.items():
        with open(os.path.join(out_dir, rel)) as fh:
            maps[direction] = json.load(fh)["map_all"]
    return maps


def run_rep(program, tracer, names, argvs: list, steady: str) -> dict:
    """Run one repetition's commands with the given spans installed.

    ``steady`` names the span whose durations are the repetition's epochs.
    """
    tracer.reset()
    codes, total = [], 0.0
    with tracer.installed(program, names), \
            contextlib.redirect_stdout(sys.stderr):
        for argv in argvs:
            t0 = time.perf_counter()
            try:
                code = program.cli.dispatch(argv)
            except Exception:  # a crash is a failed operation, not a stop
                traceback.print_exc()
                code = -1
            total += time.perf_counter() - t0
            codes.append(code)
    spans = tracer.spans
    setup = tracing.outermost(spans, SETUP_STAGES)
    return {
        "exit_codes": codes,
        "total_s": total,
        "setup_s": sum(s.end - s.start for s in setup),
        "epochs": tracing.durations(spans, steady),
    }


# --------------------------------------------------------------------------
# checks


def check_outputs(kind: str, geo: dict, files, seed: int, out_dir: str) -> tuple:
    """Problems with one repetition's outputs, plus the MAP figures seen."""
    problems = []
    if kind == "train":
        bits = geo["flags"]["code_length"]
        for name, rows in (("query_image", geo["n_query"]),
                           ("query_text", geo["n_query"]),
                           ("db_image", geo["n_db"]), ("db_text", geo["n_db"])):
            problems += checks.check_codes(os.path.join(out_dir, f"{name}.assb"),
                                           rows, bits)
        problems += checks.check_history(os.path.join(out_dir, "history.jsonl"),
                                         geo["flags"]["epochs"])
        if problems:
            return problems, {}
        with open(os.path.join(files, "bundle.json")) as fh:
            split = json.load(fh)["split"]
        labels = checks.read_labels(os.path.join(files, "labels.csv"))
        q_labels, d_labels = labels[split["query"]], labels[split["retrieval"]]
        code = {n: inputs.read_codes(os.path.join(out_dir, f"{n}.assb"))
                for n in ("query_image", "query_text", "db_image", "db_text")}
    else:
        bits = geo["bits"]
        q_labels = checks.read_labels(files["query_labels"])
        d_labels = checks.read_labels(files["db_labels"])
        code = {n: inputs.read_codes(files[n])
                for n in ("query_image", "query_text", "db_image", "db_text")}
    maps = reported_maps(kind, out_dir)
    baseline = checks.random_map(q_labels, d_labels, bits, seed)
    problems += checks.check_map("I2T", maps["I2T"], code["query_image"],
                                 code["db_text"], q_labels, d_labels, baseline)
    problems += checks.check_map("T2I", maps["T2I"], code["query_text"],
                                 code["db_image"], q_labels, d_labels, baseline)
    return problems, {"map_i2t": maps["I2T"], "map_t2i": maps["T2I"],
                      "random_map": baseline}


def check_repeatable(key: str, result: dict) -> list:
    """Compare with the stored result of an earlier run with the same key."""
    path = os.path.join(WORK, "digests", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path) as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(result, fh)
        os.replace(tmp, path)
        return []
    if earlier != result:
        return [f"result differs from an earlier run: {earlier} vs {result}"]
    return []


def judge(reps: list, run_problems: list) -> tuple:
    """(attempted, failed, problems): one operation per assph command.

    A command fails on a nonzero exit code; every command of a repetition
    fails when its outputs differ from the first repetition's, and every
    command fails when the first repetition's outputs are wrong (the rest
    are byte-identical to them or already failed).
    """
    first = reps[0]["result"]
    problems = list(run_problems)
    attempted = failed = 0
    for i, rep in enumerate(reps):
        n = len(rep["exit_codes"])
        attempted += n
        if any(c != 0 for c in rep["exit_codes"]):
            problems.append(f"rep {i}: exit codes {rep['exit_codes']}")
            failed += sum(c != 0 for c in rep["exit_codes"])
        elif rep["result"] != first:
            problems.append(f"rep {i}: result {rep['result']} != rep 0 {first}")
            failed += n
        elif run_problems:
            failed += n
    return attempted, failed, problems


# --------------------------------------------------------------------------
# one run


def median(values):
    return statistics.median(values) if values else 0.0


def claim(workload: str, layer: dict, children: dict) -> dict:
    """The share each workload is built to put on its layer."""
    total = layer["trace.total_s"] or 1.0
    if workload == "accept":
        largest = max(children, key=children.get) if children else None
        return {"claim": "corrmine.adaptive_update is the largest child of "
                         "trainer.train_epoch", "largest": largest,
                "holds": largest == "corrmine.adaptive_update"}
    if workload == "scale5k":
        share = (layer["simgraph.self_s"] + layer["corrmine.self_s"]) / total
        return {"claim": "simgraph + corrmine > 90% of total_s",
                "share": share, "holds": share > 0.9}
    if workload == "wide":
        hashnet = sum(t for n, t in children.items() if n.startswith("hashnet."))
        share = hashnet / (layer["trainer.train_epoch_s"] or 1.0)
        return {"claim": "hashnet > 90% of epoch time", "share": share,
                "holds": share > 0.9}
    share = layer["evalkit.self_s"] / total
    return {"claim": "evalkit > 90% of total_s", "share": share,
            "holds": share > 0.9}


def measure(program, kind, geo, files, seed, seconds, trace, run_dir) -> tuple:
    """Repeat the workload until the next repetition would overrun seconds.

    With trace, repetitions alternate untraced/traced (at least one each).
    Only the first repetition's outputs are kept, for the checks; the
    others are digested and deleted.  Peak RSS is read after the first
    repetition, so it does not depend on how many fit in the time.
    """
    tracer = tracing.Tracer()
    reps, traces = [], []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        out_dir = os.path.join(run_dir, f"rep{len(reps)}")
        rep = run_rep(program, tracer,
                      tracing.TRACED if traced else tracing.STAGES,
                      commands(kind, geo, files, seed, out_dir),
                      "trainer.train_epoch" if kind == "train"
                      else "evalkit.evaluate_direction")
        rep["traced"] = traced
        if traced:
            traces.append((tracing.layer_metrics(tracer),
                           tracing.epoch_children(tracer),
                           [[s.name, s.start, s.end, s.parent]
                            for s in tracer.spans]))
        try:
            rep["result"] = {"digest": checks.digest(output_files(kind, out_dir)),
                             "maps": reported_maps(kind, out_dir)}
        except (OSError, ValueError, KeyError) as exc:
            rep["result"] = {"error": f"{type(exc).__name__}: {exc}"}
        if reps:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reps.append(rep)
        elapsed = time.perf_counter() - t_start
        if (not trace or len(reps) >= 2) and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return reps, traces, peak_rss_mb


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool) -> dict:
    program = import_program()
    wl = spec.WORKLOADS[workload]
    kind, geo = wl["kind"], wl["toy" if toy else "full"]
    print("bench-env: " + json.dumps(environment(workload, seed, toy)), flush=True)
    key = hashlib.sha256(json.dumps(
        [source_digest(), workload, geo, seed]).encode()).hexdigest()[:32]

    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        files = (inputs.make_train_inputs(run_dir, seed, geo) if kind == "train"
                 else inputs.make_eval_inputs(run_dir, seed, geo))
        reps, traces, peak_rss_mb = measure(program, kind, geo, files, seed,
                                            seconds, trace, run_dir)
        # checks, outside the timed window
        first = reps[0]
        run_problems, quality = [], {}
        if "error" in first["result"]:
            run_problems.append(first["result"]["error"])
        elif all(c == 0 for c in first["exit_codes"]):
            try:
                run_problems, quality = check_outputs(
                    kind, geo, files, seed, os.path.join(run_dir, "rep0"))
            except (OSError, ValueError, KeyError) as exc:
                run_problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            run_problems += check_repeatable(key, first["result"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed, problems = judge(reps, run_problems)
    for problem in dict.fromkeys(problems):
        print(f"bench-check: FAIL {problem}", file=sys.stderr)
    print("bench-quality: " + json.dumps(quality))

    plain = [r for r in reps if not r["traced"]]
    if not trace:
        metrics = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "epoch_s": median([t for r in plain for t in r["epochs"]]),
            "total_s": median([r["total_s"] for r in plain]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    else:
        layers, children, dumps = zip(*traces)
        layer = {name: median([m[name] for m in layers]) for name in layers[0]}
        layer["trace.total_s"] = median([r["total_s"] for r in reps if r["traced"]])
        layer["trace.overhead_frac"] = (
            layer["trace.total_s"] / median([r["total_s"] for r in plain]) - 1.0)
        units = {n: u for n, u, _, _ in spec.PER_LAYER}
        metrics = {name: layer[name] for name in units}
        merged = {n: median([c.get(n, 0.0) for c in children])
                  for n in set().union(*children)}
        print("bench-trace: " + json.dumps({
            "repetitions": len(layers), "train_epoch_children_s": merged,
            "self_s": {k: v for k, v in layer.items() if k.endswith(".self_s")}},
            sort_keys=True))
        print("bench-claim: " + json.dumps(claim(workload, layer, merged)))
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "repetitions": list(dumps)}, fh)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------
# all workloads


def run_child(workload: str, seed: int, seconds: int, trace: int,
              toy: bool) -> tuple:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        argv.append("--toy")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {workload} seed {seed} exited {proc.returncode}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(": ")
        if tag.startswith("bench-"):
            tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


def run_all(workloads: list, seeds: list, seconds: int, toy: bool) -> int:
    """Untraced runs per seed plus one traced run, per workload, in children."""
    bounds = {n: (u, b) for n, u, _, b in spec.END_TO_END}
    notes = {n: note for n, _, _, note in spec.PER_LAYER}
    summary = {}
    for workload in workloads:
        runs = [run_child(workload, s, seconds, 0, toy) for s in seeds]
        traced, tagged = run_child(workload, seeds[0], seconds, 1, toy)
        attempted = sum(r["attempted"] for r, _ in runs) + traced["attempted"]
        failed = sum(r["failed"] for r, _ in runs) + traced["failed"]
        print(f"\n== {workload}: {len(seeds)} seeds, failed_frac "
              f"{failed / attempted:.4g} ({failed}/{attempted} operations)")
        print(f"   env: {json.dumps(runs[0][1]['bench-env'])}")
        rows = {}
        for name, (unit, bound) in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                          "spread": (q3 - q1) / med, "values": values}
            print(f"   {name:<14} {med:12.6g} {unit:<4} IQR/median "
                  f"{rows[name]['spread']:.3f} (bound {bound})")
        quality = [t["bench-quality"] for _, t in runs]
        for name in ("map_i2t", "map_t2i", "random_map"):
            med = statistics.median(q.get(name, 0.0) for q in quality)
            print(f"   {name:<14} {med:12.6g} MAP  (check only, no bound)")
        print(f"   per-layer (traced run, seed {seeds[0]}):")
        for name, m in traced["metrics"].items():
            computed = "  [computed]" if notes[name].startswith("computed") else ""
            print(f"     {name:<42} {m['value']:14.6g} {m['unit']}{computed}")
        print(f"   claim: {json.dumps(tagged['bench-claim'])}", flush=True)
        summary[workload] = {"failed_frac": failed / attempted,
                             "end_to_end": rows, "quality": quality,
                             "per_layer": traced["metrics"],
                             "trace": tagged["bench-trace"],
                             "claim": tagged["bench-claim"],
                             "env": runs[0][1]["bench-env"]}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "results.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"\nresults written to {os.path.relpath(path, ROOT)}")
    ok = all(s["failed_frac"] == 0 and (toy or s["claim"]["holds"])
             for s in summary.values())
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in child processes")
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated seeds for --all")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py")
    args = parser.parse_args()
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            fh.write(spec.benchmark_text())
        return 0
    if args.all:
        import_program()  # fail fast, before any child starts
        seeds = [int(s) for s in args.seeds.split(",") if s]
        return run_all(list(spec.WORKLOADS), seeds, args.seconds, args.toy)
    if args.workload is None:
        parser.error("--workload, --all or --write-spec is required")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.toy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

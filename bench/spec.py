"""What the benchmark measures: its workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-spec``), so the file and the code that
produces the metrics cannot drift apart.

Each workload stresses a different layer of the training/retrieval
pipeline, so a change to one layer shows on one workload and leaves the
others still:

* ``accept``  - the acceptance geometry of the test suite; adaptive
  re-mining dominates the epoch, SGD and the loss are the runner-up.
* ``scale5k`` - many training rows with the paper's ks/kr and a narrow
  network; the M x M similarity build and mining are nearly all of it.
* ``wide``    - paper-width encoders on few rows; forward, backward and
  the SGD step are nearly all of the epoch, mining is negligible.
* ``eval18k`` - ``assph eval`` over stored codes; only ``evalkit`` and
  ``dataio`` run.

Sizes are cut so that one run repeats its command two or more times in
``RUN_SECONDS`` on one thread: ``accept`` runs 8 of the tests' 25 epochs,
``scale5k`` has M=2500 rather than 5000 (ks and kr keep the paper's 0.4 M
and 0.01 M) and one epoch, ``wide`` has 160 training rows (5 iterations,
one epoch), and ``eval18k`` has 600 queries rather than 2000.  Each cut
keeps the workload's dominant layer dominant; the traced run checks that
share (``claim`` in run.py).  ``toy`` sizes run the same code path in
about a second for the smoke test; they are too small to learn on every
seed, so the test pins its seeds.

Two figures the first design had are not end-to-end metrics.  MAP varies
with the seed far more than any allowed bound (0.39 to 1.0 on wide); it
is a check instead (exact against a naive reference, above random codes,
equal on every rerun) and ``--all`` prints it.  The train workloads'
self-evaluation lasts 0.1-0.3 s and its time spread up to 0.29 across
runs; evaluation time is still in total_s, in eval18k's epoch_s, and per
layer in ``evalkit.*`` from the traced run.
"""

from __future__ import annotations

import json

# --------------------------------------------------------------------------
# workloads

TRAIN_FLAGS_ACCEPT = dict(code_length=32, ks=400, kr=10, learning_rate=1e-4,
                          d_hidden=256, batch_size=32)

WORKLOADS = {
    "accept": dict(
        kind="train",
        why="acceptance geometry (1000/200/800 split, 32 bits, 256 hidden, "
            "ks=400, kr=10): adaptive re-mining leads the epoch, SGD and "
            "loss follow, small self-eval and writes ride along",
        full=dict(classes=5, dim_image=24, dim_text=48, label_cardinality=0.5,
                  noise_sigma=0.45, n_train=1000, n_query=200, n_db=800,
                  flags=dict(TRAIN_FLAGS_ACCEPT, epochs=8)),
        toy=dict(classes=5, dim_image=24, dim_text=48, label_cardinality=0.5,
                 noise_sigma=0.15, n_train=128, n_query=30, n_db=90,
                 flags=dict(TRAIN_FLAGS_ACCEPT, epochs=3, ks=50, kr=5)),
    ),
    "scale5k": dict(
        kind="train",
        why="many rows with the paper's ks/kr ratio and a narrow net: the "
            "M x M semantic build and correlation mining are over 90% of "
            "the run, SGD is small",
        full=dict(classes=10, dim_image=128, dim_text=64,
                  label_cardinality=1.0, noise_sigma=0.15, n_train=2500,
                  n_query=100, n_db=400,
                  flags=dict(code_length=64, ks=1000, kr=25, epochs=1,
                             d_hidden=256, batch_size=32,
                             learning_rate=1e-4)),
        toy=dict(classes=5, dim_image=32, dim_text=16, label_cardinality=1.0,
                 noise_sigma=0.15, n_train=160, n_query=30, n_db=90,
                 flags=dict(code_length=16, ks=48, kr=6, epochs=2,
                            d_hidden=32, batch_size=32, learning_rate=1e-4)),
    ),
    "wide": dict(
        kind="train",
        why="paper width (4096-d image, 1386-d text, 4096 hidden, 64 bits, "
            "batch 32) on 160 rows: forward, backward and SGD are over 90% "
            "of the epoch, mining is negligible",
        # Five iterations must beat random codes on every seed.  With
        # uncentred multi-label data, or lr >= 1e-4, or three iterations,
        # some seeds' codes collapse onto one sign pattern or stay random;
        # this setting passed on 40 seeds out of 40.
        full=dict(classes=3, single_label=True, dim_image=4096, dim_text=1386,
                  noise_sigma=0.01, center=True,
                  n_train=160, n_query=96, n_db=320,
                  flags=dict(code_length=64, ks=48, kr=10, epochs=1,
                             d_hidden=4096, batch_size=32,
                             learning_rate=5e-5)),
        toy=dict(classes=3, single_label=True, dim_image=256, dim_text=96,
                 noise_sigma=0.01, center=True, n_train=96, n_query=30,
                 n_db=90,
                 flags=dict(code_length=16, ks=24, kr=4, epochs=1,
                            d_hidden=256, batch_size=32,
                            learning_rate=5e-5)),
    ),
    "eval18k": dict(
        kind="eval",
        why="assph eval of stored 64-bit codes, both directions, 600 "
            "queries x 18000 items, 24 multi-hot labels: only evalkit "
            "(rank, AP, curves) and dataio run",
        full=dict(classes=24, bits=64, label_cardinality=2.0, flip=0.3,
                  n_query=600, n_db=18000),
        toy=dict(classes=6, bits=16, label_cardinality=1.5, flip=0.2,
                 n_query=20, n_db=120),
    ),
}

# --------------------------------------------------------------------------
# metrics

RUN_SECONDS = 25

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen.  setup_s: load_bundle + trainer.init_state,
# or loading codes and labels for eval18k.  epoch_s: median train_epoch, or
# median evaluate_direction for eval18k (one pass over the queries).
# total_s: the assph command(s) of one repetition.  These three are
# medians over the repetitions of a run.  peak_rss_mb: the process's peak
# through its first repetition; later repetitions raise it by up to 11%
# depending on how the allocator reuses freed blocks, not on the program.
# The timing bounds are the widest allowed: on a shared 2-core box the
# same single-threaded matmul loop ran 48% slower from one second to the
# next, CPU time included, and sets of ten runs spread by up to 11% in
# total_s.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("epoch_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, note).  A note starting "computed" marks a value
# derived from shapes or counts rather than timed; "count" values repeat
# exactly for a fixed workload, seed and commit.  Values are per
# repetition, medians over the traced repetitions.  Which end-to-end
# figure each layer should move, and where:
#   simgraph  - setup_s and peak_rss_mb on scale5k
#   corrmine  - epoch_s and setup_s on scale5k and accept
#   hashnet   - epoch_s on wide; save_* total_s on accept
#   objective - epoch_s on accept
#   trainer   - setup_s and epoch_s on accept, scale5k and wide
#   evalkit   - eval_s and peak_rss_mb on eval18k
#   dataio, cli - setup_s and total_s on eval18k and accept
PER_LAYER = [
    ("simgraph.build_semantic_s", "s", "lower", "inclusive"),
    ("simgraph.cosine_matrix_s", "s", "lower",
     "inclusive, calls from simgraph and corrmine"),
    ("simgraph.top_k_indices_s", "s", "lower",
     "inclusive, calls from simgraph and corrmine"),
    ("simgraph.self_s", "s", "lower", "self time of all simgraph spans"),
    ("simgraph.build_semantic_peak_mb", "MB", "lower",
     "tracemalloc peak inside the call, max over calls"),
    ("corrmine.init_correlations_s", "s", "lower", "inclusive"),
    ("corrmine.adaptive_update_s", "s", "lower", "inclusive"),
    ("corrmine.knn_adjacency_s", "s", "lower", "inclusive"),
    ("corrmine.second_order_s", "s", "lower", "inclusive"),
    ("corrmine.second_order_calls", "count", "lower", "count"),
    ("corrmine.correlation_stats_s", "s", "lower", "inclusive"),
    ("corrmine.batch_s", "s", "lower", "CorrelationSet.batch, inclusive"),
    ("corrmine.self_s", "s", "lower", "self time of all corrmine spans"),
    ("corrmine.pairs", "count", "higher",
     "count: correlated pairs (diagonal included) at the last "
     "correlation_stats call"),
    ("corrmine.pairs_precision", "frac", "higher",
     "useful (label-sharing) share of off-diagonal pairs, last call"),
    ("corrmine.init_correlations_peak_mb", "MB", "lower",
     "tracemalloc peak inside the call, max over calls"),
    ("hashnet.forward_s", "s", "lower", "inclusive"),
    ("hashnet.forward_calls", "count", "lower", "count"),
    ("hashnet.backward_s", "s", "lower", "inclusive"),
    ("hashnet.backward_calls", "count", "lower", "count"),
    ("hashnet.sgd_step_s", "s", "lower", "inclusive"),
    ("hashnet.sgd_step_calls", "count", "lower", "count"),
    ("hashnet.sgd_bytes", "B", "lower",
     "computed: 40 B per parameter per sgd_step call (read p, v, g and "
     "write v, p in float64)"),
    ("hashnet.forward_recompute_frac", "frac", "lower",
     "computed: backward calls / (forward + backward calls), the share of "
     "forward evaluations that backward recomputes"),
    ("hashnet.save_checkpoint_s", "s", "lower", "inclusive"),
    ("hashnet.save_codes_s", "s", "lower", "inclusive"),
    ("hashnet.self_s", "s", "lower", "self time of all hashnet spans"),
    ("objective.total_loss_and_grads_s", "s", "lower", "inclusive"),
    ("objective.total_loss_and_grads_calls", "count", "lower", "count"),
    ("trainer.init_state_s", "s", "lower", "inclusive"),
    ("trainer.train_epoch_s", "s", "lower", "inclusive, all epochs"),
    ("trainer.train_epoch_self_s", "s", "lower",
     "train_epoch span time minus its child spans"),
    ("evalkit.evaluate_direction_s", "s", "lower", "inclusive"),
    ("evalkit.hamming_matrix_s", "s", "lower", "inclusive"),
    ("evalkit.rank_s", "s", "lower", "inclusive"),
    ("evalkit.average_precision_s", "s", "lower", "inclusive"),
    ("evalkit.average_precision_calls", "count", "lower", "count"),
    ("evalkit.curves_s", "s", "lower", "inclusive"),
    ("evalkit.relevance_matrix_s", "s", "lower", "inclusive"),
    ("evalkit.self_s", "s", "lower", "self time of all evalkit spans"),
    ("evalkit.evaluate_direction_peak_mb", "MB", "lower",
     "tracemalloc peak inside the call, max over calls"),
    ("dataio.load_bundle_s", "s", "lower", "inclusive"),
    ("dataio.load_labels_s", "s", "lower", "inclusive"),
    ("dataio.self_s", "s", "lower", "self time of all dataio spans"),
    ("cli.self_s", "s", "lower",
     "cli.dispatch time not inside another traced span"),
    ("trace.total_s", "s", "lower", "total_s of the traced repetitions"),
    ("trace.overhead_frac", "frac", "lower",
     "traced total_s / untraced total_s - 1, same run"),
]


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"

"""Spans around the program's public functions, recorded from outside.

The tracer replaces module attributes (and one method) with wrappers that
record ``(name, start, end, parent)`` per call, keeps the spans in memory
and restores the originals on exit.  The program is not modified.

Functions imported by name into another module are wrapped in every
namespace that calls them; ``corrmine`` imports ``cosine_matrix`` and
``top_k_indices`` from ``simgraph``, so those two are patched in both and
reported under their ``simgraph`` name.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

# span name -> (module attribute paths to patch).  Paths are
# "module.attr" or "module.Class.attr" relative to the assph package.
TRACED = {
    "cli.dispatch": ("cli.dispatch",),
    "dataio.load_bundle": ("dataio.load_bundle",),
    "dataio.load_labels": ("dataio.load_labels",),
    "simgraph.build_semantic": ("simgraph.build_semantic",),
    "simgraph.cosine_matrix": ("simgraph.cosine_matrix", "corrmine.cosine_matrix"),
    "simgraph.top_k_indices": ("simgraph.top_k_indices", "corrmine.top_k_indices"),
    "corrmine.init_correlations": ("corrmine.init_correlations",),
    "corrmine.adaptive_update": ("corrmine.adaptive_update",),
    "corrmine.knn_adjacency": ("corrmine.knn_adjacency",),
    "corrmine.second_order": ("corrmine.second_order",),
    "corrmine.correlation_stats": ("corrmine.correlation_stats",),
    "corrmine.batch": ("corrmine.CorrelationSet.batch",),
    "hashnet.forward": ("hashnet.forward",),
    "hashnet.backward": ("hashnet.backward",),
    "hashnet.sgd_step": ("hashnet.sgd_step",),
    "hashnet.save_checkpoint": ("hashnet.save_checkpoint",),
    "hashnet.save_codes": ("hashnet.save_codes",),
    "hashnet.load_codes": ("hashnet.load_codes",),
    "objective.total_loss_and_grads": ("objective.total_loss_and_grads",),
    "trainer.train": ("trainer.train",),
    "trainer.init_state": ("trainer.init_state",),
    "trainer.train_epoch": ("trainer.train_epoch",),
    "evalkit.evaluate_direction": ("evalkit.evaluate_direction",),
    "evalkit.relevance_matrix": ("evalkit.relevance_matrix",),
    "evalkit.hamming_matrix": ("evalkit.hamming_matrix",),
    "evalkit.rank": ("evalkit.rank",),
    "evalkit.average_precision": ("evalkit.average_precision",),
    "evalkit.curves": ("evalkit.curves",),
}

# The stage boundaries the end-to-end metrics need; an untraced run wraps
# only these (a handful of calls per command, so no measurable cost).
STAGES = ("dataio.load_bundle", "dataio.load_labels", "hashnet.load_codes",
          "trainer.init_state", "trainer.train_epoch",
          "evalkit.evaluate_direction")

# Top-level stage calls whose tracemalloc peak is recorded.
PEAK_TRACED = ("simgraph.build_semantic", "corrmine.init_correlations",
               "evalkit.evaluate_direction")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


@dataclass
class Tracer:
    """In-memory span recorder; one per run, installed per repetition."""

    spans: list = field(default_factory=list)
    peaks: dict = field(default_factory=dict)  # span name -> max MB
    sgd_bytes: int = 0
    last_stats: dict | None = None
    _stack: list = field(default_factory=list)

    def reset(self) -> None:
        self.spans, self.peaks, self.sgd_bytes, self.last_stats = [], {}, 0, None

    def _wrap(self, name: str, fn):
        track_peak = name in PEAK_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            started_malloc = track_peak and not tracemalloc.is_tracing()
            if started_malloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if started_malloc:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak_mb)
            if name == "hashnet.sgd_step":
                params = args[0]
                n = sum(getattr(params, p).size for p in ("w1", "b1", "w2", "b2"))
                self.sgd_bytes += 40 * n
            elif name == "corrmine.correlation_stats":
                self.last_stats = result
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package, names):
        """Patch the given span names into the package; restore on exit."""
        saved = []
        try:
            for name in names:
                for path in TRACED[name]:
                    *owner_path, attr = path.split(".")
                    owner = package
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def durations(spans: list, name: str) -> list:
    return [s.end - s.start for s in spans if s.name == name]


def outermost(spans: list, names) -> list:
    """Spans with one of the names that have no ancestor with one of them."""
    names = set(names)
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values for one traced repetition."""
    spans = tracer.spans
    own = self_times(spans)
    inclusive, calls, module_self = {}, {}, {}
    for span, t_self in zip(spans, own):
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        module = span.name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + t_self

    out = {}
    for name in TRACED:
        if name != "cli.dispatch":
            out[f"{name}_s"] = inclusive.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    for module in {name.split(".")[0] for name in TRACED}:
        out[f"{module}.self_s"] = module_self.get(module, 0.0)
    out["trainer.train_epoch_self_s"] = sum(
        (t for s, t in zip(spans, own) if s.name == "trainer.train_epoch"), 0.0)
    for name in PEAK_TRACED:
        out[f"{name}_peak_mb"] = tracer.peaks.get(name, 0.0)
    out["hashnet.sgd_bytes"] = tracer.sgd_bytes
    n_fwd = calls.get("hashnet.forward", 0)
    n_bwd = calls.get("hashnet.backward", 0)
    out["hashnet.forward_recompute_frac"] = n_bwd / (n_fwd + n_bwd) if n_bwd else 0.0
    stats = tracer.last_stats or {}
    out["corrmine.pairs"] = stats.get("count", 0)
    out["corrmine.pairs_precision"] = stats.get("precision", 0.0)
    return out


def epoch_children(tracer: Tracer) -> dict:
    """Inclusive time of each direct child of train_epoch, by name."""
    spans = tracer.spans
    out = {}
    for span in spans:
        if span.parent is not None and spans[span.parent].name == "trainer.train_epoch":
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
    return out

"""Hamming-space retrieval evaluation: ranking, MAP, and curve protocols.

Ranking runs on kernels' packed-bit rows: a code's +1 bits and a label
row's nonzero labels.  The distance between two code rows is the number
of set bits of their XOR (hamming_matrix), an integer in [0, K], exact
by construction.  An item is relevant to a query when their label words
share a set bit (relevance_matrix), one bool per pair whatever the
number of labels.  rank sorts by ascending distance with ties broken by
ascending database index, so every metric here is exactly reproducible.

evaluate_direction, the one entry point, checks the codes and packs them
and the labels once per direction, then ranks the queries in blocks of
about _BLOCK_PAIRS query-item pairs, so a block's footprint does not grow
with Q.  Each block counts its hamming_matrix distances per query, ranks
them once and gathers its relevance into rank order once; every metric
then reads the hits, the flat rank positions of the relevant items, and
only a few numbers per query and radius outlive the block.

Average precision truncated at a cutoff divides by the number of relevant
items inside the cutoff window; queries with no relevant item in the
window score 0 and still count toward the mean.  The precision-recall
curve is parameterized by Hamming radius (K + 1 thresholds), averaged
over queries that have at least one relevant item, deduplicated on equal
recall, and reported without the recall == 0 and recall == 1 endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import MAP_CUTOFFS
from .dataio import write_json
from .errors import ConfigError, DataError

# query-item pairs ranked per block of queries, a decision of its own:
# it trades a ranked block's footprint against its per-block Python work
_BLOCK_PAIRS = 1 << 20


def _check_codes(codes: np.ndarray, name: str) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2 or min(codes.shape) < 1:
        raise DataError(f"{name}: expected a 2-d code matrix with rows and bits")
    if not kernels.all_signs(codes):
        raise DataError(f"{name}: code entries must be -1 or +1")
    return codes


def _check_pair(query_codes: np.ndarray,
                db_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked codes' +1 bits as kernels.pack_rows words, and their length."""
    q = _check_codes(query_codes, "query codes")
    d = _check_codes(db_codes, "db codes")
    if q.shape[1] != d.shape[1]:
        raise DataError(f"code length mismatch: {q.shape[1]} vs {d.shape[1]}")
    return kernels.pack_rows(q > 0), kernels.pack_rows(d > 0), q.shape[1]


def hamming_matrix(query_words: np.ndarray, db_words: np.ndarray, k: int) -> np.ndarray:
    """out[i, j] is the number of set bits of query_words[i] XOR
    db_words[j], kernels.pack_rows rows of k-bit codes, in the smallest
    unsigned dtype that holds k.  Integer counts, so exact for every k."""
    dist = np.empty((len(query_words), len(db_words)), dtype=np.min_scalar_type(k))
    step = kernels.rows_within(kernels.BLOCK_ENTRIES, len(db_words))
    for lo, hi in kernels.row_blocks(len(query_words), step):
        rows, words = dist[lo:hi], zip(query_words[lo:hi].T, db_words.T)
        q_w, d_w = next(words)  # k >= 1, so there is a first word
        np.bitwise_count(q_w[:, None] ^ d_w, out=rows)
        for q_w, d_w in words:
            rows += np.bitwise_count(q_w[:, None] ^ d_w)
    return dist


def rank(dist: np.ndarray) -> np.ndarray:
    """Row q lists the database indices by ascending dist[q], ties by
    ascending index: one stable argsort over all rows."""
    return np.argsort(dist, axis=1, kind="stable")


def average_precision(precisions: np.ndarray, starts: np.ndarray,
                      stops: np.ndarray) -> np.ndarray:
    """AP of each row of a ranked block from the precision at each of its
    relevant items, in rank order: row i's are precisions[starts[i]:stops[i]],
    and a stop before the row's last hit truncates its list at a cutoff.

    A row's denominator is the number of relevant items inside its
    truncated list; a row with none scores 0.
    """
    # one 1-d sum per row, in rank order, so each AP is bit-exact
    return np.array([precisions[a:b].sum() / (b - a) if b > a else 0.0
                     for a, b in zip(starts.tolist(), stops.tolist())])


def relevance_matrix(query_words: np.ndarray, db_words: np.ndarray) -> np.ndarray:
    """rel[q, d] is True iff the query and database item share any label:
    their kernels.pack_rows rows of nonzero labels share a set bit."""
    return kernels.overlap(query_words, db_words)


def curves(n_within: np.ndarray, rel_within: np.ndarray, topk_hits: np.ndarray,
           k_grid: list[int]) -> tuple[list[tuple[float, float]],
                                       list[tuple[int, float]]]:
    """Precision-recall and top-k precision curves from per-query counts.

    n_within[q, r] counts the database items within Hamming radius r of
    query q and rel_within[q, r] the relevant ones among them; topk_hits[q, i]
    counts the relevant items among query q's first k_grid[i] results.

    Returns (pr_points, topk_points).  pr_points are (recall, precision)
    pairs per Hamming radius, averaged over queries with at least one
    relevant item, with duplicate recalls collapsed (first kept) and the
    recall 0/1 endpoints dropped.  topk_points are (k, mean precision@k)
    over all queries.
    """
    topk_points = [(k, float(np.mean(topk_hits[:, i] / k)))
                   for i, k in enumerate(k_grid)]
    totals = rel_within[:, -1]
    eligible = totals > 0
    if not np.any(eligible):
        return [], topk_points
    # radii up to the farthest item of any query
    n_radii = int(np.count_nonzero((n_within < n_within[:, -1:]).any(axis=0))) + 1
    # radius by query, so each radius averages one contiguous vector of
    # the eligible queries in query order
    n_ret = np.ascontiguousarray(n_within[eligible, :n_radii].T)
    n_rel_ret = np.ascontiguousarray(rel_within[eligible, :n_radii].T)
    precision = n_rel_ret / np.maximum(n_ret, 1)  # zero retrieved -> precision 0
    recall = n_rel_ret / totals[eligible]
    pr_points = []
    seen = set()
    for rec, prec in zip(recall, precision):
        rec = float(rec.mean())
        if rec in seen:
            continue
        seen.add(rec)
        if 0.0 < rec < 1.0:
            pr_points.append((rec, float(prec.mean())))
    return pr_points, topk_points


@dataclass
class EvalReport:
    """One retrieval direction's metric bundle, JSON-serializable."""

    direction: str
    code_length: int
    map_all: float
    map_at: dict = field(default_factory=dict)
    pr_curve: list = field(default_factory=list)
    topk_curve: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "code_length": self.code_length,
            "map_all": self.map_all,
            "map_at": {str(k): v for k, v in self.map_at.items()},
            "pr_curve": [[r, p] for r, p in self.pr_curve],
            "topk_curve": [[int(k), p] for k, p in self.topk_curve],
        }

    def save_json(self, path: str) -> None:
        write_json(self.to_dict(), path)

    def save_curves_csv(self, pr_path: str, topk_path: str) -> None:
        with open(pr_path, "w") as fh:
            fh.write("recall,precision\n")
            for rec, prec in self.pr_curve:
                fh.write(f"{rec:.10g},{prec:.10g}\n")
        with open(topk_path, "w") as fh:
            fh.write("k,precision\n")
            for k, prec in self.topk_curve:
                fh.write(f"{k},{prec:.10g}\n")


def evaluate_direction(direction: str, query_codes: np.ndarray,
                       db_codes: np.ndarray, query_labels: np.ndarray,
                       db_labels: np.ndarray, map_cutoffs: list[int] = MAP_CUTOFFS,
                       k_grid: list[int] | None = None) -> EvalReport:
    """Full metric bundle for one direction (e.g. image query, text db).

    The codes, the labels, the cutoffs and k_grid are checked here, once
    per call, and the stages below trust them; the codes and the labels
    are packed into words once, here too.  Each block of queries is
    ranked by one rank of its distances and its relevance gathered into
    rank order once; one flatnonzero of the ranked flags gives the hits.  AP@all and
    every AP@cutoff sum the precision at each hit, j / rank, over a row's
    hits or their prefix; the top-k counts and the counts of relevant
    items within each Hamming radius are window ends searchsorted in the
    hits.  The per-query distance counts come from the unsorted
    distances, since a count does not depend on order.
    """
    query_labels, db_labels = np.asarray(query_labels), np.asarray(db_labels)
    for role, codes, labels in (("query", query_codes, query_labels),
                                ("db", db_codes, db_labels)):
        if len(labels) != len(codes):
            raise DataError(f"{role} labels and codes row count mismatch: "
                            f"{len(labels)} vs {len(codes)}")
    query_codes, db_codes, k = _check_pair(query_codes, db_codes)
    n_q, n_db = len(query_codes), len(db_codes)
    if k_grid is None:
        k_grid = sorted({top for top in (1, 5, 10, 25, 50, 100, 250, 500, 1000)
                         if top <= n_db} | {n_db})
    k_grid = list(k_grid)
    if any(top < 1 for top in k_grid) or sorted(set(k_grid)) != k_grid:
        raise ConfigError(f"k_grid must be ascending positive ints, got {k_grid}")
    if (query_labels.ndim != 2 or db_labels.ndim != 2
            or query_labels.shape[1] != db_labels.shape[1]):
        raise DataError(f"evaluate_direction: query and db label shapes "
                        f"{query_labels.shape} and {db_labels.shape} incompatible")
    cutoffs = [int(c) for c in map_cutoffs]
    for cutoff in cutoffs:
        if cutoff < 1:
            raise ConfigError(f"evaluate_direction: cutoff must be >= 1, got {cutoff}")
    query_labels, db_labels = (kernels.pack_rows(x != 0) for x in (query_labels, db_labels))
    # each MAP cutoff, then each top k, clipped to the list before int64 holds it
    windows = np.array([min(w, n_db) for w in cutoffs + k_grid], dtype=np.int64)
    aps = np.zeros((1 + len(cutoffs), n_q))
    window_hits = np.zeros((n_q, len(windows)), dtype=np.int64)
    # the items, and the relevant ones, within each Hamming radius of a query
    n_within = np.zeros((n_q, k + 1), dtype=np.int64)
    rel_within = np.zeros((n_q, k + 1), dtype=np.int64)
    for lo, hi in kernels.row_blocks(n_q, kernels.rows_within(_BLOCK_PAIRS, n_db)):
        block = slice(lo, hi)
        dist = hamming_matrix(query_codes[block], db_codes, k)
        rel = relevance_matrix(query_labels[block], db_labels)
        n_within[block] = np.cumsum([np.bincount(row, minlength=k + 1) for row in dist],
                                    axis=1)
        # row r of the block is ranked in flat positions offsets[r] onwards
        offsets = np.arange(len(dist) + 1) * n_db
        ordering = rank(dist)
        del dist
        ordering += offsets[:-1, None]
        flags = rel.ravel().take(ordering)
        del ordering, rel
        # flat rank positions of the relevant items, ascending; only these
        # outlive the flags, so no Q x D array is alive while the metrics
        # build their temporaries
        hits = np.flatnonzero(flags)
        del flags
        # row r's hits are hits[first[r]:first[r + 1]]
        first = np.searchsorted(hits, offsets)
        starts, n_hits = first[:-1], np.diff(first)
        # the hits among row r's first w ranks end where offsets[r] + w
        # would go, for the w of each radius and of each fixed window
        widths = np.hstack([n_within[block], np.tile(windows, (len(starts), 1))])
        within = np.searchsorted(hits, offsets[:-1, None] + widths) - starts[:, None]
        rel_within[block], window_hits[block] = within[:, :k + 1], within[:, k + 1:]
        # the precision at each hit, j / rank: its 1-based place among its
        # row's hits over its 1-based rank, which the hits turn into in place
        hits -= np.repeat(offsets[:-1] - 1, n_hits)
        places = np.arange(1, len(hits) + 1)
        places -= np.repeat(starts, n_hits)
        precisions = places / hits
        del hits, places
        aps[0, block] = average_precision(precisions, starts, first[1:])
        for i in range(len(cutoffs)):
            aps[1 + i, block] = average_precision(precisions, starts,
                                                  starts + window_hits[block, i])
        del precisions  # freed before the next block's arrays
    pr_curve, topk_curve = curves(n_within, rel_within, window_hits[:, len(cutoffs):],
                                  k_grid)
    return EvalReport(
        direction=direction,
        code_length=k,
        map_all=float(np.mean(aps[0])),
        map_at={c: float(np.mean(row)) for c, row in zip(cutoffs, aps[1:])},
        pr_curve=pr_curve,
        topk_curve=topk_curve,
    )

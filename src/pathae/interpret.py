"""Interpretability and survival analysis: neural path weights, pathway MI
ranking, agglomerative clustering, 2-D PCA maps, Kaplan-Meier curves and
logrank tests, plus SVG/CSV emission.

Plots are written as plain SVG 1.1 so they stay dependency-free, diffable
and parseable as XML in tests.  2-D maps use PCA (a deterministic stand-in
for stochastic embedding methods); every emitted map is labeled as such.

The ranking scores every pathway column in one batched mutual-information
call, and every pathway's neural path weights and top genes come from the
model's packed pathway tensors at once.  The logrank tests of all tested
genes run over one cohort-wide grid of event times.  Heatmap and scatter
colours come from one vectorized diverging map that formats each distinct
colour once, and each row, column and point coordinate is formatted once,
not per cell or per panel; the bytes are those of the per-cell formatting.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open, write_csv
from .errors import DataError, ShapeError
# mutual_information stays importable from here: perfbench interposes it
from .metrics import mutual_information, mutual_information_columns  # noqa: F401
from .models import _ranges
from .dataio import SurvivalTable

# ---------------------------------------------------------------------------
# neural path weights
# ---------------------------------------------------------------------------


def neural_path_weights(pathway_layers) -> np.ndarray:
    """Product of a pathway encoder's weight matrices, collapsed to one
    weight per input gene (the final layer has width 1)."""
    Ws = [np.asarray(W, dtype=np.float64) for W, _b in pathway_layers]
    for left, right in zip(Ws[:-1], Ws[1:]):
        if left.shape[1] != right.shape[0]:
            raise ShapeError(
                f"neural_path_weights: layer shapes {left.shape} and {right.shape} do not chain"
            )
    return reduce(np.matmul, Ws).ravel()


def anpw(npw) -> np.ndarray:
    return np.abs(np.asarray(npw, dtype=np.float64))


def top_genes_by_anpw(pathway_layers, gene_names, k: int = 10):
    """Genes ranked by absolute neural path weight (descending), reported
    with their signed weight; ties break alphabetically."""
    npw = neural_path_weights(pathway_layers)
    if len(gene_names) != len(npw):
        raise ShapeError(f"top_genes_by_anpw: {len(gene_names)} names for {len(npw)} weights")
    if k > len(npw):
        warnings.warn(
            f"top_genes_by_anpw: k={k} exceeds pathway size {len(npw)}; clamped", stacklevel=2
        )
        k = len(npw)
    ranked = sorted(zip(gene_names, npw), key=lambda t: (-abs(t[1]), t[0]))
    return [(name, float(w)) for name, w in ranked[:k]]


class TopGenes(NamedTuple):
    """Every pathway's top genes by |NPW|, best first: pathway j's are the
    entries ``starts[j]`` to ``starts[j + 1]``."""

    starts: np.ndarray  # (P + 1,)
    genes: np.ndarray  # columns of the gene axis
    npw: np.ndarray  # their signed neural path weights


def pathway_npw(params) -> np.ndarray:
    """Every pathway's neural path weights, from a model's packed pathway
    tensors: one per layer-0 weight row, so pathway j's are entries
    ``pathway_offsets[j]`` to ``pathway_offsets[j + 1]``.

    The pathways of one exact size are chained as one batched matmul per
    layer, in neural_path_weights' order, which gives each pathway the
    bits of neural_path_weights on its own stack."""
    (W0, _b0), *later = params.pathway
    offsets = np.asarray(params.pathway_offsets)
    sizes = np.diff(offsets)
    npw = np.empty(W0.shape[0])
    for size in np.unique(sizes):
        members = np.flatnonzero(sizes == size)
        rows = offsets[members, None] + np.arange(size)
        h = W0[rows]
        for W, _b in later:
            h = h @ W[members]
        npw[rows] = h[..., 0]
    return npw


def pathway_top_genes(model, gene_names, k: int = 10, pathways=None) -> TopGenes:
    """top_genes_by_anpw for the given pathways of a model (every pathway by
    default) at once, in the order given, the genes named on the axis
    ``gene_names``: each pathway's min(k, size) genes by |NPW|, descending,
    ties broken by name and then by mask order.  The weights come from
    pathway_npw and are ranked by one lexsort."""
    offsets = np.asarray(model.params.pathway_offsets)
    if pathways is None:
        pathways = range(offsets.size - 1)
    pathways = np.asarray(pathways, dtype=np.intp)
    sizes = np.diff(offsets)[pathways]
    rows = _ranges(offsets[pathways], sizes)  # their layer-0 weight rows
    npw = pathway_npw(model.params)[rows]
    genes = np.concatenate([m.indices for m in model.masks])[rows]
    names = sorted({gene_names[g] for g in genes.tolist()})
    name_rank = dict(zip(names, range(len(names))))
    by_name = np.array([name_rank[gene_names[g]] for g in genes.tolist()], dtype=np.intp)
    slot = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((by_name, -np.abs(npw), slot))
    counts = np.minimum(sizes, k)
    starts = np.concatenate([[0], np.cumsum(counts)])
    firsts = np.cumsum(sizes) - sizes
    top = order[np.repeat(firsts - starts[:-1], counts) + np.arange(starts[-1])]
    return TopGenes(starts, genes[top], npw[top])


def rank_pathways_by_mi(a, labels, pathway_names, k: int | None = None):
    """Pathway activity columns ranked by mutual information with labels."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[1] != len(pathway_names):
        raise ShapeError(f"rank_pathways_by_mi: {a.shape[1]} columns, {len(pathway_names)} names")
    if k is None or k > len(pathway_names):
        k = len(pathway_names)
    scored = list(zip(pathway_names, mutual_information_columns(a, labels).tolist()))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


@dataclass
class ClusterTree:
    """Agglomerative merge sequence. Leaves are 0..n-1; merge i creates
    cluster n+i. Heights are nondecreasing under average linkage."""

    merges: list[tuple[int, int, float, int]]
    leaf_order: list[int]
    n_leaves: int


CLUSTER_METRICS = ("cosine", "euclidean")


def _pairwise_distance(rows: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        sq = np.sum(rows**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "cosine":
        norms = np.linalg.norm(rows, axis=1)
        zero = np.nonzero(norms == 0)[0]
        if zero.size:
            raise DataError(f"cosine distance undefined for all-zero row {int(zero[0])}")
        unit = rows / norms[:, None]
        return np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {CLUSTER_METRICS}")


def hierarchical_cluster(rows, metric: str = "cosine") -> ClusterTree:
    """Average-linkage agglomeration with deterministic tie-breaking: among
    equidistant pairs, the lexicographically smallest (i, j) merges first.
    The matrix keeps its size: a merged-away slot's row and column become
    inf, so live slots keep their order and the argmin tie rule holds."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        raise DataError("hierarchical_cluster: need at least 2 rows")
    dist = _pairwise_distance(rows, metric)
    if not np.isfinite(dist).all():  # inf marks retired slots below
        raise DataError("hierarchical_cluster: distances must be finite")
    np.fill_diagonal(dist, np.inf)

    ids = list(range(n))  # the cluster each slot holds
    sizes = [1] * n
    merges = []
    for next_id in range(n, 2 * n - 1):
        # row-major argmin == smallest (i, j) among ties
        i, j = divmod(int(np.argmin(dist)), n)
        if i > j:
            i, j = j, i
        h = float(dist[i, j])
        a, b = sorted((ids[i], ids[j]))
        wi, wj = sizes[i], sizes[j]
        merges.append((a, b, h, wi + wj))
        # average-linkage update into slot i, then retire slot j
        new_row = (wi * dist[i, :] + wj * dist[j, :]) / (wi + wj)
        dist[i, :] = new_row
        dist[:, i] = new_row
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] = wi + wj
        ids[i] = next_id

    # merge k made cluster n + k; walk the tree left child first
    leaf_order = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            leaf_order.append(node)
        else:
            a, b = merges[node - n][:2]
            stack += [b, a]
    return ClusterTree(merges=merges, leaf_order=leaf_order, n_leaves=n)


def pca_2d(rows):
    """Top-2 principal-component coordinates plus explained-variance
    fractions. Component signs are fixed so the largest-magnitude loading
    is positive."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise DataError("pca_2d: need at least 2 rows")
    centered = rows - rows.mean(axis=0)
    _u, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(s**2))
    coords = np.zeros((rows.shape[0], 2))
    fractions = np.zeros(2)
    n_usable = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
    if n_usable < 2:
        warnings.warn("pca_2d: fewer than 2 nonzero-variance directions", stacklevel=2)
    for c in range(min(2, n_usable)):
        comp = vt[c]
        if comp[np.argmax(np.abs(comp))] < 0:
            comp = -comp
        coords[:, c] = centered @ comp
        fractions[c] = s[c] ** 2 / total if total > 0 else 0.0
    return coords, fractions


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


@dataclass
class KMCurve:
    """Product-limit estimate: survival after each event time, with the
    leading (t=0, S=1) point included."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray

    def at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return float(self.survival[max(idx, 0)])


def _risk_sets(times, events, groups, grid):
    """Numbers at risk (time >= t) and deaths (an event at time t) of each
    index array in ``groups`` at each t in ``grid``, as two (groups, grid)
    integer arrays: cumulative sums over a (groups, samples) membership
    count in time order (np.bincount, so a repeated index counts twice)."""
    n, size = len(groups), times.size
    order = np.argsort(times, kind="stable")
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    cells = np.repeat(np.arange(n) * size, [len(g) for g in groups]) + rank[np.concatenate(groups)]
    members = np.bincount(cells, minlength=n * size).reshape(n, size)
    # members and deaths of each group ranked before each rank
    below, dead_below = np.zeros((2, n, size + 1), dtype=np.intp)
    np.cumsum(members, axis=1, out=below[:, 1:])
    np.cumsum(members * events[order], axis=1, out=dead_below[:, 1:])
    first = np.searchsorted(times[order], grid, side="left")
    past = np.searchsorted(times[order], grid, side="right")
    return below[:, -1:] - below[:, first], dead_below[:, past] - dead_below[:, first]


def km_estimate(times, events) -> KMCurve:
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise DataError("km_estimate: empty input")
    if times.shape != events.shape:
        raise ShapeError("km_estimate: times and events lengths differ")
    if np.any(times < 0):
        raise DataError("km_estimate: negative times")
    if np.isnan(times).any():
        raise DataError("survival times must not be NaN")
    event_times = np.unique(times[events])
    (at_risk,), (deaths,) = _risk_sets(times, events, [np.arange(times.size)], event_times)
    survival = np.cumprod(1.0 - deaths / at_risk)
    return KMCurve(
        np.concatenate([[0.0], event_times]),
        np.concatenate([[1.0], survival]),
        np.concatenate([[times.size], at_risk]),
    )


def logrank_test(times_a, events_a, times_b, events_b):
    """Standard two-group logrank: (chi-square statistic, p) with 1 df.
    The one-pair form of logrank_tests."""
    ta = np.asarray(times_a, dtype=np.float64)
    tb = np.asarray(times_b, dtype=np.float64)
    times = np.concatenate([ta, tb])
    events = np.concatenate([np.asarray(events_a, dtype=bool), np.asarray(events_b, dtype=bool)])
    groups = [(np.arange(ta.size), np.arange(ta.size, times.size))]
    return logrank_tests(times, events, groups)[0]


def logrank_tests(times, events, groups):
    """logrank_test of each (low, high) pair of index arrays into one
    cohort's ``times`` and ``events``, as a list of (statistic, p).

    Every pair is scored over the cohort's event times at once: the numbers
    at risk and the deaths of each group come from cumulative sums over a
    (groups, samples) membership count in time order.  At each of a pair's
    own event times where both groups have someone at risk, a term is
    logrank_test's expression; at every other cohort event time it is +0.0,
    which leaves the running sums' bits as they are."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    sides = [low for low, _ in groups] + [high for _, high in groups]
    if any(len(side) == 0 for side in sides):
        raise DataError("logrank_test: empty group")
    if np.isnan(times).any():
        raise DataError("survival times must not be NaN")
    k = len(groups)
    grid = np.unique(times[events])
    if not k or not grid.size:
        return [(0.0, 1.0)] * k
    at_risk, deaths = _risk_sets(times, events, sides, grid)
    na, nb, da, db = at_risk[:k], at_risk[k:], deaths[:k], deaths[k:]
    kept = (na > 0) & (nb > 0)  # a time where one group is empty adds nothing
    n, d = na + nb, da + db
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(kept, da - d * na / n, 0.0)
        var_terms = np.where(kept, d * (na / n) * (nb / n) * (n - d) / (n - 1), 0.0)
    # running sums in time order, not np.sum's pairwise order
    results = []
    o_minus_es, variances = np.cumsum(terms, axis=1)[:, -1], np.cumsum(var_terms, axis=1)[:, -1]
    for o_minus_e, var in zip(o_minus_es, variances):
        if var <= 0:
            results.append((0.0, 1.0))
            continue
        stat = o_minus_e**2 / var
        p = math.erfc(math.sqrt(stat / 2.0))  # chi-square(1) survival function
        results.append((float(stat), float(p)))
    return results


def tercile_split(values):
    """Indices of the lower and upper thirds by value (linear-interpolation
    percentiles at 100/3 and 200/3); the middle third is excluded.

    Constant input degenerates to both groups covering every sample, which
    callers must reject before a logrank test.
    """
    return tercile_splits(np.reshape(values, (-1, 1)))[0]


def tercile_splits(values):
    """tercile_split of each column of a (samples, columns) matrix, as a
    list of (low, high) pairs; the thresholds of all columns come from one
    percentile call."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < 3:
        raise DataError(f"tercile_split: need at least 3 samples, got {values.shape[0]}")
    lo_thr, hi_thr = np.percentile(values, [100.0 / 3.0, 200.0 / 3.0], axis=0)
    low, high = values <= lo_thr, values >= hi_thr
    return [(np.flatnonzero(lo), np.flatnonzero(hi)) for lo, hi in zip(low.T, high.T)]


def apply_survival_window(table: SurvivalTable, limit_days: float = 1825.0) -> SurvivalTable:
    """Truncate follow-up: times past the limit become censored at the
    limit. Idempotent."""
    if limit_days <= 0:
        raise ValueError(f"limit_days must be positive, got {limit_days}")
    out = {}
    for sid, (t, e) in table.records.items():
        if t > limit_days:
            out[sid] = (limit_days, False)
        else:
            out[sid] = (t, e)
    return SurvivalTable(out)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

CLASS_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def class_color(label, vocabulary) -> str:
    return CLASS_PALETTE[list(vocabulary).index(label) % len(CLASS_PALETTE)]


_HEX = np.array([f"{i:02x}" for i in range(256)], dtype=object)


def _diverging_colors(values, vmax) -> np.ndarray:
    """Blue-white-red diverging map, symmetric about 0: one ``#rrggbb``
    string per value, scaled by ``vmax`` (a float, or an array broadcast
    against ``values``; where it is <= 0 every colour is white). Clamping
    follows Python's ``min``/``max`` (NaN maps to +1) and channels round
    half to even, like ``round``.  Each distinct colour is formatted once."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # the vmax <= 0 cells are dropped
        t = np.where(np.less_equal(vmax, 0), 0.0, values / vmax)
    t = np.where(t < 1.0, t, 1.0)
    t = np.where(t > -1.0, t, -1.0)
    pos = t >= 0
    s = np.abs(t)
    fade = np.rint(255 * (1 - s) + 48 * s).astype(np.int64)
    r = np.where(pos, 255, fade)
    g = np.where(pos, fade, np.rint(255 * (1 - s) + 96 * s).astype(np.int64))
    b = np.where(pos, fade, 255)
    codes, inverse = np.unique((r << 16 | g << 8 | b).ravel(), return_inverse=True)
    names = "#" + _HEX[codes >> 16] + _HEX[codes >> 8 & 255] + _HEX[codes & 255]
    return names[inverse].reshape(values.shape)


def _svg_doc(width, height, elements) -> str:
    body = "\n".join(elements)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f"{body}\n</svg>\n"
    )


def _text(x, y, s, size=9, anchor="start", rotate=None, color="#000000"):
    t = f'transform="rotate({rotate} {x} {y})" ' if rotate is not None else ""
    s = str(s).replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")  # XML-escaped
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
        f'fill="{color}" text-anchor="{anchor}" {t}>{s}</text>'
    )


def _rect(x, y, w, h, fill):
    return f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{fill}"/>'


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def emit_clustermap(values, row_labels, col_names, path, row_tree=None, col_tree=None,
                    vocabulary=None, title=""):
    """Heatmap with rows/columns reordered by the given dendrograms, a
    per-row class color strip, and a CSV sidecar holding the reordered
    matrix. Returns (svg_path, csv_path)."""
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    if len(row_labels) != n or len(col_names) != p:
        raise ShapeError("emit_clustermap: label/name lengths do not match the matrix")
    row_order = row_tree.leaf_order if row_tree is not None else list(range(n))
    col_order = col_tree.leaf_order if col_tree is not None else list(range(p))
    ordered = values[np.ix_(row_order, col_order)]
    labels = [row_labels[i] for i in row_order]
    names = [col_names[j] for j in col_order]
    if vocabulary is None:
        vocabulary = sorted(set(row_labels))

    cell_w, cell_h = 12.0, max(2.0, min(12.0, 640.0 / n))
    strip_w, label_h, margin = 10.0, 140.0, 18.0
    width = margin + strip_w + 2 + p * cell_w + margin
    height = margin + n * cell_h + label_h
    vmax = float(np.max(np.abs(ordered))) if ordered.size else 1.0
    parts = [_rect(0, 0, width, height, "#ffffff")]
    if title:
        parts.append(_text(margin, 12, title, size=10))
    x0 = margin + strip_w + 2
    size = f'" width="{cell_w:.2f}" height="{cell_h:.2f}" fill="'
    cell_x = [f'<rect x="{x0 + j * cell_w:.2f}" y="' for j in range(p)]
    colors = _diverging_colors(ordered, vmax).tolist()
    strip = {label: class_color(label, vocabulary) for label in set(labels)}
    for i, label in enumerate(labels):
        y = margin + i * cell_h
        parts.append(_rect(margin, y, strip_w, cell_h, strip[label]))
        row = f"{y:.2f}{size}"
        parts.extend([f'{x}{row}{c}"/>' for x, c in zip(cell_x, colors[i])])
    y_lab = margin + n * cell_h + 4
    for j, name in enumerate(names):
        parts.append(_text(x0 + (j + 0.7) * cell_w, y_lab, name, size=8,
                           anchor="start", rotate=90))
    svg_path = str(path)
    with atomic_open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_svg_doc(width, height, parts))
    csv_path = re.sub(r"\.svg$", "", svg_path) + ".csv"
    write_csv(csv_path, ["label"] + names,
              ([label] + row for label, row in zip(labels, ordered.tolist())))
    return svg_path, csv_path


_PANEL_SIZE, _PANEL_MARGIN = 360.0, 30.0


def _scatter_points(coords):
    """Each point's ``<circle`` element up to its fill: the same in every
    panel, since all panels share the axes."""
    coords = np.asarray(coords, dtype=np.float64)
    width = height = _PANEL_SIZE
    margin = _PANEL_MARGIN
    xmin, xmax = coords[:, 0].min(), coords[:, 0].max()
    ymin, ymax = coords[:, 1].min(), coords[:, 1].max()
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    sx = margin + (coords[:, 0] - xmin) / xspan * (width - 2 * margin)
    sy = height - margin - (coords[:, 1] - ymin) / yspan * (height - 2 * margin)
    return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="'
            for x, y in zip(sx.tolist(), sy.tolist())]


def _scatter_panel(points, fills, title, subtitle=""):
    width = height = _PANEL_SIZE
    margin = _PANEL_MARGIN
    parts = [_rect(0, 0, width, height, "#ffffff"), _text(margin, 14, title, size=10)]
    if subtitle:
        parts.append(_text(margin, 25, subtitle, size=8, color="#555555"))
    parts.extend([point + fill + '" fill-opacity="0.8"/>' for point, fill in zip(points, fills)])
    return _svg_doc(width, height, parts)


def emit_featuremap(coords, labels, a, pathway_names, out_dir, prefix):
    """One class-colored scatter plus one intensity panel per requested
    pathway, all on identical axes. Returns the written paths."""
    coords = np.asarray(coords, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if coords.shape[0] != a.shape[0]:
        raise ShapeError("emit_featuremap: coords and activity row counts differ")
    if a.shape[1] != len(pathway_names):
        raise ShapeError(f"emit_featuremap: {a.shape[1]} columns, {len(pathway_names)} names")
    vocabulary = sorted(set(labels))
    points = _scatter_points(coords)
    written = []
    palette = {label: class_color(label, vocabulary) for label in vocabulary}
    fills = [palette[label] for label in labels]
    path = f"{out_dir}/{prefix}-class.svg"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(_scatter_panel(points, fills, "classes", "PCA 2-D map (PCA substitutes for UMAP)"))
    written.append(path)
    vmax = np.max(np.abs(a), axis=0)  # per panel; an all-zero column is scaled by 1
    fills = _diverging_colors(a, np.where(vmax == 0, 1.0, vmax)).T.tolist()
    for name, col_fills in zip(pathway_names, fills):
        path = f"{out_dir}/{prefix}-{safe_filename(name)}.svg"
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(_scatter_panel(points, col_fills, name,
                                    "activity intensity (symmetric about 0)"))
        written.append(path)
    return written


def emit_km_plot(groups, title, path, subtitle=""):
    """Step-function Kaplan-Meier plot for (name, KMCurve, color) groups."""
    width, height, margin = 420.0, 300.0, 40.0
    tmax = max((float(c.times.max()) for _n, c, _col in groups), default=1.0) or 1.0

    def sx(t):
        return margin + t / tmax * (width - 2 * margin)

    def sy(s):
        return height - margin - s * (height - 2 * margin)

    parts = [_rect(0, 0, width, height, "#ffffff"), _text(margin, 16, title, size=11)]
    if subtitle:
        parts.append(_text(margin, 28, subtitle, size=9, color="#555555"))
    parts.append(f'<line x1="{margin}" y1="{sy(0)}" x2="{sx(tmax)}" y2="{sy(0)}" '
                 'stroke="#000000" stroke-width="1"/>')
    parts.append(f'<line x1="{margin}" y1="{sy(0)}" x2="{margin}" y2="{sy(1)}" '
                 'stroke="#000000" stroke-width="1"/>')
    for gi, (name, curve, color) in enumerate(groups):
        # the steps (0, 1), (t1, 1), (t1, s1), (t2, s1), ..., (tk, sk), (tmax, sk)
        t = np.concatenate([[0.0], np.repeat(curve.times[1:], 2), [tmax]])
        s = np.repeat(np.concatenate([[1.0], curve.survival[1:]]), 2)
        d = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(sx(t).tolist(), sy(s).tolist())])
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(width - margin - 100, margin + 12 * gi, name, size=9, color=color))
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(_svg_doc(width, height, parts))
    return str(path)

"""Interpretability and survival analysis: neural path weights, pathway MI
ranking, agglomerative clustering, 2-D PCA maps, Kaplan-Meier curves and
logrank tests, plus SVG/CSV emission.

Plots are written as plain SVG 1.1 so they stay dependency-free, diffable
and parseable as XML in tests.  2-D maps use PCA (a deterministic stand-in
for stochastic embedding methods); every emitted map is labeled as such.

The ranking scores every pathway column in one batched mutual-information
call.  Heatmap and scatter colours come from one vectorized diverging map,
and each row, column and point coordinate is formatted once, not per cell
or per panel; the bytes are those of the per-cell formatting.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import reduce
from xml.sax.saxutils import escape

import numpy as np

from .atomic import atomic_open, write_csv
from .errors import DataError, ShapeError
# mutual_information stays importable from here: perfbench interposes it
from .metrics import mutual_information, mutual_information_columns  # noqa: F401
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
    equidistant pairs, the lexicographically smallest (i, j) merges first."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        raise DataError("hierarchical_cluster: need at least 2 rows")
    dist = _pairwise_distance(rows, metric)
    np.fill_diagonal(dist, np.inf)

    ids = list(range(n))  # active cluster ids, position-aligned with dist
    sizes = [1] * n
    children: dict[int, tuple[int, int]] = {}
    merges = []
    next_id = n
    for _ in range(n - 1):
        # row-major argmin == smallest (i, j) among ties
        flat = int(np.argmin(dist))
        i, j = divmod(flat, dist.shape[1])
        if i > j:
            i, j = j, i
        h = float(dist[i, j])
        id_i, id_j = ids[i], ids[j]
        a, b = (id_i, id_j) if id_i < id_j else (id_j, id_i)
        merges.append((a, b, h, sizes[i] + sizes[j]))
        children[next_id] = (a, b)
        # average-linkage update into row i, then drop row j
        wi, wj = sizes[i], sizes[j]
        new_row = (wi * dist[i, :] + wj * dist[j, :]) / (wi + wj)
        dist[i, :] = new_row
        dist[:, i] = new_row
        dist[i, i] = np.inf
        dist = np.delete(np.delete(dist, j, axis=0), j, axis=1)
        sizes[i] = wi + wj
        ids[i] = next_id
        del sizes[j], ids[j]
        next_id += 1

    def order(node):
        if node < n:
            return [node]
        a, b = children[node]
        return order(a) + order(b)

    return ClusterTree(merges=merges, leaf_order=order(next_id - 1), n_leaves=n)


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


def _risk_table(times, events, at):
    """Number at risk (time >= t) and number of deaths (an event at time t)
    for each t in ``at``."""
    if np.isnan(times).any():
        raise DataError("survival times must not be NaN")
    at_risk = times.size - np.searchsorted(np.sort(times), at, side="left")
    event_times = np.sort(times[events])
    deaths = (np.searchsorted(event_times, at, side="right")
              - np.searchsorted(event_times, at, side="left"))
    return at_risk, deaths


def km_estimate(times, events) -> KMCurve:
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise DataError("km_estimate: empty input")
    if times.shape != events.shape:
        raise ShapeError("km_estimate: times and events lengths differ")
    if np.any(times < 0):
        raise DataError("km_estimate: negative times")
    event_times = np.unique(times[events])
    at_risk, deaths = _risk_table(times, events, event_times)
    survival = np.cumprod(1.0 - deaths / at_risk)
    return KMCurve(
        np.concatenate([[0.0], event_times]),
        np.concatenate([[1.0], survival]),
        np.concatenate([[times.size], at_risk]),
    )


def logrank_test(times_a, events_a, times_b, events_b):
    """Standard two-group logrank: (chi-square statistic, p) with 1 df."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=bool)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=bool)
    if ta.size == 0 or tb.size == 0:
        raise DataError("logrank_test: empty group")
    event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    na, da = _risk_table(ta, ea, event_times)
    nb, db = _risk_table(tb, eb, event_times)
    both = (na > 0) & (nb > 0)  # a time where one group is empty adds nothing
    if not both.any():
        return 0.0, 1.0
    na, nb, da, db = na[both], nb[both], da[both], db[both]
    n, d = na + nb, da + db
    # running sums in time order, not np.sum's pairwise order
    o_minus_e = np.cumsum(da - d * na / n)[-1]
    var = np.cumsum(d * (na / n) * (nb / n) * (n - d) / (n - 1))[-1]
    if var <= 0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    p = math.erfc(math.sqrt(stat / 2.0))  # chi-square(1) survival function
    return float(stat), float(p)


def tercile_split(values):
    """Indices of the lower and upper thirds by value (linear-interpolation
    percentiles at 100/3 and 200/3); the middle third is excluded.

    Constant input degenerates to both groups covering every sample, which
    callers must reject before a logrank test.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 3:
        raise DataError(f"tercile_split: need at least 3 samples, got {values.size}")
    lo_thr = np.percentile(values, 100.0 / 3.0)
    hi_thr = np.percentile(values, 200.0 / 3.0)
    low = np.nonzero(values <= lo_thr)[0]
    high = np.nonzero(values >= hi_thr)[0]
    return low, high


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


def _diverging_colors(values, vmax: float) -> np.ndarray:
    """Blue-white-red diverging map, symmetric about 0: one ``#rrggbb``
    string per value. Clamping follows Python's ``min``/``max`` (NaN maps
    to +1) and channels round half to even, like ``round``."""
    values = np.asarray(values, dtype=np.float64)
    if vmax <= 0:
        t = np.zeros(values.shape)
    else:
        t = values / vmax
        t = np.where(t < 1.0, t, 1.0)
        t = np.where(t > -1.0, t, -1.0)
    pos = t >= 0
    s = np.abs(t)
    fade = np.rint(255 * (1 - s) + 48 * s).astype(int)
    r = np.where(pos, 255, fade)
    g = np.where(pos, fade, np.rint(255 * (1 - s) + 96 * s).astype(int))
    b = np.where(pos, fade, 255)
    return "#" + _HEX[r] + _HEX[g] + _HEX[b]


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
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
        f'fill="{color}" text-anchor="{anchor}" {t}>{escape(str(s))}</text>'
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
    for i in range(n):
        y = margin + i * cell_h
        parts.append(_rect(margin, y, strip_w, cell_h, class_color(labels[i], vocabulary)))
        row = f"{y:.2f}{size}"
        parts.extend([x + row + c + '"/>' for x, c in zip(cell_x, colors[i])])
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
    vocabulary = sorted(set(labels))
    points = _scatter_points(coords)
    written = []
    fills = [class_color(l, vocabulary) for l in labels]
    path = f"{out_dir}/{prefix}-class.svg"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(_scatter_panel(points, fills, "classes", "PCA 2-D map (PCA substitutes for UMAP)"))
    written.append(path)
    name_to_col = {n: j for j, n in enumerate(pathway_names)}
    for name in pathway_names:
        col = a[:, name_to_col[name]]
        vmax = float(np.max(np.abs(col))) or 1.0
        path = f"{out_dir}/{prefix}-{safe_filename(name)}.svg"
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(_scatter_panel(points, _diverging_colors(col, vmax).tolist(), name,
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
        pts = [(0.0, 1.0)]
        for t, s in zip(curve.times[1:], curve.survival[1:]):
            pts.append((t, pts[-1][1]))
            pts.append((t, s))
        pts.append((tmax, pts[-1][1]))
        d = " ".join(f"{sx(t):.2f},{sy(s):.2f}" for t, s in pts)
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(width - margin - 100, margin + 12 * gi, name, size=9, color=color))
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(_svg_doc(width, height, parts))
    return str(path)

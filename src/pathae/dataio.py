"""Ingestion and normalization for expression matrices, pathway sets, label
and survival tables.

One routine, ``_read_delimited``, opens every table file: UTF-8 text, a
leading byte-order mark dropped, split on tabs, or on commas for a ``.csv``
name, with empty lines skipped.  GMT and gene-mapping files are read from
it directly.  Expression, label and survival tables go through one header
step, ``_read_table``: the first non-empty line names the columns, the first
column holds the row ids, and every row is as wide as the header.  MSigDB
JSON is read by ``json``.

An expression row is converted by one numpy call.  Only a row that call
rejects, or that holds a non-finite value, is scanned again cell by cell,
to name the bad cell; the accept set is that of ``float()``, and values
that are not finite are rejected.

Tables are immutable values: every operation returns a new table.  Parsers
reject malformed input, bytes that are not UTF-8 included, with a
ParseError naming the file and, for line-based formats, the line.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .metrics import tie_groups
from .models import PathwayMask

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scale:
    """Value scale of an expression table: linear, or log2(x + offset)."""

    kind: str  # "linear" | "log2"
    offset: float = 1.0

    @classmethod
    def parse(cls, text: str) -> "Scale":
        text = text.strip()
        if text == "linear":
            return cls("linear")
        if text.startswith("log2+"):
            return cls("log2", float(text[len("log2+"):]))
        raise ConfigError(f"unknown scale {text!r}; expected 'linear' or 'log2+<offset>'")

    def __str__(self):
        if self.kind == "linear":
            return "linear"
        return f"log2+{self.offset:g}"

    @property
    def is_log(self) -> bool:
        return self.kind == "log2"

    def to_linear(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.asarray(values, dtype=np.float64)
        return np.exp2(values) - self.offset

    def from_linear(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.asarray(values, dtype=np.float64)
        return np.log2(values + self.offset)


LOG2P1 = Scale("log2", 1.0)
LINEAR = Scale("linear")


@dataclass
class ExpressionTable:
    """samples x genes matrix with named axes and a declared value scale."""

    sample_ids: list[str]
    gene_names: list[str]
    values: np.ndarray
    scale: Scale = LOG2P1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n, g = self.values.shape
        if len(self.sample_ids) != n:
            raise DataError(f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(self.gene_names) != g:
            raise DataError(f"{len(self.gene_names)} gene names for {g} columns")
        if len(set(self.sample_ids)) != n:
            raise DataError("duplicate sample ids")
        if not np.all(np.isfinite(self.values)):
            raise DataError("expression values must be finite")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]

    def select_samples(self, indices) -> "ExpressionTable":
        indices = list(indices)
        return ExpressionTable(
            [self.sample_ids[i] for i in indices],
            list(self.gene_names),
            self.values[indices, :],
            self.scale,
        )


@dataclass
class PathwaySet:
    """Ordered named gene lists."""

    pathways: list[tuple[str, list[str]]]

    def __post_init__(self):
        names = [n for n, _ in self.pathways]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParseError(f"duplicate pathway names: {dupes}")
        for name, genes in self.pathways:
            if not genes:
                raise ParseError(f"pathway {name!r} has an empty gene list")

    def __len__(self):
        return len(self.pathways)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.pathways]


@dataclass
class LabelTable:
    labels: dict[str, str]
    vocabulary: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.vocabulary:
            self.vocabulary = sorted(set(self.labels.values()))
        extra = set(self.labels.values()) - set(self.vocabulary)
        if extra:
            raise DataError(f"labels outside vocabulary: {sorted(extra)}")


@dataclass
class SurvivalTable:
    """sample id -> (time in days, event flag; True means death observed)."""

    records: dict[str, tuple[float, bool]]

    def __post_init__(self):
        for sid, (t, _e) in self.records.items():
            if t < 0:
                raise DataError(f"negative survival time for sample {sid!r}")


def _delimiter_for(path) -> str:
    return "," if str(path).endswith(".csv") else "\t"


def _read_delimited(path, delimiter=None):
    """Yield (line_number, fields) for the non-empty lines, split on
    ``delimiter`` (default: by extension); a leading byte-order mark is
    dropped, and bytes that are not UTF-8 raise ParseError naming the line."""
    delimiter = delimiter or _delimiter_for(path)
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:  # an escaped undecodable byte
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(
                        f"{path}:{lineno}: not valid UTF-8 (byte 0x{byte:02x})"
                    ) from None
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            yield lineno, line.split(delimiter)


def _read_table(path, columns=(), delimiter=None):
    """Read a table whose first non-empty line is its header.

    Returns (header, indices, rows): the header fields, the index of each
    named column (None names the first, identifier column), and an iterator
    of (line_number, fields) over the data rows, each as wide as the header.
    """
    lines = _read_delimited(path, delimiter)
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    header = first[1]
    indices = [0 if c is None else _header_index(header, c, path) for c in columns]

    def rows():
        for lineno, fields in lines:
            if len(fields) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {len(header)})"
                )
            yield lineno, fields

    return header, indices, rows()


def _header_index(header: list[str], column: str, path) -> int:
    try:
        return header.index(column)
    except ValueError:
        raise ParseError(
            f"{path}: column {column!r} not found; available: {header}"
        ) from None


def load_expression_tsv(
    path,
    orientation: str = "samples_as_rows",
    scale: str | Scale = "log2+1",
    delimiter: str | None = None,
) -> ExpressionTable:
    """Parse a delimited expression matrix (first row and column are
    identifiers). genes_as_rows input is transposed to samples x genes."""
    if orientation not in ("samples_as_rows", "genes_as_rows"):
        raise ConfigError(f"unknown orientation {orientation!r}")
    if isinstance(scale, str):
        scale = Scale.parse(scale)
    header, _, lines = _read_table(path, delimiter=delimiter)
    rows = []
    for lineno, fields in lines:
        try:
            numeric = np.array(fields[1:], dtype=np.float64)
            ok = np.isfinite(numeric).all()
        except ValueError:
            ok = False
        if not ok:
            numeric = _parse_cells(path, lineno, fields[1:])
        rows.append((fields[0], numeric))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    col_ids = header[1:]
    row_ids = [r for r, _ in rows]
    values = np.vstack([v for _, v in rows])
    if orientation == "genes_as_rows":
        sample_ids, gene_names = col_ids, row_ids
        values = values.T
    else:
        sample_ids, gene_names = row_ids, col_ids
    if len(set(sample_ids)) != len(sample_ids):
        dupes = sorted({s for s in sample_ids if sample_ids.count(s) > 1})
        raise ParseError(f"{path}: duplicate sample ids: {dupes[:5]}")
    return ExpressionTable(sample_ids, gene_names, values, scale)


def _parse_cells(path, lineno, cells) -> np.ndarray:
    """Parse a row's value cells one by one, so that the first bad cell
    raises a ParseError naming the line, the column and the value.
    Cells are stripped first, and ``str.strip`` also drops U+001C to U+001F,
    which ``float()`` and numpy reject, so a row padded with them parses here."""
    numeric = np.empty(len(cells))
    for k, cell in enumerate(cells):
        cell = cell.strip()
        if cell == "":
            raise ParseError(f"{path}:{lineno}: empty value in column {k + 2}")
        try:
            numeric[k] = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: non-numeric value {cell!r} in column {k + 2}"
            ) from None
        if not math.isfinite(numeric[k]):
            raise ParseError(f"{path}:{lineno}: non-finite value {cell!r} in column {k + 2}")
    return numeric


def load_gene_mapping(path, delimiter=None) -> dict[str, str]:
    """Two-column id -> name table."""
    mapping = {}
    for lineno, fields in _read_delimited(path, delimiter):
        if len(fields) < 2:
            raise ParseError(f"{path}:{lineno}: expected two columns")
        mapping[fields[0]] = fields[1]
    if not mapping:
        raise ParseError(f"{path}: empty mapping")
    return mapping


def map_gene_ids(table: ExpressionTable, mapping: dict[str, str]) -> ExpressionTable:
    """Rename the gene axis; unmapped ids are dropped (count logged).
    Ids mapping to the same name are retained for merge_duplicate_genes."""
    keep = []
    names = []
    for i, gid in enumerate(table.gene_names):
        if gid in mapping:
            keep.append(i)
            names.append(mapping[gid])
    dropped = table.n_genes - len(keep)
    if dropped:
        log.info("map_gene_ids: dropped %d unmapped gene ids", dropped)
    if not keep:
        raise DataError("map_gene_ids: no gene ids could be mapped")
    return ExpressionTable(
        list(table.sample_ids), names, table.values[:, keep], table.scale
    )


def merge_duplicate_genes(table: ExpressionTable) -> ExpressionTable:
    """Average duplicate gene columns in non-log space: columns sharing a
    name are replaced by log2(mean(2^v - offset) + offset). Gene order keeps
    the first occurrence."""
    if not table.scale.is_log:
        raise DataError(
            f"merge_duplicate_genes requires a log2 scale, table is {table.scale}"
        )
    if len(set(table.gene_names)) == table.n_genes:
        return table
    groups: dict[str, list[int]] = {}
    order: list[str] = []
    for i, name in enumerate(table.gene_names):
        if name not in groups:
            groups[name] = []
            order.append(name)
        groups[name].append(i)
    out = np.empty((table.n_samples, len(order)))
    for k, name in enumerate(order):
        cols = groups[name]
        if len(cols) == 1:
            out[:, k] = table.values[:, cols[0]]
        else:
            linear = table.scale.to_linear(table.values[:, cols])
            out[:, k] = table.scale.from_linear(linear.mean(axis=1))
    return ExpressionTable(list(table.sample_ids), order, out, table.scale)


def intersect_genes(a: ExpressionTable, b: ExpressionTable):
    """Restrict both tables to the common gene set, ordered by a's axis."""
    b_index = {}
    for i, g in enumerate(b.gene_names):
        b_index.setdefault(g, i)
    common = [(i, g) for i, g in enumerate(a.gene_names) if g in b_index]
    if not common:
        raise DataError("intersect_genes: no genes in common")
    a_idx = [i for i, _ in common]
    names = [g for _, g in common]
    b_idx = [b_index[g] for g in names]
    a2 = ExpressionTable(list(a.sample_ids), names, a.values[:, a_idx], a.scale)
    b2 = ExpressionTable(list(b.sample_ids), list(names), b.values[:, b_idx], b.scale)
    return a2, b2


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

NORMALIZER_KINDS = ("zscore", "percentile", "log_offset")


@dataclass
class Normalizer:
    kind: str
    gene_names: list[str]
    mean: np.ndarray | None = None
    sd: np.ndarray | None = None
    sorted_ref: list[tuple[np.ndarray, np.ndarray]] | None = None
    offset: float = 1e-3


def fit_normalizer(table: ExpressionTable, kind: str, offset: float = 1e-3) -> Normalizer:
    if kind not in NORMALIZER_KINDS:
        raise ConfigError(f"unknown normalizer kind {kind!r}; expected one of {NORMALIZER_KINDS}")
    if table.n_samples == 0:
        raise DataError("fit_normalizer: empty table")
    if kind == "zscore":
        return Normalizer(
            kind,
            list(table.gene_names),
            mean=table.values.mean(axis=0),
            sd=table.values.std(axis=0),  # population sd
        )
    if kind == "percentile":
        refs = []
        n = table.n_samples
        for col in table.values.T:
            uniq, _, _, midrank = tie_groups(col)
            frac = (midrank - 1) / (n - 1) if n > 1 else np.full(uniq.shape, 0.5)
            refs.append((uniq, frac))
        return Normalizer(kind, list(table.gene_names), sorted_ref=refs)
    return Normalizer(kind, list(table.gene_names), offset=offset)


def apply_normalizer(norm: Normalizer, table: ExpressionTable) -> ExpressionTable:
    if list(table.gene_names) != list(norm.gene_names):
        raise DataError("apply_normalizer: gene axis does not match the fitted normalizer")
    if norm.kind == "zscore":
        sd = norm.sd
        out = np.where(sd > 0, (table.values - norm.mean) / np.where(sd > 0, sd, 1.0), 0.0)
        return ExpressionTable(list(table.sample_ids), list(table.gene_names), out, LINEAR)
    if norm.kind == "percentile":
        out = np.empty_like(table.values)
        for j, (uniq, frac) in enumerate(norm.sorted_ref):
            out[:, j] = np.interp(table.values[:, j], uniq, frac)
        out = np.clip(out, 0.0, 1.0)
        return ExpressionTable(list(table.sample_ids), list(table.gene_names), out, LINEAR)
    # log_offset
    linear = table.scale.to_linear(table.values)
    shifted = linear + norm.offset
    if np.any(shifted <= 0):
        raise DataError("log_offset: values not positive after adding the offset")
    out = np.log2(shifted)
    return ExpressionTable(
        list(table.sample_ids), list(table.gene_names), out, Scale("log2", norm.offset)
    )


# ---------------------------------------------------------------------------
# per-million scale conversions
# ---------------------------------------------------------------------------


def per_million(linear_values: np.ndarray) -> np.ndarray:
    """Scale each row to parts-per-million: v * 1e6 / row_sum."""
    linear_values = np.asarray(linear_values, dtype=np.float64)
    sums = linear_values.sum(axis=1, keepdims=True)
    bad = np.nonzero(sums.ravel() == 0)[0]
    if bad.size:
        raise DataError(f"per_million: sample row {int(bad[0])} sums to zero")
    return linear_values * 1e6 / sums


def _per_million_log(table: ExpressionTable) -> ExpressionTable:
    linear = table.scale.to_linear(table.values)
    ppm = per_million(linear)
    return ExpressionTable(
        list(table.sample_ids), list(table.gene_names), np.log2(ppm + 1.0), LOG2P1
    )


def fpkm_to_tpm_log(table: ExpressionTable) -> ExpressionTable:
    """log2(FPKM+offset) table -> log2(TPM+1); TPM is FPKM per-sample ppm."""
    return _per_million_log(table)


def intensity_to_ipm_log(table: ExpressionTable) -> ExpressionTable:
    """log2(intensity+offset) table -> log2(IPM+1); IPM treats intensities
    as counts normalized per million within each sample."""
    return _per_million_log(table)


# ---------------------------------------------------------------------------
# pathway set parsers
# ---------------------------------------------------------------------------


def parse_gmt(path) -> PathwaySet:
    """GMT lines: name<TAB>description<TAB>gene1<TAB>gene2..."""
    pathways = []
    seen = set()
    for lineno, fields in _read_delimited(path, "\t"):
        if len(fields) < 3:
            raise ParseError(f"{path}:{lineno}: expected at least 3 tab-separated fields")
        name = fields[0]
        if name in seen:
            raise ParseError(f"{path}:{lineno}: duplicate pathway name {name!r}")
        seen.add(name)
        genes = [g for g in fields[2:] if g.strip()]
        if not genes:
            raise ParseError(f"{path}:{lineno}: pathway {name!r} lists no genes")
        pathways.append((name, genes))
    return PathwaySet(pathways)


def parse_msigdb_json(path) -> PathwaySet:
    """MSigDB JSON export: {set_name: {..., "geneSymbols": [...]}}."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    except (ValueError, RecursionError) as exc:  # malformed, too-long integer, too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a top-level JSON object")
    pathways = []
    for name, entry in doc.items():
        genes = entry.get("geneSymbols") if isinstance(entry, dict) else None
        if not isinstance(genes, list) or not genes:
            raise ParseError(f"{path}: set {name!r} has no geneSymbols")
        pathways.append((name, [str(g) for g in genes]))
    return PathwaySet(pathways)


def resolve_pathways(pathway_set: PathwaySet, gene_names: list[str]):
    """Resolve gene lists to column indices of a gene axis.

    Pathways with no present genes are dropped with a warning; the report
    counts missing genes per pathway.
    """
    index = {}
    for i, g in enumerate(gene_names):
        index.setdefault(g, i)
    masks = []
    report = {"missing": {}, "dropped": []}
    for name, genes in pathway_set.pathways:
        seen = set()
        idx = []
        missing = 0
        for g in genes:
            if g in index:
                if index[g] not in seen:
                    seen.add(index[g])
                    idx.append(index[g])
            else:
                missing += 1
        report["missing"][name] = missing
        if not idx:
            report["dropped"].append(name)
            log.warning("pathway %r has no genes in the table; dropped", name)
            continue
        masks.append(PathwayMask(name, np.asarray(idx)))
    if not masks:
        raise ConfigError("resolve_pathways: every pathway was dropped")
    return masks, report


# ---------------------------------------------------------------------------
# label / survival tables
# ---------------------------------------------------------------------------


def load_labels(path, column: str, drop_values=(), id_column: str | None = None) -> LabelTable:
    """Labels per sample from a delimited file; empty labels and values in
    drop_values are removed."""
    drop = set(drop_values)
    _, (col, idc), rows = _read_table(path, (column, id_column))
    labels = {}
    for _lineno, fields in rows:
        value = fields[col].strip()
        if not value or value in drop:
            continue
        labels[fields[idc]] = value
    if not labels:
        raise DataError(f"{path}: no labeled samples remain after filtering")
    return LabelTable(labels)


_TRUE = {"1", "true", "yes", "dead", "event"}
_FALSE = {"0", "false", "no", "alive", "censored"}


def load_survival(
    path, time_column: str, event_column: str, id_column: str | None = None
) -> SurvivalTable:
    _, (tcol, ecol, idc), rows = _read_table(path, (time_column, event_column, id_column))
    records = {}
    for lineno, fields in rows:
        traw, eraw = fields[tcol].strip(), fields[ecol].strip().lower()
        if not traw or not eraw:
            continue
        try:
            t = float(traw)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric time {traw!r}") from None
        if not 0.0 <= t < math.inf:  # also rejects nan
            raise ParseError(
                f"{path}:{lineno}: survival time {traw!r} is not a finite non-negative number"
            )
        if eraw in _TRUE:
            e = True
        elif eraw in _FALSE:
            e = False
        else:
            raise ParseError(f"{path}:{lineno}: unrecognized event value {eraw!r}")
        records[fields[idc]] = (t, e)
    if not records:
        raise DataError(f"{path}: no survival records")
    return SurvivalTable(records)

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
that are not finite are rejected.  A parsed expression file leaves its
parse in a cache file beside it, ``<path>.pathae-table``, keyed by the
SHA-256 of the file's bytes; a later load of the same bytes reads that
instead of the text.  A pipe or FIFO is parsed as it is read, and has no
cache.

Tables are immutable values: every operation returns a new table.  Parsers
reject malformed input, bytes that are not UTF-8 included, with a
ParseError naming the file and, for line-based formats, the line.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
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
            try:
                offset = float(text[len("log2+"):])
            except ValueError:
                offset = math.nan
            if not 0.0 <= offset < math.inf:
                raise ConfigError(f"the log2 offset of {text!r} must be finite and >= 0")
            return cls("log2", offset)
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
        """The table of the given rows, in the given order, its values a C-order
        copy.  Keeping every row in order of a table whose values are already
        in C order returns this table itself: pathae never writes a table's
        ``values`` in place, so the two can share them.  (The order matters:
        numpy's sums and matmuls may round differently over another layout.)"""
        indices = list(indices)
        if indices == list(range(self.n_samples)) and self.values.flags.c_contiguous:
            return self
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


def _count_lines(path, chunk_size: int = 1 << 16) -> int:
    """The number of lines _read_delimited's text mode sees, blank ones
    included: each \\n, \\r or \\r\\n ends one, and so does the end of a file
    whose last line has no newline.  Read in binary chunks; the \\n are
    counted by numpy, and the \\r only in a chunk that has one."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(chunk_size):
            count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                count -= 1  # a \r\n split between two chunks
            last = chunk[-1:]
    return count + (last not in (b"\n", b"\r"))


def _file_digest(path, chunk_size: int = 1 << 16):
    """(digest, stamp) of a regular file: the SHA-256 of its bytes in hex,
    read in one binary pass through one buffer of ``chunk_size`` bytes, and
    the file's _stamp as the pass began.  None for any other file, such as
    a pipe or a FIFO, which is not opened here: it can be read only once."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    sha = hashlib.sha256()
    buf = bytearray(chunk_size)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        st = os.fstat(fh.fileno())
        while n := fh.readinto(buf):
            sha.update(view[:n])
    return sha.hexdigest(), _stamp(st)


def _stamp(st) -> tuple[int, int, int]:
    """What changes when a file is rewritten: (size, mtime in ns, inode)."""
    return st.st_size, st.st_mtime_ns, st.st_ino


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


ORIENTATIONS = ("samples_as_rows", "genes_as_rows")


def load_expression_tsv(
    path,
    orientation: str = "samples_as_rows",
    scale: str | Scale = "log2+1",
    delimiter: str | None = None,
) -> ExpressionTable:
    """Parse a delimited expression matrix (first row and column are
    identifiers). genes_as_rows input is transposed to samples x genes.

    A regular file is hashed in one binary pass, and its rows are read from
    its table cache when that matches the digest and the delimiter (see
    _read_table_cache).  Otherwise its lines are counted and its text is
    parsed, and the parse writes the cache.  Any other file, such as a pipe,
    a FIFO or /dev/stdin, is parsed in one text pass, with no hash, no count
    and no cache."""
    if orientation not in ORIENTATIONS:
        raise ConfigError(f"unknown orientation {orientation!r}")
    if isinstance(scale, str):
        scale = Scale.parse(scale)
    delimiter = delimiter or _delimiter_for(path)
    hashed = _file_digest(path)
    parsed = _read_table_cache(path, hashed[0], delimiter) if hashed else None
    if parsed is None:
        parsed = _parse_expression(path, delimiter, _count_lines(path) if hashed else None)
        if hashed:
            _write_table_cache(path, hashed[1], hashed[0], delimiter, parsed)
    header, row_ids, values = parsed
    col_ids = header[1:]
    if orientation == "genes_as_rows":
        sample_ids, gene_names = col_ids, row_ids
        values = values.T
    else:
        sample_ids, gene_names = row_ids, col_ids
    if len(set(sample_ids)) != len(sample_ids):
        dupes = sorted({s for s in sample_ids if sample_ids.count(s) > 1})
        raise ParseError(f"{path}: duplicate sample ids: {dupes[:5]}")
    return ExpressionTable(sample_ids, gene_names, values, scale)


def _parse_expression(path, delimiter, n_lines=None):
    """(header, row_ids, values) from the text of the file: the header
    fields, the first field of each data row and its other fields as a
    float64 matrix in C order.

    Given ``n_lines``, the file's line count, the rows are parsed into one
    array with a row for every line after the header; blank lines, which
    the reader skips, leave rows unused.  A file read without a count (a
    pipe) fills an array that doubles as its rows arrive."""
    header, _, lines = _read_table(path, delimiter=delimiter)
    width = len(header) - 1
    values = np.empty((max(n_lines - 1, 0) if n_lines is not None else 16, width))
    row_ids = []
    for lineno, fields in lines:
        try:
            numeric = np.array(fields[1:], dtype=np.float64)
            ok = np.isfinite(numeric).all()
        except ValueError:
            ok = False
        if not ok:
            numeric = _parse_cells(path, lineno, fields[1:])
        if len(row_ids) == len(values):
            values = np.concatenate([values, np.empty((len(values) + 16, width))])
        values[len(row_ids)] = numeric
        row_ids.append(fields[0])
    if not row_ids:
        raise ParseError(f"{path}: no data rows")
    return header, row_ids, values[: len(row_ids)]


# The table cache: the magic line, a one-line JSON header (the SHA-256 of
# the expression file's bytes, the delimiter they were split on, the header
# fields, the row ids and the value matrix's shape), then the values as
# little-endian float64 in C order.
_TABLE_CACHE_MAGIC = b"PATHAE-TABLE-v1\n"


def _table_cache_path(path) -> str:
    """The table cache of the expression file at ``path``."""
    return os.fspath(path) + ".pathae-table"


def _read_table_cache(path, digest: str, delimiter: str):
    """(header, row_ids, values) from the table cache of the file at
    ``path``, or None unless it exists and holds the parse of bytes with
    this digest split on this delimiter.  A damaged, truncated or stale
    cache is None, never an error.  The body's length is checked against
    the header's shape before the values are allocated."""
    try:
        with open(_table_cache_path(path), "rb") as fh:
            if fh.readline(len(_TABLE_CACHE_MAGIC)) != _TABLE_CACHE_MAGIC:
                return None
            head = json.loads(fh.readline())
            if head["digest"] != digest or head["delimiter"] != delimiter:
                return None
            header, row_ids, (rows, cols) = head["header"], head["row_ids"], head["shape"]
            if not (rows == len(row_ids) >= 1 and cols == len(header) - 1
                    and 8 * rows * cols == os.fstat(fh.fileno()).st_size - fh.tell()):
                return None
            values = np.empty((rows, cols), dtype="<f8")
            if fh.readinto(values) != values.nbytes or not np.isfinite(values).all():
                return None
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return header, row_ids, values


def _write_table_cache(path, stamp, digest: str, delimiter: str, parsed):
    """Write the table cache of the file at ``path``, unless the file's
    _stamp has changed since it was hashed: bytes that changed under the
    parse may not be the ones the digest names.  A directory the cache
    cannot be written to (OSError) means no cache, not an error."""
    header, row_ids, values = parsed
    cache = _table_cache_path(path)
    head = {"delimiter": delimiter, "digest": digest, "header": header, "row_ids": row_ids,
            "shape": list(values.shape)}
    try:
        if _stamp(os.stat(path)) != stamp:
            return
        with atomic_open(cache, "wb") as fh:
            fh.write(_TABLE_CACHE_MAGIC)
            fh.write(json.dumps(head).encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(values, dtype="<f8"))
    except OSError as exc:
        log.debug("no table cache written for %s: %s", cache, exc)


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


def first_index(names) -> dict:
    """Each name's position in ``names``: a repeated name resolves to its
    first column."""
    index = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)
    return index


def intersect_genes(a: ExpressionTable, b: ExpressionTable):
    """Restrict both tables to the common gene set, ordered by a's axis."""
    b_index = first_index(b.gene_names)
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
        # (v - mean) / sd, and 0.0 where sd is not > 0, in one owned array
        flat = ~(norm.sd > 0)
        out = table.values - norm.mean
        out /= np.where(flat, 1.0, norm.sd)
        out[:, flat] = 0.0
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


def per_million_log(table: ExpressionTable) -> ExpressionTable:
    """The table in log2(per-million + 1): each sample's linear values
    rescaled to parts per million.  FPKM so becomes TPM, and array
    intensities become intensities per million (IPM)."""
    linear = table.scale.to_linear(table.values)
    ppm = per_million(linear)
    return ExpressionTable(
        list(table.sample_ids), list(table.gene_names), np.log2(ppm + 1.0), LOG2P1
    )


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
    index = first_index(gene_names)
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

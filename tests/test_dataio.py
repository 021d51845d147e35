import codecs
import contextlib
import hashlib
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathae import dataio
from pathae.dataio import (
    ExpressionTable,
    LabelTable,
    PathwaySet,
    Scale,
    SurvivalTable,
    apply_normalizer,
    fit_normalizer,
    intersect_genes,
    load_expression_tsv,
    load_gene_mapping,
    load_labels,
    load_survival,
    map_gene_ids,
    merge_duplicate_genes,
    parse_gmt,
    parse_msigdb_json,
    per_million,
    per_million_log,
    resolve_pathways,
)
from pathae.errors import ConfigError, DataError, ParseError
from pathae.ndcore import RngStream
from pathae.synth import _write_expression, make_synthetic, write_fixture

from reference import zscore_values


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadExpression:
    def test_roundtrip_values(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tG1\tG2\nS1\t1.5\t2.0\nS2\t0.25\t3.5\n")
        t = load_expression_tsv(p)
        assert t.sample_ids == ["S1", "S2"]
        assert t.gene_names == ["G1", "G2"]
        np.testing.assert_array_equal(t.values, [[1.5, 2.0], [0.25, 3.5]])

    def test_genes_as_rows_transposed(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tS1\tS2\nG1\t1\t2\nG2\t3\t4\n")
        t = load_expression_tsv(p, orientation="genes_as_rows")
        assert t.sample_ids == ["S1", "S2"]
        assert t.gene_names == ["G1", "G2"]
        np.testing.assert_array_equal(t.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tG1\tG2\nS1\t1\t2\nS2\t3\n")
        with pytest.raises(ParseError, match=":3"):
            load_expression_tsv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tG1\nS1\tNA\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_expression_tsv(p)

    def test_empty_cell_rejected(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tG1\tG2\nS1\t1\t\n")
        with pytest.raises(ParseError, match="empty"):
            load_expression_tsv(p)

    def test_duplicate_sample_ids(self, tmp_path):
        p = write(tmp_path / "e.tsv", "id\tG1\nS1\t1\nS1\t2\n")
        with pytest.raises(ParseError, match="duplicate sample"):
            load_expression_tsv(p)

    def test_csv_extension_switches_delimiter(self, tmp_path):
        p = write(tmp_path / "e.csv", "id,G1\nS1,4.5\n")
        t = load_expression_tsv(p)
        assert t.values[0, 0] == 4.5

    @pytest.mark.parametrize("raw", ["nan", "-inf", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, raw):
        p = write(tmp_path / "e.tsv", f"id\tG1\tG2\nS1\t1\t2\nS2\t3\t {raw}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{p}:3: non-finite value {raw!r} in column 3")):
            load_expression_tsv(p)

    def test_table_rejects_non_finite(self):
        with pytest.raises(DataError, match="finite"):
            ExpressionTable(["a"], ["G"], [[np.inf]])

    @pytest.mark.parametrize("orientation", ["samples_as_rows", "genes_as_rows"])
    def test_blank_lines_leave_no_rows(self, tmp_path, orientation):
        p = tmp_path / "e.tsv"
        p.write_bytes(b"id\tA\tB\r\n\r\nR1\t1\t2\n\n\rR2\t3\t4\r\n\n")
        t = load_expression_tsv(str(p), orientation=orientation)
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        if orientation == "genes_as_rows":
            values = values.T
            assert t.values.flags.f_contiguous  # the parsed rows, transposed
        else:
            assert t.values.flags.c_contiguous
        assert t.values.tobytes(order="A") == values.tobytes(order="A")

    def test_peak_is_under_one_and_a_half_tables(self, tmp_path):
        """The parse fills one preallocated array, row by row: about 1.3
        times the table's bytes at its peak on this fixture, against 2.3
        when the row arrays and their np.vstack were held at once."""
        data = make_synthetic(n_pathways=16, n_genes=800, n_background=80, n_train=120,
                              n_test=1, seed=3)
        path = write_fixture(str(tmp_path), data)["train_expression"]
        table_bytes = data.train.values.nbytes
        del data
        # the text parse, not a table cache read
        Path(dataio._table_cache_path(path)).unlink(missing_ok=True)
        tracemalloc.start()
        try:
            load_expression_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table_bytes


def _reference_parse(path, lines):
    """The per-cell loop load_expression_tsv ran before each row became one
    numpy call: the stacked values, or the first cell's ParseError."""
    rows = []
    for lineno, fields in lines:
        numeric = np.empty(len(fields) - 1)
        for k, cell in enumerate(fields[1:]):
            cell = cell.strip()
            if cell == "":
                raise ParseError(f"{path}:{lineno}: empty value in column {k + 2}")
            try:
                numeric[k] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {k + 2}"
                ) from None
        rows.append(numeric)
    return np.vstack(rows)


def _first_non_finite(path, lines):
    """The error for the first non-finite cell, in file order, that comes
    before any cell the reference rejects; else None."""
    for lineno, fields in lines:
        for k, cell in enumerate(fields[1:]):
            try:
                value = float(cell.strip())
            except ValueError:
                return None
            if not math.isfinite(value):
                return f"{path}:{lineno}: non-finite value {cell.strip()!r} in column {k + 2}"
    return None


def _read_as_reference(path, rows):
    """Write rows of value cells as an expression file; the reader must give
    the reference's values bit for bit, or its message.  The one difference:
    a non-finite cell now raises."""
    lines = [(n + 2, [f"S{n}", *cells]) for n, cells in enumerate(rows)]
    header = "id\t" + "\t".join(f"G{k}" for k in range(len(rows[0])))
    path.write_text("\n".join([header] + ["\t".join(f) for _, f in lines]) + "\n",
                    encoding="utf-8")
    expected = _first_non_finite(path, lines)
    if expected is None:
        try:
            expected = _reference_parse(path, lines)
        except ParseError as exc:
            expected = str(exc)
    try:
        got = load_expression_tsv(str(path)).values
    except ParseError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == expected.tobytes()
    return got


# Cells on which float() and numpy's conversion could differ, with what the
# reader gives: a value, or the start of its error.
_EDGE_CELLS = [
    (" 1.5 ", 1.5), ("\xa01\xa0", 1.0), ("\u20032\x0b", 2.0), ("1_0", 10.0),
    ("\u0661\u0662", 12.0), ("\uff11\uff12", 12.0), ("1e-400", 0.0), ("-0.0", -0.0),
    ("5e-324", 5e-324), ("1.5\x1c", 1.5), ("\x1f-2", -2.0),
    ("nan", "non-finite value 'nan'"), ("+inf", "non-finite value '+inf'"),
    ("-Infinity", "non-finite value '-Infinity'"), ("1e999", "non-finite value '1e999'"),
    ("1,5", "non-numeric value '1,5'"), ("0x10", "non-numeric value '0x10'"),
    ("1__0", "non-numeric value '1__0'"), ("1\x00", "non-numeric value '1\\x00'"),
    ("", "empty value"), ("\xa0", "empty value"),
]

_PAD = st.text(alphabet=" \xa0\u2003\x0b\x0c\x1c\x1f\x85\u2028", max_size=2)
# ASCII, Arabic-Indic, Devanagari and full-width digits
_DIGITS = ["".join(map(chr, range(zero, zero + 10))) for zero in (0x30, 0x660, 0x966, 0xFF10)]
_REPR = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_VALUE_CELLS = st.one_of(
    _REPR,
    st.tuples(_PAD, _REPR, _PAD).map("".join),
    st.integers(0, 10**6).map(lambda n: "_".join(str(n))),
    st.tuples(st.sampled_from(_DIGITS), _REPR).map(
        lambda d: d[1].translate(str.maketrans("0123456789", d[0]))),
    st.sampled_from(["", " ", "NA", "1,5", "0x10", "1e", "--1", "1__0", "_1", "nan(1)", "\xb2",
                     "1\x00", "nan", "-inf", "1e999", " Infinity"]),
    # utf-8: a lone surrogate cannot be written to a table file
    st.text(st.characters(exclude_characters="\t\n\r", codec="utf-8"), max_size=3),
)


class TestReaderMatchesReference:
    @pytest.mark.parametrize("cell, outcome", _EDGE_CELLS, ids=repr)
    def test_edge_cells(self, tmp_path, cell, outcome):
        got = _read_as_reference(tmp_path / "e.tsv", [["2.5", cell]])
        if isinstance(outcome, str):
            assert got.startswith(f"{tmp_path / 'e.tsv'}:2: {outcome}")
        else:
            assert got[0, 1].tobytes() == np.float64(outcome).tobytes()

    @given(st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(_VALUE_CELLS, min_size=width, max_size=width),
                               min_size=1, max_size=4)))
    def test_rows(self, scratch, rows):
        _read_as_reference(scratch / "ref.tsv", rows)


class TestFixtureWriter:
    def test_row_bytes(self, tmp_path):
        values = [[-0.0, 5e-324, 1e-300, 1 / 3, 1e300]]
        table = ExpressionTable(["S1"], [f"G{k}" for k in range(5)], values)
        _write_expression(table, tmp_path / "e.tsv")
        assert (tmp_path / "e.tsv").read_bytes() == (
            b"sample_id\tG0\tG1\tG2\tG3\tG4\n"
            b"S1\t-0.0\t5e-324\t1e-300\t0.3333333333333333\t1e+300\n")

    def test_round_trip_is_bit_equal(self, tmp_path):
        data = make_synthetic(n_pathways=4, n_genes=40, n_background=8, n_train=30, n_test=20,
                              seed=5)
        paths = write_fixture(tmp_path, data)
        for table, name in ((data.train, "train_expression"), (data.test, "test_expression")):
            back = load_expression_tsv(paths[name])
            assert back.sample_ids == table.sample_ids
            assert back.gene_names == table.gene_names
            assert back.values.tobytes() == table.values.tobytes()


class TestGeneMapping:
    def test_identity_mapping_keeps_table(self, tmp_path):
        t = ExpressionTable(["S1"], ["A", "B"], [[1.0, 2.0]])
        out = map_gene_ids(t, {"A": "A", "B": "B"})
        assert out.gene_names == ["A", "B"]
        np.testing.assert_array_equal(out.values, t.values)

    def test_unmapped_dropped(self):
        t = ExpressionTable(["S1"], ["ENSG1", "ENSG2"], [[1.0, 2.0]])
        out = map_gene_ids(t, {"ENSG1": "TP53"})
        assert out.gene_names == ["TP53"]
        assert out.values.shape == (1, 1)

    def test_colliding_names_kept_for_merge(self):
        t = ExpressionTable(["S1"], ["E1", "E2"], [[1.0, 2.0]])
        out = map_gene_ids(t, {"E1": "X", "E2": "X"})
        assert out.gene_names == ["X", "X"]

    def test_nothing_mapped_is_error(self):
        t = ExpressionTable(["S1"], ["E1"], [[1.0]])
        with pytest.raises(DataError):
            map_gene_ids(t, {"OTHER": "X"})

    def test_mapping_file(self, tmp_path):
        p = write(tmp_path / "map.tsv", "ENSG1\tTP53\nENSG2\tBRCA1\n")
        assert load_gene_mapping(p) == {"ENSG1": "TP53", "ENSG2": "BRCA1"}


class TestMergeDuplicates:
    def test_log_space_average(self):
        t = ExpressionTable(["S1"], ["X", "X"], [[1.0, 2.0]], Scale("log2", 1.0))
        out = merge_duplicate_genes(t)
        # mean of 2^1-1 and 2^2-1 is 2, back to log2(2+1)
        assert abs(out.values[0, 0] - np.log2(3.0)) < 1e-12
        assert out.gene_names == ["X"]

    def test_no_duplicates_unchanged(self):
        t = ExpressionTable(["S1"], ["A", "B"], [[1.0, 2.0]], Scale("log2", 1.0))
        out = merge_duplicate_genes(t)
        np.testing.assert_array_equal(out.values, t.values)

    def test_identical_columns_merge_to_same(self):
        t = ExpressionTable(["S1", "S2"], ["A", "A"], [[2.0, 2.0], [5.0, 5.0]], Scale("log2", 1.0))
        out = merge_duplicate_genes(t)
        np.testing.assert_allclose(out.values[:, 0], [2.0, 5.0], rtol=1e-12)

    def test_idempotent(self):
        t = ExpressionTable(["S1"], ["A", "A", "B"], [[1.0, 3.0, 0.5]], Scale("log2", 1.0))
        once = merge_duplicate_genes(t)
        twice = merge_duplicate_genes(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_linear_scale_rejected(self):
        t = ExpressionTable(["S1"], ["A", "A"], [[1.0, 2.0]], Scale("linear"))
        with pytest.raises(DataError):
            merge_duplicate_genes(t)


class TestIntersect:
    def test_identical_sets_unchanged(self):
        a = ExpressionTable(["S1"], ["A", "B"], [[1.0, 2.0]])
        b = ExpressionTable(["T1"], ["A", "B"], [[3.0, 4.0]])
        a2, b2 = intersect_genes(a, b)
        assert a2.gene_names == b2.gene_names == ["A", "B"]

    def test_partial_overlap(self):
        a = ExpressionTable(["S1"], ["A", "B", "C"], [[1.0, 2.0, 3.0]])
        b = ExpressionTable(["T1"], ["B", "C", "D"], [[4.0, 5.0, 6.0]])
        a2, b2 = intersect_genes(a, b)
        assert a2.gene_names == ["B", "C"]
        np.testing.assert_array_equal(a2.values, [[2.0, 3.0]])
        np.testing.assert_array_equal(b2.values, [[4.0, 5.0]])

    def test_disjoint_is_error(self):
        a = ExpressionTable(["S1"], ["A"], [[1.0]])
        b = ExpressionTable(["T1"], ["B"], [[2.0]])
        with pytest.raises(DataError):
            intersect_genes(a, b)


class TestNormalizers:
    def test_zscore_population_sd(self):
        t = ExpressionTable(["a", "b", "c"], ["G"], [[1.0], [2.0], [3.0]])
        out = apply_normalizer(fit_normalizer(t, "zscore"), t)
        np.testing.assert_allclose(out.values[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_zscore_constant_column_zeroed(self):
        t = ExpressionTable(["a", "b"], ["G"], [[5.0], [5.0]])
        out = apply_normalizer(fit_normalizer(t, "zscore"), t)
        np.testing.assert_array_equal(out.values, [[0.0], [0.0]])

    def test_percentile_rank_convention(self):
        t = ExpressionTable(["a", "b", "c"], ["G"], [[10.0], [20.0], [30.0]])
        out = apply_normalizer(fit_normalizer(t, "percentile"), t)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_percentile_new_values_interpolate_and_clamp(self):
        t = ExpressionTable(["a", "b", "c"], ["G"], [[10.0], [20.0], [30.0]])
        norm = fit_normalizer(t, "percentile")
        fresh = ExpressionTable(["x", "y", "z"], ["G"], [[15.0], [5.0], [99.0]])
        out = apply_normalizer(norm, fresh)
        np.testing.assert_allclose(out.values[:, 0], [0.25, 0.0, 1.0])

    def test_zscore_self_normalization_property(self):
        rng = RngStream(3)
        t = ExpressionTable(
            [f"s{i}" for i in range(40)],
            [f"g{j}" for j in range(5)],
            rng.normal(size=(40, 5)) * 3 + 1,
        )
        out = apply_normalizer(fit_normalizer(t, "zscore"), t)
        np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.values.std(axis=0), 1.0, atol=1e-12)

    def test_percentile_outputs_in_unit_interval(self):
        rng = RngStream(4)
        for trial in range(20):
            n = int(rng.integers(2, 30))
            t = ExpressionTable(
                [f"s{i}" for i in range(n)], ["g0", "g1"], rng.normal(size=(n, 2))
            )
            out = apply_normalizer(fit_normalizer(t, "percentile"), t)
            assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4)))
    def test_percentile_midranks_equal_reference(self, columns):
        """The fitted (value, fraction) pairs equal those of the per-column
        np.unique start-index code the tie-group routine replaced."""
        values = np.array(columns, dtype=np.float64).T * 0.75
        n = values.shape[0]
        t = ExpressionTable([f"s{i}" for i in range(n)],
                            [f"g{j}" for j in range(values.shape[1])], values)
        for j, (uniq, frac) in enumerate(fit_normalizer(t, "percentile").sorted_ref):
            col = np.sort(values[:, j])
            ref_uniq, start = np.unique(col, return_index=True)
            counts = np.diff(np.append(start, n))
            midrank = start + (counts - 1) / 2.0
            ref_frac = midrank / (n - 1) if n > 1 else np.full(ref_uniq.shape, 0.5)
            np.testing.assert_array_equal(uniq, ref_uniq)
            np.testing.assert_array_equal(frac, ref_frac)

    def test_log_offset(self):
        t = ExpressionTable(["a"], ["G"], [[3.0]], Scale("log2", 1.0))
        out = apply_normalizer(fit_normalizer(t, "log_offset", offset=1e-3), t)
        assert abs(out.values[0, 0] - np.log2(7.0 + 1e-3)) < 1e-12
        assert str(out.scale) == "log2+0.001"

    def test_gene_axis_mismatch(self):
        t = ExpressionTable(["a"], ["G1"], [[1.0]])
        other = ExpressionTable(["a"], ["G2"], [[1.0]])
        norm = fit_normalizer(t, "zscore")
        with pytest.raises(DataError):
            apply_normalizer(norm, other)

    def test_unknown_kind(self):
        t = ExpressionTable(["a"], ["G"], [[1.0]])
        with pytest.raises(ConfigError):
            fit_normalizer(t, "minmax")


# Columns of quarter-integers: distinct values differ by at least 0.25, so
# a column is either constant or far from it.
_QUARTER_COLUMNS = st.integers(2, 25).flatmap(lambda n: st.lists(
    st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=1, max_size=4))


def _columns_table(columns):
    values = np.array(columns, dtype=np.float64).T * 0.25
    return ExpressionTable([f"s{i}" for i in range(values.shape[0])],
                           [f"g{j}" for j in range(values.shape[1])], values)


class TestSelectSamples:
    """pathae never writes a table's ``values`` in place (no ``values[...] =``,
    augmented assignment or ``out=values`` anywhere in the package), so a
    selection that keeps every row in order may share them."""

    def _table(self, values):
        return ExpressionTable([f"s{i}" for i in range(values.shape[0])],
                               [f"g{j}" for j in range(values.shape[1])], values)

    def test_all_rows_in_order_is_the_same_table(self):
        t = self._table(RngStream(0).normal(size=(5, 3)))
        assert t.select_samples(range(5)) is t
        assert t.select_samples([0, 1, 2, 3, 4]) is t

    @pytest.mark.parametrize("indices", [[0, 2, 4], [4, 3, 2, 1, 0], [1, 0, 2, 3, 4], []])
    def test_other_selections_are_copies(self, indices):
        t = self._table(RngStream(0).normal(size=(5, 3)))
        sub = t.select_samples(indices)
        assert sub is not t
        assert not np.shares_memory(sub.values, t.values)
        assert sub.sample_ids == [t.sample_ids[i] for i in indices]
        np.testing.assert_array_equal(sub.values, t.values[indices])

    def test_all_rows_of_a_non_c_order_table_are_a_c_order_copy(self):
        # the copy's layout is what sums and matmuls downstream see
        t = self._table(np.asfortranarray(RngStream(0).normal(size=(5, 3))))
        sub = t.select_samples(range(5))
        assert sub is not t and sub.values.flags.c_contiguous
        np.testing.assert_array_equal(sub.values, t.values)


# a cell: either signed zero, or a signed magnitude from 1e-300 to 1e300
_WIDE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp, st.sampled_from([-1.0, 1.0]),
              st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@st.composite
def _wide_tables(draw):
    """Columns of wide-range cells, some constant (sd = 0)."""
    n = draw(st.integers(1, 6))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            cols.append([draw(_WIDE_CELLS)] * n)
        else:
            cols.append(draw(st.lists(_WIDE_CELLS, min_size=n, max_size=n)))
    values = np.array(cols, dtype=np.float64).T
    return ExpressionTable([f"s{i}" for i in range(n)], [f"g{j}" for j in range(len(cols))],
                           values)


class TestNormalizerProperties:
    @settings(max_examples=40)
    @given(_wide_tables())
    @example(ExpressionTable(["a", "b", "c"], ["const", "zeros", "wide"],
                             [[0.5, 0.0, 1e300], [0.5, -0.0, -1e-300], [0.5, 0.0, 3e-300]]))
    def test_zscore_bytes_equal_the_where_expression(self, t):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            norm = fit_normalizer(t, "zscore")
            expected = zscore_values(t.values, norm.mean, norm.sd)
            if not np.isfinite(expected).all():
                with pytest.raises(DataError):
                    apply_normalizer(norm, t)
                return
            out = apply_normalizer(norm, t).values
        assert out.tobytes() == expected.tobytes()

    @given(_QUARTER_COLUMNS)
    def test_zscore_centres_and_scales(self, columns):
        t = _columns_table(columns)
        out = apply_normalizer(fit_normalizer(t, "zscore"), t).values
        for j, col in enumerate(t.values.T):
            if np.ptp(col) == 0:
                assert np.all(out[:, j] == 0.0)
            else:
                assert abs(out[:, j].mean()) < 1e-12
                assert abs(out[:, j].std() - 1.0) < 1e-12

    @given(_QUARTER_COLUMNS, st.lists(st.floats(-20, 20), min_size=1, max_size=8))
    def test_percentile_in_unit_interval_and_monotone(self, columns, fresh):
        t = _columns_table(columns)
        norm = fit_normalizer(t, "percentile")
        other = ExpressionTable([f"x{i}" for i in range(len(fresh))], list(t.gene_names),
                                np.tile(np.array(fresh)[:, None], (1, t.n_genes)))
        for table in (t, other):
            out = apply_normalizer(norm, table).values
            assert out.min() >= 0.0 and out.max() <= 1.0
            for j, col in enumerate(table.values.T):
                assert np.all(np.diff(out[np.argsort(col), j]) >= 0)

    @given(st.lists(st.lists(st.floats(0, 30), min_size=3, max_size=3), min_size=1, max_size=8),
           st.sampled_from(["linear", "log2+1", "log2+0.5"]), st.sampled_from([1e-3, 0.5, 2.0]))
    def test_log_offset_is_log2_of_shifted_linear(self, rows, scale, offset):
        t = ExpressionTable([f"s{i}" for i in range(len(rows))], ["g0", "g1", "g2"], rows,
                            Scale.parse(scale))
        out = apply_normalizer(fit_normalizer(t, "log_offset", offset=offset), t)
        assert out.scale == Scale("log2", offset)
        linear = t.scale.to_linear(t.values)
        np.testing.assert_allclose(out.scale.to_linear(out.values) + offset, linear + offset,
                                   rtol=1e-12, atol=0)


class TestPerMillion:
    def test_hand_values(self):
        out = per_million(np.array([[1.0, 3.0]]))
        np.testing.assert_array_equal(out, [[250000.0, 750000.0]])

    def test_single_gene(self):
        np.testing.assert_array_equal(per_million(np.array([[7.0]])), [[1e6]])

    def test_scale_invariance(self):
        v = np.array([[2.0, 5.0, 3.0]])
        np.testing.assert_allclose(per_million(v), per_million(7.0 * v), rtol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DataError):
            per_million(np.array([[0.0, 0.0]]))

    def test_table_conversions_log_output(self):
        t = ExpressionTable(["s"], ["A", "B"], np.log2(np.array([[1.0, 3.0]]) + 1), Scale("log2", 1.0))
        out = per_million_log(t)
        np.testing.assert_allclose(
            out.values, np.log2(np.array([[250000.0, 750000.0]]) + 1), rtol=1e-12
        )
        assert str(out.scale) == "log2+1"

    @pytest.mark.parametrize("text", ["log2+abc", "log2+", "log2+nan", "log2+inf", "log2+-1"])
    def test_scale_offset_must_be_finite_and_non_negative(self, text):
        with pytest.raises(ConfigError, match="offset"):
            Scale.parse(text)
        assert Scale.parse("log2+0") == Scale("log2", 0.0)

    def test_scale_roundtrip_identity(self):
        scale = Scale("log2", 1.0)
        rng = RngStream(5)
        v = np.abs(rng.normal(size=(4, 6))) * 10
        np.testing.assert_allclose(scale.from_linear(scale.to_linear(v)), v, atol=1e-12)


class TestPathwayParsers:
    def test_gmt_line(self, tmp_path):
        p = write(tmp_path / "s.gmt", "PX\turl\tG1\tG2\nPY\turl\tG3\n")
        ps = parse_gmt(p)
        assert ps.pathways == [("PX", ["G1", "G2"]), ("PY", ["G3"])]

    def test_gmt_too_few_fields(self, tmp_path):
        p = write(tmp_path / "s.gmt", "PX\turl\n")
        with pytest.raises(ParseError):
            parse_gmt(p)

    def test_gmt_duplicate_names(self, tmp_path):
        p = write(tmp_path / "s.gmt", "PX\tu\tG1\nPX\tu\tG2\n")
        with pytest.raises(ParseError):
            parse_gmt(p)

    def test_empty_file_gives_empty_set(self, tmp_path):
        p = write(tmp_path / "s.gmt", "")
        ps = parse_gmt(p)
        assert len(ps) == 0

    def test_json_matches_gmt(self, tmp_path):
        gmt = write(tmp_path / "s.gmt", "PX\turl\tG1\tG2\nPY\turl\tG3\n")
        doc = {"PX": {"geneSymbols": ["G1", "G2"]}, "PY": {"geneSymbols": ["G3"]}}
        jsn = write(tmp_path / "s.json", json.dumps(doc))
        assert parse_gmt(gmt).pathways == parse_msigdb_json(jsn).pathways

    def test_json_missing_symbols(self, tmp_path):
        jsn = write(tmp_path / "s.json", json.dumps({"PX": {}}))
        with pytest.raises(ParseError):
            parse_msigdb_json(jsn)


class TestResolvePathways:
    def test_partial_presence(self):
        ps = PathwaySet([("P", ["A", "B", "Z"])])
        masks, report = resolve_pathways(ps, ["A", "B", "C"])
        np.testing.assert_array_equal(masks[0].indices, [0, 1])
        assert report["missing"]["P"] == 1

    def test_full_presence_in_pathway_order(self):
        ps = PathwaySet([("P", ["C", "A"])])
        masks, _ = resolve_pathways(ps, ["A", "B", "C"])
        np.testing.assert_array_equal(masks[0].indices, [2, 0])

    def test_absent_pathway_dropped_with_warning(self):
        ps = PathwaySet([("P1", ["A"]), ("P2", ["ZZ"])])
        masks, report = resolve_pathways(ps, ["A"])
        assert [m.name for m in masks] == ["P1"]
        assert report["dropped"] == ["P2"]

    def test_all_dropped_is_error(self):
        ps = PathwaySet([("P", ["ZZ"])])
        with pytest.raises(ConfigError):
            resolve_pathways(ps, ["A"])


class TestLabelsAndSurvival:
    def test_drop_values(self, tmp_path):
        p = write(
            tmp_path / "l.tsv",
            "sample_id\tsubtype\nS1\tLumA\nS2\tclaudin-low\nS3\tNC\nS4\tBasal\n",
        )
        lt = load_labels(p, "subtype", drop_values={"claudin-low", "NC"})
        assert lt.labels == {"S1": "LumA", "S4": "Basal"}
        assert lt.vocabulary == ["Basal", "LumA"]

    def test_empty_label_dropped(self, tmp_path):
        p = write(tmp_path / "l.tsv", "sample_id\tsubtype\nS1\t\nS2\tLumB\n")
        lt = load_labels(p, "subtype")
        assert list(lt.labels) == ["S2"]

    def test_missing_column_names_available(self, tmp_path):
        p = write(tmp_path / "l.tsv", "sample_id\tother\nS1\tx\n")
        with pytest.raises(ParseError, match="available"):
            load_labels(p, "subtype")

    def test_survival_parse(self, tmp_path):
        p = write(tmp_path / "s.tsv", "sample_id\ttime\tevent\nS1\t120.5\t1\nS2\t300\t0\n")
        st = load_survival(p, "time", "event")
        assert st.records == {"S1": (120.5, True), "S2": (300.0, False)}

    def test_survival_negative_time(self, tmp_path):
        p = write(tmp_path / "s.tsv", "sample_id\ttime\tevent\nS1\t-3\t1\n")
        with pytest.raises(DataError):
            load_survival(p, "time", "event")

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "-Infinity", "1e999", "-3",
                                     "-1e-300"])
    def test_survival_time_checked_when_read(self, tmp_path, raw):
        p = write(tmp_path / "s.tsv", f"sample_id\ttime\tevent\nS1\t5\t1\nS2\t{raw}\t0\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}:3: survival time {raw!r}")):
            load_survival(p, "time", "event")

    def test_survival_table_rejects_negative_time(self):
        with pytest.raises(DataError, match="negative survival time"):
            SurvivalTable({"S1": (-1.0, True)})

    def test_label_table_vocabulary_check(self):
        with pytest.raises(DataError):
            LabelTable({"S1": "A"}, vocabulary=["B"])


# One small, valid file per loader; line 3 holds a data row.
_LOADERS = {
    "expression": ("e.tsv", "id\tG1\nS1\t1.5\nS2\t2.5\n", load_expression_tsv),
    "labels": ("l.tsv", "sample_id\tsubtype\nS1\tA\nS2\tB\n",
               lambda p: load_labels(p, "subtype")),
    "survival": ("s.tsv", "sample_id\ttime\tevent\nS1\t10\t1\nS2\t20\t0\n",
                 lambda p: load_survival(p, "time", "event")),
    "gene_mapping": ("m.tsv", "E0\tG0\nE1\tG1\nE2\tG2\n", load_gene_mapping),
    "gmt": ("p.gmt", "P0\tu\tG0\nP1\tu\tG1\nP2\tu\tG2\n", parse_gmt),
}


class TestTableFiles:
    @pytest.mark.parametrize("loader", ["expression", "labels", "survival"])
    def test_wide_row_is_ragged(self, tmp_path, loader):
        name, text, load = _LOADERS[loader]
        lines = text.split("\n")
        lines[2] += "\tx"
        path = write(tmp_path / name, "\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: ragged row")):
            load(path)

    @pytest.mark.parametrize("loader", sorted(_LOADERS))
    def test_invalid_utf8_names_line(self, tmp_path, loader):
        name, text, load = _LOADERS[loader]
        lines = text.encode("utf-8").split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: not valid UTF-8 (byte 0xff)")):
            load(str(path))

    @pytest.mark.parametrize("loader", sorted(_LOADERS))
    def test_non_ascii_utf8_is_read(self, tmp_path, loader):
        name, text, load = _LOADERS[loader]
        accented = text.replace("S2", "S\u00e92").replace("G2", "G\u00e92")
        assert "\u00e92" in repr(load(write(tmp_path / name, accented)))

    def test_msigdb_json_invalid_utf8(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"PX": {"geneSymbols": ["G\xff1"]}}')
        with pytest.raises(ParseError, match=re.escape(f"{path}: not valid UTF-8 (byte 0xff)")):
            parse_msigdb_json(str(path))

    @pytest.mark.parametrize("doc", [
        '{"PX": {"geneSymbols": 5}}', '{"PX": {"geneSymbols": "G1"}}', "[" * 100_000,
        "1" * 5000,
    ], ids=["number", "string", "too_deep", "too_long_integer"])
    def test_msigdb_json_malformed_is_parse_error(self, tmp_path, doc):
        with pytest.raises(ParseError):
            parse_msigdb_json(write(tmp_path / "s.json", doc))


class TestByteOrderMark:
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark; it is
    not part of the first field."""

    def _write(self, path, text):
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        return str(path)

    def test_labels_named_first_column(self, tmp_path):
        p = self._write(tmp_path / "l.csv", "subtype,sample_id\nA,S1\nB,S2\n")
        assert load_labels(p, "subtype", id_column="sample_id").labels == {"S1": "A", "S2": "B"}

    def test_survival(self, tmp_path):
        p = self._write(tmp_path / "s.tsv", "time\tevent\tsample_id\n10\t1\tS1\n")
        assert load_survival(p, "time", "event", id_column="sample_id").records == {
            "S1": (10.0, True)}

    def test_expression(self, tmp_path):
        p = self._write(tmp_path / "e.tsv", "id\tS1\tS2\nG1\t1\t2\n")
        t = load_expression_tsv(p, orientation="genes_as_rows")
        assert t.sample_ids == ["S1", "S2"] and t.gene_names == ["G1"]

    def test_gmt(self, tmp_path):
        p = self._write(tmp_path / "p.gmt", "P0\tu\tG0\tG1\n")
        assert parse_gmt(p).pathways == [("P0", ["G0", "G1"])]

    def test_msigdb_json(self, tmp_path):
        p = self._write(tmp_path / "s.json", '{"P0": {"geneSymbols": ["G0"]}}')
        assert parse_msigdb_json(p).pathways == [("P0", ["G0"])]


# Property tests: any bytes either load or raise DataError (ParseError is one).
_CELLS = st.sampled_from([
    b"", b" ", b"S1", b"S2", b"id", b"sample_id", b"subtype", b"time", b"event", b"u",
    b"1", b"0", b"-3", b"2.5", b"1e999", b"nan", b"-inf", b"1_0", b"yes", b"dead", b"NA",
    b"\xc3\xa9", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00",
]) | st.binary(max_size=3)


@st.composite
def _table_bytes(draw):
    """Lines of cells joined by tab or comma, ended by \\n, \\r\\n or \\r."""
    lines = draw(st.lists(st.lists(_CELLS, max_size=5), max_size=6))
    return b"".join(draw(st.sampled_from([b"\t", b","])).join(cells)
                    + draw(st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n"]))
                    for cells in lines)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
_JSON_BYTES = st.dictionaries(
    st.text(max_size=3),
    _JSON_VALUES | st.fixed_dictionaries({"geneSymbols": _JSON_VALUES}),
    max_size=3,
).map(lambda doc: json.dumps(doc).encode("utf-8"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


def _loads_or_data_error(load, path, data):
    path.write_bytes(data)
    try:
        load(str(path))
    except DataError:
        pass


class TestParserProperties:
    @given(data=_table_bytes() | st.binary(max_size=40), suffix=st.sampled_from([".tsv", ".csv"]))
    def test_expression(self, scratch, data, suffix):
        _loads_or_data_error(load_expression_tsv, scratch / ("e" + suffix), data)

    @given(data=_table_bytes() | st.binary(max_size=40), suffix=st.sampled_from([".tsv", ".csv"]))
    def test_labels(self, scratch, data, suffix):
        _loads_or_data_error(lambda p: load_labels(p, "subtype"), scratch / ("l" + suffix), data)

    @given(data=_table_bytes() | st.binary(max_size=40), suffix=st.sampled_from([".tsv", ".csv"]))
    def test_survival(self, scratch, data, suffix):
        _loads_or_data_error(lambda p: load_survival(p, "time", "event"),
                             scratch / ("s" + suffix), data)

    @given(data=_table_bytes() | st.binary(max_size=40), suffix=st.sampled_from([".tsv", ".csv"]))
    def test_gene_mapping(self, scratch, data, suffix):
        _loads_or_data_error(load_gene_mapping, scratch / ("m" + suffix), data)

    @given(data=_table_bytes() | st.binary(max_size=40))
    def test_gmt(self, scratch, data):
        _loads_or_data_error(parse_gmt, scratch / "p.gmt", data)

    @given(data=_JSON_BYTES | _table_bytes() | st.binary(max_size=40))
    def test_msigdb_json(self, scratch, data):
        _loads_or_data_error(parse_msigdb_json, scratch / "p.json", data)


class TestCountLines:
    @settings(max_examples=60)
    @given(data=_table_bytes() | st.binary(max_size=40), chunk_size=st.integers(1, 5))
    def test_counts_text_mode_lines(self, scratch, data, chunk_size):
        """As many lines as text mode reads, blank ones included, for any
        chunk size, so a \\r\\n split between chunks counts once; the hash
        pass reads every byte, whatever its buffer size."""
        path = scratch / "c.tsv"
        path.write_bytes(data)
        with open(path, encoding="latin-1") as fh:
            expected = sum(1 for _ in fh)
        assert dataio._count_lines(str(path), chunk_size) == expected
        digest, _stamp = dataio._file_digest(str(path), chunk_size)
        assert digest == hashlib.sha256(data).hexdigest()


# Ids as a table cell can hold them: any text but surrogates, the line ends
# and the two delimiters.
_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t,\n\r"),
               min_size=1, max_size=6) | st.sampled_from(["S 1", " ", "géne", "一ß"])
_CACHE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e-300, -1e-300, 1e300, -1e300,
     1.7976931348623157e308])


def _write_table(path, col_ids, row_ids, values, delimiter):
    lines = [delimiter.join(["id", *col_ids])]
    lines += [delimiter.join([rid, *map(repr, row)]) for rid, row in zip(row_ids, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def _text_reads():
    """The paths _read_table opens while the block runs."""
    seen = []
    real = dataio._read_table

    def spy(path, *args, **kwargs):
        seen.append(os.fspath(path))
        return real(path, *args, **kwargs)

    with mock.patch.object(dataio, "_read_table", spy):
        yield seen


def _same_table(a, b):
    assert a.sample_ids == b.sample_ids and a.gene_names == b.gene_names
    assert a.scale == b.scale
    assert a.values.flags.c_contiguous == b.values.flags.c_contiguous
    assert a.values.tobytes(order="A") == b.values.tobytes(order="A")


class TestTableCache:
    """A parse leaves <path>.pathae-table; a later load of the same bytes
    reads it instead of the text, and gets the same table."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), orientation=st.sampled_from(dataio.ORIENTATIONS),
           suffix=st.sampled_from([".tsv", ".csv"]))
    def test_round_trip(self, scratch, data, orientation, suffix):
        rows = data.draw(st.lists(_IDS, min_size=1, max_size=4, unique=True))
        cols = data.draw(st.lists(_IDS, min_size=1, max_size=4, unique=True))
        values = data.draw(st.lists(st.lists(_CACHE_VALUES, min_size=len(cols),
                                             max_size=len(cols)),
                                    min_size=len(rows), max_size=len(rows)))
        path = _write_table(scratch / ("rt" + suffix), cols, rows, values,
                            "," if suffix == ".csv" else "\t")
        cache = Path(dataio._table_cache_path(path))
        cache.unlink(missing_ok=True)
        with _text_reads() as seen:
            parsed = load_expression_tsv(path, orientation=orientation)
        assert seen == [path] and cache.exists()
        with _text_reads() as seen:
            cached = load_expression_tsv(path, orientation=orientation)
        assert seen == []
        _same_table(parsed, cached)
        expected = np.array(values)
        if orientation == "genes_as_rows":
            expected = expected.T
        assert cached.values.tobytes() == expected.tobytes()

    def _cached_table(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tG1\tG2\nS1\t1.5\t-0.0\nS2\t5e-324\t1e300\n")
        table = load_expression_tsv(path)
        cache = Path(dataio._table_cache_path(path))
        return path, table, cache, cache.read_bytes()

    @staticmethod
    def _edit_header(data, **changes):
        magic, head, body = data.split(b"\n", 2)
        head = json.loads(head)
        head.update(changes)
        return b"\n".join([magic, json.dumps(head).encode("ascii"), body])

    @pytest.mark.parametrize("damage", [
        "truncated_body", "wrong_digest", "wrong_delimiter", "shape_larger_than_file",
        "non_finite_body", "no_header", "not_a_cache", "empty",
    ])
    def test_damaged_cache_is_reparsed_and_rewritten(self, tmp_path, damage):
        path, table, cache, good = self._cached_table(tmp_path)
        bad = {
            "truncated_body": lambda: good[:-3],
            "wrong_digest": lambda: self._edit_header(good, digest="0" * 64),
            "wrong_delimiter": lambda: self._edit_header(good, delimiter=","),
            "shape_larger_than_file": lambda: self._edit_header(good, shape=[2, 10 ** 12]),
            "non_finite_body": lambda: good[:-8] + np.array([np.nan]).tobytes(),
            "no_header": lambda: good.split(b"\n", 1)[0] + b"\n",
            "not_a_cache": lambda: b"id\tG1\nS1\t1\n",
            "empty": lambda: b"",
        }[damage]()
        cache.write_bytes(bad)
        with _text_reads() as seen:
            again = load_expression_tsv(path)
        assert seen == [path]
        _same_table(table, again)
        assert cache.read_bytes() == good

    def test_other_delimiter_is_a_miss(self, tmp_path):
        path = write(tmp_path / "e.txt", "id\tG1\nS1\t3\n")
        with _text_reads() as seen:
            by_tab = load_expression_tsv(path)
            by_comma = load_expression_tsv(path, delimiter=",")
            again_by_tab = load_expression_tsv(path)
        assert seen == [path] * 3
        assert by_tab.gene_names == ["G1"] and by_tab.values.tolist() == [[3.0]]
        assert by_comma.sample_ids == ["S1\t3"] and by_comma.values.shape == (1, 0)
        _same_table(by_tab, again_by_tab)

    def test_rewrite_with_same_size_and_mtime_is_a_miss(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tG1\nS1\t1.5\n")
        assert load_expression_tsv(path).values[0, 0] == 1.5
        st_before = os.stat(path)
        write(tmp_path / "e.tsv", "id\tG1\nS1\t2.5\n")
        os.utime(path, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
        assert os.stat(path).st_size == st_before.st_size
        assert os.stat(path).st_mtime_ns == st_before.st_mtime_ns
        assert load_expression_tsv(path).values[0, 0] == 2.5

    def test_file_changed_during_the_parse_writes_no_cache(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tG1\nS1\t1.5\n")
        real = dataio._parse_expression

        def parse_then_touch(*args):
            parsed = real(*args)
            os.utime(path, ns=(0, 0))
            return parsed

        with mock.patch.object(dataio, "_parse_expression", parse_then_touch):
            load_expression_tsv(path)
        assert not os.path.exists(dataio._table_cache_path(path))

    def test_unwritable_directory_loads_without_cache(self, tmp_path, monkeypatch):
        """What opening a file in a read-only dataset directory raises;
        modes alone cannot show it to a process running as root."""
        def denied(target, *args, **kwargs):
            raise PermissionError(13, "Permission denied", os.fspath(target))

        monkeypatch.setattr(dataio, "atomic_open", denied)
        path = write(tmp_path / "e.tsv", "id\tG1\nS1\t1.5\n")
        assert load_expression_tsv(path).values[0, 0] == 1.5
        assert sorted(os.listdir(tmp_path)) == ["e.tsv"]

    def test_cache_path_taken_by_a_directory(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tG1\nS1\t1.5\n")
        os.mkdir(dataio._table_cache_path(path))
        for _ in range(2):
            assert load_expression_tsv(path).values[0, 0] == 1.5
        assert sorted(os.listdir(tmp_path)) == ["e.tsv", "e.tsv.pathae-table"]

    @pytest.mark.parametrize("text", [
        "", "\n\n", "id\tG1\n", "id\tG1\tG2\nS1\t1\n", "id\tG1\nS1\tNA\n", "id\tG1\nS1\tinf\n",
    ], ids=["empty", "blank", "no_rows", "ragged", "non_numeric", "non_finite"])
    def test_failed_parse_leaves_no_cache(self, tmp_path, text):
        path = write(tmp_path / "e.tsv", text)
        with pytest.raises(ParseError):
            load_expression_tsv(path)
        assert os.listdir(tmp_path) == ["e.tsv"]

    def test_checks_after_the_parse_run_on_a_hit(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tS1\tS1\nG1\t1\t2\n")
        for _ in range(2):  # a parse, then a cache read
            with pytest.raises(ParseError, match="duplicate sample ids"):
                load_expression_tsv(path, orientation="genes_as_rows")
        assert os.path.exists(dataio._table_cache_path(path))

    def test_non_regular_file_has_no_digest(self):
        assert dataio._file_digest(os.devnull) is None

    def test_hit_counts_no_lines(self, tmp_path):
        path = write(tmp_path / "e.tsv", "id\tG1\nS1\t1.5\n")
        load_expression_tsv(path)
        with mock.patch.object(dataio, "_count_lines", side_effect=AssertionError("counted")):
            assert load_expression_tsv(path).values[0, 0] == 1.5

    def test_hit_peak_is_under_one_and_three_tenths_tables(self, tmp_path):
        """A cache read fills one preallocated array from the file: about
        1.21 times the table's bytes at its peak on this fixture (the
        values, one bool mask of them, the ids)."""
        data = make_synthetic(n_pathways=16, n_genes=800, n_background=80, n_train=120,
                              n_test=1, seed=3)
        path = write_fixture(str(tmp_path), data)["train_expression"]
        table_bytes = data.train.values.nbytes
        del data
        load_expression_tsv(path)
        tracemalloc.start()
        try:
            with _text_reads() as seen:
                load_expression_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == []
        assert peak < 1.3 * table_bytes


@contextlib.contextmanager
def _fifo(path, data: bytes):
    """A FIFO at ``path`` that a writer thread fills with ``data`` when a
    reader opens it.  A second open for reading, after the writer closed
    the FIFO, gets an empty file rather than waiting for a writer forever:
    until the block ends, the thread keeps opening the FIFO for writing
    when a reader waits, and closes it at once."""
    os.mkfifo(path)
    done = threading.Event()

    def writer():
        with open(path, "wb") as fh:  # waits for the first reader
            fh.write(data)
        while not done.wait(0.02):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waits
                pass

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        yield str(path)
    finally:
        done.set()
        # a writer still waiting for its first reader is let through
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        thread.join(10)
        os.close(fd)
        assert not thread.is_alive()


class TestNonRegularFiles:
    """A pipe or FIFO can be read only once: it is parsed in one text pass,
    with no hash, no line count and no cache."""

    def test_fifo_loads_as_the_same_bytes_in_a_file(self, tmp_path):
        rows = [f"S{i}\t{i * 0.25!r}\t{-0.0 if i % 2 else 1e-300!r}" for i in range(40)]
        data = ("id\tG1\tG2\n\n" + "\n".join(rows) + "\n").encode()
        regular = tmp_path / "e.tsv"
        regular.write_bytes(data)
        for orientation in dataio.ORIENTATIONS:
            with _fifo(tmp_path / "f.tsv", data) as fifo, _text_reads() as seen:
                table = load_expression_tsv(fifo, orientation=orientation)
            assert seen == [fifo]
            _same_table(table, load_expression_tsv(str(regular), orientation=orientation))
            assert sorted(os.listdir(tmp_path)) == ["e.tsv", "e.tsv.pathae-table", "f.tsv"]
            os.unlink(fifo)

    def test_empty_fifo_is_an_empty_file(self, tmp_path):
        with _fifo(tmp_path / "f.tsv", b"") as fifo:
            with pytest.raises(ParseError) as err:
                load_expression_tsv(fifo)
        assert str(err.value) == f"{fifo}: empty file"

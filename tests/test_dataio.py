import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathae.dataio import (
    ExpressionTable,
    LabelTable,
    PathwaySet,
    Scale,
    SurvivalTable,
    apply_normalizer,
    fit_normalizer,
    fpkm_to_tpm_log,
    intensity_to_ipm_log,
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
    resolve_pathways,
)
from pathae.errors import ConfigError, DataError, ParseError
from pathae.ndcore import RngStream


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
        for conv in (fpkm_to_tpm_log, intensity_to_ipm_log):
            out = conv(t)
            np.testing.assert_allclose(
                out.values, np.log2(np.array([[250000.0, 750000.0]]) + 1), rtol=1e-12
            )
            assert str(out.scale) == "log2+1"

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

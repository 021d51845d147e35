import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathae.atomic import write_csv

_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("inf"), -float("inf"),
                                                  float("nan"), 1 / 3, 1e300, 5e-324]))
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n ;é€'), st.characters(codec="utf-8")), max_size=6)
_CELLS = st.one_of(
    _TEXT, st.just(""), st.none(), st.booleans(), st.integers(-10**20, 10**20), _FLOATS,
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _TEXT.map(np.str_),
)
_ROWS = st.lists(st.one_of(st.lists(_CELLS, max_size=5), st.sampled_from([[""], [None], []])),
                 max_size=6)


class TestWriteCsv:
    def test_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "x", "y"], [
            ["a", float("nan"), np.float64(1 / 3)],
            ['b,"c"', float("inf"), -np.inf],
            ["d", 3, np.float64(-0.0)],
        ])
        assert path.read_bytes() == (
            b"name,x,y\r\n"
            b"a,nan,0.3333333333333333\r\n"
            b'"b,""c""",inf,-inf\r\n'
            b"d,3,-0.0\r\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_CELLS, max_size=5), _ROWS)
    # one file per case that csv.writer writes otherwise than str() joined by commas
    @example(["h"], [["x"], ["a,b"]])
    @example(["h"], [["x"], ['c"d']])
    @example(["h"], [["x"], ["e\rf"]])
    @example(["h"], [["x"], ["g\nh"]])
    @example(["h"], [["x"], [""]])
    @example(["h"], [["x"], [None]])
    @example(["h"], [["x"], []])
    @example(["h"], [["x"], ["", ""]])
    @example(["h"], [["x"], [None, 1]])
    def test_equals_csv_writer(self, tmp_path_factory, header, rows):
        tmp = tmp_path_factory.mktemp("csv")
        want = tmp / "want.csv"
        with open(want, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        got = tmp / "got.csv"
        write_csv(got, header, (iter(row) for row in rows))
        assert got.read_bytes() == want.read_bytes()

    def test_failed_write_keeps_old_file(self, tmp_path, break_writes):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.5]])
        break_writes()
        with pytest.raises(OSError):
            write_csv(path, ["x"], [[2.5], [3.5]])
        assert path.read_bytes() == b"x\r\n1.5\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

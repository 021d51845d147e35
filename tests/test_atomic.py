import numpy as np
import pytest

from pathae.atomic import write_csv


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

    def test_failed_write_keeps_old_file(self, tmp_path, break_writes):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.5]])
        break_writes()
        with pytest.raises(OSError):
            write_csv(path, ["x"], [[2.5], [3.5]])
        assert path.read_bytes() == b"x\r\n1.5\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

import numpy as np
import pytest


def max_rel_err(a, b, floor=1e-8):
    """Largest elementwise relative error with a small absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class _FailsOnSecondWrite:
    """A writable file whose first write lands and whose second raises, as a
    disk filling up midway through a file would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def break_writes(monkeypatch):
    """Call the returned function to make every later atomic_open write fail
    midway through its temporary file."""
    import pathae.atomic

    def install():
        monkeypatch.setattr(
            pathae.atomic, "open",
            lambda *args, **kwargs: _FailsOnSecondWrite(open(*args, **kwargs)),
            raising=False,
        )

    return install

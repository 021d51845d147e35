import builtins
import os

import numpy as np
import pytest


def max_rel_err(a, b, floor=1e-8):
    """Largest elementwise relative error with a small absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class _FailingWrites:
    """A writable file whose first ``writes_ok`` writes land and whose next
    one raises, as a disk filling up midway through a file would."""

    def __init__(self, fh, writes_ok):
        self.fh, self.writes_ok = fh, writes_ok

    def write(self, data):
        if self.writes_ok < 1:
            raise OSError(28, "No space left on device")
        self.writes_ok -= 1
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def break_writes(monkeypatch):
    """Call the returned function to make every file that is later opened for
    writing fail midway: after ``writes_ok`` writes (default 1) to it have
    landed.  With ``name``, only files whose name contains it fail.
    atomic_open's temporary files fail this way, and so does any writer that
    bypasses it."""
    real_open = builtins.open

    def install(writes_ok=1, name=None):
        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if set(mode) & set("wax+") and (name is None or name in os.path.basename(str(file))):
                return _FailingWrites(fh, writes_ok)
            return fh

        monkeypatch.setattr(builtins, "open", failing_open)

    return install

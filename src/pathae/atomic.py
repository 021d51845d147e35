"""All-or-nothing file writes: a reader of the target finds its old content
or the complete new one, never a half-written file.  This covers a writer
that fails or is killed midway, not power loss (nothing is fsynced)."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit
    move it over ``path`` with os.replace, on an exception delete it."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

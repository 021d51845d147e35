"""All-or-nothing file writes: a reader of the target finds its old content
or the complete new one, never a half-written file.  This covers a writer
that fails or is killed midway, not power loss (nothing is fsynced)."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
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


def write_csv(path, header, rows):
    """Write a CSV artifact atomically: UTF-8, the bytes of the csv
    module's default dialect (comma, quoting only where needed, \\r\\n line
    ends).  A cell is written as its ``str()``, None as an empty cell, so a
    float cell is its repr and reads back bit-exactly.  The file is formed
    in memory and written in two parts, its first line and the rest."""
    text = _csv_text([header, *rows])
    first = text.index("\n") + 1
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text[:first])
        fh.write(text[first:])


def _csv_text(records) -> str:
    """The records as csv.writer writes them.  Every cell is formatted by
    one %-format of the whole file; only when that text holds a cell that
    csv.writer would write otherwise (one with a comma, a quote or a line
    break, a None, or the only cell of its record and empty) does
    csv.writer itself write the records."""
    records = [r if isinstance(r, (list, tuple)) else list(r) for r in records]
    lengths = list(map(len, records))
    formats = {n: ",".join(["%s"] * n) + "\r\n" for n in set(lengths)}
    cells = tuple(itertools.chain.from_iterable(records))
    text = "".join(map(formats.__getitem__, lengths)) % cells
    n = len(records)
    if ('"' in text or "None" in text or text.count("\n") != n or text.count("\r") != n
            or text.count(",") != sum(lengths) - n or text.startswith("\r\n") or "\n\r\n" in text):
        buf = io.StringIO()
        csv.writer(buf).writerows(records)
        return buf.getvalue()
    return text

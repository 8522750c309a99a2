"""Atomic file output, and the integer reader of every JSON input.

Every artifact is written to a temporary sibling and renamed over its
target with ``os.replace``, so a reader (or a crash) sees either the old
file or the complete new one, never a partial write.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (text is UTF-8 encoded) to ``path`` atomically."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header and rows with the csv module's default dialect
    (``\\r\\n`` line ends), atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def json_int(text: str) -> int | float:
    """A JSON integer literal; past int()'s digit limit it is past any double too, so +-infinity."""
    try:
        return int(text)
    except ValueError:
        return float(text)

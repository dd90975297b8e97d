"""Atomic file replacement shared by every artifact writer.

A writer fills a temporary sibling of the target, and the sibling is
renamed over the target only after the write has finished.  A reader, or a
rerun after an interrupted stage, therefore sees the old file or the new
one, never a torn one.

Nothing is ``fsync``-ed, neither the file nor its directory, so a write
is safe against a killed process but not against power loss or an OS
crash.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "wb"):
    """Open ``<path>.tmp`` for writing; replace ``path`` with it when the
    block exits cleanly, and remove it when the block raises.

    ``mode`` is ``"wb"`` for bytes or ``"w"`` for UTF-8 text.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write(path, data) -> Path:
    """Replace ``path`` with ``data``: bytes, or a str written as UTF-8."""
    with atomic_open(path, "w" if isinstance(data, str) else "wb") as handle:
        handle.write(data)
    return Path(path)

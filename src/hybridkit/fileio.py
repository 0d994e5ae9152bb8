"""Atomic file writes: a reader of `path` sees the old file or the new one,
never a partial write."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def write_atomic(path, write: Callable[[BinaryIO], None]) -> None:
    """Call write(f) on `<path>.tmp` in the same directory, then rename it to path.

    The temporary file reaches the disk before the rename, and the
    directory entry after it, so a crash of the machine, not only of the
    process, right after a save cannot leave path truncated.  A write that
    fails removes the temporary file and leaves any earlier file at path as
    it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_text_atomic(path, text: str) -> None:
    """Atomically write text as UTF-8."""
    write_atomic(path, lambda f: f.write(text.encode("utf-8")))

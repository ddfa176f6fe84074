"""Durable publishing: one temp-write-fsync-rename-dirsync primitive.

``os.replace`` makes a rename *atomic*, not *durable*: until the parent
directory's metadata reaches the platter, a power cut can roll the
rename back even though the data blocks of the temp file were fsync'd.
POSIX requires an ``fsync`` on the directory fd to pin the new directory
entry (the classic "fsync the parent after rename" rule).

:func:`atomic_publish` is the one writer that does all of it — temp file
in the target's directory, data fsync, :func:`os.replace`,
:func:`fsync_dir` — with a fault point before and after every step.
Registry ``job.json``/``spec.json`` records and checkpoint spill
segments publish through it.

:func:`fsync_dir` is deliberately forgiving: some filesystems (and most
non-POSIX platforms) refuse ``open(dir)`` or directory ``fsync``; in that
case the rename is still atomic, just not power-loss-ordered, and we
degrade silently rather than fail the write.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Union

from ..faults.points import fault_point

__all__ = ["atomic_publish", "fsync_dir"]


def atomic_publish(path: Path, write: Callable[[BinaryIO], None], site: str) -> None:
    """Durably replace ``path`` with what ``write`` puts in a binary handle.

    The bytes go to ``<name>.<random>.tmp`` beside ``path``, are flushed
    and fsync'd, renamed over ``path`` and pinned by a directory fsync, so
    a reader sees the old file or the whole new one — and after a crash,
    at worst a leftover ``.tmp``.  A failure before the rename removes the
    temp file and re-raises.  The fault points are
    ``<site>.{pre_write,pre_fsync,pre_replace,post_replace,post_dirsync}``.
    """
    directory = path.parent
    fault_point(site + ".pre_write", path=str(path))
    fd, tmp_name = tempfile.mkstemp(dir=str(directory), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            fault_point(site + ".pre_fsync", handle=handle)
            os.fsync(handle.fileno())
            fault_point(site + ".pre_replace", handle=handle)
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fault_point(site + ".post_replace", path=str(path))
    fsync_dir(directory)
    fault_point(site + ".post_dirsync", path=str(path))


def fsync_dir(path: Union[str, Path]) -> bool:
    """fsync a directory so a completed rename survives power loss.

    Returns ``True`` when the directory was fsync'd, ``False`` when the
    platform or filesystem does not support it (the caller's rename
    remains atomic either way).
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(str(path), flags)
    except OSError:
        return False
    try:
        os.fsync(fd)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True

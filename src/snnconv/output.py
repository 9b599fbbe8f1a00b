"""The one way the package writes a file, and its JSON and CSV layouts.

:func:`open_output` writes a new sibling file and, once the writer has
finished, unlinks the old path and renames the new file into place.  A
writer that fails leaves the previous file as it was, never a half-written
one.  No existing file's data is replaced, and that is what makes a rerun
cheap: on ext4 (default ``auto_da_alloc``) truncating a file that holds
data, or renaming a new file over it, forces a synchronous writeback
(40-130 ms per file on a 2-vCPU virtual machine's disk), while unlink then
rename costs well under a millisecond.  Nothing is fsynced, so a crash may
still lose the new bytes.  :func:`write_json` and :func:`write_csv` lay out
every JSON and CSV output.
"""

from __future__ import annotations

import csv
import errno
import json
import os
from contextlib import contextmanager, suppress


def check_output(path) -> str:
    """``path``'s target, or the :class:`OSError` a directory in its way gives; creates nothing."""
    target = os.path.realpath(path)
    if os.fspath(path).endswith(os.sep) or os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    parent = os.path.dirname(target)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), parent)
    return target


@contextmanager
def open_output(path, mode: str = "w", **open_kwargs):
    """``open(path, mode, **open_kwargs)`` for a whole new file (``mode``
    ``"w"`` or ``"wb"``), which replaces ``path`` only when the block exits
    without an exception.

    A symlinked ``path`` updates its target; missing parent directories are
    created.  Other names of a hard-linked ``path`` keep the old bytes.
    """
    target = check_output(path)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    temp = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as fh:
            yield fh
        with suppress(FileNotFoundError):
            os.unlink(target)
        os.rename(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def write_json(path, payload) -> None:
    """``payload`` as JSON indented by 2 with sorted keys, no final newline."""
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def write_csv(path, header, rows) -> None:
    """``header`` and ``rows`` in :mod:`csv`'s default dialect (``\\r\\n`` line ends)."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

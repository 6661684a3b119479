"""Atomic file output, the one way treesum writes a file it keeps.

Every output, `.config` echo, checkpoint and converted corpus goes
through `atomic_output`; only the live training log is written in place,
line by line.  This module imports no sibling, so each writer can use it.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_output(path, binary=False):
    """A file handle whose contents replace ``path`` only on success.

    The handle writes a temp file in ``path``'s directory, created
    exclusively (``O_CREAT | O_EXCL``) under a fresh random name with mode
    0o666, so the umask applies as it does for `open`.  A name that exists
    already fails the write, and is not retried: no existing file is ever
    opened, truncated or removed.  On success the temp file is renamed
    onto ``path``; on any failure, the rename's included, it is removed.
    Text is UTF-8.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f"{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise

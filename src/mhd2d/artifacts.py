"""Artifact files that appear whole or not at all."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` and move it onto ``path`` on
    clean exit.

    The temporary file lives in the same directory, so ``os.replace`` is an
    atomic rename: a reader sees the earlier file or the complete new one.
    If the body raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

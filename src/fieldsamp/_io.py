"""Atomic file writing and deterministic number formatting for outputs."""

from __future__ import annotations

import itertools
import json
import os
import tempfile

import numpy as np


def fmt(value) -> str:
    """Shortest round-trip decimal form of a number; stable across runs."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _atomic_write(path, chunks) -> None:
    """Write the strings ``chunks`` yields to ``path`` via a temporary file and rename.

    The target either keeps its old content or receives the complete new
    content; a failure mid-write never leaves a partial file behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV file atomically with a header row, each row as it is formatted."""
    lines = (",".join(map(fmt, row)) + "\n" for row in itertools.chain([header], rows))
    _atomic_write(path, lines)


def write_json(path, obj) -> None:
    """Write a JSON document atomically with sorted keys."""
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])

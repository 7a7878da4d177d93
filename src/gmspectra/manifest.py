"""Run manifests: parameters, input/output checksums, timestamps; and the
atomic file writer every artifact goes through."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from datetime import datetime, timezone

from . import __version__


@contextmanager
def atomic_write(path, mode="w"):
    """Yield a handle on ``<path>.tmp.<pid>`` and rename it onto ``path`` once
    the block succeeds. On any exception the temp file is removed and the
    exception re-raised, so a failed write leaves neither a partial artifact
    nor debris."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunManifest:
    """Collects one command's parameters and artifact checksums."""

    def __init__(self, command: str, parameters: dict):
        self.data = {
            "tool": "gmspectra",
            "version": __version__,
            "command": command,
            "parameters": parameters,
            "inputs": {},
            "outputs": {},
            "flags": {},
            "started": _now(),
            "finished": None,
        }

    def add_input(self, path) -> None:
        self.data["inputs"][str(path)] = sha256_of(path)

    def add_output(self, path) -> None:
        self.data["outputs"][str(path)] = sha256_of(path)

    def set_flag(self, name: str, value) -> None:
        self.data["flags"][name] = value

    def write(self, path) -> None:
        self.data["finished"] = _now()
        with atomic_write(path) as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
            fh.write("\n")

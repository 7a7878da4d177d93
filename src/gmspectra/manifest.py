"""Run manifests: parameters, input/output checksums, timestamps; the atomic
file writer every artifact goes through, and the JSON writer beside it.

While a CLI run is open (``recorded_run``), ``atomic_write`` records every
artifact it commits and ``record_input`` every file the run reads, so the
run's manifest names them all without the commands listing them."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from datetime import datetime, timezone

from . import __version__

_run = None  # the RunManifest of the open CLI run; None outside a run


@contextmanager
def atomic_write(path, mode="w"):
    """Yield a handle on ``<path>.tmp.<pid>`` and rename it onto ``path`` once
    the block succeeds. On any exception the temp file is removed and the
    exception re-raised, so a failed write leaves neither a partial artifact
    nor debris. A committed file is recorded as an output of the open run."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if _run is not None:
        # hashed when the manifest is written, outside the writer's own time
        _run.data["outputs"][str(path)] = None


def write_json(path, obj, sort_keys: bool = False) -> None:
    """``obj`` as JSON with one-space indents and a trailing newline (atomic
    write)."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def record_input(path) -> None:
    """Record ``path`` as an input of the open run, hashed as it is first
    recorded, before any output of the run can replace it."""
    if _run is not None and str(path) not in _run.data["inputs"]:
        _run.data["inputs"][str(path)] = sha256_of(path)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunManifest:
    """Collects one command's parameters, flags and artifact checksums."""

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

    def write(self, path) -> None:
        self.data["finished"] = _now()
        outputs = self.data["outputs"]
        for name in outputs:
            outputs[name] = sha256_of(name)
        write_json(path, self.data, sort_keys=True)


@contextmanager
def recorded_run(command: str, parameters: dict, prefix):
    """Open a manifest for one CLI command; every input and artifact the
    block records goes into it. When the block succeeds the manifest is
    written to ``<prefix>.manifest.json``, which records nothing, as the run
    is closed by then; a failed block writes no manifest."""
    global _run
    manifest = RunManifest(command, parameters)
    _run = manifest
    try:
        yield manifest
    finally:
        _run = None
    manifest.write(f"{prefix}.manifest.json")

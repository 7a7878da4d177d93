"""Run manifests: parameters, input/output checksums, stage times, peak
RSS, timestamps; the atomic file writer every artifact goes through, and
the JSON writer beside it.

While a CLI run is open (``recorded_run``), ``atomic_write`` records every
artifact it commits, ``record_input`` every file the run reads and ``timed``
the seconds of each timed call, so the run's manifest names them all without
the commands listing them. Files are hashed when the manifest is written,
after the command's compute, and an input just before an output replaces
it; ``hashlib``, which loads OpenSSL, is imported by the first hash."""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager, suppress
from datetime import datetime, timezone

from . import __version__

try:
    import resource
except ImportError:  # not on Windows
    resource = None

_run = None  # the RunManifest of the open CLI run; None outside a run


@contextmanager
def atomic_write(path, mode="w"):
    """Yield a handle on ``<path>.tmp.<pid>`` and rename it onto ``path`` once
    the block succeeds. On any exception the temp file is removed and the
    exception re-raised, so a failed write leaves neither a partial artifact
    nor debris. A committed file is recorded as an output of the open run,
    hashed when the manifest is written; an input of the run that ``path``
    names and that is not hashed yet is hashed just before the rename, so
    its checksum is that of the file the run read."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        if _run is not None and os.path.exists(path):
            inputs = _run.data["inputs"]
            for name, digest in inputs.items():
                if digest is None and os.path.samefile(name, path):
                    inputs[name] = sha256_of(name)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if _run is not None:
        _run.data["outputs"][str(path)] = None


def write_json(path, obj, sort_keys: bool = False) -> None:
    """``obj`` as JSON with one-space indents and a trailing newline (atomic
    write)."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def record_input(path) -> None:
    """Record ``path`` as an input of the open run. It is hashed when the
    manifest is written, or, if an output of the run replaces it first, by
    ``atomic_write`` just before the replace."""
    if _run is not None:
        _run.data["inputs"].setdefault(str(path), None)


@contextmanager
def timed(name: str):
    """Add the block's seconds to ``timings[name]`` of the open run's
    manifest, summed over every block of that name; outside a CLI run it
    records nothing. As a decorator it times each call of the function."""
    if _run is None:
        yield
        return
    start = time.perf_counter()
    yield
    timings = _run.data["timings"]
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def sha256_of(path) -> str:
    """SHA-256 of the file at ``path``, read 1 MiB at a time. ``hashlib`` is
    imported on the first call, so a run loads OpenSSL only once it hashes,
    after its compute."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _peak_rss_mib() -> float | None:
    """This process's peak resident set size so far, in MiB; ``ru_maxrss`` is
    KiB on Linux and bytes on macOS. None where ``resource`` is missing."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


class RunManifest:
    """Collects one command's parameters, flags, stage times, peak RSS and
    artifact checksums."""

    def __init__(self, command: str, parameters: dict):
        self.data = {
            "tool": "gmspectra",
            "version": __version__,
            "command": command,
            "parameters": parameters,
            "inputs": {},
            "outputs": {},
            "flags": {},
            "timings": {},
            "started": _now(),
            "finished": None,
            "peak_rss_mib": None,
        }

    def write(self, path) -> None:
        """Record the peak RSS, hash every recorded input and output not
        hashed yet, then write the manifest to ``path``. The peak is read
        before the first hash, which loads OpenSSL."""
        self.data["finished"] = _now()
        self.data["peak_rss_mib"] = _peak_rss_mib()
        for files in (self.data["inputs"], self.data["outputs"]):
            for name, digest in files.items():
                if digest is None:
                    files[name] = sha256_of(name)
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

"""Record of the machine and software a benchmark run measured."""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """BLAS thread count the benchmark pins: at most 2, at most nproc."""
    return min(2, os.cpu_count() or 1)


def _first_line_value(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def l3_bytes() -> int | None:
    """Size of the last-level (L3) cache of cpu0, from sysfs."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 2**10, "M": 2**20, "G": 2**30}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            continue
    return None


def git_commit(root: Path) -> str | None:
    """Commit of the checkout read from its .git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np  # not at module level: run.py pins BLAS threads before numpy loads

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    mem_kib = _first_line_value("/proc/meminfo", "MemTotal")
    l3 = l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name"),
        "l3_mib": None if l3 is None else l3 / 2**20,
        "ram_mib": None if mem_kib is None else int(mem_kib.split()[0]) // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES},
        "git_commit": git_commit(root),
    }

"""Oracle checks on the CLI's artifacts, independent of the gmspectra code.

Every check compares an artifact with a fact the generator planted or with a
property recomputed here in plain numpy. A check that raises counts as
failed, so a missing or unreadable artifact is a failure, not a crash.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generator import PlantedGraph

ALPHA = 0.85
STATIONARY_TOL = 1e-10
ORTHO_TOL = 1e-12
RELATION_TOL = 1e-10
RITZ_MODULUS_TOL = 1e-12

_VEC_HEADER = struct.Struct("<4sIQ")


@dataclass
class CheckLog:
    """Outcome of every check and stage run; ``failed / attempted`` is the
    benchmark's fail ratio."""

    results: list[dict] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def check(self, name: str, fn, *args) -> bool:
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # any failure to read or compare is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.record(name, ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.results if not r["ok"]]


def read_vec(path) -> np.ndarray:
    """Parse a ``.vec`` file (magic SNRV, version 1, float64, crc32)."""
    blob = Path(path).read_bytes()
    magic, version, n = _VEC_HEADER.unpack_from(blob)
    end = _VEC_HEADER.size + 8 * n
    if magic != b"SNRV" or version != 1 or len(blob) != end + 4:
        raise ValueError(f"{path}: not a version-1 vector file of {n} entries")
    if zlib.crc32(blob[:end]) != struct.unpack_from("<I", blob, end)[0]:
        raise ValueError(f"{path}: checksum mismatch")
    return np.frombuffer(blob, dtype="<f8", count=n, offset=_VEC_HEADER.size)


def google_matvec(src, dst, n, p, alpha=ALPHA) -> np.ndarray:
    """G @ p for the graph with edges src -> dst, by bincount."""
    out_deg = np.bincount(src, minlength=n)
    share = np.zeros(n)
    linked = out_deg > 0
    share[linked] = p[linked] / out_deg[linked]
    spread = np.bincount(dst, weights=share[src], minlength=n)
    dangling_mass = p[~linked].sum() / n
    return alpha * (spread + dangling_mass) + (1.0 - alpha) * p.sum() / n


def _manifest(path) -> dict:
    return json.loads(Path(path).read_text())


def rank_converged(manifest_path):
    flags = _manifest(manifest_path)["flags"]
    return flags["converged"] is True, f"iterations={flags['iterations']}"


def stationary(vec_path, planted: PlantedGraph, inverted: bool):
    """||G p - p||_1 within STATIONARY_TOL, with G* for CheiRank."""
    p = read_vec(vec_path)
    if p.size != planted.node_count:
        return False, f"length {p.size} != N={planted.node_count}"
    src, dst = (planted.dst, planted.src) if inverted else (planted.src, planted.dst)
    residual = float(np.abs(google_matvec(src, dst, planted.node_count, p) - p).sum())
    return residual <= STATIONARY_TOL, f"residual={residual:.3e}"


def decomposition_matches(json_path, planted: PlantedGraph):
    data = json.loads(Path(json_path).read_text())
    found = [entry.get("members") for entry in data["subspaces"]]
    expected = [b.tolist() for b in planted.blocks]
    core = planted.node_count - planted.block_node_count
    ok = found == expected and data["core_count"] == core
    return ok, f"{len(found)} subspaces, {len(expected)} planted"


def unit_eigenvalues(manifest_path, planted: PlantedGraph):
    count = _manifest(manifest_path)["flags"]["unit_eigenvalue_count"]
    return count == len(planted.blocks), f"{count} unit eigenvalues, {len(planted.blocks)} blocks"


def ingest_counts(manifest_path, planted: PlantedGraph):
    flags = _manifest(manifest_path)["flags"]
    found = (flags["node_count"], flags["edge_count"], flags["dangling_count"])
    expected = (planted.node_count, planted.edge_count, planted.dangling.size)
    return found == expected, f"(N, N_l, dangling) = {found}, planted {expected}"


def ortho_defect(manifest_path):
    value = _manifest(manifest_path)["flags"]["ortho_defect"]
    return value <= ORTHO_TOL, f"ortho_defect={value:.3e}"


def relation_residual(manifest_path):
    value = _manifest(manifest_path)["flags"]["relation_residual"]
    return value <= RELATION_TOL, f"relation_residual={value:.3e}"


def krylov_dimension(manifest_path, n_arnoldi: int):
    value = _manifest(manifest_path)["flags"]["krylov_dimension"]
    return value == n_arnoldi, f"krylov_dimension={value}, requested {n_arnoldi}"


def ritz_inside_unit_disk(csv_path):
    with open(csv_path, newline="") as fh:
        moduli = [abs(complex(float(row["re"]), float(row["im"])))
                  for row in csv.DictReader(fh) if row["origin"] == "core"]
    top = max(moduli)
    return top <= 1.0 + RITZ_MODULUS_TOL, f"{len(moduli)} Ritz values, max |lambda|={top!r}"


def check_artifacts(log: CheckLog, work: Path, planted: PlantedGraph, n_arnoldi: int) -> None:
    """Every oracle check on one complete pass of the pipeline in ``work``."""
    log.check("ingest.counts", ingest_counts, work / "g.cache.manifest.json", planted)
    for stage, prefix, inverted in (("rank", "pr", False), ("cheirank", "cr", True)):
        log.check(f"{stage}.converged", rank_converged, work / f"{prefix}.manifest.json")
        log.check(f"{stage}.stationary", stationary, work / f"{prefix}.vec", planted, inverted)
    log.check("subspaces.planted_blocks", decomposition_matches, work / "dec.json", planted)
    log.check("subspaces.unit_eigenvalues", unit_eigenvalues, work / "dec.manifest.json", planted)
    spec = work / "spec.manifest.json"
    log.check("spectrum.ortho_defect", ortho_defect, spec)
    log.check("spectrum.relation_residual", relation_residual, spec)
    log.check("spectrum.krylov_dimension", krylov_dimension, spec, n_arnoldi)
    log.check("spectrum.ritz_modulus", ritz_inside_unit_disk, work / "spec.csv")


def artifact_digests(work: Path) -> dict[str, str]:
    """SHA-256 of every artifact except manifests, which carry timestamps."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")}


def check_determinism(log: CheckLog, reference: dict[str, str], current: dict[str, str]) -> None:
    """One check per artifact: its bytes equal the first pass's bytes."""
    for name in sorted(reference.keys() | current.keys()):
        same = reference.get(name) == current.get(name)
        log.record(f"determinism.{name}", same, "" if same else "SHA-256 differs from first pass")

"""Tests of the benchmark itself: its generator oracle and its output checks."""

import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from gmspectra import from_edges, node_closure
from gmspectra.subspaces import OVERFLOW
from perfbench import bench, checks, tracing
from perfbench.generator import generate

ROOT = Path(__file__).resolve().parents[2]
TINY = bench.Workload("tiny", 1500, 0.2, 3, threads=2, arnoldi_dim=8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_blocks_are_exactly_the_closed_sets(seed):
    planted = generate(300, 0.3, 2, seed)
    g = from_edges(planted.src, planted.dst, planted.node_count)
    closures = {node: node_closure(g, node, max_size=planted.node_count)
                for node in range(planted.node_count)}
    found = {c for c in closures.values() if c is not OVERFLOW}
    assert found == {frozenset(b.tolist()) for b in planted.blocks}
    for block in planted.blocks:
        assert all(closures[int(node)] == frozenset(block.tolist()) for node in block)
    assert np.array_equal(planted.dangling, np.flatnonzero(g.out_degrees == 0))


def test_generator_repeats_for_a_seed_and_varies_across_seeds():
    a, b, c = generate(500, 0.2, 3, 7), generate(500, 0.2, 3, 7), generate(500, 0.2, 3, 8)
    assert a.edge_list_text() == b.edge_list_text()
    assert a.edge_list_text() != c.edge_list_text()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A plain and a traced pass of the whole CLI pipeline on a tiny graph."""
    root = tmp_path_factory.mktemp("checkout")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    launcher = bench.Launcher(root, env)
    try:
        run = bench.Run(root, TINY, 3, launcher)
        run.setup()
        run.run_pass(traced=False)
        run.run_pass(traced=True)
    finally:
        launcher.close()
    return run


def test_pipeline_passes_every_check(pipeline):
    assert pipeline.log.failures == []
    names = {r["name"] for r in pipeline.log.results}
    assert {"stage.stats", "spectrum.ritz_modulus", "determinism.pr.vec"} <= names


def test_traced_pass_records_layer_spans(pipeline):
    trace = json.loads((pipeline.logs / "spans-1-rank.json").read_text())
    spans = trace["spans"]
    root = [s for s in spans if s["name"] == "cli.main"]
    assert len(root) == 1 and root[0]["parent"] is None
    iterations = json.loads((pipeline.work / "pr.manifest.json").read_text())["flags"]["iterations"]
    assert sum(s["name"] == "operator.apply_g" for s in spans) == iterations
    assert 0 < tracing.child_total(spans, "ranking.pagerank", "operator.apply_g") \
        <= tracing.total(spans, "ranking.pagerank")
    assert trace["counters"]["manifest.bytes_hashed"] > 0


def _flip_vec_byte(work):
    path = work / "pr.vec"
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))


def _drop_block(work):
    path = work / "dec.json"
    data = json.loads(path.read_text())
    del data["subspaces"][0]
    path.write_text(json.dumps(data))


def _edit_flag(name, flag, value):
    def corrupt(work):
        path = work / name
        data = json.loads(path.read_text())
        data["flags"][flag] = value
        path.write_text(json.dumps(data))
    return corrupt


def _ritz_outside_disk(work):
    path = work / "spec.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(",core"))
    lines[row] = "1.5,0.0,1.5,0.0,core"
    path.write_text("\n".join(lines) + "\n")


def _rewrite_vec_perturbed(work):
    """A well-formed .vec (valid checksum) holding a non-stationary vector."""
    p = checks.read_vec(work / "cr.vec").copy()
    p[0] += 1e-6
    payload = struct.pack("<4sIQ", b"SNRV", 1, p.size) + p.astype("<f8").tobytes()
    (work / "cr.vec").write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


CORRUPTIONS = {
    "rank.stationary": _flip_vec_byte,
    "cheirank.stationary": _rewrite_vec_perturbed,
    "subspaces.planted_blocks": _drop_block,
    "subspaces.unit_eigenvalues": _edit_flag("dec.manifest.json", "unit_eigenvalue_count", 0),
    "rank.converged": _edit_flag("pr.manifest.json", "converged", False),
    "ingest.counts": _edit_flag("g.cache.manifest.json", "edge_count", -1),
    "spectrum.ortho_defect": _edit_flag("spec.manifest.json", "ortho_defect", 1e-6),
    "spectrum.relation_residual": _edit_flag("spec.manifest.json", "relation_residual", 1e-3),
    "spectrum.krylov_dimension": _edit_flag("spec.manifest.json", "krylov_dimension", 7),
    "spectrum.ritz_modulus": _ritz_outside_disk,
}


@pytest.mark.parametrize("check_name", sorted(CORRUPTIONS))
def test_each_check_fires_on_a_corrupted_artifact(pipeline, tmp_path, check_name):
    work = tmp_path / "artifacts"
    shutil.copytree(pipeline.work, work)
    reference = checks.artifact_digests(work)
    CORRUPTIONS[check_name](work)

    log = checks.CheckLog()
    checks.check_artifacts(log, work, pipeline.planted, TINY.arnoldi_dim)
    checks.check_determinism(log, reference, checks.artifact_digests(work))
    failed = {r["name"] for r in log.failures}
    changed = {f"determinism.{name}" for name, digest in checks.artifact_digests(work).items()
               if reference[name] != digest}
    assert failed == {check_name} | changed
    assert log.failed == len(failed) and log.attempted > log.failed


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arnoldi-core",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

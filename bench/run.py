"""Time ``decompose`` and ``arnoldi_core`` on seeded graphs of ~2e5 nodes.

    python3 bench/run.py --out BENCH_<n>.json --label change
    python3 bench/run.py --out BENCH_<n>.json --label parent --root ../parent

The graphs come from ``perfbench.generator.generate`` with seed 11:

* ``decompose`` on two ~2e6-link graphs, one with 40 % of its nodes in
  planted blocks (subspace-rich) and one with 1 % (core-heavy). Each call is
  timed three times and the minimum kept; a SHA-256 of the decomposition
  lets the runs of two checkouts be checked for equal output.
* ``arnoldi_core`` at n_A = 640, without its check, on the ~1.96e5-node
  core of a 2e5-node graph (the Krylov basis takes ~1 GB), timed once. Its
  time is split as in ``perfbench/layers.py``: ``matvec_s`` is n_A times the
  median of five embedded core matvecs, ``hessenberg_eig_s`` the minimum of
  three ``eig`` calls on the Hessenberg matrix, and ``ortho_s`` the
  remainder, the Gram-Schmidt orthogonalisation.

``--root`` is the checkout whose ``src/gmspectra`` is timed (default: this
one), so the same script measures a parent checkout and a change on the
same host. Each run is stored in the ``runs`` list of ``--out`` under its
``--label``, replacing an earlier run of that label, with the machine
record of ``perfbench.machine.environment``. That record's ``git_commit``
is the checkout's HEAD, so the run also records ``src_dirty`` (whether
``git status`` lists changes under ``src/``; null outside a git checkout)
and ``src_sha256``, a hash of the ``src/`` files timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 3
MATVEC_REPEATS = 5
DECOMPOSE_GRAPHS = {  # name: (node_count, block_share, min_out_degree)
    "subspace-rich": (236_000, 0.40, 6),
    "core-heavy": (150_000, 0.01, 6),
}
ARNOLDI_GRAPH = (200_000, 0.02, 4)
N_ARNOLDI = 640
SEED = 11


def source_state(root: Path) -> dict:
    """Whether ``root/src`` differs from the checkout's HEAD, and a hash of
    its files, so that a parent run and an uncommitted change differ."""
    dirty = None
    if (root / ".git").exists():
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, check=True)
        dirty = bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"src_dirty": dirty, "src_sha256": digest.hexdigest()}


def time_decompose(gm, generate) -> dict:
    graphs = {}
    for name, (nodes, block_share, min_out_degree) in DECOMPOSE_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        g = gm.from_edges(planted.src, planted.dst, planted.node_count)
        del planted
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            d = gm.decompose(g)
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(d.permutation.astype("<i8").tobytes())
        digest.update(d.dimensions.astype("<i8").tobytes())
        graphs[name] = {
            "node_count": g.node_count,
            "edge_count": g.edge_count,
            "block_share": block_share,
            "subspace_count": d.subspace_count,
            "core_count": d.core_count,
            "decompose_s": min(times),
            "decompose_runs_s": times,
            "decompose_us_per_node": 1e6 * min(times) / g.node_count,
            "decomposition_sha256": digest.hexdigest(),
        }
        print(f"{name}: N={g.node_count} links={g.edge_count} "
              f"decompose {min(times):.3f} s (min of {REPEATS})", flush=True)
    return graphs


def time_arnoldi(gm, generate) -> dict:
    import numpy as np

    nodes, block_share, min_out_degree = ARNOLDI_GRAPH
    planted = generate(nodes, block_share, min_out_degree, SEED)
    g = gm.from_edges(planted.src, planted.dst, planted.node_count)
    del planted
    d = gm.decompose(g)
    core = d.core_nodes
    op = gm.GoogleOperator(g, alpha=1.0)
    embed = np.zeros(g.node_count)
    v_core = np.full(core.size, 1.0 / np.sqrt(core.size))
    matvecs = []
    for _ in range(MATVEC_REPEATS):  # the matvec closure of arnoldi_core
        start = time.perf_counter()
        embed[:] = 0.0
        embed[core] = v_core
        op.apply_s(embed)[core]
        matvecs.append(time.perf_counter() - start)
    del op, embed

    start = time.perf_counter()
    result = gm.arnoldi_core(g, d, N_ARNOLDI, check=False)
    arnoldi_s = time.perf_counter() - start
    k = result.krylov_dimension
    square = np.ascontiguousarray(result.hessenberg[:k, :k])
    eigs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        np.linalg.eig(square)
        eigs.append(time.perf_counter() - start)
    matvec_s = N_ARNOLDI * statistics.median(matvecs)
    record = {
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "core_count": d.core_count,
        "n_arnoldi": N_ARNOLDI,
        "krylov_dimension": k,
        "converged_count": int(np.count_nonzero(result.converged_mask)),
        "basis_mib": (N_ARNOLDI + 1) * d.core_count * 8 / 2**20,
        "core_matvec_s": statistics.median(matvecs),
        "arnoldi_core_s": arnoldi_s,
        "matvec_s": matvec_s,
        "hessenberg_eig_s": min(eigs),
        "ortho_s": arnoldi_s - matvec_s - min(eigs),
    }
    print(f"arnoldi: core={d.core_count} n_A={N_ARNOLDI} arnoldi_core {arnoldi_s:.1f} s, "
          f"ortho {record['ortho_s']:.1f} s", flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args(argv)
    root = args.root.resolve()

    sys.path.insert(0, str(HERE))
    from perfbench.machine import BLAS_THREAD_VARIABLES, blas_threads
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(blas_threads())
    sys.path.insert(0, str(root / "src"))

    import gmspectra
    from perfbench.generator import generate
    from perfbench.machine import environment

    record = {"label": args.label, "seed": SEED, "repeats": REPEATS,
              "environment": environment(root) | source_state(root),
              "graphs": time_decompose(gmspectra, generate),
              "arnoldi": time_arnoldi(gmspectra, generate)}
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    bench["runs"] = [r for r in bench["runs"] if r["label"] != args.label] + [record]
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time ``gmspectra.decompose`` on two seeded ~2e6-link graphs.

    python3 bench/decompose.py --out BENCH_<n>.json --label change
    python3 bench/decompose.py --out BENCH_<n>.json --label parent --root ../parent

The graphs come from ``perfbench.generator.generate``: one with 40 % of its
nodes in planted blocks (subspace-rich) and one with 1 % (core-heavy). Each
``decompose`` call is timed three times and the minimum kept. ``--root`` is
the checkout whose ``src/gmspectra`` is timed (default: this one), so the
same script measures a parent checkout and a change on the same host. Each
run is stored in the ``runs`` list of ``--out`` under its ``--label``,
replacing an earlier run of that label, with the machine record of
``perfbench.machine.environment`` and a SHA-256 of the decomposition, so
the runs of two checkouts can be checked for equal output. The record's
``git_commit`` is the checkout's HEAD: a change timed before it is
committed reads as its parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 3
GRAPHS = {  # name: (node_count, block_share, min_out_degree)
    "subspace-rich": (236_000, 0.40, 6),
    "core-heavy": (150_000, 0.01, 6),
}
SEED = 11


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

    from gmspectra import decompose, from_edges
    from perfbench.generator import generate
    from perfbench.machine import environment

    graphs = {}
    for name, (nodes, block_share, min_out_degree) in GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        g = from_edges(planted.src, planted.dst, planted.node_count)
        del planted
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            d = decompose(g)
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
        del g, d

    record = {"label": args.label, "seed": SEED, "repeats": REPEATS,
              "environment": environment(root), "graphs": graphs}
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    bench["runs"] = [r for r in bench["runs"] if r["label"] != args.label] + [record]
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

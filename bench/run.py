"""Time ingest, ranking, ``decompose``, ``arnoldi_core`` and the CLI pipeline on seeded graphs.

    python3 bench/run.py --out BENCH_<n>.json --label change
    python3 bench/run.py --out BENCH_<n>.json --label parent --root ../parent
    python3 bench/run.py --out BENCH_<n>.json --label change --layers ingest rank

The graphs are drawn with seed 11, by ``perfbench.generator.generate``
unless said otherwise:

* ``ingest`` on power-law graphs of 2e5 nodes / 1.9e6 links and 2e6 nodes /
  2.0e7 links, as "src dst" edge lists (written ``WRITE_SLICE`` edges at a
  time) in dense (``--num-nodes N``) and remap id modes, and as
  ``dense-commented``, the list with a "# c" line after its first edge,
  which ``np.loadtxt`` rejects, so the per-line parser reads it. The
  ``ingest`` command runs in each mode; a ``dense-commented`` cache that
  differs from the ``dense`` one stops the run. Here ``parse_edge_list`` is
  timed ``INGEST_REPEATS`` times, the minimum kept, with its ``from_edges``
  call timed apart: ``parse_us_per_line`` is the parser's own time per line.
* ``rank`` on the same two graphs, built here with ``from_edges``: the
  ``GoogleOperator`` build, the bytes per link it keeps (``tracemalloc``,
  a second build), ``apply_g`` in ns/link (the median of ``MATVEC_REPEATS``
  calls) with the ``tracemalloc`` peak of one more call, and ``pagerank``.
  The ``rank`` and ``rank --chei`` commands run on the graph's cache.
* ``decompose`` on two ~2e6-link graphs, one with 40 % of its nodes in
  planted blocks (subspace-rich) and one with 1 % (core-heavy), and on two
  graphs without a dangling node, built here, where the sweep from the
  dangling nodes marks nothing: an id-ordered cycle of 2e4 nodes at
  ``max_size`` 2000, and 2e5 nodes with five links each to uniform random
  targets, at the default ``max_size``. Each call is timed three times and
  the minimum kept; a SHA-256 of the decomposition lets the runs of two
  checkouts be checked for equal output.
* ``arnoldi_core`` at n_A = 640, without its check, on the ~1.96e5-node
  core of a 2e5-node graph (the Krylov basis takes ~1 GB), timed once. Its
  time is split as in ``perfbench/layers.py``: ``matvec_s`` is n_A times the
  median of five embedded core matvecs, ``hessenberg_eig_s`` the minimum of
  three ``eig`` calls on the Hessenberg matrix, and ``ortho_s`` the
  remainder, the Gram-Schmidt orthogonalisation.
* ``pipeline`` on the seed-``PIPELINE_SEED`` graph of each perfbench
  workload: the six commands of ``perfbench.bench.cli_args`` and
  ``--help``, ``PIPELINE_PASSES`` passes; the last must pass
  ``perfbench.checks.check_artifacts``.

``ChildRunner`` runs every CLI command as a child of one
``perfbench/launcher.py``, started before any graph exists, so that each
``wait4`` peak RSS is the child's own. A non-zero exit stops the run, as
does a pass whose artifacts differ from the first pass's. A child's
artifacts are the files new in its work directory; a manifest is hashed
without its ``started`` and ``finished`` times, so two checkouts with the
same output give the same hashes. Each child has one record, of ``argv``,
``wall_s`` and ``peak_rss_mib`` (medians of ``wall_runs_s`` and
``peak_rss_runs_mib``) and ``artifacts`` (SHA-256 by file name): it is
``modes[<mode>]["child"]`` of an ingest graph (``ingest_child_s``,
``cache_sha256`` and the like before ``BENCH_26.json``),
``children["rank"]`` and ``children["cheirank"]`` of a rank graph
(``rank_child_s``, ``pr_vec_sha256`` and the like before) and
``children[<command>]`` of a pipeline workload.

``--layers`` picks the layers to time (default: all five). ``--root`` is
the checkout whose ``src/gmspectra`` is timed (default: this one), so the
same script measures a parent checkout and a change on the same host. Each
run is stored in the ``runs`` list of ``--out`` under its ``--label``,
replacing an earlier run of that label, with the machine record of
``perfbench.machine.environment``. That record's ``git_commit`` is the
checkout's HEAD, so the run also records ``src_dirty`` (whether ``git
status`` lists changes under ``src/``; null outside a git checkout) and
``src_sha256``, a hash of the ``src/`` files timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 3
MATVEC_REPEATS = 5
DECOMPOSE_GRAPHS = {  # name: (node_count, block_share, min_out_degree)
    "subspace-rich": (236_000, 0.40, 6),
    "core-heavy": (150_000, 0.01, 6),
}
CYCLE_GRAPH = (20_000, 2000)  # (node_count, max_size)
NO_DANGLING_GRAPH = (200_000, 5)  # (node_count, links_per_node)
ARNOLDI_GRAPH = (200_000, 0.02, 4)
INGEST_GRAPHS = {  # name: (node_count, block_share, min_out_degree)
    "2e6-links": (200_000, 0.01, 4),
    "2e7-links": (2_000_000, 0.01, 4),
}
INGEST_REPEATS = 2
WRITE_SLICE = 1_000_000  # edges formatted at a time: the whole 2e7 list would be a 4e7-item tuple
N_ARNOLDI = 640
SEED = 11
PIPELINE_SEED = 5
PIPELINE_PASSES = 3
LAYERS = ("ingest", "rank", "decompose", "arnoldi", "pipeline")


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


class ChildRunner:
    """Runs CLI commands as children of one ``perfbench/launcher.py``, in
    ``root/work``, the launcher's working directory, with their logs in
    ``root/logs``."""

    def __init__(self, root: Path, env: dict):
        from perfbench.bench import Launcher

        self.work, self.logs = root / "work", root / "logs"
        self.work.mkdir()
        self.logs.mkdir()
        self.launcher = Launcher(self.work, env)
        self.created: set[Path] = set()  # the files the last pass left in ``work``

    def run(self, children: dict[str, list[str]], passes: int = 1) -> dict:
        """Run ``passes`` passes of the children, name -> CLI arguments, in
        order; return one record per child. Each pass starts by removing the
        files the runner has created; the last pass's files stay."""
        walls, peaks, artifacts = ({child: [] for child in children} for _ in range(3))
        for n in range(passes):
            for path in self.created:
                path.unlink()
            self.created = set()
            for child, args in children.items():
                before = set(self.work.iterdir())
                log = self.logs / f"{child}.{n}"
                reply = self.launcher.run([sys.executable, "-m", "gmspectra.cli", *args], log)
                if reply["rc"]:
                    raise RuntimeError(f"child {child!r} exited {reply['rc']}: "
                                       + Path(f"{log}.err").read_text()[-300:].strip())
                new = sorted(set(self.work.iterdir()) - before)
                self.created.update(new)
                artifacts[child].append({p.name: artifact_sha256(p) for p in new})
                if artifacts[child][n] != artifacts[child][0]:
                    raise RuntimeError(f"child {child!r}: pass {n} wrote other bytes than pass 0")
                walls[child].append(reply["wall_s"])
                peaks[child].append(reply["maxrss_kib"] / 1024)
        records = {child: {"argv": args,
                           "wall_s": statistics.median(walls[child]), "wall_runs_s": walls[child],
                           "peak_rss_mib": statistics.median(peaks[child]),
                           "peak_rss_runs_mib": peaks[child], "artifacts": artifacts[child][0]}
                   for child, args in children.items()}
        print("children: " + ", ".join(f"{child} {r['wall_s']:.2f} s {r['peak_rss_mib']:.1f} MiB"
                                       for child, r in records.items()), flush=True)
        return records

    def close(self) -> None:
        self.launcher.close()


def artifact_sha256(path: Path) -> str:
    """SHA-256 of an artifact; a manifest is hashed as its sorted JSON
    without the ``started`` and ``finished`` times."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["started"], manifest["finished"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def write_edge_list(planted, path: Path) -> None:
    """The bytes of ``planted.edge_list_text()``, written ``WRITE_SLICE`` edges at a time."""
    import numpy as np

    with open(path, "w") as fh:
        for lo in range(0, planted.edge_count, WRITE_SLICE):
            hi = min(lo + WRITE_SLICE, planted.edge_count)
            pairs = np.column_stack((planted.src[lo:hi], planted.dst[lo:hi])).ravel().tolist()
            fh.write(("%d %d\n" * (hi - lo)) % tuple(pairs))


def time_parse(gm, path: Path, id_mode: str, num_nodes) -> tuple[float, float]:
    """Seconds of one ``parse_edge_list`` call and of the ``from_edges`` call inside it."""
    from_edges = gm.graph.from_edges
    inner = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        g = from_edges(*args, **kwargs)
        inner.append(time.perf_counter() - start)
        return g

    gm.graph.from_edges = timed
    try:
        start = time.perf_counter()
        gm.parse_edge_list(path, id_mode=id_mode, num_nodes=num_nodes)
        total = time.perf_counter() - start
    finally:
        gm.graph.from_edges = from_edges
    return total, inner[0]


def write_commented(edges: Path, path: Path) -> None:
    """``edges`` with a "# c" line after its first edge: ``np.loadtxt`` rejects
    the file, so ingest reads it whole by the per-line parser."""
    with open(edges) as src, open(path, "w") as dst:
        dst.write(src.readline() + "# c\n")
        shutil.copyfileobj(src, dst)


def time_ingest(gm, generate, runner) -> dict:
    graphs = {}
    for name, (nodes, block_share, min_out_degree) in INGEST_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        lines = planted.edge_count
        edges = runner.work / f"{name}.txt"
        write_edge_list(planted, edges)
        del planted
        commented = runner.work / f"{name}.commented.txt"
        write_commented(edges, commented)
        modes = {"dense": (edges, "dense", nodes), "remap": (edges, "remap", None),
                 "dense-commented": (commented, "dense", nodes)}
        children = runner.run({
            mode: ["ingest", path.name, f"{mode}.cache",
                   *(["--num-nodes", str(num_nodes)] if num_nodes else ["--id-mode", "remap"])]
            for mode, (path, _, num_nodes) in modes.items()})
        caches = {mode: child["artifacts"][f"{mode}.cache"] for mode, child in children.items()}
        if caches["dense-commented"] != caches["dense"]:
            raise RuntimeError(f"ingest {name}: the per-line parser's cache is not np.loadtxt's")
        record = {"node_count": nodes, "edge_count": lines,
                  "file_bytes": edges.stat().st_size, "modes": {}}
        for mode, (path, id_mode, num_nodes) in modes.items():
            runs = [time_parse(gm, path, id_mode, num_nodes) for _ in range(INGEST_REPEATS)]
            total, inner = min(runs)
            record["modes"][mode] = {
                "parse_edge_list_s": total, "parse_edge_list_runs_s": [t for t, _ in runs],
                "from_edges_s": inner, "parse_self_s": total - inner,
                "parse_us_per_line": 1e6 * (total - inner) / lines, "child": children[mode]}
            print(f"ingest {name} {mode}: parse {1e6 * (total - inner) / lines:.3f} us/line "
                  f"(+ from_edges {inner:.2f} s)", flush=True)
        edges.unlink()
        commented.unlink()
        graphs[name] = record
    return graphs


def time_rank(gm, generate, runner) -> dict:
    import numpy as np

    graphs = {}
    for name, (nodes, block_share, min_out_degree) in INGEST_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        g = gm.from_edges(planted.src, planted.dst, planted.node_count)
        del planted
        links = g.edge_count
        cache = runner.work / f"{name}.cache"
        gm.save_cache(g, cache)
        start = time.perf_counter()
        op = gm.GoogleOperator(g)
        build_s = time.perf_counter() - start
        del op
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op = gm.GoogleOperator(g)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        v = np.full(g.node_count, 1.0 / g.node_count)
        matvecs = []
        for _ in range(MATVEC_REPEATS):
            start = time.perf_counter()
            op.apply_g(v)
            matvecs.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.apply_g(v)
            matvec_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        del op
        start = time.perf_counter()
        rv = gm.pagerank(g)
        pagerank_s = time.perf_counter() - start
        del g
        children = runner.run({"rank": ["rank", cache.name, f"{name}.pr"],
                               "cheirank": ["rank", cache.name, f"{name}.cr", "--chei"]})
        cache.unlink()
        ns_per_link = 1e9 * statistics.median(matvecs) / links
        graphs[name] = {
            "node_count": nodes,
            "edge_count": links,
            "operator_build_s": build_s,
            "operator_kept_bytes_per_link": kept / links,
            "apply_g_ns_per_link": ns_per_link,
            "apply_g_runs_s": matvecs,
            "apply_g_peak_bytes_per_link": matvec_peak / links,
            "pagerank_s": pagerank_s,
            "pagerank_iterations": rv.iterations_used,
            "pagerank_converged": rv.converged,
            "children": children,
        }
        print(f"rank {name}: operator {build_s:.2f} s, {kept / links:.2f} B/link kept, "
              f"apply_g {ns_per_link:.2f} ns/link, pagerank {pagerank_s:.1f} s "
              f"({rv.iterations_used} iterations)", flush=True)
    return graphs


def time_pipeline(runner) -> dict:
    """The perfbench pipeline and ``--help`` as children; the last pass must
    pass perfbench's oracle checks."""
    from perfbench.bench import STAGES, WORKLOADS, cli_args
    from perfbench.checks import CheckLog, check_artifacts

    edges = runner.work / "edges.txt"
    records = {}
    for name, w in WORKLOADS.items():
        planted = w.graph(PIPELINE_SEED)
        edges.write_text(planted.edge_list_text())
        children = runner.run({stage: cli_args(stage, w, Path(".")) for stage in STAGES}
                              | {"help": ["--help"]}, PIPELINE_PASSES)
        log = CheckLog()
        check_artifacts(log, runner.work, planted, w.arnoldi_dim)
        if log.failed:
            raise RuntimeError(f"pipeline {name}: failed checks {log.failures}")
        records[name] = {"node_count": planted.node_count, "edge_count": planted.edge_count,
                         "checks": [result["name"] for result in log.results],
                         "children": children}
        print(f"pipeline {name}: {log.attempted} checks passed", flush=True)
    return {"seed": PIPELINE_SEED, "passes": PIPELINE_PASSES,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "workloads": records}


def decompose_graphs(gm, generate):
    """Yield ``(name, graph, max_size, block_share)`` for each ``decompose`` graph."""
    import numpy as np

    for name, (nodes, block_share, min_out_degree) in DECOMPOSE_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        yield name, gm.from_edges(planted.src, planted.dst, planted.node_count), None, block_share
    nodes, max_size = CYCLE_GRAPH
    ring = np.arange(nodes)
    yield "cycle", gm.from_edges(ring, np.roll(ring, -1), nodes), max_size, None
    nodes, links_per_node = NO_DANGLING_GRAPH
    src = np.repeat(np.arange(nodes), links_per_node)
    dst = np.random.default_rng(SEED).integers(0, nodes, src.size)
    yield "no-dangling", gm.from_edges(src, dst, nodes), None, None


def time_decompose(gm, generate) -> dict:
    graphs = {}
    for name, g, max_size, block_share in decompose_graphs(gm, generate):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            d = gm.decompose(g, max_size)
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(d.permutation.astype("<i8").tobytes())
        digest.update(d.dimensions.astype("<i8").tobytes())
        graphs[name] = {
            "node_count": g.node_count,
            "edge_count": g.edge_count,
            "block_share": block_share,
            "max_size": max_size,
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
    parser.add_argument("--layers", nargs="+", choices=LAYERS, default=list(LAYERS))
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
              "environment": environment(root) | source_state(root)}
    with tempfile.TemporaryDirectory(prefix="gmspectra-bench-") as tmp:
        # started before any graph exists: a child's wait4 peak includes the
        # peak of the process that spawned it
        runner = ChildRunner(Path(tmp), dict(os.environ, PYTHONPATH=str(root / "src")))
        try:
            if "ingest" in args.layers:
                record["ingest"] = time_ingest(gmspectra, generate, runner)
            if "rank" in args.layers:
                record["rank"] = time_rank(gmspectra, generate, runner)
            if "pipeline" in args.layers:
                record["pipeline"] = time_pipeline(runner)
        finally:
            runner.close()
    if "decompose" in args.layers:
        record["graphs"] = time_decompose(gmspectra, generate)
    if "arnoldi" in args.layers:
        record["arnoldi"] = time_arnoldi(gmspectra, generate)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    bench["runs"] = [r for r in bench["runs"] if r["label"] != args.label] + [record]
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

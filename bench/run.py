"""Run the CLI stages on seeded graphs and record the stage times their manifests give.

    python3 bench/run.py --out BENCH_<n>.json --label change
    python3 bench/run.py --out BENCH_<n>.json --label parent --root ../parent
    python3 bench/run.py --out BENCH_<n>.json --label change --layers ingest rank

Every stage runs as a CLI child. Each time recorded is the child's ``wait4``
wall or an entry of its manifest's ``timings`` (README "Manifests"): the
script keeps no timer of its own. Every graph takes one path to its
children, ``run_graph``: it is drawn once, written as the "src dst" edge list
``edges.txt`` (``WRITE_SLICE`` edges at a time), and read by an ``ingest
edges.txt g.cache --num-nodes N`` child in the same ``ChildRunner.run`` call
as the commands that read ``g.cache``. The graphs are drawn with seed 11, by
``perfbench.generator.generate`` unless said otherwise:

* ``ingest`` and ``rank``, on power-law graphs of 2e5 nodes / 1.9e6 links
  and 2e6 nodes / 2.0e7 links, ``INGEST_PASSES`` passes. The ``ingest``
  layer adds the remap id mode and ``dense-commented``, the list with a
  "# c" line after its first edge, which ``np.loadtxt`` rejects, so the
  per-line parser reads it. A ``dense-commented`` cache that differs from
  the dense one stops the run. ``parse_us_per_line`` is the parser's own
  time per line, ``graph.parse_edge_list`` less ``graph.from_edges``. The
  ``rank`` layer adds ``rank``, ``rank --chei`` and perfbench's
  ``subspaces`` and ``stats`` commands on ``g.cache``; the ``stats`` child
  reads the vectors and the decomposition of the children before it.
  ``apply_g_ns_per_link`` is the ``rank`` child's ``operator.apply_g`` per
  iteration and link. Two figures no child gives are measured here with
  ``tracemalloc``, on the ``g.cache`` the ingest child wrote: the bytes per
  link a ``GoogleOperator`` keeps and the peak of one ``apply_g`` call.
* ``decompose``: ``subspaces``, ``DECOMPOSE_PASSES`` passes, on two
  ~2e6-link graphs, one with 40 % of its nodes in planted blocks
  (subspace-rich) and one with 1 % (core-heavy), and on two graphs without a
  dangling node, built here, where the sweep from the dangling nodes marks
  nothing: an id-ordered cycle of 2e4 nodes at ``--max-size 2000``, and 2e5
  nodes with five links each to uniform random targets.
* ``arnoldi``: ``spectrum --arnoldi-dim 640``, one pass, on the ~1.96e5-node
  core of a 2e5-node graph (the Krylov basis takes ~1 GB). Its manifest
  splits ``arnoldi.arnoldi_core`` into ``arnoldi.matvec``,
  ``arnoldi.orthogonalise`` (the Gram-Schmidt passes), ``arnoldi.check``
  and ``arnoldi.eig``, each measured.
* ``pipeline``, ``PIPELINE_PASSES`` passes, on the seed-``PIPELINE_SEED``
  graph of each perfbench workload: the five commands of
  ``perfbench.bench.cli_args`` after its ``ingest`` (which is
  ``run_graph``'s, argument for argument) and ``--help``; the last pass must
  pass ``perfbench.checks.check_artifacts``.

``ChildRunner`` runs every CLI command as a child of one
``perfbench/launcher.py``, started before any graph exists, so that each
``wait4`` peak RSS is the child's own. Each pass starts by removing the
files of the runner's last pass, so a graph's commands run in the call of
its ingest child. A non-zero exit stops the run, as does a pass whose
artifacts differ from the first pass's. A child's artifacts are the files
new in its work directory; a manifest is hashed without its ``started``,
``finished``, ``timings`` and ``peak_rss_mib``, so two checkouts with the
same output give the same hashes. Each child has one record: ``argv``;
``wall_s`` and ``peak_rss_mib``, the medians of ``wall_runs_s`` and
``peak_rss_runs_mib``; ``timings``, the median of each manifest timing;
the manifest's ``flags``; and ``artifacts`` (SHA-256 by file name).

Each graph has one record: ``node_count``, ``edge_count`` (the ingest
child's), ``file_bytes`` of ``edges.txt`` and ``children``, the child
records by name, ``ingest`` first. The graphs are ``ingest[<graph>]``,
``decompose[<graph>]`` (with ``block_share`` and ``max_size``),
``arnoldi`` (with ``n_arnoldi`` and ``basis_mib``) and
``pipeline["workloads"][<workload>]`` (with ``checks``). An ingest graph
adds ``parse_us_per_line[<child>]`` for each ingest child and, with the
``rank`` layer, ``operator_kept_bytes_per_link``,
``apply_g_ns_per_link`` and ``apply_g_peak_bytes_per_link``.

``--layers`` picks the layers to run (default: all five). ``--root`` is
the checkout whose ``src/gmspectra`` runs (default: this one), so the same
script measures a parent checkout and a change on the same host; a checkout
whose manifests have no ``timings`` is measured with its own script. Each
run is stored in the ``runs`` list of ``--out`` under its ``--label``,
replacing an earlier run of that label, with the machine record of
``perfbench.machine.environment``. That record's ``git_commit`` is the
checkout's HEAD, so the run also records ``src_dirty`` (whether ``git
status`` lists changes under ``src/``; null outside a git checkout) and
``src_sha256``, a hash of the ``src/`` files run.
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
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
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
INGEST_PASSES = 2
DECOMPOSE_PASSES = 3
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
        walls, peaks, artifacts, timings = ({child: [] for child in children} for _ in range(4))
        flags = {}
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
                manifest = next((json.loads(p.read_text()) for p in new
                                 if p.name.endswith(".manifest.json")), {})
                timings[child].append(manifest.get("timings", {}))
                flags[child] = manifest.get("flags", {})
                walls[child].append(reply["wall_s"])
                peaks[child].append(reply["maxrss_kib"] / 1024)
        records = {child: {"argv": args,
                           "wall_s": statistics.median(walls[child]), "wall_runs_s": walls[child],
                           "peak_rss_mib": statistics.median(peaks[child]),
                           "peak_rss_runs_mib": peaks[child],
                           "timings": {name: statistics.median(run[name] for run in timings[child])
                                       for name in timings[child][0]},
                           "flags": flags[child], "artifacts": artifacts[child][0]}
                   for child, args in children.items()}
        print("children: " + ", ".join(f"{child} {r['wall_s']:.2f} s {r['peak_rss_mib']:.1f} MiB"
                                       for child, r in records.items()), flush=True)
        return records

    def close(self) -> None:
        self.launcher.close()


def artifact_sha256(path: Path) -> str:
    """SHA-256 of an artifact; a manifest is hashed as its sorted JSON
    without the ``started``, ``finished``, ``timings`` and ``peak_rss_mib``
    it records."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = {key: value for key, value in json.loads(data).items()
                    if key not in ("started", "finished", "timings", "peak_rss_mib")}
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def write_edge_list(src, dst, path: Path) -> None:
    """The edges ``src[i] dst[i]`` as "src dst" lines, written ``WRITE_SLICE`` at a time."""
    import numpy as np

    with open(path, "w") as fh:
        for lo in range(0, src.size, WRITE_SLICE):
            hi = min(lo + WRITE_SLICE, src.size)
            pairs = np.column_stack((src[lo:hi], dst[lo:hi])).ravel().tolist()
            fh.write(("%d %d\n" * (hi - lo)) % tuple(pairs))


def run_graph(runner, src, dst, n: int, children: dict[str, list[str]], passes: int = 1,
              commented: bool = False) -> dict:
    """Write the graph as ``edges.txt``, then run ``ingest edges.txt g.cache
    --num-nodes N`` and ``children`` in one ``runner.run`` call of ``passes``
    passes; remove the edge list and return the graph's record. With
    ``commented`` the list is also written as ``commented.txt``, with a
    "# c" line after its first edge: ``np.loadtxt`` rejects that file, so
    ingest reads it whole by the per-line parser."""
    edges, commented_edges = runner.work / "edges.txt", runner.work / "commented.txt"
    write_edge_list(src, dst, edges)
    if commented:
        with open(edges) as fh, open(commented_edges, "w") as out:
            out.write(fh.readline() + "# c\n")
            shutil.copyfileobj(fh, out)
    records = runner.run({"ingest": ["ingest", edges.name, "g.cache", "--num-nodes", str(n)]}
                         | children, passes)
    file_bytes = edges.stat().st_size
    edges.unlink()
    commented_edges.unlink(missing_ok=True)
    return {"node_count": n, "edge_count": records["ingest"]["flags"]["edge_count"],
            "file_bytes": file_bytes, "children": records}


def time_ingest(gm, generate, runner, layers) -> dict:
    """The ``ingest`` graphs: the parse modes with the ``ingest`` layer, and
    ``rank``, ``rank --chei``, ``subspaces`` and ``stats`` with the ``rank``
    layer."""
    import numpy as np
    from perfbench.bench import WORKLOADS, cli_args

    graphs = {}
    for name, (nodes, block_share, min_out_degree) in INGEST_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        children = {}
        if "ingest" in layers:
            children |= {"remap": ["ingest", "edges.txt", "remap.cache", "--id-mode", "remap"],
                         "dense-commented": ["ingest", "commented.txt", "commented.cache",
                                             "--num-nodes", str(nodes)]}
        if "rank" in layers:
            # perfbench's arguments, which read nothing of the workload
            children |= {"rank": ["rank", "g.cache", "pr"],
                         "cheirank": ["rank", "g.cache", "cr", "--chei"],
                         **{stage: cli_args(stage, WORKLOADS["rank-large"], Path("."))
                            for stage in ("subspaces", "stats")}}
        record = run_graph(runner, planted.src, planted.dst, nodes, children, INGEST_PASSES,
                           commented="ingest" in layers)
        del planted
        children, links = record["children"], record["edge_count"]
        if "ingest" in layers and (children["dense-commented"]["artifacts"]["commented.cache"]
                                   != children["ingest"]["artifacts"]["g.cache"]):
            raise RuntimeError(f"ingest {name}: the per-line parser's cache is not np.loadtxt's")
        record["parse_us_per_line"] = {}
        for mode, child in children.items():
            if child["argv"][0] != "ingest":
                continue
            csr_s = child["timings"]["graph.from_edges"]
            per_line = 1e6 * (child["timings"]["graph.parse_edge_list"] - csr_s) / links
            record["parse_us_per_line"][mode] = per_line
            print(f"ingest {name} {mode}: parse {per_line:.3f} us/line "
                  f"(+ CSR build {csr_s:.2f} s)", flush=True)
        graphs[name] = record
        if "rank" not in layers:
            continue
        # two figures no child gives, on the cache the ingest child wrote
        g = gm.load_cache(runner.work / "g.cache")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op = gm.GoogleOperator(g)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        v = np.full(g.node_count, 1.0 / g.node_count)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.apply_g(v)
            matvec_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        del op, g, v
        timings, iterations = children["rank"]["timings"], children["rank"]["flags"]["iterations"]
        ns_per_link = 1e9 * timings["operator.apply_g"] / iterations / links
        record |= {"operator_kept_bytes_per_link": kept / links,
                   "apply_g_ns_per_link": ns_per_link,
                   "apply_g_peak_bytes_per_link": matvec_peak / links}
        print(f"rank {name}: {kept / links:.2f} B/link kept, apply_g {ns_per_link:.2f} ns/link, "
              f"pagerank {timings['ranking.pagerank']:.1f} s ({iterations} iterations)",
              flush=True)
    return graphs


def time_pipeline(runner) -> dict:
    """The perfbench pipeline and ``--help`` as children; the last pass must
    pass perfbench's oracle checks."""
    from perfbench.bench import STAGES, WORKLOADS, cli_args
    from perfbench.checks import CheckLog, check_artifacts

    records = {}
    for name, w in WORKLOADS.items():
        planted = w.graph(PIPELINE_SEED)
        record = run_graph(runner, planted.src, planted.dst, planted.node_count,
                           {stage: cli_args(stage, w, Path(".")) for stage in STAGES[1:]}
                           | {"help": ["--help"]}, PIPELINE_PASSES)
        log = CheckLog()
        check_artifacts(log, runner.work, planted, w.arnoldi_dim)
        if log.failed:
            raise RuntimeError(f"pipeline {name}: failed checks {log.failures}")
        records[name] = record | {"checks": [result["name"] for result in log.results]}
        print(f"pipeline {name}: {log.attempted} checks passed", flush=True)
    return {"seed": PIPELINE_SEED, "passes": PIPELINE_PASSES,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "workloads": records}


def decompose_graphs(generate):
    """Yield ``(name, src, dst, node_count, max_size, block_share)`` for each
    ``decompose`` graph."""
    import numpy as np

    for name, (nodes, block_share, min_out_degree) in DECOMPOSE_GRAPHS.items():
        planted = generate(nodes, block_share, min_out_degree, SEED)
        yield name, planted.src, planted.dst, nodes, None, block_share
    nodes, max_size = CYCLE_GRAPH
    ring = np.arange(nodes)
    yield "cycle", ring, np.roll(ring, -1), nodes, max_size, None
    nodes, links_per_node = NO_DANGLING_GRAPH
    src = np.repeat(np.arange(nodes), links_per_node)
    dst = np.random.default_rng(SEED).integers(0, nodes, src.size)
    yield "no-dangling", src, dst, nodes, None, None


def time_decompose(generate, runner) -> dict:
    graphs = {}
    for name, src, dst, nodes, max_size, block_share in decompose_graphs(generate):
        subspaces = ["subspaces", "g.cache", name,
                     *(["--max-size", str(max_size)] if max_size else [])]
        record = run_graph(runner, src, dst, nodes, {"subspaces": subspaces}, DECOMPOSE_PASSES)
        graphs[name] = record | {"block_share": block_share, "max_size": max_size}
        print(f"{name}: decompose "
              f"{record['children']['subspaces']['timings']['subspaces.decompose']:.3f} s "
              f"(median of {DECOMPOSE_PASSES})", flush=True)
    return graphs


def time_arnoldi(generate, runner) -> dict:
    nodes, block_share, min_out_degree = ARNOLDI_GRAPH
    planted = generate(nodes, block_share, min_out_degree, SEED)
    record = run_graph(runner, planted.src, planted.dst, nodes,
                       {"spectrum": ["spectrum", "g.cache", "arnoldi",
                                     "--arnoldi-dim", str(N_ARNOLDI)]})
    child = record["children"]["spectrum"]
    core, timings = child["flags"]["core_count"], child["timings"]
    print(f"arnoldi: core={core} n_A={N_ARNOLDI} arnoldi_core "
          f"{timings['arnoldi.arnoldi_core']:.1f} s, ortho "
          f"{timings['arnoldi.orthogonalise']:.1f} s", flush=True)
    return record | {"n_arnoldi": N_ARNOLDI, "basis_mib": (N_ARNOLDI + 1) * core * 8 / 2**20}


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

    record = {"label": args.label, "seed": SEED,
              "environment": environment(root) | source_state(root)}
    with tempfile.TemporaryDirectory(prefix="gmspectra-bench-") as tmp:
        # started before any graph exists: a child's wait4 peak includes the
        # peak of the process that spawned it
        runner = ChildRunner(Path(tmp), dict(os.environ, PYTHONPATH=str(root / "src")))
        try:
            if {"ingest", "rank"} & set(args.layers):
                record["ingest"] = time_ingest(gmspectra, generate, runner, args.layers)
            if "decompose" in args.layers:
                record["decompose"] = time_decompose(generate, runner)
            if "arnoldi" in args.layers:
                record["arnoldi"] = time_arnoldi(generate, runner)
            if "pipeline" in args.layers:
                record["pipeline"] = time_pipeline(runner)
        finally:
            runner.close()
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    bench["runs"] = [r for r in bench["runs"] if r["label"] != args.label] + [record]
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

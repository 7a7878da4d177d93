"""Benchmark of the gmspectra CLI on seeded planted-subspace graphs.

One run generates a workload's graph from ``--seed``, then drives the real
CLI through the whole user pipeline (ingest, rank, rank --chei, subspaces,
spectrum, stats), one child process per command and one command at a time.

* ``--trace 0`` repeats the pipeline for about ``--seconds`` (at least
  twice) and reports the median pipeline total, the median of each pass's
  highest peak RSS and the median set-up time. Per-stage medians go to the
  run record only: on a shared 2-vCPU host their spread across runs is
  wider than any bound the benchmark could hold them to.
* ``--trace 1`` runs the pipeline once plainly and once with a span around
  every layer call, times a few layer kernels in-process, and reports the
  per-layer metrics, the plain pass's stage times among them.

After every pass each artifact is checked against the generator's oracle and
against the first pass's bytes. The last stdout line is the JSON result.
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
import time
from dataclasses import dataclass
from pathlib import Path

from . import checks, layers, machine
from .generator import PlantedGraph, generate

WORK_DIR = ".perfbench_run"
OUT_DIR = ".perfbench_out"
STAGES = ("ingest", "rank", "cheirank", "subspaces", "spectrum", "stats")
SETUP_REPEATS = 5
MIN_PASSES = 2
MAX_PASSES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    node_count: int
    block_share: float  # share of nodes inside planted blocks
    min_out_degree: int  # scale of the free nodes' power-law out-degree
    threads: int  # --threads for rank and spectrum
    arnoldi_dim: int

    def graph(self, seed: int) -> PlantedGraph:
        return generate(self.node_count, self.block_share, self.min_out_degree, seed)


# Sizes keep one pipeline pass near 15 s on 2 vCPUs, so a run of two passes
# plus set-up fits the benchmark's time budget; see perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    # Most edges per node: the matvec dominates rank and cheirank, at 2 threads.
    Workload("rank-large", 40_000, 0.01, 6, threads=2, arnoldi_dim=16),
    # 40 % of nodes in ~6k blocks: decomposition and block spectra dominate.
    Workload("pipeline-subspace-rich", 30_000, 0.40, 6, threads=1, arnoldi_dim=64),
    # n_A = 256 on a ~4e4 core: Gram-Schmidt outweighs the n_A matvecs.
    Workload("arnoldi-core", 16_000, 0.02, 4, threads=2, arnoldi_dim=256),
)}


def cli_args(stage: str, w: Workload, work: Path) -> list[str]:
    cache = str(work / "g.cache")
    threads = ["--threads", str(w.threads)]
    return {
        "ingest": ["ingest", str(work / "edges.txt"), cache, "--num-nodes", str(w.node_count)],
        "rank": threads + ["rank", cache, str(work / "pr")],
        "cheirank": threads + ["rank", cache, str(work / "cr"), "--chei"],
        "subspaces": ["subspaces", cache, str(work / "dec")],
        "spectrum": threads + ["spectrum", cache, str(work / "spec"),
                               "--arnoldi-dim", str(w.arnoldi_dim), "--vectors", "0,1"],
        "stats": ["stats", cache, str(work / "st"), "--rank", str(work / "pr.vec"),
                  "--chei", str(work / "cr.vec"), "--decomposition", str(work / "dec.json"),
                  "--fit-range", "1:4", "--grid", "log:100", "--grid", "linear:100:10000"],
    }[stage]


class Launcher:
    """Handle on perfbench/launcher.py, which runs the child processes."""

    def __init__(self, root: Path, env: dict):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log_stem: Path) -> dict:
        request = {"argv": argv, "env": self.env,
                   "stdout": f"{log_stem}.out", "stderr": f"{log_stem}.err"}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One benchmark invocation: a workload, a seed and its scratch space."""

    def __init__(self, root: Path, w: Workload, seed: int, launcher: Launcher):
        self.root, self.w, self.seed, self.launcher = root, w, seed, launcher
        self.work = root / WORK_DIR / "artifacts"
        self.logs = root / WORK_DIR / "logs"
        self.log = checks.CheckLog()
        self.planted: PlantedGraph | None = None
        self.reference_digests: dict | None = None
        self.passes: list[dict] = []
        self.stage_medians: dict[str, float] = {}
        self.setup_times: list[float] = []

    def setup(self) -> None:
        """Generate the graph and write its edge list, SETUP_REPEATS times."""
        shutil.rmtree(self.root / WORK_DIR, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.logs.mkdir()
        digests = set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            planted = self.w.graph(self.seed)
            text = planted.edge_list_text().encode()
            (self.work / "edges.txt").write_bytes(text)
            self.setup_times.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(text).hexdigest())
            self.planted = planted
        self.log.record("setup.deterministic", len(digests) == 1,
                        f"{len(digests)} distinct edge lists from one seed")

    def run_pass(self, traced: bool) -> dict:
        """Run every stage once; returns launcher replies by stage."""
        for path in self.work.iterdir():
            if path.name != "edges.txt":
                path.unlink()
        n = len(self.passes)
        results = {}
        for stage in STAGES:
            args = cli_args(stage, self.w, self.work.relative_to(self.root))
            if traced:
                spans = self.logs / f"spans-{n}-{stage}.json"
                run_id = f"{self.w.name}/seed{self.seed}/pass{n}/{stage}"
                argv = [sys.executable, "-m", "perfbench.traced_cli", str(spans), run_id, *args]
            else:
                argv = [sys.executable, "-m", "gmspectra.cli", *args]
            log_stem = self.logs / f"pass{n}-{stage}"
            reply = self.launcher.run(argv, log_stem)
            detail = f"exit code {reply['rc']}"
            if reply["rc"]:
                detail += ": " + Path(f"{log_stem}.err").read_text()[-300:].strip()
            self.log.record(f"stage.{stage}", reply["rc"] == 0, detail)
            results[stage] = reply
        checks.check_artifacts(self.log, self.work, self.planted, self.w.arnoldi_dim)
        digests = checks.artifact_digests(self.work)
        if self.reference_digests is None:
            self.reference_digests = digests
        else:
            checks.check_determinism(self.log, self.reference_digests, digests)
        self.passes.append(results)
        return results

    def measure(self, seconds: float) -> dict:
        """--trace 0: repeat the pipeline; medians of the end-to-end metrics."""
        self.setup()
        start = time.perf_counter()
        durations = []
        # Start another pass only if it should end within ``seconds``.
        while len(self.passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(durations) <= seconds
                and len(self.passes) < MAX_PASSES):
            begun = time.perf_counter()
            self.run_pass(traced=False)
            durations.append(time.perf_counter() - begun)
        self.stage_medians = {
            f"{stage}_s": statistics.median(p[stage]["wall_s"] for p in self.passes)
            for stage in STAGES}
        return {
            "setup_s": statistics.median(self.setup_times),
            "total_s": statistics.median(sum(p[s]["wall_s"] for s in STAGES) for p in self.passes),
            "peak_rss_mib": statistics.median(
                max(p[s]["maxrss_kib"] for s in STAGES) / 1024 for p in self.passes),
        }

    def trace(self) -> tuple[dict, list[dict]]:
        """--trace 1: a plain pass, a traced pass, then in-process probes."""
        self.setup()
        plain = self.run_pass(traced=False)
        traced = self.run_pass(traced=True)
        n = len(self.passes) - 1
        traces = [json.loads((self.logs / f"spans-{n}-{stage}.json").read_text())
                  for stage in STAGES]
        startup = [self.launcher.run([sys.executable, "-m", "gmspectra.cli", "--help"],
                                     self.logs / f"help{i}")["wall_s"] for i in range(3)]
        probes = layers.Probes(self.root, self.w, self.planted, self.work,
                               f"{self.w.name}/seed{self.seed}/probes", self.log)
        measured = probes.run()
        metrics = layers.per_layer_metrics(
            dict(zip(STAGES, traces)), measured, self.work, self.planted,
            plain_walls={s: plain[s]["wall_s"] for s in STAGES},
            traced_walls={s: traced[s]["wall_s"] for s in STAGES},
            startup_s=statistics.median(startup))
        self.stage_medians = {f"{stage}_s": plain[stage]["wall_s"] for stage in STAGES}
        metrics.update(self.stage_medians)
        return metrics, traces + [probes.tracer.to_json()]

    def workload_facts(self) -> dict:
        g, w = self.planted, self.w
        core = g.node_count - g.block_node_count
        # Bytes of one apply_g: in_offsets, in_indices, the gathered w[in_indices]
        # and five N-vectors; the Arnoldi basis is (n_A + 1) core vectors.
        matvec = (g.node_count + 1) * 8 + g.edge_count * (4 + 8) + 5 * g.node_count * 8
        basis = (w.arnoldi_dim + 1) * core * 8
        l3 = machine.l3_bytes()
        return {
            "workload": w.name, "seed": self.seed, "N": g.node_count, "N_l": g.edge_count,
            "dangling": int(g.dangling.size), "blocks": len(g.blocks),
            "block_nodes": g.block_node_count, "core": core, "threads": w.threads,
            "arnoldi_dim": w.arnoldi_dim,
            "matvec_working_set_mib": matvec / 2**20,
            "krylov_basis_mib": basis / 2**20,
            "working_set_over_l3": None if l3 is None else max(matvec, basis) / l3,
        }


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gmspectra" / "cli.py").is_file():
        print(f"perfbench: no gmspectra sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    units = declared_metrics(root, bool(args.trace))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(root)))
    env.pop("GMSPECTRA_THREADS", None)
    launcher = Launcher(root, env)
    try:
        run = Run(root, WORKLOADS[args.workload], args.seed, launcher)
        if args.trace:
            metrics, traces = run.trace()
        else:
            metrics, traces = run.measure(args.seconds), None
    finally:
        launcher.close()

    if metrics.keys() != units.keys():
        print(f"perfbench: metrics {sorted(metrics.keys() ^ units.keys())} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": machine.environment(root), "workload": run.workload_facts(),
              "setup_s": run.setup_times, "passes": run.passes,
              "stage_medians_s": run.stage_medians,
              "checks": run.log.results, "metrics": metrics}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traces is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(traces))
    shutil.rmtree(root / WORK_DIR, ignore_errors=True)

    log = run.log
    print(json.dumps(record["environment"]))
    print(json.dumps(record["workload"]))
    print("stage wall s: " + ", ".join(f"{k} {v:.3f}" for k, v in run.stage_medians.items()))
    for failure in log.failures:
        print(f"FAILED {failure['name']}: {failure['detail']}")
    print(f"fail_ratio {log.failed}/{log.attempted} over {len(run.passes)} passes; "
          f"record in {stem}.json")
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0

"""Per-layer metrics of a traced run.

Most layer times come from the spans of the traced CLI pass (one span list
per stage, see tracing.py). A few kernels that the CLI never runs alone are
timed here in-process by ``Probes``: ``apply_g`` at 1 and 2 threads, the
embedded core matvec of the Arnoldi stage, ``arnoldi_core`` without its
check, and the Hessenberg eigensolve.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import checks, tracing
from .generator import PlantedGraph

# Bytes one apply_g moves, counted from the arrays it touches (computed, not
# measured): per edge, in_indices (4) plus writing and reading the gathered
# w[in_indices] (8 + 8) and the read behind the gather (8); per node, the two
# offset reads (16) and the vectors v, w, 1/outdeg and out (4 * 8).
APPLY_G_BYTES_PER_EDGE = 28
APPLY_G_BYTES_PER_NODE = 48
PROBE_SECONDS = 1.5  # time budget of each repeated kernel probe


class Probes:
    """In-process timings of single kernels, with spans of their own."""

    def __init__(self, root: Path, w, planted: PlantedGraph, work: Path, run_id: str,
                 log: checks.CheckLog):
        if str(root / "src") not in sys.path:
            sys.path.insert(0, str(root / "src"))
        import gmspectra

        self.gm = gmspectra
        self.w, self.planted, self.work, self.log = w, planted, work, log
        self.tracer = tracing.Tracer(run_id)

    def _repeat(self, name: str, fn) -> float:
        """Median seconds of ``fn`` over repeats filling PROBE_SECONDS."""
        fn()  # warm-up
        times = []
        deadline = time.perf_counter() + PROBE_SECONDS
        while len(times) < 3 or time.perf_counter() < deadline:
            with self.tracer.span(name) as span:
                fn()
            times.append((span["end_ns"] - span["start_ns"]) * 1e-9)
        return statistics.median(times)

    def run(self) -> dict:
        gm, w, planted = self.gm, self.w, self.planted
        g = gm.load_cache(self.work / "g.cache")
        v = np.array(checks.read_vec(self.work / "pr.vec"))
        out = {}
        ops = {t: gm.GoogleOperator(g, threads=t) for t in (1, 2)}
        results = {t: ops[t].apply_g(v) for t in ops}
        self.log.record("operator.thread_invariant",
                        results[1].tobytes() == results[2].tobytes(),
                        "apply_g bytes at 1 and 2 threads")
        for t, op in ops.items():
            out[f"apply_g_t{t}_s"] = self._repeat(f"operator.apply_g.t{t}",
                                                  lambda op=op: op.apply_g(v))

        in_block = np.zeros(planted.node_count, dtype=bool)
        for block in planted.blocks:
            in_block[block] = True
        core = np.flatnonzero(~in_block)
        decomp = gm.SubspaceDecomposition(planted.blocks, core, planted.node_count)
        core_op = gm.GoogleOperator(g, alpha=1.0, threads=w.threads)
        embed = np.zeros(planted.node_count)
        v_core = np.full(core.size, 1.0 / np.sqrt(core.size))

        def core_matvec():  # the matvec closure of arnoldi_core
            embed[:] = 0.0
            embed[core] = v_core
            return core_op.apply_s(embed)[core]

        out["core_matvec_s"] = self._repeat("operator.core_matvec", core_matvec)
        n_arnoldi = min(w.arnoldi_dim, core.size)
        with self.tracer.span("arnoldi.arnoldi_core.nocheck") as span:
            result = gm.arnoldi_core(g, decomp, n_arnoldi, check=False, threads=w.threads)
        out["arnoldi_nocheck_s"] = (span["end_ns"] - span["start_ns"]) * 1e-9
        k = result.krylov_dimension
        square = np.ascontiguousarray(result.hessenberg[:k, :k])
        out["hessenberg_eig_s"] = self._repeat("arnoldi.hessenberg_eig",
                                               lambda: np.linalg.eig(square))
        out["n_arnoldi"] = n_arnoldi
        out["core_count"] = int(core.size)
        return out


def _flags(path: Path) -> dict:
    return json.loads(path.read_text())["flags"]


def per_layer_metrics(traces: dict[str, dict], probed: dict, work: Path,
                      planted: PlantedGraph, plain_walls: dict, traced_walls: dict,
                      startup_s: float) -> dict:
    """Every per-layer metric, from stage spans, probe timings and manifests.

    ``traces`` maps each stage to the spans and counters of its traced CLI
    run; the walls map each stage to its child's wall time.
    """
    t = tracing
    spans = {stage: trace["spans"] for stage, trace in traces.items()}
    n, edges = planted.node_count, planted.edge_count
    ingest, rank, chei = spans["ingest"], spans["rank"], spans["cheirank"]
    subs, spec, stats = spans["subspaces"], spans["spectrum"], spans["stats"]
    m = {}

    parse = t.self_time(ingest, "graph.parse_edge_list")
    m["graph.parse_edge_list_s"] = parse
    m["graph.parse_us_per_line"] = parse / edges * 1e6
    m["graph.from_edges_s"] = t.total(ingest, "graph.from_edges")
    m["graph.save_cache_s"] = t.total(ingest, "graph.save_cache")
    load = statistics.median(t.total(spans[s], "graph.load_cache") for s in spans if s != "ingest")
    m["graph.load_cache_s"] = load
    m["graph.load_cache_mib_per_s"] = (work / "g.cache").stat().st_size / 2**20 / load

    t1, t2 = probed["apply_g_t1_s"], probed["apply_g_t2_s"]
    m["operator.apply_g_t1_ns_per_edge"] = t1 / edges * 1e9
    m["operator.apply_g_t2_ns_per_edge"] = t2 / edges * 1e9
    m["operator.thread_speedup"] = t1 / t2
    moved = edges * APPLY_G_BYTES_PER_EDGE + n * APPLY_G_BYTES_PER_NODE
    m["operator.apply_g_gbps_computed"] = moved / min(t1, t2) / 1e9
    m["operator.core_matvec_ms"] = probed["core_matvec_s"] * 1e3

    pr_flags, cr_flags = _flags(work / "pr.manifest.json"), _flags(work / "cr.manifest.json")
    m["ranking.pagerank_iterations"] = pr_flags["iterations"]
    m["ranking.cheirank_iterations"] = cr_flags["iterations"]
    m["ranking.edges_touched"] = (pr_flags["iterations"] + cr_flags["iterations"]) * edges
    pagerank_s = t.total(rank, "ranking.pagerank")
    matvec_s = t.child_total(rank, "ranking.pagerank", "operator.apply_g")
    m["ranking.pagerank_s"] = pagerank_s
    m["ranking.cheirank_s"] = t.total(chei, "ranking.cheirank")
    m["ranking.pagerank_matvec_s"] = matvec_s
    m["ranking.matvec_share"] = matvec_s / pagerank_s
    m["ranking.write_rank_csv_us_per_row"] = t.total(rank, "ranking.write_rank_csv") / n * 1e6
    m["ranking.write_vector_cache_s"] = t.total(rank, "ranking.write_vector_cache")

    dec_flags = _flags(work / "dec.manifest.json")
    decompose = t.total(subs, "subspaces.decompose")
    assembly = t.child_total(subs, "subspaces.subspace_spectrum", "subspaces.subspace_block")
    m["subspaces.decompose_s"] = decompose
    m["subspaces.decompose_us_per_node"] = decompose / n * 1e6
    m["subspaces.block_assembly_s"] = assembly
    m["subspaces.block_assembly_us_per_block"] = assembly / dec_flags["subspace_count"] * 1e6
    m["subspaces.block_eigvals_s"] = t.self_time(subs, "subspaces.subspace_spectrum")
    m["subspaces.write_json_s"] = t.total(subs, "subspaces.write_decomposition_json")
    m["subspaces.subspace_count"] = dec_flags["subspace_count"]
    m["subspaces.core_count"] = dec_flags["core_count"]

    spec_flags = _flags(work / "spec.manifest.json")
    nocheck = probed["arnoldi_nocheck_s"]
    arn_matvec = probed["n_arnoldi"] * probed["core_matvec_s"]
    ortho = nocheck - arn_matvec - probed["hessenberg_eig_s"]
    m["arnoldi.arnoldi_core_s"] = nocheck
    m["arnoldi.check_s"] = t.total(spec, "arnoldi.arnoldi_core") - nocheck
    m["arnoldi.matvec_s"] = arn_matvec
    m["arnoldi.hessenberg_eig_s"] = probed["hessenberg_eig_s"]
    m["arnoldi.ortho_s"] = ortho
    m["arnoldi.ortho_share"] = ortho / nocheck
    m["arnoldi.basis_mib_computed"] = (probed["n_arnoldi"] + 1) * probed["core_count"] * 8 / 2**20
    m["arnoldi.write_spectrum_csv_s"] = t.total(spec, "arnoldi.write_spectrum_csv")
    m["arnoldi.krylov_dimension"] = spec_flags["krylov_dimension"]
    m["arnoldi.ortho_defect"] = spec_flags["ortho_defect"]
    m["arnoldi.relation_residual"] = spec_flags["relation_residual"]

    m["stats.correlator_s"] = t.total(stats, "stats.correlator")
    m["stats.density_2d_s"] = t.total(stats, "stats.density_2d")
    m["stats.n_k_counts_s"] = t.total(stats, "stats.n_k_counts")
    m["stats.ng_filling_s"] = t.total(stats, "stats.ng_filling")
    m["stats.powerlaw_fit_s"] = t.total(stats, "stats.powerlaw_fit")
    m["stats.write_csv_s"] = (t.total(stats, "stats.write_grid_csv")
                              + t.total(stats, "stats.write_curve_csv"))

    m["manifest.sha256_s"] = sum(t.total(s, "manifest.sha256_of") for s in spans.values())
    m["manifest.bytes_hashed"] = sum(trace["counters"].get("manifest.bytes_hashed", 0)
                                     for trace in traces.values())

    m["cli.startup_s"] = startup_s
    for stage, stage_spans in spans.items():
        wall = traced_walls[stage]
        covered = t.total(stage_spans, "cli.main") - t.self_time(stage_spans, "cli.main")
        m[f"cli.unaccounted_share.{stage}"] = (wall - covered) / wall
    m["trace.overhead_s"] = sum(traced_walls.values()) - sum(plain_walls.values())
    return m

"""Command-line front end: ingest, rank, subspaces, spectrum, stats.

Each command reads/writes file-based intermediates so long stages are
resumable and auditable, writes outputs atomically, and records a manifest
with parameters and artifact checksums next to its outputs.

Exit codes: 0 success (non-convergence is a manifest flag, not an error),
2 missing input, 3 parameter or configuration error, 4 malformed input
data (edge list or cache), 5 compute error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import arnoldi as arn
from . import graph as gr
from . import ranking as rk
from . import stats as st
from . import subspaces as sub
from .manifest import RunManifest, atomic_write

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_BAD_PARAMETER = 3
EXIT_BAD_DATA = 4
EXIT_COMPUTE = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _require_file(path):
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING_INPUT, f"input not found: {path}")
    return path


def _load_graph(path) -> gr.DirectedGraph:
    _require_file(path)
    try:
        return gr.load_cache(path)
    except gr.CacheError as exc:
        raise CliError(EXIT_BAD_DATA, str(exc)) from exc


def _load_vector(path, n) -> np.ndarray:
    _require_file(path)
    try:
        vec = rk.read_vector_cache(path)
    except gr.CacheError as exc:
        raise CliError(EXIT_BAD_DATA, str(exc)) from exc
    if vec.size != n:
        raise CliError(EXIT_BAD_DATA, f"{path}: vector length {vec.size} != N={n}")
    return vec


def _manifest(args) -> RunManifest:
    """A manifest for the command that records every parsed option."""
    return RunManifest(args.command, {key: value for key, value in vars(args).items()
                                      if key not in ("func", "command")})


def cmd_ingest(args) -> int:
    manifest = _manifest(args)
    _require_file(args.edge_list)
    manifest.add_input(args.edge_list)
    try:
        g = gr.parse_edge_list(args.edge_list, id_mode=args.id_mode,
                               num_nodes=args.num_nodes)
    except (gr.EdgeListParseError, gr.NodeRangeError) as exc:
        raise CliError(EXIT_BAD_DATA, str(exc)) from exc
    except gr.EmptyEdgeListError as exc:
        raise CliError(EXIT_BAD_DATA, f"{args.edge_list}: no edge, and no --num-nodes "
                                      "to give the graph its nodes") from exc
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_BAD_DATA, f"{args.edge_list}: not UTF-8 text ({exc.reason})") from exc
    gr.save_cache(g, args.cache)
    manifest.add_output(args.cache)
    if g.original_ids is not None:
        ids_path = f"{args.cache}.ids"
        with atomic_write(ids_path) as fh:
            st.write_rows(fh, g.original_ids)
        manifest.add_output(ids_path)
    dangling_count = g.dangling_nodes.size
    manifest.set_flag("node_count", g.node_count)
    manifest.set_flag("edge_count", g.edge_count)
    manifest.set_flag("dangling_count", dangling_count)
    manifest.write(f"{args.cache}.manifest.json")
    print(f"ingested {g.node_count} nodes, {g.edge_count} edges "
          f"({dangling_count} dangling) -> {args.cache}")
    return EXIT_OK


def cmd_rank(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise CliError(EXIT_BAD_PARAMETER, f"--alpha must be in (0, 1), got {args.alpha}")
    if args.tol <= 0 or args.max_iter < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--tol must be > 0 and --max-iter >= 1")
    manifest = _manifest(args)
    g = _load_graph(args.cache)
    manifest.add_input(args.cache)
    compute = rk.cheirank if args.chei else rk.pagerank
    rv = compute(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter,
                 threads=args.threads)
    csv_path, vec_path = f"{args.out}.csv", f"{args.out}.vec"
    rk.write_rank_csv(rv, csv_path)
    rk.write_vector_cache(rv.probabilities, vec_path)
    manifest.add_output(csv_path)
    manifest.add_output(vec_path)
    manifest.set_flag("converged", rv.converged)
    manifest.set_flag("iterations", rv.iterations_used)
    manifest.set_flag("residual", rv.residual)
    manifest.write(f"{args.out}.manifest.json")
    kind = "cheirank" if args.chei else "pagerank"
    note = "" if rv.converged else " (NOT converged)"
    print(f"{kind}: {rv.iterations_used} iterations, residual {rv.residual:.3e}{note}")
    return EXIT_OK


def _decomposed_graph(args, manifest):
    """Load the cache (link-inverted with ``--inverted``) and decompose it with
    ``--max-size`` (default from N); returns ``(g, decomp, dense_limit)``.
    ``--max-size`` and ``--dense-limit`` must be >= 1."""
    g = _load_graph(args.cache)
    manifest.add_input(args.cache)
    if args.inverted:
        g = gr.invert(g)
    max_size = sub.default_max_size(g.node_count) if args.max_size is None else args.max_size
    if max_size < 1 or args.dense_limit < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--max-size and --dense-limit must be >= 1")
    return g, sub.decompose(g, max_size=max_size), args.dense_limit


def cmd_subspaces(args) -> int:
    manifest = _manifest(args)
    g, decomp, dense_limit = _decomposed_graph(args, manifest)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=dense_limit)
    json_path = f"{args.out}.json"
    csv_path = f"{args.out}.spectrum.csv"
    sub.write_decomposition_json(decomp, json_path, member_limit=args.member_limit)
    arn.write_spectrum_csv(csv_path, spectrum, None)
    manifest.add_output(json_path)
    manifest.add_output(csv_path)
    manifest.set_flag("subspace_count", decomp.subspace_count)
    manifest.set_flag("subspace_node_count", decomp.subspace_node_count)
    manifest.set_flag("core_count", decomp.core_count)
    manifest.set_flag("skipped_blocks", spectrum.skipped)
    manifest.set_flag("unit_modulus_count", spectrum.unit_modulus_count)
    manifest.set_flag("unit_eigenvalue_count", spectrum.unit_eigenvalue_count)
    manifest.write(f"{args.out}.manifest.json")
    print(f"{decomp.subspace_count} subspaces covering "
          f"{decomp.subspace_node_count} nodes, core {decomp.core_count}; "
          f"{spectrum.unit_eigenvalue_count} unit eigenvalues")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    manifest = _manifest(args)
    if args.arnoldi_dim < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--arnoldi-dim must be >= 1")
    vector_indices = _parse_indices(args.vectors) if args.vectors else None
    g, decomp, dense_limit = _decomposed_graph(args, manifest)
    if decomp.core_count == 0:
        raise CliError(EXIT_COMPUTE, "core space is empty; nothing for the Arnoldi stage")
    n_arnoldi = min(args.arnoldi_dim, decomp.core_count)
    need = arn.memory_estimate(g.node_count, g.edge_count, decomp.core_count, n_arnoldi,
                               len(set(vector_indices or ())))
    if args.max_ram is not None and need > args.max_ram * 2**30:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"spectrum stage needs ~{need / 2**30:.2f} GiB of arrays, "
                       f"over the --max-ram cap of {args.max_ram} GiB")
    # arnoldi_core rejects a Ritz index >= n_arnoldi before it does any work,
    # so it runs ahead of the block spectra
    result = arn.arnoldi_core(g, decomp, n_arnoldi, vector_indices=vector_indices,
                              threads=args.threads)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=dense_limit)
    csv_path = f"{args.out}.csv"
    arn.write_spectrum_csv(csv_path, spectrum, result)
    manifest.add_output(csv_path)
    if result.ritz_vectors:
        for idx, vec in sorted(result.ritz_vectors.items()):
            profile = arn.eigvec_profile(vec)
            path = f"{args.out}.vec{idx}.csv"
            st.write_curve_csv(path, "rank,modulus", profile.ranks, profile.moduli)
            manifest.add_output(path)
    manifest.set_flag("krylov_dimension", result.krylov_dimension)
    manifest.set_flag("breakdown", result.breakdown)
    manifest.set_flag("ortho_defect", result.ortho_defect)
    manifest.set_flag("relation_residual", result.relation_residual)
    manifest.write(f"{args.out}.manifest.json")
    lam1 = result.ritz_values[0]
    print(f"core spectrum: {result.ritz_values.size} Ritz values, "
          f"leading |lambda| = {abs(lam1):.8f}")
    return EXIT_OK


def _parse_indices(spec: str) -> list[int]:
    try:
        indices = [int(tok) for tok in spec.split(",")]
    except ValueError:
        indices = None
    if indices is None or min(indices) < 0:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"--vectors expects comma-separated non-negative indices, got {spec!r}")
    return indices


def _parse_grid(spec: str):
    parts = spec.split(":")
    if parts[0] == "log" and len(parts) == 2:
        return ("log", {"cells": int(parts[1])})
    if parts[0] == "linear" and len(parts) == 3:
        return ("linear", {"cell_size": int(parts[1]), "rank_limit": int(parts[2])})
    raise CliError(EXIT_BAD_PARAMETER,
                   f"--grid expects log:CELLS or linear:CELL_SIZE:LIMIT, got {spec!r}")


def _load_dimensions(path) -> np.ndarray:
    """Subspace dimensions listed in a decomposition .json."""
    try:
        with open(path) as fh:
            dims = np.asarray([entry["dimension"] for entry in json.load(fh)["subspaces"]],
                              dtype=np.int64)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_BAD_DATA,
                       f"{path}: not a decomposition file ({type(exc).__name__}: {exc})") from exc
    if np.any(dims < 1):
        raise CliError(EXIT_BAD_DATA, f"{path}: subspace dimensions must be >= 1")
    return dims


def _parse_range(spec, option: str, meaning: str) -> tuple[float, float] | None:
    if not spec:
        return None
    try:
        lo, hi = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"{option} expects {meaning}, got {spec!r}") from None
    return lo, hi


def cmd_stats(args) -> int:
    manifest = _manifest(args)
    g = _load_graph(args.cache)
    manifest.add_input(args.cache)
    n = g.node_count
    p = _load_vector(_require_file(args.rank), n)
    p_star = _load_vector(_require_file(args.chei), n)
    manifest.add_input(args.rank)
    manifest.add_input(args.chei)
    k, _ = rk.rank_indices(p)
    k_star, _ = rk.rank_indices(p_star)

    # every input is checked and every observable computed before the first
    # write, so a failing run leaves no partial report bundle
    report = st.correlator(p, p_star)
    grid_specs = [(spec, *_parse_grid(spec)) for spec in (args.grid or ["log:100"])]
    fit_range = _parse_range(args.fit_range, "--fit-range", "LO:HI in log10 rank")
    tail_range = _parse_range(args.tail_range, "--tail-range", "LO:HI")
    fits = {}
    try:
        grids = [(spec, st.density_2d(k, k_star, mode=mode, **kwargs))
                 for spec, mode, kwargs in grid_specs]
        if fit_range is not None:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            for name, vec in (("pagerank", p), ("cheirank", p_star)):
                fits[name] = st.powerlaw_fit(ranks, np.sort(vec)[::-1], fit_range).to_json()
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMETER, str(exc)) from exc
    k_values = np.round(np.logspace(0, np.log10(n), 64)).astype(np.int64)
    k_values = k_values[np.append(True, k_values[1:] != k_values[:-1])]
    nk = st.n_k_counts(k, k_star, k_values)
    filling = st.ng_filling(g, k, k_values)
    curve = None
    if args.decomposition:
        _require_file(args.decomposition)
        manifest.add_input(args.decomposition)
        dims = _load_dimensions(args.decomposition)
        if dims.size:
            curve = st.subspace_fraction(dims, tail_range=tail_range)
            manifest.set_flag("mean_subspace_dimension", curve.mean_dimension)
            if curve.tail_fit is not None:
                fits["subspace_fraction_tail"] = curve.tail_fit.to_json()

    corr_path = f"{args.out}.correlator.json"
    with atomic_write(corr_path) as fh:
        json.dump({"kappa": report.kappa, "underflow": report.underflow,
                   "overflow": report.overflow}, fh, indent=1)
        fh.write("\n")
    manifest.add_output(corr_path)
    hist_path = f"{args.out}.kappa_hist.csv"
    st.write_curve_csv(hist_path, "bin_low,bin_high,count",
                       report.bin_edges[:-1], report.bin_edges[1:], report.histogram)
    manifest.add_output(hist_path)
    for spec, grid in grids:
        path = f"{args.out}.density_{spec.replace(':', '_')}.csv"
        st.write_grid_csv(grid, path)
        manifest.add_output(path)
    nk_path = f"{args.out}.nk.csv"
    st.write_curve_csv(nk_path, "k,n_k", k_values, nk)
    manifest.add_output(nk_path)
    ng_path = f"{args.out}.ng.csv"
    st.write_curve_csv(ng_path, "k,n_g,area_density,linear_density", filling.k_values,
                       filling.n_g, filling.area_density, filling.linear_density)
    manifest.add_output(ng_path)
    if curve is not None:
        frac_path = f"{args.out}.fraction.csv"
        st.write_curve_csv(frac_path, "x,fraction", curve.x, curve.fraction)
        manifest.add_output(frac_path)
    if fits:
        fits_path = f"{args.out}.fits.json"
        with atomic_write(fits_path) as fh:
            json.dump(fits, fh, indent=1, sort_keys=True)
            fh.write("\n")
        manifest.add_output(fits_path)

    manifest.set_flag("kappa", report.kappa)
    manifest.write(f"{args.out}.manifest.json")
    print(f"kappa = {report.kappa:.6g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, a bad parameter, rather
    than argparse's 2, which would read as a missing input; sub-parsers are
    made of the same class."""

    def error(self, message):
        raise CliError(EXIT_BAD_PARAMETER, f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmspectra",
        description="Google-matrix spectral analysis of directed networks")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count, >= 1, recorded in the manifests; the "
                             "matrix-vector stages run on one thread (see README) and "
                             "output bytes do not depend on it (default: 1)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="parse an edge list into a binary cache")
    p.add_argument("edge_list")
    p.add_argument("cache")
    p.add_argument("--id-mode", choices=("dense", "remap"), default="dense")
    p.add_argument("--num-nodes", type=int, default=None,
                   help="declared N for dense mode; ids must be < N")
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("rank", help="PageRank or CheiRank by power iteration")
    p.add_argument("cache")
    p.add_argument("out", help="output prefix: writes .csv, .vec, .manifest.json")
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=rk.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=rk.DEFAULT_MAX_ITER)
    p.add_argument("--chei", action="store_true", help="rank the link-inverted network")
    p.set_defaults(func=cmd_rank)

    p = commands.add_parser("subspaces",
                            help="invariant-subspace decomposition and block spectra")
    p.add_argument("cache")
    p.add_argument("out", help="output prefix: writes .json, .spectrum.csv")
    p.add_argument("--max-size", type=int, default=None,
                   help="closure size cutoff (default min(1e5, N/10))")
    p.add_argument("--dense-limit", type=int, default=sub.DEFAULT_DENSE_LIMIT)
    p.add_argument("--inverted", action="store_true")
    p.add_argument("--member-limit", type=int, default=None,
                   help="omit member lists for subspaces larger than this")
    p.set_defaults(func=cmd_subspaces)

    p = commands.add_parser("spectrum", help="core-space spectrum by the Arnoldi method")
    p.add_argument("cache")
    p.add_argument("out", help="output prefix: writes .csv and eigenvector profiles")
    p.add_argument("--arnoldi-dim", type=int, default=640)
    p.add_argument("--inverted", action="store_true")
    p.add_argument("--vectors", default=None,
                   help="comma-separated Ritz indices whose profiles to export")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--dense-limit", type=int, default=sub.DEFAULT_DENSE_LIMIT)
    p.add_argument("--max-ram", type=float, default=None,
                   help="fail fast if the command's numpy arrays would exceed this many "
                        "GiB: the graph, the operator's in-link index and its "
                        "N-length vectors, the Krylov basis (dim+1 core vectors), the "
                        "Hessenberg matrix and its eigenvectors, and the requested "
                        "complex Ritz vectors; the interpreter and numpy itself are "
                        "not counted")
    p.set_defaults(func=cmd_spectrum)

    p = commands.add_parser("stats", help="correlator, densities, N_K/N_G, fits")
    p.add_argument("cache")
    p.add_argument("out", help="output prefix for the report bundle")
    p.add_argument("--rank", required=True, help="PageRank .vec file")
    p.add_argument("--chei", required=True, help="CheiRank .vec file")
    p.add_argument("--decomposition", default=None,
                   help="decomposition .json for the subspace-dimension curve")
    p.add_argument("--grid", action="append", default=None,
                   help="density grid spec: log:CELLS or linear:CELL_SIZE:LIMIT "
                        "(default log:100)")
    p.add_argument("--fit-range", default=None,
                   help="log10 rank range LO:HI for P(K), P*(K*) power-law fits")
    p.add_argument("--tail-range", default=None,
                   help="x range LO:HI for the subspace-fraction tail fit")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise CliError(EXIT_BAD_PARAMETER, f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except CliError as exc:
        print(f"gmspectra: {exc}", file=sys.stderr)
        return exc.code
    except np.linalg.LinAlgError as exc:  # a ValueError, but a compute failure
        print(f"gmspectra: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be written or read
        print(f"gmspectra: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: ingest, rank, subspaces, spectrum, stats.

Each command reads/writes file-based intermediates so long stages are
resumable and auditable, writes outputs atomically, and returns the flags
of its run; ``main`` records them in a manifest with the parameters and the
checksums of every input and artifact, next to the command's outputs.

Exit codes: 0 success (non-convergence is a manifest flag, not an error),
2 missing input, 3 parameter or configuration error, 4 malformed input
data (edge list or cache), 5 compute error, running out of memory included.
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
from .manifest import atomic_write, record_input, recorded_run, write_json

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
    """The CLI's one input gate: a missing file exits 2, and a present one is
    recorded as an input of the run."""
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING_INPUT, f"input not found: {path}")
    record_input(path)
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


def cmd_ingest(args) -> dict:
    _require_file(args.edge_list)
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
    if g.original_ids is not None:
        with atomic_write(f"{args.cache}.ids") as fh:
            st.write_rows(fh, g.original_ids)
    dangling_count = g.dangling_nodes.size
    print(f"ingested {g.node_count} nodes, {g.edge_count} edges "
          f"({dangling_count} dangling) -> {args.cache}")
    return {"node_count": g.node_count, "edge_count": g.edge_count,
            "dangling_count": dangling_count}


def cmd_rank(args) -> dict:
    if not 0.0 < args.alpha < 1.0:
        raise CliError(EXIT_BAD_PARAMETER, f"--alpha must be in (0, 1), got {args.alpha}")
    if not 0.0 < args.tol < np.inf or args.max_iter < 1:  # a NaN tol fails the test
        raise CliError(EXIT_BAD_PARAMETER, "--tol must be finite and > 0 and --max-iter >= 1")
    g = _load_graph(args.cache)
    compute = rk.cheirank if args.chei else rk.pagerank
    rv = compute(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter,
                 threads=args.threads)
    rk.write_rank_csv(rv, f"{args.out}.csv")
    rk.write_vector_cache(rv.probabilities, f"{args.out}.vec")
    kind = "cheirank" if args.chei else "pagerank"
    note = "" if rv.converged else " (NOT converged)"
    print(f"{kind}: {rv.iterations_used} iterations, residual {rv.residual:.3e}{note}")
    return {"converged": rv.converged, "iterations": rv.iterations_used,
            "residual": rv.residual}


def _decomposed_graph(args):
    """Load the cache and decompose it, or with ``--inverted`` the graph G*
    with every link reversed, with ``--max-size`` (default from N); returns
    ``(g, loaded, decomp, dense_limit)``, where ``g`` is the decomposed
    graph and ``loaded`` the cache's. G*'s in-links are the loaded graph's
    out-links, so ``--inverted`` sorts the links once, for G*'s out-links,
    and hands the loaded graph on as G*'s in-links. ``--max-size`` and
    ``--dense-limit`` must be >= 1."""
    loaded = _load_graph(args.cache)
    g = gr.invert(loaded) if args.inverted else loaded
    max_size = sub.default_max_size(g.node_count) if args.max_size is None else args.max_size
    if max_size < 1 or args.dense_limit < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--max-size and --dense-limit must be >= 1")
    decomp = sub.decompose(g, max_size=max_size, inverse=loaded if args.inverted else None)
    return g, loaded, decomp, args.dense_limit


def cmd_subspaces(args) -> dict:
    if args.member_limit is not None and args.member_limit < 0:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"--member-limit must be >= 0, got {args.member_limit}")
    g, _, decomp, dense_limit = _decomposed_graph(args)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=dense_limit)
    sub.write_decomposition_json(decomp, f"{args.out}.json", member_limit=args.member_limit)
    arn.write_spectrum_csv(f"{args.out}.spectrum.csv", spectrum, None)
    print(f"{decomp.subspace_count} subspaces covering "
          f"{decomp.subspace_node_count} nodes, core {decomp.core_count}; "
          f"{spectrum.unit_eigenvalue_count} unit eigenvalues")
    return {"subspace_count": decomp.subspace_count,
            "subspace_node_count": decomp.subspace_node_count,
            "core_count": decomp.core_count, "skipped_blocks": spectrum.skipped,
            "unit_modulus_count": spectrum.unit_modulus_count,
            "unit_eigenvalue_count": spectrum.unit_eigenvalue_count}


def cmd_spectrum(args) -> dict:
    if args.arnoldi_dim < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--arnoldi-dim must be >= 1")
    if args.max_ram is not None and not args.max_ram > 0:  # a NaN cap fails the test
        raise CliError(EXIT_BAD_PARAMETER,
                       f"--max-ram must be > 0 GiB, got {args.max_ram}")
    vector_indices = _parse_indices(args.vectors) if args.vectors else None
    g, loaded, decomp, dense_limit = _decomposed_graph(args)
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
    result = arn.arnoldi_core(loaded, decomp, n_arnoldi, vector_indices=vector_indices,
                              threads=args.threads, inverted=args.inverted)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=dense_limit)
    arn.write_spectrum_csv(f"{args.out}.csv", spectrum, result)
    if result.ritz_vectors:
        for idx, vec in sorted(result.ritz_vectors.items()):
            profile = arn.eigvec_profile(vec)
            st.write_curve_csv(f"{args.out}.vec{idx}.csv", "rank,modulus", profile.ranks,
                               profile.moduli)
    lam1 = result.ritz_values[0]
    print(f"core spectrum: {result.ritz_values.size} Ritz values, "
          f"leading |lambda| = {abs(lam1):.8f}")
    return {"krylov_dimension": result.krylov_dimension, "breakdown": result.breakdown,
            "ortho_defect": result.ortho_defect,
            "relation_residual": result.relation_residual}


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
    kind, *values = spec.split(":")
    try:
        if kind == "log" and len(values) == 1:
            return ("log", {"cells": int(values[0])})
        if kind == "linear" and len(values) == 2:
            return ("linear", {"cell_size": int(values[0]), "rank_limit": int(values[1])})
    except ValueError:
        pass
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


def cmd_stats(args) -> dict:
    g = _load_graph(args.cache)
    n = g.node_count
    p = _load_vector(args.rank, n)
    p_star = _load_vector(args.chei, n)
    k, _ = rk.rank_indices(p)
    k_star, _ = rk.rank_indices(p_star)

    # every input is checked and every observable computed before the first
    # write, so a failing run leaves no partial report bundle
    report = st.correlator(p, p_star)
    grid_specs = [(spec, *_parse_grid(spec)) for spec in (args.grid or ["log:100"])]
    fit_range = _parse_range(args.fit_range, "--fit-range", "LO:HI in log10 rank")
    tail_range = _parse_range(args.tail_range, "--tail-range", "LO:HI")
    fits, flags = {}, {"kappa": report.kappa}
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
        dims = _load_dimensions(_require_file(args.decomposition))
        if dims.size:
            curve = st.subspace_fraction(dims, tail_range=tail_range)
            flags["mean_subspace_dimension"] = curve.mean_dimension
            if curve.tail_fit is not None:
                fits["subspace_fraction_tail"] = curve.tail_fit.to_json()

    write_json(f"{args.out}.correlator.json", {"kappa": report.kappa,
                                               "underflow": report.underflow,
                                               "overflow": report.overflow})
    st.write_curve_csv(f"{args.out}.kappa_hist.csv", "bin_low,bin_high,count",
                       report.bin_edges[:-1], report.bin_edges[1:], report.histogram)
    for spec, grid in grids:
        st.write_grid_csv(grid, f"{args.out}.density_{spec.replace(':', '_')}.csv")
    st.write_curve_csv(f"{args.out}.nk.csv", "k,n_k", k_values, nk)
    st.write_curve_csv(f"{args.out}.ng.csv", "k,n_g,area_density,linear_density",
                       filling.k_values, filling.n_g, filling.area_density,
                       filling.linear_density)
    if curve is not None:
        st.write_curve_csv(f"{args.out}.fraction.csv", "x,fraction", curve.x, curve.fraction)
    if fits:
        write_json(f"{args.out}.fits.json", fits, sort_keys=True)
    print(f"kappa = {report.kappa:.6g}")
    return flags


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
        # every parsed option is a parameter; the manifest goes beside the outputs
        parameters = {key: value for key, value in vars(args).items()
                      if key not in ("func", "command")}
        prefix = args.cache if args.command == "ingest" else args.out
        try:
            with recorded_run(args.command, parameters, prefix) as manifest:
                manifest.data["flags"].update(args.func(args))
        except MemoryError as exc:  # numpy's names the array it could not allocate
            raise CliError(EXIT_COMPUTE, f"{args.command}: out of memory: {exc}") from exc
        return EXIT_OK
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

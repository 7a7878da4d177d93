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
import re
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
    """The CLI's one input gate: a missing file or a directory exits 2, and
    a present file is recorded as an input of the run."""
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING_INPUT, f"input not found: {path}")
    if os.path.isdir(path):
        raise CliError(EXIT_MISSING_INPUT, f"input is a directory, not a file: {path}")
    record_input(path)
    return path


def _load_graph(path) -> gr.DirectedGraph:
    _require_file(path)
    try:
        return gr.load_cache(path)
    except gr.CacheError as exc:
        raise CliError(EXIT_BAD_DATA, str(exc)) from exc


def _load_vector(path, n) -> np.ndarray:
    """A rank vector of length ``n`` whose entries are finite and >= 0."""
    _require_file(path)
    try:
        vec = rk.read_vector_cache(path)
    except gr.CacheError as exc:
        raise CliError(EXIT_BAD_DATA, str(exc)) from exc
    if vec.size != n:
        raise CliError(EXIT_BAD_DATA, f"{path}: vector length {vec.size} != N={n}")
    if not np.all((vec >= 0) & (vec < np.inf)):  # a NaN fails both
        raise CliError(EXIT_BAD_DATA, f"{path}: entries must be finite and >= 0")
    return vec


def cmd_ingest(args) -> dict:
    if args.id_mode == "remap" and args.num_nodes is not None:  # before the input is looked for
        raise CliError(EXIT_BAD_PARAMETER, "--num-nodes applies to --id-mode dense only; "
                                           "remap mode counts the ids")
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
    g = _load_graph(args.cache)
    compute = rk.cheirank if args.chei else rk.pagerank
    rv = compute(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    rk.write_rank_csv(rv, f"{args.out}.csv")
    rk.write_vector_cache(rv.probabilities, f"{args.out}.vec")
    kind = "cheirank" if args.chei else "pagerank"
    note = "" if rv.converged else " (NOT converged)"
    print(f"{kind}: {rv.iterations_used} iterations, residual {rv.residual:.3e}{note}")
    return {"converged": rv.converged, "iterations": rv.iterations_used,
            "residual": rv.residual}


def _decomposed_graph(args):
    """Load the cache and decompose it, or with ``--inverted`` the graph G*
    with every link reversed, with ``--max-size`` (``decompose`` defaults it
    from N); returns ``(g, loaded, decomp)``, where ``g`` is the decomposed
    graph and ``loaded`` the cache's. G*'s in-links are the loaded graph's
    out-links, so ``--inverted`` sorts the links once, for G*'s out-links,
    and hands the loaded graph on as G*'s in-links."""
    loaded = _load_graph(args.cache)
    g = gr.invert(loaded) if args.inverted else loaded
    decomp = sub.decompose(g, max_size=args.max_size,
                           inverse=loaded if args.inverted else None)
    return g, loaded, decomp


def cmd_subspaces(args) -> dict:
    g, _, decomp = _decomposed_graph(args)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=args.dense_limit)
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
    g, loaded, decomp = _decomposed_graph(args)
    if decomp.core_count == 0:
        raise CliError(EXIT_COMPUTE, "core space is empty; nothing for the Arnoldi stage")
    n_arnoldi = min(args.arnoldi_dim, decomp.core_count)
    need = arn.memory_estimate(g.node_count, g.edge_count, decomp.core_count, n_arnoldi,
                               len(set(args.vectors or ())))
    if args.max_ram is not None and need > args.max_ram * 2**30:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"spectrum stage needs ~{need / 2**30:.2f} GiB of arrays, "
                       f"over the --max-ram cap of {args.max_ram} GiB")
    # arnoldi_core rejects a Ritz index >= n_arnoldi before it does any work,
    # so it runs ahead of the block spectra
    result = arn.arnoldi_core(loaded, decomp, n_arnoldi, vector_indices=args.vectors,
                              inverted=args.inverted)
    spectrum = sub.subspace_spectrum(g, decomp, dense_limit=args.dense_limit)
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
            "relation_residual": result.relation_residual, "core_count": decomp.core_count,
            "converged_count": int(np.count_nonzero(result.converged_mask))}


def _load_dimensions(path) -> np.ndarray:
    """Subspace dimensions listed in a decomposition .json: JSON integers,
    not booleans, in [1, 2**63)."""
    try:
        with open(path) as fh:
            dims = [entry["dimension"] for entry in json.load(fh)["subspaces"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_BAD_DATA,
                       f"{path}: not a decomposition file ({type(exc).__name__}: {exc})") from exc
    if not all(type(d) is int and 1 <= d < 2**63 for d in dims):
        raise CliError(EXIT_BAD_DATA, f"{path}: subspace dimensions must be integers "
                                      "in [1, 2**63)")
    return np.asarray(dims, dtype=np.int64)


def cmd_stats(args) -> dict:
    g = _load_graph(args.cache)
    n = g.node_count
    p = _load_vector(args.rank, n)
    p_star = _load_vector(args.chei, n)
    k, order = rk.rank_indices(p)
    k_star, order_star = rk.rank_indices(p_star)

    # every input is checked and every observable computed before the first
    # write, so a failing run leaves no partial report bundle
    report = st.correlator(p, p_star)
    fits, flags = {}, {"kappa": report.kappa}
    grids = [(grid, st.density_2d(k, k_star, **grid))
             for grid in args.grid or [_grid("log:100")]]
    if args.fit_range is not None:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        try:  # a range that holds fewer than 3 ranks
            for name, vec, node_at_rank in (("pagerank", p, order),
                                            ("cheirank", p_star, order_star)):
                fits[name] = st.powerlaw_fit(ranks, vec[node_at_rank], args.fit_range).to_json()
        except ValueError as exc:
            raise CliError(EXIT_BAD_PARAMETER, f"--fit-range: {exc}") from exc
    k_values = np.round(np.logspace(0, np.log10(n), 64)).astype(np.int64)
    k_values = k_values[np.append(True, k_values[1:] != k_values[:-1])]
    nk = st.n_k_counts(k, k_star, k_values)
    filling = st.ng_filling(g, k, k_values)
    curve = None
    if args.decomposition:
        dims = _load_dimensions(_require_file(args.decomposition))
        if dims.size or args.tail_range is not None:
            try:  # no subspace, or a range that holds fewer than 3 curve points
                curve = st.subspace_fraction(dims, tail_range=args.tail_range)
            except ValueError as exc:
                raise CliError(EXIT_BAD_PARAMETER,
                               f"--tail-range on {args.decomposition}: {exc}") from exc
            flags["mean_subspace_dimension"] = curve.mean_dimension
            if curve.tail_fit is not None:
                fits["subspace_fraction_tail"] = curve.tail_fit.to_json()

    write_json(f"{args.out}.correlator.json", {"kappa": report.kappa,
                                               "underflow": report.underflow,
                                               "overflow": report.overflow})
    st.write_curve_csv(f"{args.out}.kappa_hist.csv", "bin_low,bin_high,count",
                       report.bin_edges[:-1], report.bin_edges[1:], report.histogram)
    for grid, density in grids:  # density_log_100.csv, density_linear_10_1000.csv
        st.write_grid_csv(density, f"{args.out}.density_{'_'.join(map(str, grid.values()))}.csv")
    st.write_curve_csv(f"{args.out}.nk.csv", "k,n_k", k_values, nk)
    st.write_curve_csv(f"{args.out}.ng.csv", "k,n_g,area_density,linear_density",
                       k_values, filling.n_g, filling.area_density,
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
    made of the same class. Each option's ``type=`` converter checks its
    domain, so a bad value exits here, before any input is read."""

    def error(self, message):
        # "argument --tol: must be ..." reads "--tol must be ..."
        message = re.sub(r"^argument (\S+): (?=must|expects)", r"\1 ", message)
        raise CliError(EXIT_BAD_PARAMETER, f"{message}\n{self.format_usage().rstrip()}")


def _checked(parse, test, domain):
    """A ``type=`` converter: ``parse(text)``, which must pass ``test``;
    ``domain`` says which values do. A NaN fails every comparison."""
    def convert(text):
        try:
            if test(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{domain}, got {text!r}")
    return convert


_POSITIVE = _checked(int, lambda value: value >= 1, "must be >= 1")
_INDICES = _checked(lambda spec: [int(tok) for tok in spec.split(",")],
                    lambda indices: min(indices) >= 0,
                    "expects comma-separated non-negative indices")
_RANGE = _checked(lambda spec: tuple(float(tok) for tok in spec.split(":")),
                  lambda bounds: len(bounds) == 2 and -np.inf < bounds[0] < bounds[1] < np.inf,
                  "expects LO:HI with finite LO < HI")


def _grid(spec) -> dict:
    """``--grid``: log:CELLS or linear:CELL_SIZE:LIMIT, each number >= 1, as
    the keyword arguments of ``stats.density_2d``."""
    mode, *values = spec.split(":")
    fields = {"log": ("cells",), "linear": ("cell_size", "rank_limit")}.get(mode)
    try:
        sizes = [int(value) for value in values]
    except ValueError:
        sizes = []
    if fields is None or len(sizes) != len(fields) or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"expects log:CELLS or linear:CELL_SIZE:LIMIT, each >= 1, got {spec!r}")
    return {"mode": mode, **dict(zip(fields, sizes))}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmspectra",
        description="Google-matrix spectral analysis of directed networks")
    parser.add_argument("--threads", type=_POSITIVE, default=1,
                        help="worker count, >= 1, recorded in the manifests; no stage "
                             "reads it, as the matrix-vector stages run on one thread "
                             "(see README) (default: 1)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="parse an edge list into a binary cache")
    p.add_argument("edge_list")
    p.add_argument("cache")
    p.add_argument("--id-mode", choices=("dense", "remap"), default="dense")
    p.add_argument("--num-nodes", type=_POSITIVE, default=None,
                   help="declared N for dense mode, >= 1; ids must be < N")
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("rank", help="PageRank or CheiRank by power iteration")
    p.add_argument("cache")
    p.add_argument("out", help="output prefix: writes .csv, .vec, .manifest.json")
    p.add_argument("--alpha", default=rk.DEFAULT_ALPHA,
                   type=_checked(float, lambda a: 0 < a < 1, "must be in (0, 1)"),
                   help="damping factor, in (0, 1) (default: %(default)s)")
    p.add_argument("--tol", default=rk.DEFAULT_TOL,
                   type=_checked(float, lambda t: 0 < t < np.inf, "must be finite and > 0"),
                   help="L1 residual to stop at, finite and > 0 (default: %(default)s)")
    p.add_argument("--max-iter", type=_POSITIVE, default=rk.DEFAULT_MAX_ITER,
                   help="iteration cap, >= 1 (default: %(default)s)")
    p.add_argument("--chei", action="store_true", help="rank the link-inverted network")
    p.set_defaults(func=cmd_rank)

    decomposing = _Parser(add_help=False)  # what _decomposed_graph reads
    decomposing.add_argument("cache")
    decomposing.add_argument("--inverted", action="store_true",
                             help="analyze the link-inverted network")
    decomposing.add_argument("--max-size", type=_POSITIVE, default=None,
                             help="closure size cutoff, >= 1 (default: min(1e5, N/10))")
    decomposing.add_argument("--dense-limit", type=_POSITIVE, default=sub.DEFAULT_DENSE_LIMIT,
                             help="largest block with a dense eigensolve, >= 1 "
                                  "(default: %(default)s)")

    p = commands.add_parser("subspaces", parents=[decomposing],
                            help="invariant-subspace decomposition and block spectra")
    p.add_argument("out", help="output prefix: writes .json, .spectrum.csv")
    p.add_argument("--member-limit", type=_checked(int, lambda m: m >= 0, "must be >= 0"),
                   default=None, help="omit member lists for subspaces larger than this, >= 0")
    p.set_defaults(func=cmd_subspaces)

    p = commands.add_parser("spectrum", parents=[decomposing],
                            help="core-space spectrum by the Arnoldi method")
    p.add_argument("out", help="output prefix: writes .csv and eigenvector profiles")
    p.add_argument("--arnoldi-dim", type=_POSITIVE, default=640,
                   help="Krylov dimension, >= 1 (default: %(default)s)")
    p.add_argument("--vectors", type=_INDICES, default=None,
                   help="comma-separated Ritz indices, each >= 0 and below the "
                        "Krylov dimension, whose profiles to export")
    p.add_argument("--max-ram", type=_checked(float, lambda gib: gib > 0, "must be > 0 GiB"),
                   default=None,
                   help="fail fast if the command's numpy arrays would exceed this many "
                        "GiB, > 0: the graph, the operator's in-link index and its "
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
    p.add_argument("--grid", action="append", type=_grid, default=None,
                   help="density grid spec: log:CELLS or linear:CELL_SIZE:LIMIT, "
                        "each number >= 1 (default log:100)")
    p.add_argument("--fit-range", type=_RANGE, default=None,
                   help="log10 rank range LO:HI, finite with LO < HI, holding at least "
                        "3 ranks, for the P(K), P*(K*) power-law fits")
    p.add_argument("--tail-range", type=_RANGE, default=None,
                   help="x range LO:HI, finite with LO < HI, holding at least 3 "
                        "curve points, for the subspace-fraction tail fit")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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

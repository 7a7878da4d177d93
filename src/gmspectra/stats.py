"""Statistical observables of the two-dimensional ranking plane.

Covers the PageRank-CheiRank correlator and its per-node components,
rank-plane densities on linear and logarithmic grids, the N_K and N_G
inter-connectivity curves, the invariant-subspace dimension survival curve,
and power-law fits by ordinary least squares in log-log space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import DirectedGraph
from .manifest import atomic_write, timed

KAPPA_HIST_CELLS = 240
KAPPA_HIST_RANGE = (1e-10, 1e2)
KAPPA_BIN_EDGES = np.logspace(np.log10(KAPPA_HIST_RANGE[0]), np.log10(KAPPA_HIST_RANGE[1]),
                              KAPPA_HIST_CELLS + 1)
KAPPA_BIN_EDGES.flags.writeable = False
CSV_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class CorrelatorReport:
    """Correlator kappa = N * sum_i P_i P*_i - 1 and the log-binned histogram
    of its per-node components kappa_i = N P_i P*_i."""

    kappa: float
    histogram: np.ndarray  # counts in the cells of KAPPA_BIN_EDGES
    underflow: int
    overflow: int


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit of log10 y on log10 x: y = amplitude * x**exponent."""

    amplitude: float
    exponent: float
    err_amplitude: float
    err_exponent: float
    log_range: tuple[float, float]
    n_points: int

    def to_json(self) -> dict:
        return {
            "a": self.amplitude,
            "b": self.exponent,
            "err_a": self.err_amplitude,
            "err_b": self.err_exponent,
            "range": list(self.log_range),
            "n_points": self.n_points,
        }


@dataclass(frozen=True)
class SubspaceFractionCurve:
    """Survival curve F(x) of rescaled subspace dimensions x = d/<d>."""

    x: np.ndarray  # distinct rescaled dimensions, increasing
    fraction: np.ndarray  # F at each x
    mean_dimension: float
    tail_fit: PowerLawFit | None


@timed("stats.correlator")
def correlator(p: np.ndarray, p_star: np.ndarray) -> CorrelatorReport:
    p = np.asarray(p, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    if p.shape != p_star.shape:
        raise ValueError("rank vectors cover different node sets")
    n = p.size
    components = n * p * p_star
    kappa = float(np.sum(components) - 1.0)
    lo, hi = KAPPA_HIST_RANGE
    in_range = (components >= lo) & (components <= hi)
    counts, _ = np.histogram(components[in_range], bins=KAPPA_BIN_EDGES)
    underflow = int(np.count_nonzero(components < lo))
    overflow = int(np.count_nonzero(components > hi))
    return CorrelatorReport(kappa, counts.astype(np.int64), underflow, overflow)


def _check_permutation(k: np.ndarray, name: str) -> np.ndarray:
    k = np.asarray(k, dtype=np.int64)
    n = k.size
    if k.ndim == 1 and (n == 0 or 1 <= k.min() and k.max() <= n):  # a 0 would index -1
        seen = np.zeros(n + 1, dtype=bool)
        seen[k] = True
        if seen[1:].all():  # N ranks in 1..N, each taken
            return k
    raise ValueError(f"{name} is not a permutation of 1..{n}")


@timed("stats.density_2d")
def density_2d(k: np.ndarray, k_star: np.ndarray, mode: str = "log",
               cells: int = 100, cell_size: int = 10,
               rank_limit: int | None = None) -> np.ndarray:
    """Node counts in the cells of the (K, K*) plane, as an ``int64`` grid
    whose rows are K cells and columns K* cells.

    Linear mode counts nodes with K, K* <= rank_limit in square cells of
    ``cell_size``; log mode covers 0 <= ln K <= ln N with ``cells`` equal
    cells per axis.
    """
    k = _check_permutation(k, "K")
    k_star = _check_permutation(k_star, "K*")
    n = k.size
    if mode == "linear":
        if cell_size < 1:
            raise ValueError("cell_size must be >= 1")
        if rank_limit is None:
            rank_limit = n
        ncells = (rank_limit + cell_size - 1) // cell_size
        if ncells < 1:
            raise ValueError("grid has zero cells")
        mask = (k <= rank_limit) & (k_star <= rank_limit)
        rows = (k[mask] - 1) // cell_size
        cols = (k_star[mask] - 1) // cell_size
    elif mode == "log":
        if cells < 1:
            raise ValueError("grid has zero cells")
        ncells = cells
        log_n = np.log(n) if n > 1 else 1.0
        rows = np.minimum((np.log(k) / log_n * cells).astype(np.int64), cells - 1)
        cols = np.minimum((np.log(k_star) / log_n * cells).astype(np.int64), cells - 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    counts = np.zeros((ncells, ncells), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


@timed("stats.n_k_counts")
def n_k_counts(k: np.ndarray, k_star: np.ndarray, k_values) -> np.ndarray:
    """N_K(k): nodes inside the k-by-k top square of the rank plane."""
    k = _check_permutation(k, "K")
    k_star = _check_permutation(k_star, "K*")
    if k.shape != k_star.shape:
        raise ValueError("rank permutations cover different node sets")
    worst = np.sort(np.maximum(k, k_star))
    return np.searchsorted(worst, np.asarray(k_values, dtype=np.int64),
                           side="right").astype(np.int64)


@timed("stats.ng_filling")
def ng_filling(g: DirectedGraph, k: np.ndarray, k_values) -> np.ndarray:
    """N_G(k): adjacency edges whose endpoints both rank within the top k,
    as ``int64`` counts aligned with ``k_values``.

    Only real adjacency links are counted, so the uniform columns of
    dangling nodes never contribute (a dangling node has no out-edges).
    """
    k = _check_permutation(k, "K")
    if k.size != g.node_count:
        raise ValueError("rank permutation does not match graph")
    # per link, the larger rank of its two ends, as uint32 (ranks are <= N <
    # 2**32) and without copies of the ends; a query past 2**32 - 1 counts
    # every link, as it would uncast
    k = k.astype(np.uint32)
    worst = np.repeat(k, g.out_degrees)
    np.maximum(worst, k[g.out_indices], out=worst)
    worst.sort()
    k_values = np.asarray(k_values, dtype=np.int64)
    queries = np.clip(k_values, 0, np.iinfo(np.uint32).max).astype(np.uint32)
    return np.searchsorted(worst, queries, side="right").astype(np.int64)


@timed("stats.powerlaw_fit")
def powerlaw_fit(x, y, log_range: tuple[float, float] | None = None) -> PowerLawFit:
    """OLS regression of log10 y on log10 x over a range of log10 x.

    Returns y = amplitude * x**exponent with regression standard errors;
    exact power-law input is recovered to machine precision with ~zero
    errors.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    if np.any(x <= 0):
        raise ValueError("x values must be positive")
    log_x = np.log10(x)
    if log_range is None:
        log_range = (float(log_x.min()), float(log_x.max())) if x.size else (0.0, 0.0)
    lo, hi = log_range
    mask = (log_x >= lo) & (log_x <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError(f"need at least 3 points in log10 range [{lo}, {hi}]")
    if np.any(y[mask] <= 0):
        raise ValueError("y values in the fit range must be positive")
    lx = log_x[mask]
    ly = np.log10(y[mask])
    m = lx.size
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    if sxx == 0.0:
        raise ValueError("all x values in range are identical")
    slope = np.sum((lx - mx) * ly) / sxx
    intercept = ly.mean() - slope * mx
    resid = ly - (intercept + slope * lx)
    s2 = np.sum(resid**2) / (m - 2) if m > 2 else 0.0
    err_slope = float(np.sqrt(s2 / sxx))
    err_intercept = float(np.sqrt(s2 * (1.0 / m + mx**2 / sxx)))
    amplitude = float(10.0**intercept)
    err_amplitude = float(np.log(10.0) * amplitude * err_intercept)
    return PowerLawFit(amplitude, float(slope), err_amplitude, err_slope,
                       (float(lo), float(hi)), int(m))


def subspace_fraction(dimensions, tail_range: tuple[float, float] | None = None
                      ) -> SubspaceFractionCurve:
    """Survival curve of subspace dimensions over x = d/<d>, with an
    optional power-law tail fit over an x interval, which must hold at
    least 3 curve points with a nonzero fraction."""
    dims = np.asarray(dimensions, dtype=np.int64)
    if dims.size == 0:
        raise ValueError("dimension list is empty")
    if np.any(dims < 1):
        raise ValueError("subspace dimensions must be >= 1")
    mean = float(dims.mean())
    sorted_dims = np.sort(dims)
    distinct = sorted_dims[np.append(True, sorted_dims[1:] != sorted_dims[:-1])]
    x = distinct / mean
    # F(x) with x = d/<d>: strict survival, fraction of dims > d
    fraction = 1.0 - np.searchsorted(sorted_dims, distinct, side="right") / dims.size
    tail_fit = None
    if tail_range is not None:
        lo, hi = tail_range
        mask = (x >= lo) & (x <= hi) & (fraction > 0)
        if np.count_nonzero(mask) < 3:
            raise ValueError(f"[{lo}, {hi}] holds {np.count_nonzero(mask)} curve points "
                             "with a nonzero fraction; the tail fit needs at least 3")
        tail_fit = powerlaw_fit(x[mask], fraction[mask],
                                (float(np.log10(x[mask].min())),
                                 float(np.log10(x[mask].max()))))
    return SubspaceFractionCurve(x, fraction, mean, tail_fit)


def write_grid_csv(counts: np.ndarray, path) -> None:
    """CSV export of a ``density_2d`` grid: row,col,count,density for the
    occupied cells, the density being the count over the grid's total."""
    rows, cols = np.nonzero(counts)
    occupied = counts[rows, cols]
    write_curve_csv(path, "row,col,count,density", rows, cols, occupied,
                    occupied / counts.sum())


@timed("stats.write_curve_csv")
def write_curve_csv(path, header: str, *columns) -> None:
    """CSV export of aligned array columns (atomic write): the header line,
    then the rows as ``write_rows`` formats them. Used for every tabular
    artifact."""
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        write_rows(fh, *columns)


def write_rows(fh, *columns) -> None:
    """Writes aligned array columns to a text file, one comma-separated line
    per row. A cell is ``str`` of its element as a Python scalar: floats in
    shortest round-trip ``repr``, ints in decimal. Rows are formatted
    ``CSV_CHUNK_ROWS`` at a time, with one ``%`` per chunk."""
    columns = [np.asarray(c) for c in columns]
    rows = min((c.size for c in columns), default=0)
    template = ",".join(["%s"] * len(columns)) + "\n"
    for lo in range(0, rows, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, rows)
        cells = chain.from_iterable(zip(*(c[lo:hi].tolist() for c in columns)))
        fh.write(template * (hi - lo) % tuple(cells))

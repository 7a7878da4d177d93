"""PageRank / CheiRank by power iteration and rank permutations.

CheiRank is PageRank of the link-inverted graph, computed by the same power
iteration over an operator with the same in-link arrays, so the two are
bitwise interchangeable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .graph import CheckedFormat, DirectedGraph
from .manifest import timed
from .operator import DEFAULT_ALPHA, GoogleOperator
from .stats import write_curve_csv

VECTOR_MAGIC = b"SNRV"
VECTOR_VERSION = 1
VECTOR_CACHE = CheckedFormat("vector cache", VECTOR_MAGIC, VECTOR_VERSION,
                             struct.Struct("<4sIQ"), lambda n: [("<f8", n)])

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class RankVector:
    """Probability vector with its decreasing-order ranks: ``rank_of_node[i]``
    is the 1-based rank of node i. Ties break by ascending node id."""

    probabilities: np.ndarray
    rank_of_node: np.ndarray
    residual_trace: list[float]  # the L1 residual of each iteration
    converged: bool

    @property
    def iterations_used(self) -> int:
        return len(self.residual_trace)

    @property
    def residual(self) -> float:
        return self.residual_trace[-1]


def rank_indices(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending-probability permutations (rank_of_node, node_at_rank)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(np.isnan(p)):
        raise ValueError("probability vector contains NaN")
    node_at_rank = np.argsort(-p, kind="stable").astype(np.int64)
    rank_of_node = np.empty_like(node_at_rank)
    rank_of_node[node_at_rank] = np.arange(1, p.size + 1, dtype=np.int64)
    return rank_of_node, node_at_rank


def _power_iteration(g, alpha, tol, max_iter, inverted) -> RankVector:
    """Power iteration v <- G v, over G* with ``inverted``, from the uniform
    vector until the 1-norm of the update drops below tol."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < tol < np.inf:  # false for NaN
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    with timed("operator.build"):
        op = GoogleOperator(g, alpha=alpha, inverted=inverted)
    n = g.node_count
    v = np.full(n, 1.0 / n)
    trace = []
    for _ in range(max_iter):
        with timed("operator.apply_g"):
            nxt = op.apply_g(v)
        trace.append(float(np.sum(np.abs(nxt - v))))
        v = nxt
        if trace[-1] < tol:
            break
    rank_of_node, _ = rank_indices(v)
    return RankVector(v, rank_of_node, trace, trace[-1] < tol)


@timed("ranking.pagerank")
def pagerank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> RankVector:
    """Power iteration v <- G v from the uniform vector until the 1-norm of
    the update drops below tol. Non-convergence is reported, not raised."""
    return _power_iteration(g, alpha, tol, max_iter, inverted=False)


@timed("ranking.cheirank")
def cheirank(g: DirectedGraph, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> RankVector:
    """PageRank of the link-inverted graph G*, whose operator takes its
    in-links from ``g``'s out-links as stored, so no link is sorted."""
    return _power_iteration(g, alpha, tol, max_iter, inverted=True)


def write_rank_csv(rv: RankVector, path) -> None:
    """CSV export: node_id,probability,rank (atomic write)."""
    write_curve_csv(path, "node_id,probability,rank", np.arange(rv.probabilities.size),
                    rv.probabilities, rv.rank_of_node)


def write_vector_cache(p: np.ndarray, path) -> None:
    """Binary float64 vector with magic, version and trailing crc32."""
    VECTOR_CACHE.write(path, (np.size(p),), (p,))


def read_vector_cache(path) -> np.ndarray:
    (p,) = VECTOR_CACHE.read(path)
    return p

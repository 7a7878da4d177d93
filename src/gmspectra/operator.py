"""Implicit matrix-vector operators for the stochastic matrix S and the
Google matrix G = alpha*S + (1-alpha)/N.

Neither the dangling-column fill nor the damping term is ever materialized:
both are rank-one corrections driven by scalar sums. Output components are
accumulated in a fixed order (ascending predecessor id), so results are
bitwise identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedGraph

DEFAULT_ALPHA = 0.85


@dataclass(frozen=True)
class GoogleOperator:
    """Matrix-free S and G over an immutable DirectedGraph. For the
    link-inverted network (G*, used for CheiRank) pass ``invert(graph)``."""

    graph: DirectedGraph
    alpha: float = DEFAULT_ALPHA
    threads: int = 1
    _inv_out_degree: np.ndarray = field(init=False, repr=False, compare=False)
    _dangling: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        g = self.graph
        deg = g.out_degrees
        inv = np.zeros(g.node_count, dtype=np.float64)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        object.__setattr__(self, "_inv_out_degree", inv)
        object.__setattr__(self, "_dangling", g.dangling_nodes)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def _check(self, v):
        v = np.asarray(v)
        if v.shape != (self.node_count,):
            raise ValueError(f"vector length {v.shape} does not match N={self.node_count}")
        if not np.all(np.isfinite(v)):
            raise ValueError("input vector has non-finite entries")
        return v

    def _sparse_part(self, w, out):
        """out[i] = sum over predecessors j of w[j], per-row reduceat order."""
        g = self.graph
        n = g.node_count
        starts = g.in_offsets[:-1]
        ends = g.in_offsets[1:]
        nonempty = starts < ends
        vals = w[g.in_indices]

        def block(lo, hi):
            mask = nonempty[lo:hi]
            rows = np.arange(lo, hi)[mask]
            if rows.size:
                # CSR offsets are contiguous, so consecutive nonempty starts
                # delimit exact segments; only the last segment of the block
                # would run to the end of vals and is summed directly.
                res = np.add.reduceat(vals, starts[rows])
                last = rows[-1]
                # reduceat again (not add.reduce) so the summation order of
                # the fixed-up row matches the other rows exactly.
                res[-1] = np.add.reduceat(vals[starts[last]:ends[last]], [0])[0]
                out[rows] = res

        if self.threads == 1 or n < 4 * self.threads:
            block(0, n)
        else:
            bounds = np.linspace(0, n, self.threads + 1).astype(np.int64)
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(lambda i: block(bounds[i], bounds[i + 1]),
                              range(self.threads)))
        return out

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        """S @ v: column-normalized adjacency with uniform dangling columns."""
        v = self._check(v)
        w = v * self._inv_out_degree
        out = np.zeros(self.node_count, dtype=np.result_type(v.dtype, np.float64))
        self._sparse_part(w, out)
        if self._dangling.size:
            out += np.sum(v[self._dangling]) / self.node_count
        return out

    def apply_g(self, v: np.ndarray) -> np.ndarray:
        """G @ v = alpha*(S @ v) + (1-alpha)*sum(v)/N."""
        out = self.apply_s(v)
        if self.alpha != 1.0:
            out *= self.alpha
            out += (1.0 - self.alpha) * np.sum(np.asarray(v)) / self.node_count
        return out


def dense_s(g: DirectedGraph) -> np.ndarray:
    """Dense S matrix; for small graphs and oracle checks only."""
    n = g.node_count
    s = np.zeros((n, n))
    deg = g.out_degrees
    for j in range(n):
        if deg[j] == 0:
            s[:, j] = 1.0 / n
        else:
            s[g.successors(j), j] = 1.0 / deg[j]
    return s


def dense_g(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Dense Google matrix alpha*S + (1-alpha)/N; oracle use only."""
    return alpha * dense_s(g) + (1.0 - alpha) / g.node_count

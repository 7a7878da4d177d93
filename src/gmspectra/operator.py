"""Implicit matrix-vector operators for the stochastic matrix S and the
Google matrix G = alpha*S + (1-alpha)/N.

Neither the dangling-column fill nor the damping term is ever materialized:
both are rank-one corrections driven by scalar sums. The sparse part sums
each node's in-link values with one ``np.add.reduceat`` segment per nonempty
in-row, in ascending predecessor order. The operator builds its in-links
once, at construction, as the out-links of ``invert(graph)``, and keeps
their ``uint32`` ids, the nonempty rows and the row-aligned chunks they are
gathered in. The operator of the link-inverted graph G* (``inverted=True``)
sorts nothing: G*'s in-links are the graph's own out-links, used as stored.
A chunk of about ``GATHER_CHUNK`` links is gathered and summed at a time, so
a matvec's buffers stay small and in cache; a row is never split, so the
sums are those of one whole gather. The sparse part runs on the calling
thread: ``np.add.reduceat`` holds the interpreter lock, and a two-thread
split of the rows measured no faster than one pass.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph, invert

DEFAULT_ALPHA = 0.85
# links gathered at a time; a chunk ends at the first row start at or past a
# multiple of it, so a row longer than this is a chunk of its own
GATHER_CHUNK = 1 << 15


class GoogleOperator:
    """Matrix-free S and G over an immutable DirectedGraph, or with
    ``inverted=True`` over its link-inverted network G* (used for CheiRank):
    then the in-links are ``graph``'s out-links, the out-degrees its
    in-degrees, and the dangling nodes those without an in-link.

    ``threads`` is checked (>= 1) and not stored; see the module docstring.
    The operator keeps N, ``alpha``, the reciprocal out-degrees, the
    dangling ids and the chunks, and not ``graph``. The in-link ids stay
    ``uint32``, as ``invert`` builds them or as ``graph`` stores them (4
    bytes per edge; with ``inverted`` they are ``graph``'s own). Each chunk
    is a triple of views: its in-link ids, its segment starts counted from the
    chunk's first link, and its rows. The gather uses ``mode="wrap"``, which
    skips numpy's bounds pass; it never wraps, as an id >= N raises
    ``ValueError`` at construction."""

    def __init__(self, graph: DirectedGraph, alpha: float = DEFAULT_ALPHA, threads: int = 1,
                 inverted: bool = False):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        n = graph.node_count
        deg = graph.in_degrees if inverted else graph.out_degrees
        if deg.size > n:  # only a successor id >= N makes bincount longer
            raise ValueError(f"node id {deg.size - 1} outside [0, {n})")
        inv = np.zeros(n, dtype=np.float64)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        inbound = graph if inverted else invert(graph)
        offsets, ids = inbound.out_offsets, inbound.out_indices
        # CSR offsets are contiguous, so the starts of the nonempty rows
        # delimit exact segments and the last one runs to the end of the links
        rows = np.flatnonzero(offsets[:-1] < offsets[1:])
        starts = offsets[rows]
        bounds = np.append(starts, ids.size)
        # the first row of each chunk, then the end; a long row repeats a cut
        cuts = np.searchsorted(starts, np.arange(0, ids.size, GATHER_CHUNK))
        cuts = np.append(cuts, rows.size).tolist()
        chunks = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo < hi:
                first = bounds[lo]
                chunks.append((ids[first:bounds[hi]], starts[lo:hi] - first, rows[lo:hi]))
        self.n = n
        self.alpha = alpha
        self._inv_out_degree = inv
        self._dangling = np.flatnonzero(~nz)
        self._chunks = tuple(chunks)

    def _check(self, v):
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match N={self.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("input vector has non-finite entries")
        return v

    def _sparse_part(self, w, out):
        """out[i] = sum of w[j] over the in-links j -> i, one reduceat segment per
        nonempty row, chunk by chunk; rows without in-links are left as they are."""
        for ids, local, rows in self._chunks:
            out[rows] = np.add.reduceat(np.take(w, ids, mode="wrap"), local)
        return out

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        """S @ v: column-normalized adjacency with uniform dangling columns."""
        v = self._check(v)
        w = v * self._inv_out_degree
        out = np.zeros(self.n, dtype=w.dtype)
        self._sparse_part(w, out)
        if self._dangling.size:
            out += np.sum(v[self._dangling]) / self.n
        return out

    def apply_g(self, v: np.ndarray) -> np.ndarray:
        """G @ v = alpha*(S @ v) + (1-alpha)*sum(v)/N."""
        out = self.apply_s(v)
        if self.alpha != 1.0:
            out *= self.alpha
            out += (1.0 - self.alpha) * np.sum(np.asarray(v)) / self.n
        return out

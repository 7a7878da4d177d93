"""Seeded power-law graphs with planted invariant subspaces.

Every node is one of four kinds, before a random relabelling:

* block nodes, grouped into closed blocks of 5-12 nodes wired as a directed
  cycle plus one chord, with no link leaving the block;
* reversed-block nodes (1 % of nodes, at least two blocks), wired like
  blocks but receiving no link from outside, and with one extra link from
  each member to a free node;
* dangling nodes (no out-links), 10 % of the remaining nodes;
* free nodes, with a power-law out-degree (gamma ~ 2.6) towards targets
  drawn with power-law weights (in-degree gamma ~ 2.1) among block, dangling
  and free nodes, plus one extra link to a dangling node.

The extra dangling link puts every free node's out-closure onto a dangling
node, so the planted blocks are exactly the invariant subspaces of S and
everything else is core. The reversed blocks are closed sets of the
link-inverted graph. Closed sets in both orientations make PageRank and
CheiRank converge at rate alpha, as on real networks; without them the
iteration count depends on the draw (CheiRank took 34 to 110 iterations
across five seeds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZES = (5, 12)
DANGLING_SHARE = 0.10
REVERSED_BLOCK_SHARE = 0.01
GAMMA_OUT = 2.6
GAMMA_IN = 2.1


@dataclass(frozen=True)
class PlantedGraph:
    """Edge arrays plus the oracle facts the generator planted."""

    node_count: int
    src: np.ndarray  # int64, unique (src, dst) pairs sorted by src * N + dst
    dst: np.ndarray
    blocks: list[np.ndarray]  # sorted member ids, ordered by smallest member
    dangling: np.ndarray  # sorted ids

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    @property
    def block_node_count(self) -> int:
        return int(sum(b.size for b in self.blocks))

    def edge_list_text(self) -> str:
        """The graph as a "src dst" edge list, one edge per line."""
        pairs = np.column_stack((self.src, self.dst)).ravel().tolist()
        return ("%d %d\n" * self.edge_count) % tuple(pairs)


def _block_sizes(rng, node_budget):
    lo, hi = BLOCK_SIZES
    sizes = []
    total = 0
    while total + lo <= node_budget:
        size = int(rng.integers(lo, hi + 1))
        size = min(size, node_budget - total)
        sizes.append(size)
        total += size
    return np.array(sizes, dtype=np.int64)


def _cycles_with_chord(rng, sizes, first):
    """Edges of blocks of the given sizes laid out from node ``first``: a
    cycle i -> i+1 plus one chord u -> u+d with 2 <= d <= size-1, which
    never repeats a cycle edge and never is a self-loop."""
    starts = first + np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    owner = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(int(sizes.sum())) - (starts[owner] - first)
    src = first + np.arange(int(sizes.sum()))
    dst = starts[owner] + (local + 1) % sizes[owner]
    chord_u = rng.integers(0, sizes)
    chord_d = rng.integers(2, sizes)
    return (np.concatenate((src, starts + chord_u)),
            np.concatenate((dst, starts + (chord_u + chord_d) % sizes)), starts)


def generate(node_count: int, block_share: float, min_out_degree: int,
             seed: int) -> PlantedGraph:
    """Draw one graph; the same arguments always give the same graph."""
    rng = np.random.default_rng(seed)
    n = int(node_count)
    sizes = _block_sizes(rng, int(round(block_share * n)))
    # at least two reversed blocks, so that G* has eigenvalue alpha
    reversed_sizes = _block_sizes(
        rng, max(2 * BLOCK_SIZES[1], int(round(REVERSED_BLOCK_SHARE * n))))
    n_block, n_reversed = int(sizes.sum()), int(reversed_sizes.sum())
    first_dangling = n_block + n_reversed
    n_dangling = int(round(DANGLING_SHARE * (n - first_dangling)))
    first_free = first_dangling + n_dangling
    if first_free >= n:
        raise ValueError("node_count too small for the planted structure")

    block_src, block_dst, starts = _cycles_with_chord(rng, sizes, 0)
    rev_src, rev_dst, _ = _cycles_with_chord(rng, reversed_sizes, n_block)
    free = np.arange(first_free, n)
    rev_out = rng.integers(first_free, n, size=n_reversed)

    # Free nodes: discrete Pareto out-degrees, Pareto target weights; the
    # reversed blocks get weight 0 so that no link enters them.
    cap = max(min_out_degree, int(np.sqrt(n)))
    degrees = np.minimum(
        np.floor(min_out_degree * rng.random(free.size) ** (-1.0 / (GAMMA_OUT - 1.0))),
        cap).astype(np.int64)
    weights = np.minimum(rng.random(n) ** (-1.0 / (GAMMA_IN - 1.0)), n ** 0.5)
    weights[n_block:first_dangling] = 0.0
    cdf = np.cumsum(weights)
    targets = np.searchsorted(cdf, rng.random(int(degrees.sum())) * cdf[-1], side="right")
    targets = np.minimum(targets, n - 1)
    to_dangling = first_dangling + rng.integers(0, n_dangling, size=free.size)

    src = np.concatenate((block_src, rev_src, np.arange(n_block, first_dangling),
                          np.repeat(free, degrees), free))
    dst = np.concatenate((block_dst, rev_dst, rev_out, targets, to_dangling))

    perm = rng.permutation(n)
    keys = np.sort(perm[src] * n + perm[dst])
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    blocks = sorted((np.sort(perm[starts[b]:starts[b] + sizes[b]]) for b in range(sizes.size)),
                    key=lambda a: int(a[0]))
    return PlantedGraph(n, keys // n, keys % n, blocks,
                        np.sort(perm[first_dangling:first_free]))

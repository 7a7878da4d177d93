"""Invariant-subspace detection and the block-triangular split of S.

A node belongs to an invariant subspace when the set of nodes reachable from
it through S stays finite and small: the out-link closure fits under a size
cutoff and never touches a dangling node (a dangling column is uniform, so
its closure is the whole network). The subspaces are the weakly connected
components of the links out of subspace nodes; all remaining nodes form the
core space, whose projected block is strictly substochastic.

``decompose`` works in two steps. A backward sweep from the dangling nodes
over the in-links marks, in numpy, every node with a path to a dangling node:
all of them are core. Only the nodes it leaves unmarked get a closure search.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, invert
from .manifest import atomic_write

DEFAULT_DENSE_LIMIT = 4000
UNIT_EIGENVALUE_TOL = 1e-10

OVERFLOW = None  # sentinel returned by node_closure


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Disjoint invariant subspaces plus the core node set.

    ``permutation`` lists subspace nodes first (grouped subspace by
    subspace), then core nodes, realizing the block-triangular form of S.
    """

    subspaces: list[np.ndarray]  # sorted node ids per subspace
    core_nodes: np.ndarray  # sorted
    node_count: int

    @property
    def subspace_count(self) -> int:
        return len(self.subspaces)

    @property
    def dimensions(self) -> np.ndarray:
        return np.array([s.size for s in self.subspaces], dtype=np.int64)

    @property
    def subspace_node_count(self) -> int:
        return int(self.dimensions.sum()) if self.subspaces else 0

    @property
    def core_count(self) -> int:
        return self.core_nodes.size

    @property
    def permutation(self) -> np.ndarray:
        return np.concatenate([*self.subspaces, self.core_nodes])


@dataclass(frozen=True)
class SubspaceSpectrum:
    """Dense eigenvalues of every subspace block."""

    eigenvalues: list[np.ndarray]  # complex, one array per subspace
    skipped: list[int]  # indices of blocks above the dense limit
    unit_modulus_count: int
    unit_eigenvalue_count: int

    @property
    def all_eigenvalues(self) -> np.ndarray:
        if not self.eigenvalues:
            return np.empty(0, dtype=np.complex128)
        return np.concatenate(self.eigenvalues)


def default_max_size(n: int) -> int:
    return max(1, min(100_000, n // 10))


def node_closure(g: DirectedGraph, seed: int, max_size: int, *,
                 stop: np.ndarray | None = None):
    """Out-link closure of ``seed``; OVERFLOW (None) if it exceeds
    ``max_size``, touches a dangling node or touches a node where the boolean
    mask ``stop`` is true (a node already known to be core: its closure
    overflows, so any closure containing it does too)."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    offsets, indices = g.out_offsets, g.out_indices
    seen = {int(seed)}
    queue = deque([int(seed)])
    while queue:
        node = queue.popleft()
        lo, hi = offsets[node], offsets[node + 1]
        if lo == hi or (stop is not None and stop[node]):
            return OVERFLOW
        for nxt in indices[lo:hi]:
            nxt = int(nxt)
            if nxt not in seen:
                if len(seen) >= max_size:
                    return OVERFLOW
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def _links_of(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    """Out-link ids of ``rows``, row by row, gathered through one int64
    position per link: ones, a jump at each nonempty row's start, summed."""
    offsets = g.out_offsets
    fed = rows[offsets[rows + 1] > offsets[rows]]
    lo, hi = offsets[fed], offsets[fed + 1]
    pos = np.ones(int((hi - lo).sum()), dtype=np.int64)
    pos[:1] = lo[:1]
    pos[np.cumsum(hi[:-1] - lo[:-1])] = lo[1:] - hi[:-1] + 1
    return g.out_indices[np.cumsum(pos, out=pos)]


def _reaches_dangling(g: DirectedGraph) -> np.ndarray:
    """Boolean mask of the nodes with a path to a dangling node (dangling
    nodes included), found level by level over the in-links of ``invert(g)``.

    Each level gathers the in-links of the frontier, so every link is read
    once. A level holds one int64 position and one uint32 id per link it
    gathers, under the moment ``invert`` itself needs.
    """
    inverse = invert(g)
    marked = g.out_degrees == 0
    frontier = np.flatnonzero(marked)
    while frontier.size:
        found = _links_of(inverse, frontier)
        found = found[~marked[found]]
        found.sort()
        first = np.ones(found.size, dtype=bool)
        np.not_equal(found[1:], found[:-1], out=first[1:])
        frontier = found[first]
        marked[frontier] = True
    return marked


def _components(g: DirectedGraph, mask: np.ndarray) -> list[np.ndarray]:
    """Weakly connected components of the out-links of the nodes in
    ``mask``, which all end in it: sorted member arrays, by smallest member.

    Labels index the masked nodes and only fall, so each component ends
    labelled by its smallest member. A round hooks every root onto the
    smallest root it meets over a link, then jumps pointers until every
    label is a root, which keeps the rounds few even on long chains."""
    nodes = np.flatnonzero(mask)
    label = np.arange(nodes.size, dtype=np.uint32)  # fits: node ids are < 2**32
    src = np.repeat(label, g.out_degrees[nodes])
    dst = (np.cumsum(mask, dtype=np.uint32) - 1)[_links_of(g, nodes)]
    while True:
        ru, rv = label[src], label[dst]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(label, ru, rv)
        np.minimum.at(label, rv, ru)
        del ru, rv  # else the next round gathers its roots beside them
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1)).tolist()
    return [nodes[order[a:b]] for a, b in zip(starts, starts[1:] + [nodes.size])]


def decompose(g: DirectedGraph, max_size: int | None = None) -> SubspaceDecomposition:
    """Partition nodes into invariant subspaces and the core.

    A backward sweep from the dangling nodes first marks as core every node
    that can reach one: its closure holds a uniform column. Every other node
    is a seed of the closure search, with the marked nodes as known core.
    A closure holds the closure of each of its members, so the members of a
    fitting closure are never seeds again. A search aborts (seed is core) on
    a dangling node, a known-core node, or more than ``max_size`` nodes.
    Each closure is weakly connected and holds every link out of its
    members, so the subspaces are the weakly connected components of the
    links out of subspace nodes. Neither membership nor grouping depends on
    which seeds are searched or in what order, so the sweep changes no result.
    """
    n = g.node_count
    if max_size is None:
        max_size = default_max_size(n)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    core = _reaches_dangling(g)
    in_subspace = np.zeros(n, dtype=bool)
    for seed in np.flatnonzero(~core):
        if in_subspace[seed]:
            continue
        closure = node_closure(g, seed, max_size, stop=core)
        if closure is OVERFLOW:
            core[seed] = True
        else:
            in_subspace[list(closure)] = True
    return SubspaceDecomposition(_components(g, in_subspace),
                                 np.flatnonzero(~in_subspace), n)


def subspace_block(g: DirectedGraph, members: np.ndarray) -> np.ndarray:
    """Dense column-normalized block of S restricted to one subspace.

    Closure guarantees every successor of a member is a member and that no
    member is dangling, so the block is exactly column-stochastic.
    """
    members = np.asarray(members, dtype=np.int64)
    local = {int(node): i for i, node in enumerate(members)}
    d = members.size
    block = np.zeros((d, d))
    out_deg = g.out_offsets[members + 1] - g.out_offsets[members]
    for j, node in enumerate(members):
        w = 1.0 / out_deg[j]
        for succ in g.successors(int(node)):
            block[local[int(succ)], j] = w
    return block


def subspace_spectrum(g: DirectedGraph, decomp: SubspaceDecomposition,
                      dense_limit: int = DEFAULT_DENSE_LIMIT,
                      tol: float = UNIT_EIGENVALUE_TOL) -> SubspaceSpectrum:
    """Dense eigenvalues of each subspace block; blocks above ``dense_limit``
    are skipped and flagged, never silently dropped."""
    eigenvalues = []
    skipped = []
    for idx, members in enumerate(decomp.subspaces):
        if members.size > dense_limit:
            skipped.append(idx)
            eigenvalues.append(np.empty(0, dtype=np.complex128))
            continue
        vals = np.linalg.eigvals(subspace_block(g, members))
        eigenvalues.append(vals.astype(np.complex128))
    all_vals = (np.concatenate(eigenvalues) if eigenvalues
                else np.empty(0, dtype=np.complex128))
    unit_mod = int(np.count_nonzero(np.abs(np.abs(all_vals) - 1.0) <= tol))
    unit_val = int(np.count_nonzero(np.abs(all_vals - 1.0) <= tol))
    return SubspaceSpectrum(eigenvalues, skipped, unit_mod, unit_val)


def decomposition_to_json(decomp: SubspaceDecomposition,
                          member_limit: int | None = None) -> dict:
    """JSON-ready dict; member lists are elided above ``member_limit``."""
    subspaces = []
    for members in decomp.subspaces:
        entry = {"dimension": int(members.size)}
        if member_limit is None or members.size <= member_limit:
            entry["members"] = [int(m) for m in members]
        subspaces.append(entry)
    return {
        "node_count": decomp.node_count,
        "subspace_count": decomp.subspace_count,
        "subspace_node_count": decomp.subspace_node_count,
        "core_count": decomp.core_count,
        "subspaces": subspaces,
    }


def write_decomposition_json(decomp: SubspaceDecomposition, path,
                             member_limit: int | None = None) -> None:
    with atomic_write(path) as fh:
        json.dump(decomposition_to_json(decomp, member_limit), fh, indent=1)
        fh.write("\n")

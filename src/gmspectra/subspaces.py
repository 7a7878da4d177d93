"""Invariant-subspace detection and the block-triangular split of S.

A node belongs to an invariant subspace when the set of nodes reachable from
it through S stays finite and small: the out-link closure fits under a size
cutoff and never touches a dangling node (a dangling column is uniform, so
its closure is the whole network). The subspaces are the weakly connected
components of the links out of subspace nodes; all remaining nodes form the
core space, whose projected block is strictly substochastic.

``decompose`` works on components. A backward sweep from the dangling nodes
over the in-links marks, in numpy, every node with a path to a dangling node:
all of them are core. The unmarked nodes split into weakly connected
components, and a component of at most ``max_size`` nodes is one subspace.
Only the nodes of larger components get a closure search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, invert
from .manifest import timed, write_json

DEFAULT_DENSE_LIMIT = 4000
UNIT_EIGENVALUE_TOL = 1e-10

OVERFLOW = None  # sentinel returned by node_closure


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Disjoint invariant subspaces plus the core node set."""

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


def node_closure(g: DirectedGraph, seed: int, max_size: int):
    """Out-link closure of ``seed``; OVERFLOW (None) if it exceeds
    ``max_size`` or touches a dangling node."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    offsets, indices = g.out_offsets, g.out_indices
    seen = {int(seed)}
    queue = deque([int(seed)])
    while queue:
        node = queue.popleft()
        lo, hi = offsets[node], offsets[node + 1]
        if lo == hi:
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


def _mark_ancestors(inverse: DirectedGraph, marked: np.ndarray,
                    frontier: np.ndarray) -> None:
    """Mark in ``marked``, in place, the nodes of ``frontier`` and every node
    with a path into it, level by level over the out-links of ``inverse``,
    the in-links of the graph. Marked nodes stop the sweep.

    Each level gathers the in-links of the frontier, so every link is read
    once. A level holds one int64 position and one uint32 id per link it
    gathers, under the moment ``invert`` itself needs.
    """
    marked[frontier] = True
    while frontier.size:
        found = _links_of(inverse, frontier)
        found = found[~marked[found]]
        found.sort()
        first = np.ones(found.size, dtype=bool)
        np.not_equal(found[1:], found[:-1], out=first[1:])
        frontier = found[first]
        marked[frontier] = True


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


@timed("subspaces.decompose")
def decompose(g: DirectedGraph, max_size: int | None = None,
              inverse: DirectedGraph | None = None) -> SubspaceDecomposition:
    """Partition nodes into invariant subspaces and the core. The sweeps read
    the in-links of ``g`` as the out-links of ``inverse``, ``invert(g)``,
    which is built here unless the caller has it already.

    A backward sweep from the dangling nodes first marks as core every node
    that can reach one: its closure holds a uniform column. The unmarked
    nodes are closed under out-links, so each weakly connected component of
    their links holds the closure of every member. A component of at most
    ``max_size`` nodes is therefore one subspace, taken whole. Only the
    members of a larger component are seeds of the closure search. A seed
    whose closure overflows (more than ``max_size`` nodes) is core, and so
    is every node that reaches it: the same sweep marks them. A closure that
    fits holds the closure of each of its members, so they are never seeds
    again. The core thus stays closed under ancestors, and no search can
    meet a core node. Each closure is weakly connected and holds every link
    out of its members, so the subspaces are the weakly connected components
    of the links out of the nodes left unmarked. Neither membership nor
    grouping depends on which seeds are searched or in what order.

    Residual worst case: a rising path of more than ``max_size`` nodes into
    a small closed set. Each of its first nodes walks ``max_size`` nodes
    before it overflows, and its ancestors are already core, so its sweep
    saves no search.
    """
    n = g.node_count
    if max_size is None:
        max_size = default_max_size(n)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if inverse is None:
        inverse = invert(g)
    core = g.out_degrees == 0
    _mark_ancestors(inverse, core, np.flatnonzero(core))
    groups = _components(g, ~core)
    large = [members for members in groups if members.size > max_size]
    in_subspace = np.zeros(n, dtype=bool)
    for seed in (np.concatenate(large) if large else ()):
        if core[seed] or in_subspace[seed]:
            continue
        closure = node_closure(g, seed, max_size)
        if closure is OVERFLOW:
            _mark_ancestors(inverse, core, np.array([seed]))
        else:
            in_subspace[list(closure)] = True
    if large:
        groups = _components(g, ~core)
    return SubspaceDecomposition(groups, np.flatnonzero(core), n)


def subspace_block(g: DirectedGraph, members: np.ndarray) -> np.ndarray:
    """Dense column-normalized block of S restricted to one subspace, whose
    ``members`` must be sorted (every ``SubspaceDecomposition`` lists them so).

    Closure guarantees every successor of a member is a member and that no
    member is dangling, so the block is exactly column-stochastic.
    """
    members = np.asarray(members, dtype=np.int64)
    d = members.size
    deg = g.out_offsets[members + 1] - g.out_offsets[members]
    block = np.zeros((d, d))
    block[np.searchsorted(members, _links_of(g, members)),
          np.repeat(np.arange(d), deg)] = np.repeat(1.0 / deg, deg)
    return block


@timed("subspaces.subspace_spectrum")
def subspace_spectrum(g: DirectedGraph, decomp: SubspaceDecomposition,
                      dense_limit: int = DEFAULT_DENSE_LIMIT) -> SubspaceSpectrum:
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
    unit_mod = int(np.count_nonzero(np.abs(np.abs(all_vals) - 1.0) <= UNIT_EIGENVALUE_TOL))
    unit_val = int(np.count_nonzero(np.abs(all_vals - 1.0) <= UNIT_EIGENVALUE_TOL))
    return SubspaceSpectrum(eigenvalues, skipped, unit_mod, unit_val)


def decomposition_to_json(decomp: SubspaceDecomposition,
                          member_limit: int | None = None) -> dict:
    """JSON-ready dict; member lists are elided above ``member_limit``,
    which must be >= 0."""
    if member_limit is not None and member_limit < 0:
        raise ValueError(f"member_limit must be >= 0, got {member_limit}")
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
    write_json(path, decomposition_to_json(decomp, member_limit))

"""Invariant-subspace detection and the block-triangular split of S.

A node belongs to an invariant subspace when the set of nodes reachable from
it through S stays finite and small: the out-link closure fits under a size
cutoff and never touches a dangling node (a dangling column is uniform, so
its closure is the whole network). Closures sharing members merge; all
remaining nodes form the core space, whose projected block is strictly
substochastic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
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


class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def decompose(g: DirectedGraph, max_size: int | None = None) -> SubspaceDecomposition:
    """Partition nodes into merged invariant subspaces and the core.

    The closure of any member of a completed closure is a subset of it, so
    once a closure fits it is recorded as one group and its members are
    never used as seeds again. A search aborts (seed is core) as soon as it
    meets a dangling node, a known-core node, or exceeds ``max_size``.
    """
    n = g.node_count
    if max_size is None:
        max_size = default_max_size(n)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    core = np.zeros(n, dtype=bool)
    in_subspace = np.zeros(n, dtype=bool)
    uf = _UnionFind(n)
    for seed in range(n):
        if core[seed] or in_subspace[seed]:
            continue
        closure = node_closure(g, seed, max_size, stop=core)
        if closure is OVERFLOW:
            core[seed] = True
            continue
        for member in closure:
            in_subspace[member] = True
            uf.union(seed, member)

    subspace_ids = np.flatnonzero(in_subspace)
    groups: dict[int, list[int]] = {}
    for node in subspace_ids:
        groups.setdefault(uf.find(int(node)), []).append(int(node))
    subspaces = sorted((np.array(sorted(members), dtype=np.int64)
                        for members in groups.values()),
                       key=lambda a: int(a[0]))
    return SubspaceDecomposition(subspaces, np.flatnonzero(~in_subspace), n)


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

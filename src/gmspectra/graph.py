"""Immutable directed-graph container with CSR adjacency in both link directions.

The graph stores the 0/1 adjacency structure only (duplicate edges collapse,
self-loops are kept). Both link directions are built at ingestion time so
that the link-inverted view is a free pointer swap.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifest import atomic_write

CACHE_MAGIC = b"SNRK"
CACHE_VERSION = 1

_CRC = struct.Struct("<I")


class EdgeListParseError(ValueError):
    """Malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NodeRangeError(ValueError):
    """Node id outside the declared dense range."""


class CacheError(IOError):
    """Base class for binary-cache load failures."""


class CacheFormatError(CacheError):
    """File is not a graph cache (bad magic bytes)."""


class CacheVersionError(CacheError):
    """Cache was written with an unsupported format version."""


class CacheTruncatedError(CacheError):
    """Cache file is shorter than its header promises."""


class CacheChecksumError(CacheError):
    """Cache payload does not match its trailing checksum."""


class CacheStructureError(CacheError):
    """Cache passes its checksum but its CSR arrays are inconsistent."""


@dataclass(frozen=True)
class CheckedFormat:
    """Checked binary container: a little-endian header (magic, version, then
    the counts that size the payload), the payload arrays back to back, and a
    trailing CRC-32 of every byte before it.

    ``layout(*counts)`` gives the little-endian dtype and length of each
    payload array. Arrays stream to and from the file without an
    intermediate copy of the payload.
    """

    kind: str
    magic: bytes
    version: int
    header: struct.Struct  # "<4sI" followed by one field per count
    layout: Callable[..., list[tuple[str, int]]]

    def write(self, path, counts, arrays) -> None:
        head = self.header.pack(self.magic, self.version, *counts)
        crc = zlib.crc32(head)
        with atomic_write(path, "wb") as fh:
            fh.write(head)
            for (dtype, _), arr in zip(self.layout(*counts), arrays):
                arr = np.ascontiguousarray(arr, dtype=dtype)
                crc = zlib.crc32(arr, crc)
                fh.write(arr)
            fh.write(_CRC.pack(crc))

    def read(self, path) -> list[np.ndarray]:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < self.header.size + _CRC.size:
                raise CacheTruncatedError(f"{path}: file shorter than {self.kind} header")
            head = fh.read(self.header.size)
            magic, version, *counts = self.header.unpack(head)
            if magic != self.magic:
                raise CacheFormatError(f"{path}: not a {self.kind} (bad magic)")
            if version != self.version:
                raise CacheVersionError(
                    f"{path}: {self.kind} version {version}, expected {self.version}")
            layout = self.layout(*counts)
            expected = (self.header.size + _CRC.size
                        + sum(np.dtype(dtype).itemsize * length for dtype, length in layout))
            if size < expected:
                raise CacheTruncatedError(f"{path}: expected {expected} bytes, found {size}")
            crc = zlib.crc32(head)
            arrays = []
            for dtype, length in layout:
                arr = np.empty(length, dtype=dtype)
                fh.readinto(memoryview(arr).cast("B"))
                crc = zlib.crc32(arr, crc)
                arrays.append(arr)
            (stored,) = _CRC.unpack(fh.read(_CRC.size))
        if crc != stored:
            raise CacheChecksumError(f"{path}: checksum mismatch")
        return arrays


GRAPH_CACHE = CheckedFormat(
    "graph cache", CACHE_MAGIC, CACHE_VERSION, struct.Struct("<4sIQQ"),
    lambda n, n_ell: [("<i8", n + 1), ("<u4", n_ell), ("<i8", n + 1), ("<u4", n_ell)])


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph in compressed sparse row form, both link directions.

    ``out_offsets``/``out_indices`` give, for each node, its sorted successor
    list; ``in_offsets``/``in_indices`` the sorted predecessor list. The two
    encode exactly the same edge set.
    """

    node_count: int
    out_offsets: np.ndarray  # int64, length N+1
    out_indices: np.ndarray  # uint32, length N_ell, sorted per row
    in_offsets: np.ndarray
    in_indices: np.ndarray
    original_ids: np.ndarray | None = field(default=None, compare=False)

    @property
    def edge_count(self) -> int:
        return int(self.out_offsets[-1])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_offsets)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_offsets)

    @property
    def dangling_nodes(self) -> np.ndarray:
        """Sorted ids of nodes with zero out-degree."""
        return np.flatnonzero(self.out_degrees == 0)

    def successors(self, node: int) -> np.ndarray:
        return self.out_indices[self.out_offsets[node]:self.out_offsets[node + 1]]

    def predecessors(self, node: int) -> np.ndarray:
        return self.in_indices[self.in_offsets[node]:self.in_offsets[node + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (src, dst) arrays, sorted by (src, dst)."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64),
                        self.out_degrees)
        return src, self.out_indices.astype(np.int64)

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.out_offsets, other.out_offsets)
                and np.array_equal(self.out_indices, other.out_indices)
                and np.array_equal(self.in_offsets, other.in_offsets)
                and np.array_equal(self.in_indices, other.in_indices))

    def __hash__(self):
        return hash((self.node_count, self.edge_count))


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    links_per_node: float
    dangling_count: int
    in_degree_histogram: np.ndarray
    out_degree_histogram: np.ndarray


def _edge_key(src, dst):
    """``src << 32 | dst``, one ``uint64`` per link that sorts as (src, dst); ids < 2**32."""
    return src.astype(np.uint64) << 32 | dst.astype(np.uint64)


def _csr(rows, entries, n):
    """CSR arrays of the links rows[i] -> entries[i], sorted by (row, entry), repeats dropped."""
    key = _edge_key(rows, entries)
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    return np.searchsorted(key, np.arange(n + 1, dtype=np.uint64) << 32), key.astype(np.uint32)


def from_edges(src, dst, num_nodes=None, original_ids=None) -> DirectedGraph:
    """Build a DirectedGraph from parallel src/dst arrays.

    Duplicate edges collapse; self-loops are kept. ``num_nodes`` defaults to
    max id + 1 (or the length of ``original_ids`` in remap mode); it must be
    below 2**32, else ``NodeRangeError``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same length")
    if num_nodes is None:
        top = -1
        if src.size:
            top = max(int(src.max()), int(dst.max()))
        if original_ids is not None:
            top = max(top, len(original_ids) - 1)
        num_nodes = top + 1
    n = int(num_nodes)
    if n < 1:
        raise ValueError("graph must have at least one node")
    if n >= 2**32:  # checked before any O(N) array: CSR indices are uint32
        raise NodeRangeError(f"{n} nodes: node ids are stored as uint32, N must be < 2**32")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise NodeRangeError(f"node id {hi if hi >= n else lo} outside [0, {n})")

    out_offsets, out_indices = _csr(src, dst, n)
    in_offsets, in_indices = _csr(dst, src, n)
    ids = None
    if original_ids is not None:
        ids = np.asarray(original_ids, dtype=np.int64)
    return DirectedGraph(n, out_offsets, out_indices, in_offsets, in_indices, ids)


def parse_edge_list(source, id_mode="dense", num_nodes=None) -> DirectedGraph:
    """Parse a "src dst" edge list into a DirectedGraph.

    ``source`` may be a path, an open text stream, or an iterable of lines.
    Lines starting with '#' and blank lines are skipped. In ``remap`` mode
    original ids are assigned dense internal ids in first-appearance order
    and kept on the graph as ``original_ids``; in ``dense`` mode ids are used
    as-is and must be < ``num_nodes`` when that is given. Ids must be < 2**63
    in both modes. A path is read as UTF-8.
    """
    if id_mode not in ("dense", "remap"):
        raise ValueError(f"unknown id_mode {id_mode!r}")
    if id_mode == "remap" and num_nodes is not None:
        raise ValueError("num_nodes applies to dense mode only; remap mode counts the ids")
    close = False
    if isinstance(source, (str, os.PathLike)):
        source = open(source, "r", encoding="utf-8")
        close = True
    try:
        srcs, dsts = [], []
        for lineno, line in enumerate(source, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(parts)}")
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"non-integer token in {stripped!r}") from None
            if s < 0 or d < 0:
                raise EdgeListParseError(lineno, "negative node id")
            if s >= 2**63 or d >= 2**63:
                raise EdgeListParseError(lineno, "node id above 2**63 - 1")
            srcs.append(s)
            dsts.append(d)
    finally:
        if close:
            source.close()

    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    if id_mode == "remap":
        originals, first_pos, inverse = np.unique(
            np.concatenate([src, dst]), return_index=True, return_inverse=True)
        # first-appearance order, not sorted order; first positions are distinct
        order = np.argsort(first_pos)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        remapped = rank[inverse]
        src, dst = remapped[:src.size], remapped[src.size:]
        return from_edges(src, dst, num_nodes=originals.size, original_ids=originals[order])
    return from_edges(src, dst, num_nodes=num_nodes)


def invert(g: DirectedGraph) -> DirectedGraph:
    """Link-inverted view: out- and in-adjacency swap. O(1)."""
    return DirectedGraph(g.node_count, g.in_offsets, g.in_indices,
                         g.out_offsets, g.out_indices, g.original_ids)


def degree_stats(g: DirectedGraph) -> GraphStats:
    out_deg = g.out_degrees
    in_deg = g.in_degrees
    return GraphStats(
        node_count=g.node_count,
        edge_count=g.edge_count,
        links_per_node=g.edge_count / g.node_count,
        dangling_count=int(np.count_nonzero(out_deg == 0)),
        in_degree_histogram=np.bincount(in_deg),
        out_degree_histogram=np.bincount(out_deg),
    )


def save_cache(g: DirectedGraph, path) -> None:
    """Write the binary cache: magic, version, N, N_ell, CSR arrays, crc32."""
    GRAPH_CACHE.write(path, (g.node_count, g.edge_count),
                      (g.out_offsets, g.out_indices, g.in_offsets, g.in_indices))


def load_cache(path) -> DirectedGraph:
    """Read a cache written by ``save_cache``; besides the container checks,
    both link directions must be valid CSR arrays over N nodes, and they must
    be the arrays ``from_edges`` builds for the out-links' edge set."""
    out_offsets, out_indices, in_offsets, in_indices = GRAPH_CACHE.read(path)
    n = out_offsets.size - 1
    for name, offsets, indices in (("out", out_offsets, out_indices),
                                   ("in", in_offsets, in_indices)):
        if (offsets[0] != 0 or offsets[-1] != indices.size
                or np.any(offsets[1:] < offsets[:-1])):
            raise CacheStructureError(f"{path}: {name}-link offsets are not monotone "
                                      f"from 0 to {indices.size}")
        if indices.size and int(indices.max()) >= n:
            raise CacheStructureError(f"{path}: {name}-link node id "
                                      f"{int(indices.max())} outside [0, {n})")
    rows = np.repeat(np.arange(n, dtype=np.uint32), np.diff(out_offsets))
    key = _edge_key(rows, out_indices)
    if np.any(key[1:] <= key[:-1]):
        raise CacheStructureError(f"{path}: out-link rows are not strictly increasing")
    del key  # before _csr allocates its own keys
    in_csr = _csr(out_indices, rows, n)
    if not (np.array_equal(in_csr[0], in_offsets) and np.array_equal(in_csr[1], in_indices)):
        raise CacheStructureError(f"{path}: in-links are not the out-links reversed "
                                  "(sorted rows, no repeated link)")
    return DirectedGraph(n, out_offsets, out_indices, in_offsets, in_indices)

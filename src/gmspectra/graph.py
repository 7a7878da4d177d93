"""Immutable directed-graph container with CSR adjacency over the out-links.

The graph stores the 0/1 adjacency structure only (duplicate edges collapse,
self-loops are kept), one link direction: each node's sorted successors.
``_csr`` is the one place that sorts links: ``from_edges`` builds the
out-links with it, and ``invert`` builds the link-inverted graph, whose
out-links are the in-links, with one sort. The binary cache stores the
out-links; loading it checks them by comparing neighbouring ids.
``parse_edge_list`` reads an edge-list file with one ``np.loadtxt`` call;
the per-line parser that reads streams and lists judges any file that
call does not read as plain edges. That parser yields ids one at a time,
and ``np.fromiter`` takes them into one ``int64`` array. Input that fails
a check, in an edge list or a cache, raises ``DataError`` with a message of
its own; ``EdgeListParseError`` adds the line number.
"""

from __future__ import annotations

import itertools
import os
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifest import atomic_write, timed

CACHE_MAGIC = b"SNRK"
CACHE_VERSION = 2

_CRC = struct.Struct("<I")


class DataError(ValueError):
    """Input data that fails a check: an edge list, a cache, a rank vector or
    a decomposition file. Each check has its own message; the CLI exits 4 on
    any of them."""


class EdgeListParseError(DataError):
    """Malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class CheckedFormat:
    """Checked binary container: a little-endian header (magic, version, then
    the counts that size the payload), the payload arrays back to back, and a
    trailing CRC-32 of every byte before it.

    ``layout(*counts)`` gives the little-endian dtype and length of each
    payload array. Arrays stream to and from the file without an
    intermediate copy of the payload. A file that fails a check (size, magic,
    version, checksum) raises ``DataError`` naming the file and the check.
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
                raise DataError(f"{path}: file shorter than {self.kind} header")
            head = fh.read(self.header.size)
            magic, version, *counts = self.header.unpack(head)
            if magic != self.magic:
                raise DataError(f"{path}: not a {self.kind} (bad magic)")
            if version != self.version:
                raise DataError(f"{path}: {self.kind} version {version}, expected {self.version}")
            layout = self.layout(*counts)
            expected = (self.header.size + _CRC.size
                        + sum(np.dtype(dtype).itemsize * length for dtype, length in layout))
            if size != expected:
                raise DataError(f"{path}: expected {expected} bytes, found {size}")
            crc = zlib.crc32(head)
            arrays = []
            for dtype, length in layout:
                arr = np.empty(length, dtype=dtype)
                fh.readinto(memoryview(arr).cast("B"))
                crc = zlib.crc32(arr, crc)
                arrays.append(arr)
            (stored,) = _CRC.unpack(fh.read(_CRC.size))
        if crc != stored:
            raise DataError(f"{path}: checksum mismatch")
        return arrays


GRAPH_CACHE = CheckedFormat(
    "graph cache", CACHE_MAGIC, CACHE_VERSION, struct.Struct("<4sIQQ"),
    lambda n, n_ell: [("<i8", n + 1), ("<u4", n_ell)])


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph in compressed sparse row form over the out-links.

    ``out_offsets``/``out_indices`` give, for each node, its sorted successor
    list; the predecessor lists are the successor lists of ``invert(g)``.
    """

    node_count: int
    out_offsets: np.ndarray  # int64, length N+1
    out_indices: np.ndarray  # uint32, length N_ell, sorted per row
    original_ids: np.ndarray | None = field(default=None, compare=False)

    @property
    def edge_count(self) -> int:
        return int(self.out_offsets[-1])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_offsets)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_indices, minlength=self.node_count)

    @property
    def dangling_nodes(self) -> np.ndarray:
        """Sorted ids of nodes with zero out-degree."""
        return np.flatnonzero(self.out_degrees == 0)

    def successors(self, node: int) -> np.ndarray:
        return self.out_indices[self.out_offsets[node]:self.out_offsets[node + 1]]

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
                and np.array_equal(self.out_indices, other.out_indices))


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
    key = src.astype(np.uint64)
    key <<= 32
    np.bitwise_or(key, dst, out=key, dtype=np.uint64, casting="unsafe")
    return key


def _csr(rows, entries, n):
    """CSR arrays of the links rows[i] -> entries[i], sorted by (row, entry), repeats dropped."""
    key = _edge_key(rows, entries)
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    if not keep.all():  # never in ``invert``: its links are already distinct
        key = key[keep]
    return np.searchsorted(key, np.arange(n + 1, dtype=np.uint64) << 32), key.astype(np.uint32)


def from_edges(src, dst, num_nodes=None, original_ids=None) -> DirectedGraph:
    """Build a DirectedGraph from parallel src/dst arrays.

    Duplicate edges collapse; self-loops are kept. ``num_nodes`` defaults to
    max id + 1 (or the length of ``original_ids`` in remap mode); it must be
    below 2**32 and above every id, else ``DataError``.
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
        raise DataError(f"{n} nodes: node ids are stored as uint32, N must be < 2**32")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise DataError(f"node id {hi if hi >= n else lo} outside [0, {n})")

    ids = None
    if original_ids is not None:
        ids = np.asarray(original_ids, dtype=np.int64)
    return DirectedGraph(n, *_csr(src, dst, n), ids)


def _blank_or_comment(line) -> bool:
    """The per-line parser's skip rule: a line that strips to nothing or to a '#' comment."""
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _parse_lines(lines):
    """Per-line parser: yields the ids of ``lines`` in order, src then dst of
    each edge, numbering the lines from 1; ``np.fromiter`` takes them into
    one ``int64`` array."""
    for lineno, line in enumerate(lines, start=1):
        if _blank_or_comment(line):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(parts)}")
        try:
            s, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer token in {line.strip()!r}") from None
        if s < 0 or d < 0:
            raise EdgeListParseError(lineno, "negative node id")
        if s >= 2**63 or d >= 2**63:
            raise EdgeListParseError(lineno, "node id above 2**63 - 1")
        yield s
        yield d


def _parse_file(path) -> np.ndarray:
    """The ids of an edge-list file as one ``int64`` array of alternating src
    and dst. After its leading blank and '#' lines, the file is read by
    ``np.loadtxt``; if that raises or warns, or its rows do not all hold two
    non-negative ids, the file is read again, as UTF-8 text with universal
    newlines, by ``_parse_lines``, which gives the ids or the first bad
    line's error. A ``MemoryError`` is raised as it is, not retried; a
    ``UnicodeDecodeError`` anywhere in reading the file becomes a
    ``DataError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = sum(1 for _ in itertools.takewhile(_blank_or_comment, fh))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ids = np.loadtxt(path, dtype=np.int64, comments=None, skiprows=header,
                                 ndmin=2, encoding="utf-8")
            if ids.shape[1] == 2 and ids.min() >= 0:
                return ids.ravel()
        except MemoryError:
            raise
        except Exception:  # numpy opens a path ending in .gz, .bz2, .xz or .zip as compressed
            pass
        with open(path, encoding="utf-8") as fh:
            return np.fromiter(_parse_lines(fh), dtype=np.int64)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@timed("graph.parse_edge_list")
def parse_edge_list(source, id_mode="dense", num_nodes=None) -> DirectedGraph:
    """Parse a "src dst" edge list into a DirectedGraph.

    ``source`` may be a path, an open text stream, or an iterable of lines.
    Lines starting with '#' and blank lines are skipped. In ``remap`` mode
    original ids are assigned dense internal ids in first-appearance order
    (first in the src column, then in the dst column) and kept on the graph
    as ``original_ids``; in ``dense`` mode ids are used as-is and must be <
    ``num_nodes`` when that is given. Ids must be < 2**63 in both modes. An
    edge list with no edge raises ``DataError``, which names the file of a
    path, unless ``num_nodes`` is given.

    A path is read by ``np.loadtxt`` after its leading blank and '#' lines.
    A file that call rejects, or whose rows are not all two non-negative
    ids (a '#' line after the first edge, a token such as ``1_0`` that only
    Python's ``int`` reads, a malformed line), is read again whole as UTF-8
    text with universal newlines, line by line, as a text stream is. Both
    give the same ids, and a malformed line raises ``EdgeListParseError``, a
    ``DataError``, with its line number either way; a file that is not
    UTF-8 raises ``DataError``.
    """
    if id_mode not in ("dense", "remap"):
        raise ValueError(f"unknown id_mode {id_mode!r}")
    if id_mode == "remap" and num_nodes is not None:
        raise ValueError("num_nodes applies to dense mode only; remap mode counts the ids")
    is_path = isinstance(source, (str, os.PathLike))
    ids = _parse_file(source) if is_path else np.fromiter(_parse_lines(source), dtype=np.int64)
    if ids.size == 0 and num_nodes is None:
        where = f"{source}: " if is_path else ""
        raise DataError(f"{where}no edge, and no node count to give the graph its nodes")
    if id_mode == "dense":
        with timed("graph.from_edges"):
            return from_edges(ids[0::2], ids[1::2], num_nodes=num_nodes)
    ids = ids.reshape(-1, 2).T.ravel()  # the src column, then the dst column
    originals, first_pos, inverse = np.unique(ids, return_index=True, return_inverse=True)
    del ids
    # first-appearance order, not sorted order; first positions are distinct
    order = np.argsort(first_pos)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    remapped = rank[inverse]
    half = remapped.size // 2
    with timed("graph.from_edges"):
        return from_edges(remapped[:half], remapped[half:], num_nodes=originals.size,
                          original_ids=originals[order])


def invert(g: DirectedGraph) -> DirectedGraph:
    """Link-inverted graph: each link i -> j becomes j -> i, so its out-links
    are the in-links of ``g``. Sorts the links once. A successor id >= N
    raises ``ValueError``: no row would hold its link."""
    n = g.node_count
    if g.out_indices.size and int(g.out_indices.max()) >= n:
        raise ValueError(f"node id {int(g.out_indices.max())} outside [0, {n})")
    rows = np.repeat(np.arange(n, dtype=np.uint32), g.out_degrees)
    return DirectedGraph(n, *_csr(g.out_indices, rows, n), g.original_ids)


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


@timed("graph.save_cache")
def save_cache(g: DirectedGraph, path) -> None:
    """Write the binary cache: magic, version, N, N_ell, out-link CSR arrays, crc32."""
    GRAPH_CACHE.write(path, (g.node_count, g.edge_count), (g.out_offsets, g.out_indices))


@timed("graph.load_cache")
def load_cache(path) -> DirectedGraph:
    """Read a cache written by ``save_cache``. Besides the container checks,
    the out-links must be CSR arrays over N >= 1 nodes whose rows are sorted
    with no repeated link, else ``DataError``. The row check compares neighbouring ids, one bool
    per link; the first link of each row is exempt."""
    out_offsets, out_indices = GRAPH_CACHE.read(path)
    n = out_offsets.size - 1
    if n < 1:
        raise DataError(f"{path}: graph has no nodes")
    if (out_offsets[0] != 0 or out_offsets[-1] != out_indices.size
            or np.any(out_offsets[1:] < out_offsets[:-1])):
        raise DataError(f"{path}: out-link offsets are not monotone from 0 to {out_indices.size}")
    if out_indices.size and int(out_indices.max()) >= n:
        raise DataError(f"{path}: out-link node id {int(out_indices.max())} outside [0, {n})")
    # ok[k]: link k is the first of its row or above the link before it;
    # the offsets run from 0 to the link count, so ok has one spare slot
    ok = np.empty(out_indices.size + 1, dtype=bool)
    np.greater(out_indices[1:], out_indices[:-1], out=ok[1:-1])
    ok[out_offsets] = True
    if not ok.all():
        raise DataError(f"{path}: out-link rows are not strictly increasing")
    return DirectedGraph(n, out_offsets, out_indices)

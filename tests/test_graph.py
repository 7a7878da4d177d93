import io

import numpy as np
import pytest

from gmspectra import (degree_stats, from_edges, invert, load_cache,
                       parse_edge_list, save_cache)
from gmspectra.graph import (GRAPH_CACHE, CacheChecksumError, CacheFormatError,
                             CacheStructureError, CacheTruncatedError,
                             CacheVersionError, EdgeListParseError,
                             NodeRangeError, _edge_key)

from conftest import random_graph


def test_two_cycle():
    g = parse_edge_list(["0 1", "1 0"])
    assert g.node_count == 2
    assert g.edge_count == 2
    assert g.dangling_nodes.size == 0


def test_duplicate_edges_collapse_and_dangling():
    g = parse_edge_list(["0 1", "0 1", "1 2"])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert list(g.dangling_nodes) == [2]


def test_comments_blank_lines_whitespace():
    text = "# header\n\n 0\t1 \n#c\n1 0\n"
    g = parse_edge_list(io.StringIO(text))
    assert g.edge_count == 2


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(["0 1", "0 one"])
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list(["0 1 2"])


def test_node_id_past_int64_is_a_parse_error():
    for mode in ("dense", "remap"):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(["0 1", "# c", "1 99999999999999999999"], id_mode=mode)
        assert exc.value.line_number == 3


def test_num_nodes_rejected_in_remap_mode():
    with pytest.raises(ValueError, match="dense mode only"):
        parse_edge_list(["10 7"], id_mode="remap", num_nodes=2)


def test_dense_mode_range_error():
    with pytest.raises(NodeRangeError):
        parse_edge_list(["0 5"], num_nodes=3)


def test_node_count_past_uint32_rejected():
    # raised before any O(N) array is allocated (N + 1 offsets would be 32 GiB)
    with pytest.raises(NodeRangeError):
        from_edges([0], [1], num_nodes=2**32)
    with pytest.raises(NodeRangeError):
        parse_edge_list(["0 4294967296"])


def lexsort_csr(src, dst, n):
    """Reference CSR build: both link directions by ``np.lexsort`` of the
    (src, dst) pairs, duplicates dropped by a two-array mask."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keep = np.ones(src.size, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[keep], dst[keep]
    arrays = []
    for rows, entries in ((src, dst), (dst, src)):
        order = np.lexsort((entries, rows))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
        arrays += [offsets, entries[order].astype(np.uint32)]
    return arrays


@pytest.mark.parametrize("case", ["random", "self-loops", "sorted", "empty", "isolated-tail"])
def test_from_edges_matches_lexsort_reference(rng, case):
    n, m = 300, 5000  # about 5 % of the links repeat
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    if case == "self-loops":
        dst[::3] = src[::3]
    elif case == "sorted":
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    elif case == "empty":
        src, dst = src[:0], dst[:0]
    num_nodes = n + 50 if case in ("empty", "isolated-tail") else None
    g = from_edges(src, dst, num_nodes)
    got = [g.out_offsets, g.out_indices, g.in_offsets, g.in_indices]
    for array, expected in zip(got, lexsort_csr(src, dst, g.node_count)):
        assert array.dtype == expected.dtype
        assert np.array_equal(array, expected)


def test_edge_key_round_trip_to_uint32_max():
    # no graph with ids near 2**32 fits here, so the keys are checked alone;
    # a shift in signed int64 would wrap the high word of ids >= 2**31
    ids = np.array([0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.int64)
    src, dst = np.meshgrid(ids, ids[::-1])
    src, dst = src.ravel(), dst.ravel()
    key = _edge_key(src, dst)
    assert key.dtype == np.uint64
    assert np.array_equal(key >> 32, src) and np.array_equal(key.astype(np.uint32), dst)
    assert np.array_equal(np.argsort(key), np.lexsort((dst, src)))


def test_remap_first_appearance_order():
    g = parse_edge_list(["10 7", "7 99"], id_mode="remap")
    assert g.node_count == 3
    assert list(g.original_ids) == [10, 7, 99]
    # edge 10->7 becomes 0->1, 7->99 becomes 1->2
    assert list(g.successors(0)) == [1]
    assert list(g.successors(1)) == [2]


def test_self_loops_kept():
    g = parse_edge_list(["0 0", "0 1"])
    assert g.edge_count == 2
    assert list(g.successors(0)) == [0, 1]


def test_transpose_consistency_against_dense(rng):
    n = 100
    g = random_graph(rng, n, 0.05)
    dense = np.zeros((n, n), dtype=bool)
    for i in range(n):
        dense[i, g.successors(i)] = True
    for j in range(n):
        assert np.array_equal(np.flatnonzero(dense[:, j]), g.predecessors(j))
    # successor lists strictly increasing
    for i in range(n):
        succ = g.successors(i)
        assert np.all(np.diff(succ.astype(np.int64)) > 0)


def test_invert_examples():
    chain = parse_edge_list(["0 1", "1 2"])
    inv = invert(chain)
    assert list(inv.successors(2)) == [1]
    assert list(inv.successors(1)) == [0]
    assert list(chain.dangling_nodes) == [2]
    assert list(inv.dangling_nodes) == [0]
    cyc = parse_edge_list(["0 1", "1 0"])
    assert invert(cyc) == cyc


def test_invert_is_involution(rng):
    g = random_graph(rng, 100, 0.05)
    assert invert(invert(g)) == g


def test_degree_stats():
    star = parse_edge_list([f"0 {i}" for i in range(1, 10)])
    s = degree_stats(star)
    assert s.links_per_node == 0.9
    assert s.dangling_count == 9
    assert s.out_degree_histogram[0] == 9 and s.out_degree_histogram[9] == 1
    assert s.in_degree_histogram[0] == 1 and s.in_degree_histogram[1] == 9
    # histogram mass equals edge count
    deg = np.arange(s.in_degree_histogram.size)
    assert np.sum(deg * s.in_degree_histogram) == s.edge_count
    deg = np.arange(s.out_degree_histogram.size)
    assert np.sum(deg * s.out_degree_histogram) == s.edge_count

    cyc = parse_edge_list(["0 1", "1 0"])
    s = degree_stats(cyc)
    assert s.links_per_node == 1.0
    assert s.dangling_count == 0


def test_cache_roundtrip(tmp_path):
    g = parse_edge_list(["0 1", "1 0"])
    path = tmp_path / "g.cache"
    save_cache(g, path)
    assert load_cache(path) == g


def test_cache_roundtrip_single_dangling_node(tmp_path):
    g = from_edges([], [], num_nodes=1)
    path = tmp_path / "g.cache"
    save_cache(g, path)
    loaded = load_cache(path)
    assert loaded == g
    assert list(loaded.dangling_nodes) == [0]


def test_cache_reserialization_is_byte_identical(rng, tmp_path):
    n = 20_000
    src = rng.integers(0, n, 1_000_000)
    dst = rng.integers(0, n, 1_000_000)
    g = from_edges(src, dst, n)
    p1, p2 = tmp_path / "a.cache", tmp_path / "b.cache"
    save_cache(g, p1)
    save_cache(load_cache(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_load_errors(tmp_path):
    g = parse_edge_list(["0 1", "1 0"])
    path = tmp_path / "g.cache"
    save_cache(g, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CacheFormatError):
        load_cache(bad)

    bad.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(CacheVersionError):
        load_cache(bad)

    bad.write_bytes(blob[:-10])
    with pytest.raises(CacheTruncatedError):
        load_cache(bad)

    corrupted = bytearray(blob)
    corrupted[30] ^= 0xFF
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(CacheChecksumError):
        load_cache(bad)

    # a valid checksum over malformed CSR arrays
    g = parse_edge_list(["0 1", "0 2", "1 2", "2 0"])
    arrays = (g.out_offsets, g.out_indices, g.in_offsets, g.in_indices)
    assert list(g.in_indices) == [2, 0, 0, 1]
    for slot, array, message in [
            (3, np.array([2, 0, 0, 3]), "outside"),  # in-link id 3 >= N
            (1, np.array([1, 2, 3, 0]), "outside"),  # out-link id 3 >= N
            (0, g.out_offsets[[0, 2, 1, 3]], "monotone"),  # offsets 0,3,2,4
            (1, np.array([2, 1, 2, 0]), "not strictly increasing"),  # successors 2,1
            (1, np.array([1, 1, 2, 0]), "not strictly increasing"),  # link 0->1 twice
            (3, np.array([2, 0, 1, 0]), "not the out-links reversed"),  # predecessors 1,0
            (3, np.array([2, 0, 1, 1]), "not the out-links reversed"),  # link 1->2 twice
            (3, np.array([1, 0, 0, 1]), "not the out-links reversed")]:  # 1->0 is no link
        GRAPH_CACHE.write(bad, (g.node_count, g.edge_count),
                          arrays[:slot] + (array,) + arrays[slot + 1:])
        with pytest.raises(CacheStructureError, match=message):
            load_cache(bad)


def test_parse_idempotent_under_reserialization(rng):
    g = random_graph(rng, 50, 0.1)
    src, dst = g.edges()
    lines = [f"{s} {d}" for s, d in zip(src, dst)]
    assert parse_edge_list(lines, num_nodes=50) == g

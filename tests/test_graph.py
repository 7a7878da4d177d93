import io
import os
import re

import numpy as np
import pytest

from gmspectra import (decompose, degree_stats, from_edges, invert, load_cache,
                       ng_filling, parse_edge_list, save_cache, subspace_spectrum)
from gmspectra import graph as gr
from gmspectra.graph import GRAPH_CACHE, DataError, EdgeListParseError, _edge_key

from conftest import random_graph, write_version_1_cache


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


@pytest.fixture(params=["lines", "file"])
def edge_source(request, tmp_path):
    """Turns edge-list text into a parse source: a list of lines, or a file,
    which ``parse_edge_list`` reads as bytes."""
    def make(text):
        if request.param == "lines":
            return text.splitlines()
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        return path
    return make


def test_comments_blank_lines_whitespace(edge_source):
    text = "# header\n\n 0\t1 \n#c\n1 0\n"
    g = parse_edge_list(edge_source(text))
    assert g.edge_count == 2
    assert g == parse_edge_list(io.StringIO(text))


def test_parse_error_carries_line_number(edge_source):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(edge_source("0 1\n0 one\n"))
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list(edge_source("0 1 2\n"))


def test_node_id_past_int64_is_a_parse_error(edge_source):
    for mode in ("dense", "remap"):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(edge_source("0 1\n# c\n1 99999999999999999999\n"), id_mode=mode)
        assert exc.value.line_number == 3


def _parse_outcome(source, id_mode):
    """The graph and original ids ``parse_edge_list`` gives, or the type,
    message and line number of the error it raises; a message that names
    the file is given without the name, which a stream does not have."""
    try:
        g = parse_edge_list(source, id_mode=id_mode)
    except ValueError as exc:
        return type(exc), str(exc).removeprefix(f"{source}: "), getattr(exc, "line_number", None)
    ids = None if g.original_ids is None else g.original_ids.tolist()
    return g.node_count, g.out_offsets.tolist(), g.out_indices.tolist(), ids


def _file_outcome(tmp_path, text, id_mode="dense"):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    return _parse_outcome(path, id_mode)


def _text_outcome(text, id_mode="dense"):
    return _parse_outcome(io.StringIO(text, newline=None), id_mode)


@pytest.mark.parametrize("text, edges", [
    ("0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),  # CRLF
    ("0 1\r1 2\r2 0", [(0, 1), (1, 2), (2, 0)]),  # lone CR, no final newline
    ("007 0010\n", [(7, 10)]),  # leading zeros
    ("0 1\n1 2", [(0, 1), (1, 2)]),  # no final newline
    ("0\x0b1\n1\x1c2\n2\x853\n", [(0, 1), (1, 2), (2, 3)]),  # str.split blanks
], ids=["crlf", "lone-cr", "leading-zeros", "no-final-newline", "unicode-blanks"])
def test_file_matches_text_stream(tmp_path, text, edges):
    got = _file_outcome(tmp_path, text)
    assert got == _text_outcome(text)
    src, dst = zip(*edges)
    assert parse_edge_list(tmp_path / "edges.txt") == from_edges(src, dst)


def test_file_errors_match_text_stream(tmp_path):
    for text, line in [
        # a byte-order mark is no blank to str.strip, so line 1 is malformed,
        # as in a text stream; a CR ends a line for the line count
        ("\ufeff0 1\n", 1), ("0 1\r1 2\r\n2 x\n", 3),
        # ids that np.loadtxt reads through a float, or not at all
        ("1.0 2\n", 1), ("1e3 2\n", 1),
        # rows np.loadtxt accepts, all of one shape, that are not edges
        ("0 1 2\n3 4 5\n", 1), ("0\n1\n", 1), ("0 1\n2 -1\n", 2), ("0 -1\n", 1),
    ]:
        got = _file_outcome(tmp_path, text)
        assert got == _text_outcome(text), repr(text)
        assert got[0] is EdgeListParseError and got[2] == line, repr(text)


def test_file_id_of_19_digits_in_remap_mode(tmp_path):
    text = "1000000000000000000 5\n5 9223372036854775807\n"
    got = _file_outcome(tmp_path, text, "remap")
    assert got == _text_outcome(text, "remap")
    assert got[3] == [10**18, 5, 2**63 - 1]


def _count_line_parser_calls(monkeypatch):
    calls = []
    parse_lines = gr._parse_lines

    def counted(lines):
        calls.append(1)
        return parse_lines(lines)

    monkeypatch.setattr(gr, "_parse_lines", counted)
    return calls


def test_plain_file_blocks_skip_the_line_parser(tmp_path, monkeypatch):
    calls = _count_line_parser_calls(monkeypatch)
    for text, line_parser in [
        ("0 1\n\n 1\t2 \n2 0", False),  # plain, no final newline
        ("0 1\r\n1 2\r\n2 0\r\n", False),  # CRLF
        ("# header\n\n  # more\r\n0 1\n1 2\n2 0\n", False),  # leading blank and '#' lines
        ("0 1\n# comment\n1 2\n2 0\n", True),  # a '#' line after the first edge
        ("0 1\n1_0 2\n2 0\n", True),  # a token only Python's int reads
    ]:
        calls.clear()
        got = _file_outcome(tmp_path, text)
        assert bool(calls) is line_parser, repr(text)
        assert got == _text_outcome(text)
        assert isinstance(got[0], int)


@pytest.mark.parametrize("crlf_every", [1, 3, 7, 64])
def test_file_error_line_after_many_blocks(tmp_path, crlf_every):
    # a '#' line before the bad line, and every crlf_every-th line ending in
    # CRLF; the per-line parser numbers the lines of the whole file
    lines = [f"{i} {i + 1}" + ("\r\n" if i % crlf_every == crlf_every - 1 else "\n")
             for i in range(60)]
    lines.insert(41, "# comment\n")
    good = "".join(lines)
    lines.insert(56, "12 -4\n")
    text = "".join(lines)
    got = _file_outcome(tmp_path, text)
    assert got == _text_outcome(text)
    assert got[0] is EdgeListParseError and got[2] == 57
    src, dst = range(60), range(1, 61)
    assert _file_outcome(tmp_path, good) == _text_outcome(good)
    assert parse_edge_list(tmp_path / "edges.txt") == from_edges(src, dst)


def test_stream_error_line_past_many_ids():
    # 78,000 ids before the bad line, whose number counts the '#' line
    lines = [f"{i} {i + 1}\n" for i in range(40_000)]
    lines.insert(12, "# comment\n")
    lines.insert(39_000, "7 x\n")
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(io.StringIO("".join(lines)))
    assert err.value.line_number == 39_001
    del lines[39_000]
    g = parse_edge_list(io.StringIO("".join(lines)))
    assert g == from_edges(range(40_000), range(1, 40_001))


def _loadtxt_out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate the ids")


def test_loadtxt_out_of_memory_is_raised_not_retried(tmp_path, monkeypatch):
    # the per-line parser would read the whole file again, 7-13x slower
    calls = _count_line_parser_calls(monkeypatch)
    monkeypatch.setattr(np, "loadtxt", _loadtxt_out_of_memory)
    (tmp_path / "edges.txt").write_text("0 1\n1 0\n")
    with pytest.raises(MemoryError):
        parse_edge_list(tmp_path / "edges.txt")
    assert not calls


def test_plain_text_gz_path_parses_as_text(tmp_path):
    # np.loadtxt opens a path ending in .gz as gzip; the per-line parser reads it as text
    text = "0 1\n1 2\n"
    (tmp_path / "edges.gz").write_text(text)
    (tmp_path / "edges.txt").write_text(text)
    assert parse_edge_list(tmp_path / "edges.gz") == parse_edge_list(tmp_path / "edges.txt")


def test_empty_edge_list(edge_source):
    for text in ("", "# c\n\n"):
        source = edge_source(text)
        # a path is named in the message; a list of lines has no name
        where = f"{source}: " if isinstance(source, os.PathLike) else ""
        message = re.escape(f"{where}no edge, and no node count to give the graph its nodes")
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_edge_list(source)
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_edge_list(source, id_mode="remap")
        g = parse_edge_list(edge_source(text), num_nodes=4)
        assert g.node_count == 4 and g.edge_count == 0


# tokens and separators of the differential test: ids np.loadtxt reads and
# ids that need the per-line parser ("_", non-ASCII digits) or that it
# rejects (2**63, "-3", "x"), among blanks and line ends of every kind
_TOKENS = ["0", "1", "7", "42", "0042", "65535", "4294967295", "123456789012345678",
           "1000000000000000000", "9223372036854775807", "9223372036854775808",
           "99999999999999999999", "+5", "-3", "1_0", "x", "\u0663", "#", "#7 8"]
_SEPARATORS = [" ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u3000"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n"]


def _random_edge_text(rng):
    lines = []
    for _ in range(rng.integers(0, 12)):
        if rng.random() < 0.2:  # a '#' line sends a file to the per-line parser after an edge
            lines.append("# c" + rng.choice(_LINE_ENDS))
            continue
        count = rng.choice([2, 2, 2, 2, 1, 3, 0])
        # mostly plain lines, so that many whole files are read by np.loadtxt
        plain = rng.random() < 0.7
        tokens = [(_TOKENS[rng.integers(0, 6)] if plain else rng.choice(_TOKENS))
                  for _ in range(count)]
        seps = [" " if plain else rng.choice(_SEPARATORS) for _ in range(count + 1)]
        edge = (seps[0] if rng.random() < 0.2 else "") + "".join(
            tok + sep for tok, sep in zip(tokens, seps[1:]))
        lines.append(edge + ("\n" if plain else rng.choice(_LINE_ENDS)))
    text = "".join(lines)
    return text[:-1] if text and rng.random() < 0.2 else text


def test_file_parse_matches_text_stream_on_random_texts(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    calls = _count_line_parser_calls(monkeypatch)
    # outcomes of files read by np.loadtxt alone, and by the per-line parser
    compared = {(reader, kind): 0 for reader in ("loadtxt", "lines")
                for kind in ("graph", "error")}
    for i in range(2000):
        text = _random_edge_text(rng)
        id_mode = "remap" if i % 2 else "dense"
        calls.clear()
        got = _file_outcome(tmp_path, text, id_mode)
        reader = "lines" if calls else "loadtxt"
        assert got == _text_outcome(text, id_mode), repr(text)
        compared[reader, "graph" if isinstance(got[0], int) else "error"] += 1
    assert compared["loadtxt", "graph"] >= 100 and compared["lines", "graph"] >= 100
    assert compared["lines", "error"] > 200


@pytest.mark.parametrize("blob", [b"\xff0 1\n", b"0 1\n" * 4000 + b"1 \xff\n"],
                         ids=["leading-scan", "line-reader"])
def test_file_that_is_not_utf8_is_a_data_error(tmp_path, blob):
    # a bad byte that the scan for leading '#' lines decodes, or one past the
    # text reader's first chunk (8192 bytes), which only the per-line re-read meets
    path = tmp_path / "edges.txt"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text \\(invalid "):
        parse_edge_list(path)


def test_num_nodes_rejected_in_remap_mode():
    with pytest.raises(ValueError, match="dense mode only"):
        parse_edge_list(["10 7"], id_mode="remap", num_nodes=2)


def test_dense_mode_range_error():
    with pytest.raises(DataError, match=r"node id 5 outside \[0, 3\)"):
        parse_edge_list(["0 5"], num_nodes=3)


def test_node_count_past_uint32_rejected():
    # raised before any O(N) array is allocated (N + 1 offsets would be 32 GiB)
    with pytest.raises(DataError, match=r"^4294967296 nodes: .* N must be < 2\*\*32"):
        from_edges([0], [1], num_nodes=2**32)
    with pytest.raises(DataError, match=r"^4294967297 nodes: .* N must be < 2\*\*32"):
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
    inv = invert(g)
    got = [g.out_offsets, g.out_indices, inv.out_offsets, inv.out_indices]
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
    inv = invert(g)
    for j in range(n):
        assert np.array_equal(np.flatnonzero(dense[:, j]), inv.successors(j))
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


def test_cache_roundtrip(rng, tmp_path):
    # the loaded out-link arrays must equal the ones from_edges builds, in
    # value and dtype
    n, m = 300, 5000
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    cases = {
        "two-cycle": ([0, 1], [1, 0], None),
        "random": (src, dst, None),
        "self-loops": (src, np.where(np.arange(m) % 3 == 0, src, dst), None),
        "empty-in-rows": (src, dst % 7 * 40, n),  # in-links into 0, 40, ..., 240 only
        "no-edges": ([], [], 50),
    }
    path = tmp_path / "g.cache"
    for name, (s, d, num_nodes) in cases.items():
        g = from_edges(s, d, num_nodes)
        save_cache(g, path)
        assert path.stat().st_size == 28 + 8 * (g.node_count + 1) + 4 * g.edge_count, name
        loaded = load_cache(path)
        assert loaded == g, name
        for array, expected in ((loaded.out_offsets, g.out_offsets),
                                (loaded.out_indices, g.out_indices)):
            assert array.dtype == expected.dtype, name
            assert np.array_equal(array, expected), name


def test_out_link_commands_never_sort_the_links(rng, tmp_path, monkeypatch):
    # loading, the block spectra and N_G filling read the out-links alone and
    # must not build the in-links; decompose builds them once, for its sweep
    g = random_graph(rng, 200, 0.01)
    path = tmp_path / "g.cache"
    save_cache(g, path)
    loaded = load_cache(path)
    sorts = []

    def counted(*args, original=gr._csr):
        sorts.append(args)
        return original(*args)

    monkeypatch.setattr(gr, "_csr", counted)
    decomp = decompose(loaded)
    assert len(sorts) == 1

    def no_sort(*args):
        raise AssertionError("links sorted")

    monkeypatch.setattr(gr, "_csr", no_sort)
    loaded = load_cache(path)
    subspace_spectrum(loaded, decomp)
    ng_filling(loaded, rng.permutation(200) + 1, [1, 10, 100])
    with pytest.raises(AssertionError, match="links sorted"):
        invert(loaded)


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

    # each check is told apart by its message, which names the file
    bad = tmp_path / "bad.cache"
    name = re.escape(str(bad))
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataError, match=f"^{name}: not a graph cache \\(bad magic\\)$"):
        load_cache(bad)

    bad.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(DataError, match=f"^{name}: graph cache version 99, expected 2$"):
        load_cache(bad)

    bad.write_bytes(blob[:20])
    with pytest.raises(DataError, match=f"^{name}: file shorter than graph cache header$"):
        load_cache(bad)

    bad.write_bytes(blob[:-10])
    with pytest.raises(DataError, match=f"^{name}: expected {len(blob)} bytes, "
                                        f"found {len(blob) - 10}$"):
        load_cache(bad)

    # trailing bytes: the file is longer than header + payload + CRC
    bad.write_bytes(blob + b"\0" * 4)
    with pytest.raises(DataError, match=f"^{name}: expected {len(blob)} bytes, "
                                        f"found {len(blob) + 4}$"):
        load_cache(bad)

    corrupted = bytearray(blob)
    corrupted[30] ^= 0xFF
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(DataError, match=f"^{name}: checksum mismatch$"):
        load_cache(bad)

    # the version 1 layout, both link directions, is not read
    write_version_1_cache(g, bad)
    with pytest.raises(DataError, match="version 1, expected 2"):
        load_cache(bad)

    # a valid checksum over malformed CSR arrays
    g = parse_edge_list(["0 1", "0 2", "1 2", "2 0"])
    arrays = (g.out_offsets, g.out_indices)
    for slot, array, message in [
            (1, np.array([1, 2, 3, 0]), r"node id 3 outside \[0, 3\)"),  # id 3 >= N
            (0, g.out_offsets[[0, 2, 1, 3]], "offsets are not monotone from 0 to 4"),  # 0,3,2,4
            (1, np.array([2, 1, 2, 0]), "rows are not strictly increasing"),  # successors 2,1
            (1, np.array([1, 1, 2, 0]), "rows are not strictly increasing")]:  # 0->1 twice
        GRAPH_CACHE.write(bad, (g.node_count, g.edge_count),
                          arrays[:slot] + (array,) + arrays[slot + 1:])
        with pytest.raises(DataError, match=f"^{name}: out-link {message}$"):
            load_cache(bad)


def test_cache_with_no_nodes_rejected(tmp_path):
    # from_edges refuses N < 1, so only a hand-written cache holds N = 0
    path = tmp_path / "z.cache"
    GRAPH_CACHE.write(path, (0, 0), (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint32)))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: graph has no nodes$"):
        load_cache(path)


def test_parse_idempotent_under_reserialization(rng):
    g = random_graph(rng, 50, 0.1)
    src, dst = g.edges()
    lines = [f"{s} {d}" for s, d in zip(src, dst)]
    assert parse_edge_list(lines, num_nodes=50) == g

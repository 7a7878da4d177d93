import tracemalloc

import numpy as np
import pytest

from gmspectra import (DirectedGraph, GoogleOperator, cheirank, from_edges, invert, operator,
                       parse_edge_list)

from conftest import dense_g, dense_s, random_graph, random_probability


def test_two_cycle_is_permutation():
    g = parse_edge_list(["0 1", "1 0"])
    op = GoogleOperator(g, alpha=1.0)
    assert np.allclose(op.apply_s([1.0, 0.0]), [0.0, 1.0])


def test_single_dangling_node():
    g = from_edges([], [], num_nodes=1)
    op = GoogleOperator(g, alpha=1.0)
    assert op.apply_s([1.0]) == pytest.approx([1.0])


def test_chain_apply_s_against_dense_oracle():
    g = parse_edge_list(["0 1", "1 2"])
    op = GoogleOperator(g, alpha=0.85)
    v = np.full(3, 1.0 / 3.0)
    expected = dense_s(g) @ v
    assert np.max(np.abs(op.apply_s(v) - expected)) < 1e-15
    assert op.apply_s(v) == pytest.approx([1 / 9, 1 / 3 + 1 / 9, 1 / 3 + 1 / 9])


def test_chain_apply_g_against_dense_oracle():
    g = parse_edge_list(["0 1", "1 2"])
    op = GoogleOperator(g, alpha=0.85)
    v = np.full(3, 1.0 / 3.0)
    expected = dense_g(g, 0.85) @ v
    got = op.apply_g(v)
    assert np.max(np.abs(got - expected)) < 1e-15
    assert got == pytest.approx([0.14444444, 0.42777778, 0.42777778], abs=1e-8)


def test_alpha_one_reduces_to_s(rng):
    g = random_graph(rng, 40, 0.1)
    op = GoogleOperator(g, alpha=1.0)
    v = random_probability(rng, 40)
    assert np.array_equal(op.apply_g(v), op.apply_s(v))


def test_all_dangling_uniform():
    g = from_edges([], [], num_nodes=2)
    op = GoogleOperator(g, alpha=0.85)
    assert op.apply_g([1.0, 0.0]) == pytest.approx([0.5, 0.5])


def test_alpha_validation():
    g = parse_edge_list(["0 1", "1 0"])
    with pytest.raises(ValueError):
        GoogleOperator(g, alpha=0.0)
    with pytest.raises(ValueError):
        GoogleOperator(g, alpha=1.2)


def test_input_validation():
    g = parse_edge_list(["0 1", "1 0"])
    op = GoogleOperator(g)
    with pytest.raises(ValueError):
        op.apply_s([1.0])
    with pytest.raises(ValueError):
        op.apply_s([np.nan, 0.0])


def test_norm_preservation(rng):
    for n in (3, 50, 1000):
        g = random_graph(rng, n, 0.05)
        op = GoogleOperator(g, alpha=0.85)
        for _ in range(5):
            v = random_probability(rng, n)
            assert abs(np.sum(op.apply_g(v)) - 1.0) < 1e-12
            assert np.all(op.apply_g(v) >= 0)


def test_linearity(rng):
    g = random_graph(rng, 100, 0.05)
    op = GoogleOperator(g, alpha=0.85)
    u, v = rng.random(100), rng.random(100)
    a, b = 0.3, -1.7
    lhs = op.apply_g(a * u + b * v)
    rhs = a * op.apply_g(u) + b * op.apply_g(v)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_dense_equivalence(rng):
    for n in (5, 50, 200):
        g = random_graph(rng, n, 0.1)
        op = GoogleOperator(g, alpha=0.85)
        gd = dense_g(g, 0.85)
        for _ in range(3):
            v = random_probability(rng, n)
            assert np.max(np.abs(op.apply_g(v) - gd @ v)) < 1e-13


def test_spectral_bound(rng):
    for n in (20, 100, 200):
        g = random_graph(rng, n, 0.05)
        vals = np.linalg.eigvals(dense_s(g))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_bitwise_identical_across_worker_counts(rng):
    g = random_graph(rng, 500, 0.02)
    v = random_probability(rng, 500)
    base_s = GoogleOperator(g, threads=1).apply_s(v).tobytes()
    base_g = GoogleOperator(g, threads=1).apply_g(v).tobytes()
    for threads in (2, 4, 7):
        op = GoogleOperator(g, threads=threads)
        assert op.apply_s(v).tobytes() == base_s
        assert op.apply_g(v).tobytes() == base_g


def _row_by_row_s(g, v):
    """S @ v with one reduceat per nonempty in-row, row by row."""
    n = g.node_count
    deg = g.out_degrees
    w = v * np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
    out = np.zeros(n)
    inv = invert(g)
    for i in range(n):
        pred = inv.successors(i)
        if pred.size:
            out[i] = np.add.reduceat(w[pred.astype(np.intp)], [0])[0]
    dangling = g.dangling_nodes
    if dangling.size:
        out += np.sum(v[dangling]) / n
    return out


def _hub_graph(rng):
    # node 17 holds 90 % of the in-links
    src = rng.integers(0, 60, 600)
    dst = np.where(rng.random(600) < 0.9, 17, rng.integers(0, 60, 600))
    return from_edges(src, dst, 60)


def _gap_graph(rng):
    # in-links only into nodes 0-2 and 37-39: runs of empty in-rows before,
    # between and after the nonempty ones
    src = rng.integers(0, 40, 120)
    dst = np.concatenate([rng.integers(0, 3, 60), rng.integers(37, 40, 60)])
    return from_edges(src, dst, 40)


row_sum_graphs = pytest.mark.parametrize("make", [
    _hub_graph,
    _gap_graph,
    lambda rng: from_edges([0, 5, 9, 3], [4, 4, 2, 2], 12),  # two nonempty rows
    lambda rng: from_edges([], [], num_nodes=5),  # no edges
    lambda rng: random_graph(rng, 300, 0.05),
], ids=["hub-row", "empty-row-runs", "two-rows", "no-edges", "random"])


@row_sum_graphs
def test_sparse_part_matches_row_by_row_sum(rng, make):
    g = make(rng)
    op = GoogleOperator(g)
    for v in (random_probability(rng, g.node_count), rng.standard_normal(g.node_count)):
        assert op.apply_s(v).tobytes() == _row_by_row_s(g, v).tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 64])
@row_sum_graphs
def test_chunked_gather_matches_row_by_row_sum(rng, monkeypatch, make, chunk):
    # the hub row spans many chunks' worth of links and empty rows fall at
    # chunk ends; the chunks are cut at construction
    monkeypatch.setattr(operator, "GATHER_CHUNK", chunk)
    g = make(rng)
    op = GoogleOperator(g)
    assert sum(ids.size for ids, _, _ in op._chunks) == g.edge_count
    for v in (random_probability(rng, g.node_count), rng.standard_normal(g.node_count)):
        assert op.apply_s(v).tobytes() == _row_by_row_s(g, v).tobytes()


@pytest.mark.parametrize("inverted", [False, True], ids=["graph", "inverted"])
def test_operator_and_matvec_memory_per_link(inverted):
    # 1e4 nodes, ~1e6 links: the operator keeps the uint32 in-link ids and
    # N-length arrays, and a matvec allocates N-length arrays and one chunk;
    # G*'s operator keeps no link array of its own, as its in-links are the
    # graph's out-links, and its build peaks at bincount's intp copy of them
    rng = np.random.default_rng(7)
    n = 10_000
    g = from_edges(rng.integers(0, n, 1_050_000), rng.integers(0, n, 1_050_000), n)
    v = random_probability(rng, n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op = GoogleOperator(g, inverted=inverted)
        kept, build = (size - base for size in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op.apply_g(v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.edge_count > 990_000
    if inverted:
        assert kept <= 48 * n
        assert build <= 9 * g.edge_count
    else:
        assert kept <= 5 * g.edge_count + 48 * n
    assert peak < g.edge_count


@pytest.mark.parametrize("seed", range(4))
def test_inverted_operator_matches_operator_of_inverted_graph(seed):
    # nodes 150.. have no out-link of their own and nodes ..49 no in-link of
    # their own, so both G and G* have dangling nodes; a self-loop is its own
    # inverse
    rng = np.random.default_rng(seed)
    n = 200
    loops = rng.integers(0, n, 20)
    g = from_edges(np.concatenate((rng.integers(0, 150, 600), loops)),
                   np.concatenate((rng.integers(50, n, 600), loops)), n)
    star, reference = GoogleOperator(g, inverted=True), GoogleOperator(invert(g))
    assert g.dangling_nodes.size and invert(g).dangling_nodes.size
    re, im = random_probability(rng, n), rng.standard_normal(n)
    for v in (re, re + 1j * im):
        assert star.apply_s(v).tobytes() == reference.apply_s(v).tobytes()
        assert star.apply_g(v).tobytes() == reference.apply_g(v).tobytes()


def test_in_link_id_past_node_count_rejected():
    g = parse_edge_list(["0 1", "1 2", "2 0"])
    bad = g.out_indices.copy()
    bad[1] = g.node_count
    broken = DirectedGraph(g.node_count, g.out_offsets, bad)
    with pytest.raises(ValueError, match="outside"):
        GoogleOperator(broken)


@pytest.mark.parametrize("compute", [invert, cheirank])
def test_invert_rejects_id_past_node_count(compute):
    # the link 1 -> 3 of a 3-node graph has no row in the inverted graph
    broken = DirectedGraph(3, np.array([0, 1, 2, 3]), np.array([1, 3, 0], dtype=np.uint32))
    with pytest.raises(ValueError, match="outside"):
        compute(broken)


@pytest.mark.parametrize("dtype", [np.complex128, np.longdouble])
def test_wide_input_dtype_is_kept(rng, dtype):
    # the gather and the sums run in the input's dtype, never through float64
    g = random_graph(rng, 60, 0.1)
    op = GoogleOperator(g)
    re, im = random_probability(rng, 60), rng.standard_normal(60)
    v = (re + 1j * im) if dtype is np.complex128 else re.astype(np.longdouble)
    out = op.apply_s(v)
    assert out.dtype == dtype
    if dtype is np.complex128:
        np.testing.assert_allclose(out, op.apply_s(re) + 1j * op.apply_s(im), rtol=1e-15)
    else:
        np.testing.assert_allclose(out, dense_s(g).astype(np.longdouble) @ v,
                                   rtol=100 * np.finfo(np.longdouble).eps)

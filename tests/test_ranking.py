import numpy as np
import pytest

from gmspectra import (GoogleOperator, cheirank, invert, pagerank,
                       parse_edge_list, rank_indices, read_vector_cache,
                       write_rank_csv, write_vector_cache)

from conftest import dense_g, dense_pagerank, random_graph


def test_two_cycle_symmetry():
    g = parse_edge_list(["0 1", "1 0"])
    rv = pagerank(g)
    assert rv.probabilities == pytest.approx([0.5, 0.5])
    assert list(rv.rank_of_node) == [1, 2]  # tie broken by node id
    assert rv.converged


def test_chain_fixed_point():
    g = parse_edge_list(["0 1", "1 2"])
    rv = pagerank(g, alpha=0.85)
    oracle = dense_pagerank(dense_g(g, 0.85))
    assert np.max(np.abs(rv.probabilities - oracle)) < 1e-10
    assert rv.probabilities == pytest.approx([0.1844, 0.3412, 0.4744], abs=5e-5)
    assert list(rv.rank_of_node) == [3, 2, 1]


def test_fixed_point_residual_bound():
    g = parse_edge_list(["0 1", "1 2", "2 0", "0 2"])
    tol = 1e-12
    rv = pagerank(g, tol=tol)
    op = GoogleOperator(g, alpha=0.85)
    assert np.sum(np.abs(op.apply_g(rv.probabilities) - rv.probabilities)) < 10 * tol


def test_non_convergence_is_flagged_not_raised():
    # asymmetric: the uniform start is not stationary
    g = parse_edge_list(["0 1", "0 2", "1 2", "2 0"])
    rv = pagerank(g, tol=1e-15, max_iter=2)
    assert not rv.converged
    assert rv.iterations_used == 2
    assert abs(np.sum(rv.probabilities) - 1.0) < 1e-12


@pytest.mark.parametrize("compute", [pagerank, cheirank])
def test_tol_must_be_finite_and_positive(compute):
    g = parse_edge_list(["0 1", "1 0"])
    for tol in (np.nan, np.inf, 0.0, -1e-12):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            compute(g, tol=tol)


def test_cheirank_equals_pagerank_of_inverted(rng):
    for n in (3, 50, 120):
        g = random_graph(rng, n, 0.08)
        a = cheirank(g)
        b = pagerank(invert(g))
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.rank_of_node, b.rank_of_node)


def test_chain_cheirank_mirrors_reversed_chain():
    g = parse_edge_list(["0 1", "1 2"])
    rv = cheirank(g)
    assert rv.probabilities == pytest.approx([0.4744, 0.3412, 0.1844], abs=5e-5)


def test_dense_oracle_random_graphs(rng):
    for n in (10, 60, 200):
        g = random_graph(rng, n, 0.1)
        rv = pagerank(g, alpha=0.85)
        oracle = dense_pagerank(dense_g(g, 0.85))
        assert np.max(np.abs(rv.probabilities - oracle)) < 1e-10


def test_rank_indices_examples():
    rank_of_node, node_at_rank = rank_indices([0.2, 0.5, 0.3])
    assert list(node_at_rank) == [1, 2, 0]
    rank_of_node, node_at_rank = rank_indices([0.4, 0.4, 0.2])
    assert list(node_at_rank) == [0, 1, 2]
    assert list(rank_of_node) == [1, 2, 3]


def test_rank_indices_mutually_inverse(rng):
    p = rng.random(1000)
    rank_of_node, node_at_rank = rank_indices(p)
    assert np.array_equal(rank_of_node[node_at_rank], np.arange(1, 1001))
    assert np.array_equal(node_at_rank[rank_of_node - 1], np.arange(1000))


def test_rank_indices_rejects_nan():
    with pytest.raises(ValueError):
        rank_indices([0.1, np.nan])


def test_rank_csv_export(tmp_path):
    g = parse_edge_list(["0 1", "1 0"])
    rv = pagerank(g)
    path = tmp_path / "rank.csv"
    write_rank_csv(rv, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,probability,rank"
    assert lines[1].startswith("0,0.5")
    assert len(lines) == 3


def test_vector_cache_roundtrip(rng, tmp_path):
    p = rng.random(257)
    path = tmp_path / "p.vec"
    write_vector_cache(p, path)
    assert np.array_equal(read_vector_cache(path), p)


def test_vector_cache_checksum(tmp_path):
    from gmspectra.graph import CacheChecksumError
    path = tmp_path / "p.vec"
    write_vector_cache(np.arange(5.0), path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheChecksumError):
        read_vector_cache(path)


def test_preferential_attachment_exponent():
    nx = pytest.importorskip("networkx")
    from gmspectra import from_edges, powerlaw_fit
    gnx = nx.scale_free_graph(100_000, seed=42)
    src, dst = zip(*gnx.edges())
    g = from_edges(src, dst, gnx.number_of_nodes())
    rv = pagerank(g, alpha=0.85)
    p_sorted = np.sort(rv.probabilities)[::-1]
    ranks = np.arange(1, g.node_count + 1, dtype=float)
    fit = powerlaw_fit(ranks, p_sorted, (0.5, 4.0))
    assert 0.7 <= -fit.exponent <= 1.1

import numpy as np
import pytest

from gmspectra import GoogleOperator, dense_g, dense_s, from_edges, parse_edge_list

from conftest import random_graph, random_probability


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
    base_s = GoogleOperator(g, threads=1).apply_s(v)
    base_g = GoogleOperator(g, threads=1).apply_g(v)
    for threads in (2, 4, 7):
        op = GoogleOperator(g, threads=threads)
        assert np.array_equal(op.apply_s(v), base_s)
        assert np.array_equal(op.apply_g(v), base_g)

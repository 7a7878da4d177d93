import numpy as np
import pytest

from gmspectra import (correlator, density_2d, from_edges, n_k_counts,
                       ng_filling, parse_edge_list, powerlaw_fit, rank_indices,
                       subspace_fraction)
from gmspectra.stats import (CSV_CHUNK_ROWS, KAPPA_HIST_CELLS, write_curve_csv,
                             write_grid_csv)

from conftest import random_graph


def test_correlator_uniform_is_zero():
    n = 7
    p = np.full(n, 1.0 / n)
    rep = correlator(p, p)
    assert rep.kappa == pytest.approx(0.0, abs=1e-14)


def test_correlator_disjoint_support():
    rep = correlator(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert rep.kappa == -1.0


def test_correlator_matches_direct_summation(rng):
    for n in (10, 1000):
        p = rng.random(n)
        p /= p.sum()
        q = rng.random(n)
        q /= q.sum()
        rep = correlator(p, q)
        direct = n * sum(float(p[i]) * float(q[i]) for i in range(n)) - 1.0
        assert abs(rep.kappa - direct) <= 1e-12 * max(1.0, abs(direct))


def test_correlator_histogram_accounting(rng):
    n = 500
    p = rng.random(n)
    p /= p.sum()
    q = rng.random(n)
    q /= q.sum()
    rep = correlator(p, q)
    assert rep.histogram.size == KAPPA_HIST_CELLS
    assert rep.histogram.sum() + rep.underflow + rep.overflow == n


def test_correlator_length_mismatch():
    with pytest.raises(ValueError):
        correlator(np.ones(3) / 3, np.ones(4) / 4)


def test_density_single_node():
    grid = density_2d(np.array([1]), np.array([1]), mode="log", cells=5)
    assert grid.counts.sum() == 1
    assert grid.density.sum() == 1.0


def test_density_linear_diagonal():
    n = 1000
    k = np.arange(1, n + 1)
    grid = density_2d(k, k, mode="linear", cell_size=10, rank_limit=n)
    rows, cols = np.nonzero(grid.counts)
    assert np.array_equal(rows, cols)
    assert grid.counts.sum() == n
    assert grid.density.sum() == pytest.approx(1.0, abs=1e-12)


def test_density_matches_brute_force(rng):
    n = 10_000
    k = rng.permutation(n) + 1
    ks = rng.permutation(n) + 1

    grid = density_2d(k, ks, mode="linear", cell_size=100, rank_limit=2000)
    brute = np.zeros_like(grid.counts)
    for i in range(n):
        if k[i] <= 2000 and ks[i] <= 2000:
            brute[(k[i] - 1) // 100, (ks[i] - 1) // 100] += 1
    assert np.array_equal(grid.counts, brute)

    log_grid = density_2d(k, ks, mode="log", cells=40)
    brute = np.zeros_like(log_grid.counts)
    log_n = np.log(n)
    for i in range(n):
        r = min(int(np.log(k[i]) / log_n * 40), 39)
        c = min(int(np.log(ks[i]) / log_n * 40), 39)
        brute[r, c] += 1
    assert np.array_equal(log_grid.counts, brute)
    assert log_grid.counts.sum() == n


def test_density_validation():
    k = np.array([1, 2, 3])
    with pytest.raises(ValueError):
        density_2d(k, k, mode="log", cells=0)
    with pytest.raises(ValueError):
        density_2d(k, np.array([1, 1, 3]))


def test_nk_perfect_and_anti_correlation():
    n = 100
    k = np.arange(1, n + 1)
    kv = np.arange(1, n + 1)
    assert np.array_equal(n_k_counts(k, k, kv), kv)
    anti = n + 1 - k
    expected = np.maximum(0, 2 * kv - n)
    assert np.array_equal(n_k_counts(k, anti, kv), expected)


def test_nk_matches_brute_force(rng):
    n = 10_000
    k = rng.permutation(n) + 1
    ks = rng.permutation(n) + 1
    k_values = np.array([1, 7, 100, 5000, n])
    got = n_k_counts(k, ks, k_values)
    brute = [int(np.sum((k <= kk) & (ks <= kk))) for kk in k_values]
    assert np.array_equal(got, brute)
    assert got[-1] == n
    assert np.all(np.diff(got) >= 0)


def test_ng_complete_graph():
    m = 8
    src, dst = [], []
    for i in range(m):
        for j in range(m):
            if i != j:
                src.append(i)
                dst.append(j)
    g = from_edges(src, dst, m)
    k, _ = rank_indices(np.ones(m) / m)
    curve = ng_filling(g, k, [m])
    assert curve.n_g[0] == m * (m - 1)
    assert curve.area_density[0] == pytest.approx((m - 1) / m)


def test_ng_empty_graph():
    g = from_edges([], [], num_nodes=5)
    k, _ = rank_indices(np.ones(5) / 5)
    curve = ng_filling(g, k, [1, 3, 5])
    assert np.all(curve.n_g == 0)


def test_ng_matches_brute_force(rng):
    n = 10_000
    g = random_graph(rng, 200, 0.1)
    p = rng.random(200)
    k, _ = rank_indices(p / p.sum())
    k_values = np.array([1, 10, 50, 200])
    curve = ng_filling(g, k, k_values)
    src, dst = g.edges()
    brute = [int(np.sum((k[src] <= kk) & (k[dst] <= kk))) for kk in k_values]
    assert np.array_equal(curve.n_g, brute)
    assert curve.n_g[-1] == g.edge_count  # N_G(N) counts every edge once
    assert np.all(np.diff(curve.n_g) >= 0)


def test_subspace_fraction_examples():
    curve = subspace_fraction([2, 2, 3])
    assert curve.mean_dimension == pytest.approx(7 / 3)
    # F(x), the share of subspaces with d > x <d>, at each distinct d / <d>
    assert curve.x == pytest.approx([6 / 7, 9 / 7])
    assert curve.fraction == pytest.approx([1 / 3, 0.0])

    step = subspace_fraction([5, 5, 5, 5])
    assert step.x.tolist() == [1.0]
    assert step.fraction.tolist() == [0.0]


def test_subspace_fraction_curve_properties(rng):
    dims = rng.integers(1, 20, 100)
    curve = subspace_fraction(dims)
    assert np.all(np.diff(curve.fraction) <= 0)  # non-increasing
    assert np.all(curve.fraction < 1.0)
    with pytest.raises(ValueError):
        subspace_fraction([])


def test_subspace_fraction_tail_fit():
    # dimensions drawn so the survival tail is an exact power law is not
    # possible with integers; just check the fit machinery is wired
    dims = [1] * 50 + [2] * 25 + [4] * 12 + [8] * 6 + [16] * 3
    curve = subspace_fraction(dims, tail_range=(0.1, 20.0))
    assert curve.tail_fit is not None
    assert -curve.tail_fit.exponent > 0


def test_powerlaw_exact_recovery():
    x = np.arange(1, 200, dtype=float)
    fit = powerlaw_fit(x, 0.5 * x**-0.9)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
    assert -fit.exponent == pytest.approx(0.9, abs=1e-12)
    assert fit.err_amplitude < 1e-10
    assert fit.err_exponent < 1e-10


def test_powerlaw_constant():
    x = np.arange(1, 50, dtype=float)
    fit = powerlaw_fit(x, np.full_like(x, 2.0))
    assert fit.amplitude == pytest.approx(2.0, abs=1e-12)
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_powerlaw_range_and_errors():
    x = np.arange(1, 1000, dtype=float)
    y = 3.0 * x**-1.2
    fit = powerlaw_fit(x, y, (1.0, 2.5))
    assert -fit.exponent == pytest.approx(1.2, abs=1e-12)
    assert fit.log_range == (1.0, 2.5)
    with pytest.raises(ValueError):
        powerlaw_fit(x[:2], y[:2])
    with pytest.raises(ValueError):
        powerlaw_fit(x, y - 1.0)  # non-positive y in range


def test_grid_csv_export(tmp_path):
    grid = density_2d(np.array([1, 2]), np.array([2, 1]), mode="linear",
                      cell_size=1, rank_limit=2)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,count,density"
    assert "0,1,1,0.5" in lines


def test_curve_csv_export(tmp_path, rng):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, "k,v", [1, 2], [0.5, 0.25])
    assert path.read_text().splitlines() == ["k,v", "1,0.5", "2,0.25"]

    # floats render as repr (shortest round trip), ints in decimal
    floats = np.array([-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, np.nan, np.inf, -np.inf])
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1,
                     1, 10**16, -(10**15), 7], dtype=np.int64)
    write_curve_csv(path, "k,v", ints, floats)
    assert path.read_text().splitlines() == ["k,v"] + [
        f"{int(k)},{float(v)!r}" for k, v in zip(ints, floats)]
    assert path.read_text().splitlines()[1:6] == [
        "-9223372036854775808,-0.0", "9223372036854775807,5e-324", "0,1e+16",
        "-1,1e-05", "1,0.30000000000000004"]

    # rows span several formatting chunks, the last one partial
    n = 2 * CSV_CHUNK_ROWS + 3
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    write_curve_csv(path, "i,x,label", np.arange(n), values, np.full(n, "a"))
    assert path.read_text() == "i,x,label\n" + "".join(
        f"{i},{float(v)!r},a\n" for i, v in enumerate(values))

"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Full-scale reference targets (41.6M-node network: kappa = 112.60,
PageRank decay 0.540, 17504 subspaces, leading core eigenvalue 0.99997358)
need the original dataset and ~256 GB RAM and are not reproducible here;
the desk-scale criteria below are property- and oracle-based.
"""

import functools
import time

import numpy as np
import pytest

import gmspectra as gm
from gmspectra.cli import main

from conftest import dense_g, dense_pagerank, dense_s, random_graph


def _report(name):
    """Decorator printing one PASS/FAIL line per criterion."""
    def wrap(fn):
        @functools.wraps(fn)  # keeps the signature so fixtures still inject
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                raise
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
        return run
    return wrap


def _graph_set(seed=1):
    """50 random directed graphs, N in [10, 200], density in [0.01, 0.3]."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(50):
        n = int(rng.integers(10, 201))
        density = float(rng.uniform(0.01, 0.3))
        graphs.append(random_graph(rng, n, density))
    return graphs


def _planted_graph(rng, n=200):
    """Random graph with disjoint planted closed subsets of sizes 2-10.

    Every non-planted node points at the dangling node n-1, so the planted
    cycles are exactly the invariant subspaces. The blocks are cycles plus
    one deterministic chord and the free nodes are densely wired: random
    duplicate columns or nilpotent chains would make the near-zero part of
    the spectrum defective, and defective eigenvalues cannot be compared
    between two eigensolvers at 1e-8 (their perturbation scales like
    eps**(1/k) for a size-k Jordan block).
    """
    sizes = [int(s) for s in rng.integers(2, 11, size=int(rng.integers(1, 5)))]
    planted, used = [], 0
    for s in sizes:
        planted.append(list(range(used, used + s)))
        used += s
    dangling = n - 1
    src, dst = [], []
    for members in planted:
        s = len(members)
        for i, node in enumerate(members):
            src.append(node)
            dst.append(members[(i + 1) % s])
        if s >= 4:  # one chord keeps the block nontrivial yet invertible
            src.append(members[0])
            dst.append(members[s // 2])
    free = list(range(used, n - 1))
    for node in free:
        src.append(node)
        dst.append(dangling)
        for t in rng.integers(0, n, int(rng.integers(8, 20))):
            src.append(node)
            dst.append(int(t))
    g = gm.from_edges(src, dst, n)
    return g, [frozenset(m) for m in planted]


def _pair_distance(a, b):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@_report("dense PageRank oracle (50 graphs, 1e-10/component, <30 s)")
def test_dense_pagerank_oracle():
    start = time.perf_counter()
    for g in _graph_set():
        rv = gm.pagerank(g, alpha=0.85)
        oracle = dense_pagerank(dense_g(g, 0.85))
        assert np.max(np.abs(rv.probabilities - oracle)) < 1e-10
    assert time.perf_counter() - start < 30.0


@_report("operator equivalence vs dense G*v (<1e-13)")
def test_operator_dense_equivalence():
    rng = np.random.default_rng(2)
    for g in _graph_set():
        op = gm.GoogleOperator(g, alpha=0.85)
        gd = dense_g(g, 0.85)
        v = rng.random(g.node_count)
        v /= v.sum()
        assert np.max(np.abs(op.apply_g(v) - gd @ v)) < 1e-13


@_report("CheiRank(g) bitwise-equals PageRank(invert(g))")
def test_cheirank_duality():
    for g in _graph_set():
        a = gm.cheirank(g)
        b = gm.pagerank(gm.invert(g))
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.rank_of_node, b.rank_of_node)


@_report("block-triangular structure: planted subspaces recovered (<60 s)")
def test_planted_subspace_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(50):
        g, planted = _planted_graph(rng)
        d = gm.decompose(g, max_size=50)
        found = {frozenset(int(m) for m in s) for s in d.subspaces}
        assert found == set(planted)
        core = set(int(x) for x in d.core_nodes)
        for members in d.subspaces:
            inside = set(int(m) for m in members)
            for node in members:
                for succ in g.successors(int(node)):
                    assert int(succ) not in core  # zero block of the split
                    assert int(succ) in inside
        spec = gm.subspace_spectrum(g, d)
        assert spec.unit_eigenvalue_count >= d.subspace_count
    assert time.perf_counter() - start < 60.0


@_report("spectrum oracle: subspace + full-dim Arnoldi equals dense (1e-8)")
def test_spectrum_union_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(40, 150))
        g, _ = _planted_graph(rng, n)
        d = gm.decompose(g, max_size=n)
        assert d.core_count > 0
        spec = gm.subspace_spectrum(g, d)
        res = gm.arnoldi_core(g, d, d.core_count)
        union = np.concatenate([spec.all_eigenvalues, res.ritz_values])
        dense_vals = np.linalg.eigvals(dense_s(g))
        assert union.size == dense_vals.size
        assert _pair_distance(union, dense_vals) < 1e-8


@_report("Arnoldi internal checks (defects <1e-10, incl. 1e4-node, n_A=64)")
def test_arnoldi_internal_checks():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(50, 200))
        g, _ = _planted_graph(rng, n)
        d = gm.decompose(g, max_size=n)
        res = gm.arnoldi_core(g, d, min(20, d.core_count))
        assert res.ortho_defect < 1e-10
        assert res.relation_residual < 1e-10

    n = 10_000
    src = rng.integers(0, n, 5 * n)
    dst = rng.integers(0, n, 5 * n)
    g = gm.from_edges(src, dst, n)
    d = gm.decompose(g, max_size=1000)
    assert d.core_count >= 64
    res = gm.arnoldi_core(g, d, 64)
    assert res.ortho_defect < 1e-10
    assert res.relation_residual < 1e-10


@_report("correlator: hand values exact; matches direct summation (1e-12)")
def test_correlator_criterion():
    # 2-cycle: P = P* = (1/2, 1/2) -> kappa = 0 exactly
    cyc = gm.parse_edge_list(["0 1", "1 0"])
    p = gm.pagerank(cyc).probabilities
    ps = gm.cheirank(cyc).probabilities
    assert gm.correlator(p, ps).kappa == 0.0

    # disjoint support -> kappa = -1 exactly
    assert gm.correlator(np.array([1.0, 0.0]), np.array([0.0, 1.0])).kappa == -1.0

    # chain: kappa equals the dense-oracle direct summation
    chain = gm.parse_edge_list(["0 1", "1 2"])
    p = dense_pagerank(dense_g(chain, 0.85))
    ps = dense_pagerank(dense_g(gm.invert(chain), 0.85))
    rep = gm.correlator(p, ps)
    direct = 3.0 * sum(float(p[i]) * float(ps[i]) for i in range(3)) - 1.0
    assert abs(rep.kappa - direct) <= 1e-12 * max(1.0, abs(direct))

    rng = np.random.default_rng(6)
    for n in (17, 1000):
        a = rng.random(n)
        a /= a.sum()
        b = rng.random(n)
        b /= b.sum()
        rep = gm.correlator(a, b)
        direct = n * sum(float(a[i]) * float(b[i]) for i in range(n)) - 1.0
        assert abs(rep.kappa - direct) <= 1e-12 * max(1.0, abs(direct))


@_report("stats oracles: brute-force equality on N=1e4 (exact counts)")
def test_stats_brute_force():
    rng = np.random.default_rng(7)
    n = 10_000
    k = rng.permutation(n) + 1
    ks = rng.permutation(n) + 1

    grid = gm.density_2d(k, ks, mode="linear", cell_size=50, rank_limit=1000)
    brute = np.zeros_like(grid.counts)
    for i in range(n):
        if k[i] <= 1000 and ks[i] <= 1000:
            brute[(k[i] - 1) // 50, (ks[i] - 1) // 50] += 1
    assert np.array_equal(grid.counts, brute)

    log_grid = gm.density_2d(k, ks, mode="log", cells=30)
    brute = np.zeros_like(log_grid.counts)
    log_n = np.log(n)
    for i in range(n):
        r = min(int(np.log(k[i]) / log_n * 30), 29)
        c = min(int(np.log(ks[i]) / log_n * 30), 29)
        brute[r, c] += 1
    assert np.array_equal(log_grid.counts, brute)

    k_values = np.array([1, 13, 500, 4242, n])
    nk = gm.n_k_counts(k, ks, k_values)
    brute = [int(np.sum((k <= kk) & (ks <= kk))) for kk in k_values]
    assert np.array_equal(nk, brute)

    g = random_graph(rng, 500, 0.04)
    p = rng.random(500)
    kg, _ = gm.rank_indices(p / p.sum())
    curve = gm.ng_filling(g, kg, [1, 10, 100, 500])
    src, dst = g.edges()
    brute = [int(np.sum((kg[src] <= kk) & (kg[dst] <= kk)))
             for kk in (1, 10, 100, 500)]
    assert np.array_equal(curve.n_g, brute)
    assert curve.n_g[-1] == g.edge_count


@_report("fit exactness: (a=0.5, b=0.9) machine precision; F(1)=1/3 to one ulp")
def test_fit_exactness():
    x = np.arange(1, 500, dtype=float)
    fit = gm.powerlaw_fit(x, 0.5 * x**-0.9)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
    assert -fit.exponent == pytest.approx(0.9, abs=1e-12)
    assert fit.err_amplitude < 1e-10 and fit.err_exponent < 1e-10

    # F(1) is the fraction at x = 6/7, the last point at or below 1; it is
    # 1 - 2/3 as the curve computes it, one ulp above 1/3
    curve = gm.subspace_fraction([2, 2, 3])
    assert curve.x[0] <= 1.0 < curve.x[1]
    assert curve.fraction[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


@_report("scaling sanity: preferential-attachment beta in [0.7, 1.1] (<5 min)")
def test_scaling_sanity():
    nx = pytest.importorskip("networkx")
    start = time.perf_counter()
    gnx = nx.scale_free_graph(100_000, seed=42)
    src, dst = zip(*gnx.edges())
    g = gm.from_edges(src, dst, gnx.number_of_nodes())
    rv = gm.pagerank(g, alpha=0.85)
    p_sorted = np.sort(rv.probabilities)[::-1]
    ranks = np.arange(1, g.node_count + 1, dtype=float)
    fit = gm.powerlaw_fit(ranks, p_sorted, (0.5, 4.0))
    assert 0.7 <= -fit.exponent <= 1.1
    assert time.perf_counter() - start < 300.0


@_report("determinism: identical bytes across runs and threads {1, 4}")
def test_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(8)
    lines = [f"{s} {d}" for s, d in zip(rng.integers(0, 300, 3000),
                                        rng.integers(0, 300, 3000))]
    edges = tmp_path / "edges.txt"
    edges.write_text("\n".join(lines) + "\n")

    def run(workdir, threads):
        workdir.mkdir()
        cache = workdir / "g.cache"
        base = ["--threads", str(threads)]
        assert main(base + ["ingest", str(edges), str(cache)]) == 0
        assert main(base + ["rank", str(cache), str(workdir / "pr")]) == 0
        assert main(base + ["rank", str(cache), str(workdir / "cr"), "--chei"]) == 0
        assert main(base + ["subspaces", str(cache), str(workdir / "dec"),
                            "--max-size", "30"]) == 0
        assert main(base + ["spectrum", str(cache), str(workdir / "spec"),
                            "--arnoldi-dim", "16", "--vectors", "0"]) == 0
        assert main(base + ["stats", str(cache), str(workdir / "stats"),
                            "--rank", str(workdir / "pr.vec"),
                            "--chei", str(workdir / "cr.vec"),
                            "--decomposition", str(workdir / "dec.json"),
                            "--fit-range", "0:2"]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(workdir.iterdir())
            if not p.name.endswith(".manifest.json")
        }

    runs = [run(tmp_path / "a", 1), run(tmp_path / "b", 1),
            run(tmp_path / "c", 4)]
    assert runs[0].keys() == runs[1].keys() == runs[2].keys()
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], f"{name} differs across runs"
        assert runs[0][name] == runs[2][name], f"{name} differs across thread counts"

import json
import tracemalloc

import numpy as np
import pytest

from gmspectra import (decompose, from_edges, load_cache, memory_estimate,
                       node_closure, parse_edge_list, save_cache, subspace_block,
                       subspace_spectrum)
from gmspectra import subspaces
from gmspectra.subspaces import (OVERFLOW, decomposition_to_json,
                                 write_decomposition_json)

from conftest import dense_s, random_graph


def test_closure_two_cycle():
    g = parse_edge_list(["0 1", "1 0"])
    assert node_closure(g, 0, 10) == {0, 1}


def test_closure_hits_dangling_overflows():
    g = parse_edge_list(["0 1", "1 2"])
    assert node_closure(g, 0, 1000) is OVERFLOW
    assert node_closure(g, 2, 1000) is OVERFLOW


def test_closure_size_cutoff():
    g = parse_edge_list(["0 1", "1 0", "2 0", "2 3", "3 2"])
    assert node_closure(g, 0, 10) == {0, 1}
    assert node_closure(g, 2, 3) is OVERFLOW
    assert node_closure(g, 2, 4) == {0, 1, 2, 3}


def reachability_oracle(g, max_size):
    """Subspaces and core from per-node reachable sets found by scipy's BFS:
    a node is in a subspace when its reachable set has at most ``max_size``
    nodes and no dangling node; overlapping reachable sets merge."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = g.node_count
    adj = sparse.csr_matrix((np.ones(g.edge_count), g.out_indices, g.out_offsets),
                            shape=(n, n))
    dangling = g.out_degrees == 0
    groups: list[set] = []
    for node in range(n):
        reach = csgraph.breadth_first_order(adj, node)[0]
        if reach.size > max_size or dangling[reach].any():
            continue
        merged = set(reach.tolist())
        for group in [grp for grp in groups if grp & merged]:
            groups.remove(group)
            merged |= group
        groups.append(merged)
    in_subspace = set().union(*groups)
    core = [node for node in range(n) if node not in in_subspace]
    return {frozenset(grp) for grp in groups}, core


def _assert_matches_oracle(g, max_size):
    d = decompose(g, max_size=max_size)
    groups, core = reachability_oracle(g, max_size)
    assert {frozenset(int(m) for m in s) for s in d.subspaces} == groups
    assert d.core_nodes.tolist() == core


def test_decompose_matches_reachability_oracle(rng):
    for n, density in ((60, 0.01), (80, 0.02), (100, 0.04)):
        for _ in range(4):
            g = random_graph(rng, n, density)
            for max_size in (3, 12, n):
                _assert_matches_oracle(g, max_size)


def test_decompose_size_cutoff_matches_reachability_oracle(rng):
    # every node has an out-link, so no closure meets a dangling node and
    # only the size cut-off decides membership
    for _ in range(6):
        n = 90
        src = np.concatenate([np.arange(n), rng.integers(0, n, 20)])
        dst = np.concatenate([rng.integers(0, n, n), rng.integers(0, n, 20)])
        g = from_edges(src, dst, n)
        assert g.dangling_nodes.size == 0
        for max_size in (2, 5, 10, 25):
            _assert_matches_oracle(g, max_size)
    # a dangling-free ring of 30 fed by node 30, beside a 2-cycle
    ring = list(range(30))
    src = ring + [30, 31, 32]
    dst = ring[1:] + [0] + [0, 32, 31]
    g = from_edges(src, dst, 33)
    for max_size in (29, 30, 31):
        _assert_matches_oracle(g, max_size)
        core = decompose(g, max_size=max_size).core_nodes
        assert (0 in core) is (max_size < 30)
        assert (30 in core) is (max_size < 31)  # its closure is the ring plus itself


def test_decompose_two_cycle_plus_self_loop():
    g = parse_edge_list(["0 1", "1 0", "2 2"])
    d = decompose(g, max_size=10)
    assert [list(s) for s in d.subspaces] == [[0, 1], [2]]
    assert d.core_count == 0
    assert d.subspace_node_count == 3


def test_decompose_chain_all_core():
    g = parse_edge_list(["0 1", "1 2"])
    d = decompose(g, max_size=10)
    assert d.subspace_count == 0
    assert list(d.core_nodes) == [0, 1, 2]


def test_overlapping_closures_merge():
    # 0 and 2 both close onto the cycle {0,1,2} through different paths
    g = parse_edge_list(["0 1", "1 2", "2 0", "3 3"])
    d = decompose(g, max_size=10)
    assert [list(s) for s in d.subspaces] == [[0, 1, 2], [3]]


def test_no_dangling_node_in_any_subspace(rng):
    for _ in range(10):
        g = random_graph(rng, 80, 0.03)
        d = decompose(g, max_size=40)
        dangling = set(int(x) for x in g.dangling_nodes)
        for members in d.subspaces:
            assert not dangling.intersection(int(m) for m in members)


def test_zero_block_scan(rng):
    for _ in range(10):
        g = random_graph(rng, 100, 0.03)
        d = decompose(g, max_size=50)
        core = set(int(x) for x in d.core_nodes)
        for members in d.subspaces:
            inside = set(int(m) for m in members)
            for node in members:
                for succ in g.successors(int(node)):
                    assert int(succ) in inside
                    assert int(succ) not in core
        # partition covers all nodes exactly once
        assert d.subspace_node_count + d.core_count == g.node_count


def test_decompose_order_independent(rng):
    # seeds are visited in id order, so a relabelled graph visits them in
    # another order; mapped back, its partition must equal the base one
    g = random_graph(rng, 120, 0.025)
    base = decompose(g, max_size=60)
    base_sets = {frozenset(int(m) for m in s) for s in base.subspaces}
    src, dst = g.edges()
    for seed in range(5):
        perm = rng.permutation(g.node_count)
        relabelled = decompose(from_edges(perm[src], perm[dst], g.node_count), max_size=60)
        back = np.argsort(perm)  # relabelled id -> original id
        sets = {frozenset(int(m) for m in back[s]) for s in relabelled.subspaces}
        assert sets == base_sets
        assert np.array_equal(np.sort(back[relabelled.core_nodes]), base.core_nodes)


def test_permutation_realizes_block_order():
    # 3 reaches the dangling node 4, so 3 and 4 are core
    g = parse_edge_list(["0 1", "1 0", "2 2", "3 0", "3 4"])
    d = decompose(g, max_size=10)
    # the subspaces, then the core, order S block-triangularly
    perm = np.concatenate([*d.subspaces, d.core_nodes])
    assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]
    assert list(perm[:3]) == [0, 1, 2]  # subspace nodes first
    assert list(perm[3:]) == [3, 4]


def test_subspace_spectrum_examples():
    g = parse_edge_list(["0 1", "1 0", "2 2"])
    d = decompose(g, max_size=10)
    spec = subspace_spectrum(g, d)
    assert spec.eigenvalues.dtype == np.complex128
    two_cycle = np.sort_complex(spec.eigenvalues[:2])
    assert np.allclose(two_cycle, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(spec.eigenvalues[2:], [1.0], atol=1e-12)
    assert spec.unit_modulus_count == 3
    assert spec.unit_eigenvalue_count == 2


def test_each_block_has_unit_eigenvalue(rng):
    for _ in range(5):
        g = random_graph(rng, 80, 0.03)
        d = decompose(g, max_size=40)
        spec = subspace_spectrum(g, d)
        assert spec.eigenvalues.size == d.subspace_node_count
        bounds = np.cumsum([0, *d.dimensions])
        for lo, hi in zip(bounds[:-1], bounds[1:]):  # block after block
            vals = spec.eigenvalues[lo:hi]
            assert np.min(np.abs(vals - 1.0)) < 1e-10
            assert np.max(np.abs(vals)) <= 1.0 + 1e-10
        assert spec.unit_eigenvalue_count >= d.subspace_count


def test_dense_limit_skips_and_flags(monkeypatch):
    # a self-loop, then a 3-cycle: the limit is read when the spectra are taken
    g = parse_edge_list(["0 0", "1 2", "2 3", "3 1"])
    d = decompose(g, max_size=10)
    monkeypatch.setattr(subspaces, "DENSE_LIMIT", 2)
    spec = subspace_spectrum(g, d)
    assert spec.skipped == [1]
    assert np.allclose(spec.eigenvalues, [1.0], atol=1e-12)


def test_block_triangular_spectrum_union(rng):
    # dense eigenvalues of S equal subspace-block plus core-block eigenvalues;
    # planted cycles + a densely wired core keep the spectrum simple, so the
    # two eigensolves are comparable at 1e-8
    for _ in range(5):
        n = 60
        src = [0, 1, 2, 3, 4, 5, 6, 7, 3]
        dst = [1, 2, 0, 4, 5, 6, 7, 3, 5]
        for node in range(8, n - 1):
            src.append(node)
            dst.append(n - 1)
            for t in rng.integers(0, n, int(rng.integers(8, 20))):
                src.append(node)
                dst.append(int(t))
        g = from_edges(src, dst, n)
        d = decompose(g, max_size=30)
        assert d.subspace_count == 2 and d.core_count > 0
        s_dense = dense_s(g)
        full = np.sort(np.abs(np.linalg.eigvals(s_dense)))
        core_block = s_dense[np.ix_(d.core_nodes, d.core_nodes)]
        parts = [np.linalg.eigvals(core_block)]
        for members in d.subspaces:
            parts.append(np.linalg.eigvals(subspace_block(g, members)))
        union = np.sort(np.abs(np.concatenate(parts)))
        assert np.max(np.abs(full - union)) < 1e-8


def test_json_export(tmp_path):
    g = parse_edge_list(["0 1", "1 0", "2 2", "3 0", "3 4"])
    d = decompose(g, max_size=10)
    data = decomposition_to_json(d)
    assert data["subspace_count"] == 2
    assert data["core_count"] == 2
    assert data["subspaces"] == [{"dimension": 2, "members": [0, 1]},
                                 {"dimension": 1, "members": [2]}]

    path = tmp_path / "decomp.json"
    write_decomposition_json(d, path)
    assert json.loads(path.read_text())["subspace_node_count"] == 3


def test_max_size_validation():
    g = parse_edge_list(["0 1", "1 0"])
    with pytest.raises(ValueError):
        decompose(g, max_size=0)
    with pytest.raises(ValueError):
        node_closure(g, 0, 0)


def _planted_power_law_graph(rng, n, hub_links):
    """Power-law graph with closed cycles of 3-8 nodes planted among free and
    dangling nodes, randomly relabelled; returns ``(g, cycles)``.

    Every free node links to a dangling node or to a free node placed before
    it, so every free node reaches a dangling node, many of them over several
    links. The first free node is a hub that links to ``hub_links`` dangling
    nodes, so the first level of a backward sweep meets it that many times."""
    sizes = rng.integers(3, 9, n // 50)
    n_cycle = int(sizes.sum())
    n_dangling = n // 10
    first_free = n_cycle + n_dangling
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    member = np.arange(n_cycle)
    block_start = np.repeat(starts, sizes)
    block_size = np.repeat(sizes, sizes)
    src = [member]
    dst = [block_start + (member - block_start + 1) % block_size]
    free = np.arange(first_free, n)
    # a tree towards the dangling nodes: each free node links back to an
    # earlier free node, or to a dangling node if it is among the first
    back = np.where(free - first_free < 20, rng.integers(n_cycle, first_free, free.size),
                    rng.integers(first_free, np.maximum(free, first_free + 1)))
    src.append(free)
    dst.append(back)
    degrees = np.minimum(rng.pareto(1.2, free.size) + 1, 200).astype(np.int64)
    weights = rng.pareto(1.1, n) + 1
    targets = np.searchsorted(np.cumsum(weights), rng.random(degrees.sum()) * weights.sum())
    src.append(np.repeat(free, degrees))
    dst.append(np.minimum(targets, n - 1))
    src.append(np.full(hub_links, first_free))
    dst.append(rng.choice(np.arange(n_cycle, first_free), hub_links, replace=False))
    perm = rng.permutation(n)
    g = from_edges(perm[np.concatenate(src)], perm[np.concatenate(dst)], n)
    cycles = sorted((np.sort(perm[start:start + size]).tolist()
                     for start, size in zip(starts, sizes)), key=lambda c: c[0])
    return g, cycles


def test_decompose_core_is_every_ancestor_of_a_dangling_node(rng):
    nx = pytest.importorskip("networkx")
    for n in (2000, 3500, 5000):
        g, cycles = _planted_power_law_graph(rng, n, hub_links=n // 20)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(zip(*(a.tolist() for a in g.edges())))
        graph.add_edges_from((int(node), "sink") for node in g.dangling_nodes)
        reaches = sorted(nx.ancestors(graph, "sink"))
        d = decompose(g, max_size=n)
        assert d.core_nodes.tolist() == reaches
        assert [s.tolist() for s in d.subspaces] == cycles


@pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
def test_decompose_long_path_to_a_dangling_node(rising):
    # the sweep takes one level per link of the path; a sweep whose cost
    # grows as path length times unmarked nodes would take minutes here
    n = 20_000
    ids = np.arange(n) if rising else np.arange(n)[::-1]
    g = from_edges(ids[:-1], ids[1:], n)
    assert g.dangling_nodes.tolist() == [ids[-1]]
    d = decompose(g)
    assert d.subspace_count == 0
    assert d.core_nodes.tolist() == list(range(n))


def test_decompose_cycle_fed_by_a_long_path_is_one_subspace(rng):
    # a 2e4-node cycle and a 2e4-node path into it, both with random ids:
    # the component labelling joins one group along chains of 2e4 links
    n = 40_000
    ids = rng.permutation(n)
    cycle, path = ids[:n // 2], ids[n // 2:]
    src = np.concatenate((cycle, path))
    dst = np.concatenate((np.roll(cycle, -1), path[1:], cycle[:1]))
    d = decompose(from_edges(src, dst, n), max_size=n)
    assert [s.tolist() for s in d.subspaces] == [list(range(n))]
    assert d.core_count == 0


def test_decompose_id_ordered_cycle_above_max_size_is_all_core():
    # the sweep marks nothing and the one component is above max_size: the
    # first seed overflows and the ancestor sweep marks the whole cycle
    n = 20_000
    g = from_edges(np.arange(n), np.roll(np.arange(n), -1), n)
    d = decompose(g, max_size=2000)
    assert d.subspace_count == 0
    assert d.core_nodes.tolist() == list(range(n))


def _no_dangling_graph(rng, n, links_per_node):
    src = np.repeat(np.arange(n), links_per_node)
    return from_edges(src, rng.integers(0, n, src.size), n)


def test_decompose_no_dangling_random_graph_is_all_core(rng):
    g = _no_dangling_graph(rng, 200_000, 5)
    assert g.dangling_nodes.size == 0
    d = decompose(g)
    assert d.subspace_count == 0
    assert d.core_count == g.node_count


def test_decompose_small_component_without_dangling_node_is_one_subspace(rng):
    # a ring through every node keeps the graph one weak component
    n = 500
    src = np.concatenate((np.arange(n), rng.integers(0, n, 2 * n)))
    dst = np.concatenate((np.roll(np.arange(n), -1), rng.integers(0, n, 2 * n)))
    g = from_edges(src, dst, n)
    for max_size in (n, 2 * n):
        d = decompose(g, max_size=max_size)
        assert [s.tolist() for s in d.subspaces] == [list(range(n))]
        assert d.core_count == 0


def test_decompose_rising_path_into_a_cycle_matches_reachability_oracle():
    # node i of the path reaches 303 - i nodes: the first 103 overflow, each
    # after walking max_size nodes, and the rest join the 3-cycle's subspace
    src = list(range(300)) + [300, 301, 302]
    dst = list(range(1, 301)) + [301, 302, 300]
    g = from_edges(src, dst, 303)
    _assert_matches_oracle(g, 200)
    assert decompose(g, max_size=200).core_nodes.tolist() == list(range(103))


@pytest.mark.parametrize("max_size", [50, 400_000], ids=["searched", "whole"])
def test_decompose_without_dangling_nodes_fits_the_memory_estimate(rng, tmp_path,
                                                                   max_size):
    # the sweep marks nothing, so every link is labelled while the in-links
    # are alive; "searched" then sweeps the ancestors of an overflowing seed
    path = tmp_path / "g.cache"
    save_cache(_no_dangling_graph(rng, 100_000, 4), path)
    tracemalloc.start()
    try:
        g = load_cache(path)
        d = decompose(g, max_size=max_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.core_count == g.node_count) is (max_size == 50)
    # no core block and no Arnoldi stage: the node and build terms alone
    assert peak <= memory_estimate(g.node_count, g.edge_count, 0, 0, 0)

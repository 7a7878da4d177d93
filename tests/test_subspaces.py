import json

import numpy as np
import pytest

from gmspectra import (decompose, dense_s, from_edges, node_closure,
                       parse_edge_list, subspace_block, subspace_spectrum)
from gmspectra.subspaces import (OVERFLOW, decomposition_to_json,
                                 write_decomposition_json)

from conftest import random_graph


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


def test_closure_stops_at_known_core():
    g = parse_edge_list(["0 1", "1 0", "2 0", "2 3", "3 2"])
    stop = np.zeros(g.node_count, dtype=bool)
    assert node_closure(g, 2, 4, stop=stop) == {0, 1, 2, 3}
    stop[1] = True
    assert node_closure(g, 2, 4, stop=stop) is OVERFLOW
    assert node_closure(g, 3, 4, stop=stop) is OVERFLOW


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
        reach = csgraph.breadth_first_order(adj, node, return_predecessors=False)
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
    perm = d.permutation
    assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]
    assert list(perm[:3]) == [0, 1, 2]  # subspace nodes first
    assert list(perm[3:]) == [3, 4]


def test_subspace_spectrum_examples():
    g = parse_edge_list(["0 1", "1 0", "2 2"])
    d = decompose(g, max_size=10)
    spec = subspace_spectrum(g, d)
    two_cycle = np.sort_complex(spec.eigenvalues[0])
    assert np.allclose(two_cycle, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(spec.eigenvalues[1], [1.0], atol=1e-12)
    assert spec.unit_modulus_count == 3
    assert spec.unit_eigenvalue_count == 2


def test_each_block_has_unit_eigenvalue(rng):
    for _ in range(5):
        g = random_graph(rng, 80, 0.03)
        d = decompose(g, max_size=40)
        spec = subspace_spectrum(g, d)
        for vals in spec.eigenvalues:
            assert np.min(np.abs(vals - 1.0)) < 1e-10
            assert np.max(np.abs(vals)) <= 1.0 + 1e-10
        assert spec.unit_eigenvalue_count >= d.subspace_count


def test_dense_limit_skips_and_flags():
    g = parse_edge_list(["0 1", "1 2", "2 0"])
    d = decompose(g, max_size=10)
    spec = subspace_spectrum(g, d, dense_limit=2)
    assert spec.skipped == [0]
    assert spec.all_eigenvalues.size == 0


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
    assert data["subspaces"][0]["members"] == [0, 1]

    limited = decomposition_to_json(d, member_limit=1)
    assert "members" not in limited["subspaces"][0]
    assert limited["subspaces"][1]["members"] == [2]

    path = tmp_path / "decomp.json"
    write_decomposition_json(d, path)
    assert json.loads(path.read_text())["subspace_node_count"] == 3


def test_max_size_validation():
    g = parse_edge_list(["0 1", "1 0"])
    with pytest.raises(ValueError):
        decompose(g, max_size=0)
    with pytest.raises(ValueError):
        node_closure(g, 0, 0)

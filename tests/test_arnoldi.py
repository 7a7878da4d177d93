import tracemalloc

import numpy as np
import pytest

import gmspectra.arnoldi
from gmspectra import (GoogleOperator, arnoldi_core, decompose, eigvec_profile,
                       from_edges, invert, load_cache, memory_estimate,
                       parse_edge_list, save_cache, subspace_spectrum,
                       write_spectrum_csv)
from gmspectra.subspaces import SubspaceSpectrum

from conftest import dense_s, random_graph


def _pair_distance(a, b):
    """Max distance under the optimal pairing of each element of the complex
    multiset ``a`` with a distinct element of ``b`` (``b`` no smaller)."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _stochastic_graph_with_core(rng, n, density):
    """Random graph whose dangling nodes force a nonempty core."""
    g = random_graph(rng, n, density)
    d = decompose(g, max_size=n)
    if d.core_count == 0:
        # add one dangling node reached by node 0
        src, dst = g.edges()
        g = from_edges(np.append(src, 0), np.append(dst, n), n + 1)
        d = decompose(g, max_size=n + 1)
    return g, d


def test_single_core_node_zero_spectrum():
    # node 2 is dangling, node 1 reaches it: core {1, 2}; seed subspace {0}
    g = parse_edge_list(["0 0", "1 2"])
    d = decompose(g, max_size=10)
    assert d.core_count == 2
    res = arnoldi_core(g, d, d.core_count)
    # core block of S: dangling column contributes 1/N to each core row
    s = dense_s(g)
    oracle = np.linalg.eigvals(s[np.ix_(d.core_nodes, d.core_nodes)])
    assert _pair_distance(res.ritz_values, oracle) < 1e-12


def test_full_dimension_matches_dense_core_block(rng):
    for _ in range(5):
        # dense enough that the core spectrum is simple: sparse graphs grow
        # defective near-zero eigenvalues that no eigensolver pins to 1e-10
        g, d = _stochastic_graph_with_core(rng, 50, 0.25)
        res = arnoldi_core(g, d, d.core_count)
        s = dense_s(g)
        oracle = np.linalg.eigvals(s[np.ix_(d.core_nodes, d.core_nodes)])
        assert _pair_distance(res.ritz_values, oracle) < 1e-10
        assert res.ortho_defect < 1e-10
        assert res.relation_residual < 1e-10
        assert np.max(np.abs(res.ritz_values)) < 1.0 + 1e-8


def test_partial_dimension_invariants(rng):
    g, d = _stochastic_graph_with_core(rng, 300, 0.02)
    res = arnoldi_core(g, d, 20)
    assert res.krylov_dimension == 20
    assert res.ortho_defect < 1e-10
    assert res.relation_residual < 1e-10
    assert res.hessenberg.shape == (21, 20)
    # descending modulus order
    mods = np.abs(res.ritz_values)
    assert np.all(np.diff(mods) <= 1e-14)


def test_reproducible_hessenberg(rng):
    g, d = _stochastic_graph_with_core(rng, 200, 0.03)
    a = arnoldi_core(g, d, 15, threads=1)
    b = arnoldi_core(g, d, 15, threads=4)
    assert np.array_equal(a.hessenberg, b.hessenberg)
    assert np.array_equal(a.ritz_values, b.ritz_values)


def test_happy_breakdown_stop_flagged():
    # two nodes each pointing to the dangling third: the uniform start spans a
    # 2-dimensional invariant subspace of the 3-node core, and the restart
    # reaches the rest of the core spectrum
    g = parse_edge_list(["0 2", "1 2"])
    d = decompose(g, max_size=10)
    assert d.core_count == 3
    res = arnoldi_core(g, d, 3)
    assert res.breakdown
    assert res.krylov_dimension == 3
    assert res.relation_residual < 1e-10
    oracle = np.linalg.eigvals(dense_s(g)[np.ix_(d.core_nodes, d.core_nodes)])
    assert _pair_distance(res.ritz_values, oracle) < 1e-12


def _mirrored_graph(rng, m):
    """Two identical copies of a random m-node graph, every node linked to
    one shared dangling node. The swap of the copies commutes with S, so the
    Krylov space of the uniform start breaks down at dimension <= m + 1 of
    the 2m + 1 core nodes."""
    adj = rng.random((m, m)) < 0.3
    src, dst = np.nonzero(adj)
    src = np.concatenate([src, src + m, np.arange(2 * m)])
    dst = np.concatenate([dst, dst + m, np.full(2 * m, 2 * m)])
    return from_edges(src, dst, 2 * m + 1)


def test_relation_residual_matches_dense_recomputation(rng, monkeypatch):
    g = _mirrored_graph(rng, 12)
    d = decompose(g, max_size=g.node_count)
    assert d.core_count == g.node_count
    inputs = []

    class Recording(GoogleOperator):
        def apply_s(self, v):
            inputs.append(np.array(v))
            return super().apply_s(v)

    monkeypatch.setattr(gmspectra.arnoldi, "GoogleOperator", Recording)
    res = arnoldi_core(g, d, d.core_count)
    k = res.krylov_dimension
    # breaks down by dimension 13 and continues from a restart vector
    assert res.breakdown and k == d.core_count
    # the check runs no matvec of its own: the inputs are the basis vectors
    assert len(inputs) == k
    basis = np.array(inputs)[:, d.core_nodes].T
    h = res.hessenberg
    assert h.shape == (k + 1, k) and h[k, k - 1] == 0.0
    a = dense_s(g)[np.ix_(d.core_nodes, d.core_nodes)]
    assert np.max(np.abs(basis.T @ basis - np.eye(k))) < 1e-13
    recomputed = float(np.max(np.abs(a @ basis - basis @ h[:k])))
    assert recomputed < 1e-13
    assert res.relation_residual == pytest.approx(recomputed, abs=1e-14)


def test_restart_never_draws_random_numbers(rng, monkeypatch):
    g = _mirrored_graph(rng, 10)
    d = decompose(g, max_size=g.node_count)

    def no_generator(*args, **kwargs):
        raise AssertionError("arnoldi_core built a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    res = arnoldi_core(g, d, d.core_count)
    assert res.breakdown and res.ritz_values.size == d.core_count


def test_residual_norms_flag_convergence(rng):
    g, d = _stochastic_graph_with_core(rng, 400, 0.015)
    res = arnoldi_core(g, d, 30)
    s = dense_s(g)
    core_block = s[np.ix_(d.core_nodes, d.core_nodes)]
    oracle = np.linalg.eigvals(core_block)
    oracle = oracle[np.argsort(-np.abs(oracle))]
    converged = res.ritz_values[res.converged_mask]
    # residuals bound eigenvalue error only up to conditioning; allow slack
    for lam in converged:
        assert np.min(np.abs(oracle - lam)) < 1e-4


def test_ritz_vectors_on_request(rng):
    g, d = _stochastic_graph_with_core(rng, 80, 0.06)
    res = arnoldi_core(g, d, d.core_count, vector_indices=[0])
    assert res.ritz_vectors is not None and 0 in res.ritz_vectors
    vec = res.ritz_vectors[0]
    lam = res.ritz_values[0]
    s = dense_s(g)
    core_block = s[np.ix_(d.core_nodes, d.core_nodes)]
    resid = np.max(np.abs(core_block @ vec - lam * vec))
    assert resid < 1e-8
    plain = arnoldi_core(g, d, 10)
    assert plain.ritz_vectors is None


def test_fifty_by_fifty_dense_oracle(rng):
    # dense random column-stochastic core via a complete-ish graph with one
    # dangling node; full Arnoldi recovers the dense spectrum
    n = 50
    adj = rng.random((n, n)) < 0.5
    src, dst = np.nonzero(adj)
    src = np.append(src, np.arange(n))
    dst = np.append(dst, np.full(n, n))
    g = from_edges(src, dst, n + 1)
    d = decompose(g, max_size=n + 1)
    assert d.core_count == n + 1
    res = arnoldi_core(g, d, n + 1)
    s = dense_s(g)
    oracle = np.linalg.eigvals(s[np.ix_(d.core_nodes, d.core_nodes)])
    assert _pair_distance(res.ritz_values, oracle) < 1e-10


def _core_block_operator(g, core):
    """The projected core block of S as a scipy operator, built without
    GoogleOperator: the core links weighted 1/outdeg(src), plus 1/N from
    every dangling core column to every core row."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import LinearOperator
    n = core.size
    local = np.full(g.node_count, -1)
    local[core] = np.arange(n)
    src, dst = g.edges()
    inside = (local[src] >= 0) & (local[dst] >= 0)
    src, dst = src[inside], dst[inside]
    block = csr_matrix((1.0 / g.out_degrees[src], (local[dst], local[src])), shape=(n, n))
    dangling = local[g.dangling_nodes]
    dangling = dangling[dangling >= 0]
    return LinearOperator((n, n), dtype=np.float64,
                          matvec=lambda x: block @ x + x[dangling].sum() / g.node_count)


def test_converged_ritz_values_match_arpack_on_a_large_core():
    # ARPACK (implicitly restarted Arnoldi, its own orthogonalisation) is the
    # oracle at a core size no dense eigensolve reaches
    eigs = pytest.importorskip("scipy.sparse.linalg").eigs
    from perfbench.generator import generate
    planted = generate(16_000, 0.02, 4, 1)
    g = from_edges(planted.src, planted.dst, planted.node_count)
    d = decompose(g)
    assert d.core_count > 15_000
    res = arnoldi_core(g, d, 256, check=False)
    oracle = eigs(_core_block_operator(g, d.core_nodes), k=20, ncv=80, tol=1e-12,
                  v0=np.ones(d.core_count), return_eigenvectors=False)
    # only converged values above the smallest ARPACK modulus have a partner;
    # the margin drops the conjugate of a pair that eigs cut in half there
    floor = np.min(np.abs(oracle)) + 1e-9
    compared = res.ritz_values[res.converged_mask & (np.abs(res.ritz_values) > floor)]
    assert compared.size >= 15
    assert _pair_distance(compared, oracle) < 1e-11


def _orthonormal_rows(rng, k, n):
    return np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, k)))[0].T)


def _one_pass(v, w):
    h = np.einsum("ij,j->i", v, w)
    return h, w - np.einsum("i,ij->j", h, v)


def test_orthogonalise_repeats_the_pass_after_cancellation(rng):
    v = _orthonormal_rows(rng, 20, 500)
    w = v.T @ rng.standard_normal(20) + 1e-10 * rng.standard_normal(500)
    start = w.copy()
    _, once = _one_pass(v, w)
    # one pass keeps ~1e-10 of the norm and leaves its rounding unremoved
    assert np.linalg.norm(once) < 1e-8 * np.linalg.norm(w)
    assert np.linalg.norm(v @ once) > 1e-13 * np.linalg.norm(once)
    h = gmspectra.arnoldi._orthogonalise(v, w)
    assert np.linalg.norm(v @ w) <= 1e-13 * np.linalg.norm(w)
    assert np.max(np.abs(h @ v + w - start)) < 1e-14


def test_orthogonalise_runs_one_pass_on_a_well_conditioned_vector(rng):
    v = _orthonormal_rows(rng, 20, 500)
    w = rng.standard_normal(500)
    h_once, once = _one_pass(v, w)
    h = gmspectra.arnoldi._orthogonalise(v, w)
    assert np.array_equal(h, h_once) and np.array_equal(w, once)


def test_restart_vector_takes_an_unused_coordinate(rng):
    n, k = 12, 4
    used = rng.choice(n, k + 1, replace=False)
    basis = np.zeros((k + 2, n))
    basis[np.arange(k + 1), used] = 1.0
    v = gmspectra.arnoldi._restart_vector(basis, k)
    assert np.array_equal(v, np.eye(n)[min(set(range(n)) - set(used))])


def test_restart_vector_is_orthogonal_to_a_full_basis(rng):
    n = 60
    basis = _orthonormal_rows(rng, n - 1, n)
    v = gmspectra.arnoldi._restart_vector(basis, n - 2)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    assert np.max(np.abs(basis @ v)) < 1e-14


def test_eigvec_profile_examples():
    prof = eigvec_profile(np.array([0.6, -0.8j]))
    assert prof.moduli == pytest.approx([0.8 / 1.4, 0.6 / 1.4])
    assert list(prof.node_at_rank) == [1, 0]

    flat = eigvec_profile(np.ones(4))
    assert np.allclose(flat.moduli, 0.25)
    assert list(flat.node_at_rank) == [0, 1, 2, 3]

    with pytest.raises(ValueError):
        eigvec_profile(np.zeros(3))


def test_profile_matches_dense_eigvec(rng):
    g, d = _stochastic_graph_with_core(rng, 60, 0.08)
    res = arnoldi_core(g, d, d.core_count, vector_indices=[0])
    s = dense_s(g)
    core_block = s[np.ix_(d.core_nodes, d.core_nodes)]
    vals, vecs = np.linalg.eig(core_block)
    lead = np.argmax(np.abs(vals))
    oracle = eigvec_profile(vecs[:, lead])
    mine = eigvec_profile(res.ritz_vectors[0])
    assert np.max(np.abs(oracle.moduli - mine.moduli)) < 1e-9


def test_spectrum_csv_export(tmp_path, rng):
    g, d = _stochastic_graph_with_core(rng, 40, 0.1)
    spec = subspace_spectrum(g, d)
    res = arnoldi_core(g, d, min(10, d.core_count))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spec, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "re,im,modulus,residual,origin"
    origins = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert origins <= {"subspace", "core"}
    assert len(lines) == 1 + spec.all_eigenvalues.size + res.ritz_values.size

    # every cell is the repr of the scalar value; the modulus is the scalar
    # abs(lam), which np.abs of a complex array misses in the last bit for
    # about a third of random values
    lam = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    spec = SubspaceSpectrum([lam[:1500], lam[1500:]], [], 0, 0)
    write_spectrum_csv(path, spec, res)
    rows = [(v, 0.0, "subspace") for v in lam]
    rows += [(v, r, "core") for v, r in zip(res.ritz_values, res.residual_norms)]
    assert path.read_text().splitlines()[1:] == [
        f"{float(v.real)!r},{float(v.imag)!r},{float(abs(v))!r},{float(r)!r},{origin}"
        for v, r, origin in rows]


def test_parameter_validation(rng):
    g = parse_edge_list(["0 1", "1 0"])
    d = decompose(g, max_size=10)  # core empty
    with pytest.raises(ValueError):
        arnoldi_core(g, d, 1)
    g2, d2 = _stochastic_graph_with_core(rng, 30, 0.1)
    with pytest.raises(ValueError):
        arnoldi_core(g2, d2, 0)
    with pytest.raises(ValueError):
        arnoldi_core(g2, d2, d2.core_count + 1)


@pytest.mark.parametrize("links_per_node, n_arnoldi, n_subspace",
                         [(40, 8, 300), (4, 128, 300), (4, 8, 2400)],
                         ids=["link-heavy", "basis-heavy", "subspace-rich"])
def test_memory_estimate_covers_traced_peak(rng, tmp_path, links_per_node, n_arnoldi,
                                            n_subspace):
    # nodes 0-299 form 3-cycles and the rest of the first n_subspace nodes
    # in-trees that feed them (invariant subspaces), the next 500 are
    # dangling, the rest link to random targets with a long-tailed out-degree
    n = 6000
    first_core = n_subspace + 500
    cycles = np.arange(300)
    trees = np.arange(300, n_subspace)
    degrees = np.minimum(rng.pareto(1.5, n - first_core) * links_per_node / 3 + 1,
                         1000).astype(int)
    src = np.concatenate((cycles, np.repeat(np.arange(first_core, n), degrees), trees))
    dst = np.concatenate((cycles - cycles % 3 + (cycles + 1) % 3,
                          rng.integers(n_subspace, n, degrees.sum()),
                          (rng.random(trees.size) * trees).astype(int)))
    path = tmp_path / "g.cache"
    save_cache(from_edges(src, dst, n), path)
    # in the order of the spectrum command; with --inverted it sorts the
    # links once, for G*'s out-links, and the loaded graph is G*'s in-links
    for inverted in (False, True):
        tracemalloc.start()
        try:
            loaded = load_cache(path)
            g = invert(loaded) if inverted else loaded
            d = decompose(g, inverse=loaded if inverted else None)
            arnoldi_core(loaded, d, n_arnoldi, vector_indices=[0, 1], inverted=inverted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = memory_estimate(g.node_count, g.edge_count, d.core_count, n_arnoldi, 2)
        assert peak <= need < 1.5 * peak, f"inverted={inverted}"

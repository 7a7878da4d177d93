"""Arnoldi iteration on the projected core block of S.

The core-block matvec embeds a core-supported vector into the full network,
applies S, and truncates back to the core: contributions leaking into the
invariant subspaces are exactly the discarded coupling block, so this is the
projected core operator. Each step orthogonalises by one classical
Gram-Schmidt pass and repeats the pass only if the first one kept less than
1/sqrt(2) of the vector's norm (the DGKS criterion of Daniel, Gragg, Kaufman
& Stewart 1976, as in ARPACK's ``dnaitr``), which keeps the basis
orthonormal to ~1e-14. Its block products, like the Ritz-vector products,
are fixed-order ``np.einsum`` reductions rather than BLAS calls, whose
summation order can depend on the BLAS thread count. Only the
orthogonality and relation checks, whose values reach the manifest alone,
use BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
from .manifest import timed
from .operator import GATHER_CHUNK, GoogleOperator
from .stats import write_curve_csv
from .subspaces import SubspaceDecomposition, SubspaceSpectrum

BREAKDOWN_TOL = 1e-14
# a Gram-Schmidt pass is repeated when it leaves less of the norm than this
DGKS_THRESHOLD = 1 / np.sqrt(2)
CONVERGED_RESIDUAL = 1e-6


@dataclass(frozen=True)
class ArnoldiResult:
    """Ritz values of the core block, sorted by descending modulus."""

    ritz_values: np.ndarray  # complex
    residual_norms: np.ndarray  # aligned with ritz_values
    krylov_dimension: int  # always n_arnoldi
    hessenberg: np.ndarray  # (k+1) x k
    breakdown: bool  # a happy breakdown restarted the iteration
    ortho_defect: float | None
    relation_residual: float | None
    ritz_vectors: dict[int, np.ndarray] | None  # index in ritz order -> core vector

    @property
    def converged_mask(self) -> np.ndarray:
        return self.residual_norms < CONVERGED_RESIDUAL


@dataclass(frozen=True)
class EigvecProfile:
    """Moduli of an eigenvector sorted decreasing, with its own rank index."""

    moduli: np.ndarray  # descending, sums to 1
    node_at_rank: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.moduli.size + 1)


def _norm(a):
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def _orthogonalise(v, w):
    """Project ``w`` in place off the orthonormal rows of ``v`` by one
    classical Gram-Schmidt pass, and by a second one only if the first left
    less than ``DGKS_THRESHOLD`` of its norm; returns the summed coefficients.

    Each pass reads the basis block twice and allocates only vectors."""
    before = _norm(w)
    h = np.einsum("ij,j->i", v, w)
    w -= np.einsum("i,ij->j", h, v)
    if _norm(w) < DGKS_THRESHOLD * before:
        c = np.einsum("ij,j->i", v, w)
        w -= np.einsum("i,ij->j", c, v)
        h += c
    return h


def _restart_vector(basis, k):
    """The coordinate vector e_j whose column of the basis rows ``0..k`` has
    the least norm, projected off those rows and normalised. The squared
    column norms sum to k + 1, so the projection keeps a squared norm of at
    least 1 - (k + 1)/n, which is positive whenever k + 1 < n."""
    rows = basis[:k + 1]
    v = np.zeros(basis.shape[1])
    v[np.argmin(np.einsum("ij,ij->j", rows, rows))] = 1.0
    _orthogonalise(rows, v)
    v /= _norm(v)
    return v


def memory_estimate(n_nodes: int, n_links: int, n_core: int, n_arnoldi: int,
                    n_vectors: int) -> int:
    """Bytes of the numpy arrays that loading the graph, decomposing it and
    ``arnoldi_core`` with ``n_vectors`` Ritz vectors hold at once, for the
    graph or, as ``spectrum --inverted`` runs them, for G*. Each term counts
    its arrays at their largest, so the estimate errs high. The interpreter,
    numpy itself and other Python objects are not counted."""
    # per link, the load check holds the out-link ids and one bool each
    # (4 + 1 bytes); an invert (decompose's, for its ancestor sweeps, and the
    # operator's, or with --inverted the one that builds G*'s out-links, whose
    # in-links are then the loaded graph's out-links) adds to the ids their
    # row ids, the sort keys, their dedup mask and the in-link ids (4 + 4 +
    # 8 + 1 + 4), the keys never copied as no link repeats; a level of a sweep
    # holds the out-link ids, the in-link ids and at most one int64 position
    # and one uint32 id per link (4 + 4 + 8 + 4); the component labelling
    # holds the out-link and in-link ids and, per labelled link, four uint32
    # ids and a bool (4 + 4 + 17); a matvec holds the out-link ids and the
    # operator's in-link ids (4 + 4), and one chunk's intp index and gather
    # buffer, or its gather buffer and row sums (8 + 8 per link of the
    # chunk); a chunk is shorter than GATHER_CHUNK plus its last row, which
    # holds at most N links
    build = 25 * n_links
    matvec = 8 * n_links + 16 * min(n_links, GATHER_CHUNK + n_nodes)
    # the out-link offsets and the in-link offsets the operator builds (with
    # --inverted, those of G* and of the loaded graph), four N-length arrays
    # the operator keeps, four that each matvec allocates, and the
    # decomposition's node lists
    nodes = 2 * 8 * (n_nodes + 1) + 9 * 8 * n_nodes
    # the Krylov basis, three core vectors of one step and the complex Ritz vectors
    core = (n_arnoldi + 4) * n_core * 8 + n_vectors * n_core * 16
    # the Hessenberg matrix, eig's complex eigenvectors and its work arrays,
    # and the orthogonality check's Gram matrix, counted three times to err high
    dense = ((n_arnoldi + 1) * n_arnoldi * 8 + 2 * n_arnoldi ** 2 * 16
             + 3 * (n_arnoldi + 1) ** 2 * 8)
    # every invert and decompose end before the Krylov basis is allocated,
    # so the two moments never overlap
    return nodes + max(build, matvec + core + dense)


@timed("arnoldi.arnoldi_core")
def arnoldi_core(g: DirectedGraph, decomp: SubspaceDecomposition, n_arnoldi: int,
                 vector_indices=None, check: bool = True,
                 threads: int = 1, inverted: bool = False) -> ArnoldiResult:
    """Arnoldi iteration of the projected core block, started from the
    uniform vector on the core. With ``inverted`` the block is that of
    G*, the link-inverted ``g``, and ``decomp`` a decomposition of G*; the
    operator then reads G*'s in-links from ``g`` as stored.

    On happy breakdown before step ``n_arnoldi`` the iteration continues from
    a coordinate vector projected off the basis and flags ``breakdown``; so
    it always returns ``n_arnoldi`` Ritz values, and with
    ``n_arnoldi == core size`` the complete core spectrum.
    Ritz vectors are materialized only for ``vector_indices`` (indices into
    the modulus-sorted Ritz order); an index outside ``[0, n_arnoldi)``
    raises ``ValueError``.
    ``check`` records the orthogonality defect and the Arnoldi relation
    residual; it costs no extra matvecs. ``threads`` goes to the operator,
    which checks it and stores nothing of it.
    """
    core = decomp.core_nodes
    n_core = core.size
    if n_core == 0:
        raise ValueError("core space is empty")
    if not 1 <= n_arnoldi <= n_core:
        raise ValueError(f"n_arnoldi must be in [1, {n_core}], got {n_arnoldi}")
    if vector_indices is not None:
        vector_indices = [int(idx) for idx in vector_indices]
        bad = [idx for idx in vector_indices if not 0 <= idx < n_arnoldi]
        if bad:
            raise ValueError(f"Ritz indices must be in [0, {n_arnoldi}), got {bad}")

    op = GoogleOperator(g, alpha=1.0, threads=threads, inverted=inverted)
    n_full = g.node_count
    embed = np.zeros(n_full)

    def matvec(v_core):
        embed[:] = 0.0
        embed[core] = v_core
        return op.apply_s(embed)[core]

    basis = np.zeros((n_arnoldi + 1, n_core))
    basis[0] = 1.0 / np.sqrt(n_core)
    hess = np.zeros((n_arnoldi + 1, n_arnoldi))
    breakdown = False
    defect = 0.0

    for k in range(n_arnoldi):
        with timed("arnoldi.matvec"):
            av = matvec(basis[k])
        w = av.copy()
        with timed("arnoldi.orthogonalise"):
            hess[:k + 1, k] = _orthogonalise(basis[:k + 1], w)
        norm = _norm(w)
        happy = norm < BREAKDOWN_TOL
        if not happy:
            hess[k + 1, k] = norm
            basis[k + 1] = w / norm
        if check:
            # Arnoldi relation A v_k = V h_k against this step's own matvec;
            # the matvec is deterministic, so re-running it gives equal bits.
            # A restart vector enters with coefficient 0 and is not needed yet.
            # The residual reaches only the manifest, so BLAS may sum it.
            with timed("arnoldi.check"):
                av -= hess[:k + 2, k] @ basis[:k + 2]
                defect = max(defect, float(np.max(np.abs(av))))
        if happy and k + 1 < n_arnoldi:
            breakdown = True
            basis[k + 1] = _restart_vector(basis, k)
    # the operator's arrays go before the dense tail allocates
    del op, embed, matvec

    with timed("arnoldi.eig"):
        values, vecs = np.linalg.eig(hess[:n_arnoldi])
    # zero after a happy breakdown at the last step
    residuals = abs(hess[n_arnoldi, n_arnoldi - 1]) * np.abs(vecs[-1, :])

    order = np.argsort(-np.abs(values), kind="stable")
    values = values[order]
    residuals = residuals[order]

    ritz_vectors = None
    if vector_indices is not None:
        # two real fixed-order products: no complex copy of the basis
        ritz_vectors = {}
        for idx in vector_indices:
            coeffs = vecs[:, order[idx]]
            vec = np.empty(n_core, dtype=np.complex128)
            vec.real = np.einsum("i,ij->j", coeffs.real, basis[:n_arnoldi])
            vec.imag = np.einsum("i,ij->j", coeffs.imag, basis[:n_arnoldi])
            ritz_vectors[idx] = vec

    ortho_defect = relation_residual = None
    if check:
        # the final basis row is zero after a happy breakdown at the last step
        rows = n_arnoldi + 1 if hess[n_arnoldi, n_arnoldi - 1] != 0.0 else n_arnoldi
        with timed("arnoldi.check"):
            gram = basis[:rows] @ basis[:rows].T
            gram[np.diag_indices(rows)] -= 1.0
            ortho_defect = float(np.max(np.abs(gram, out=gram)))
        relation_residual = defect

    return ArnoldiResult(values, residuals, n_arnoldi, hess, breakdown,
                         ortho_defect, relation_residual, ritz_vectors)


def eigvec_profile(vector: np.ndarray) -> EigvecProfile:
    """Moduli normalized to unit sum, sorted descending with ties broken by
    ascending node id."""
    vector = np.asarray(vector)
    moduli = np.abs(vector).astype(np.float64)
    total = moduli.sum()
    if total == 0.0:
        raise ValueError("zero vector has no profile")
    moduli /= total
    node_at_rank = np.argsort(-moduli, kind="stable").astype(np.int64)
    return EigvecProfile(moduli[node_at_rank], node_at_rank)


def write_spectrum_csv(path, subspace_spec: SubspaceSpectrum,
                       core: ArnoldiResult | None) -> None:
    """CSV export: re,im,modulus,residual,origin. Subspace eigenvalues come
    from dense solves and carry residual 0."""
    sub_vals = subspace_spec.all_eigenvalues
    core_vals, core_res = ((core.ritz_values, core.residual_norms) if core is not None
                           else ([], []))
    lam = np.concatenate((sub_vals, core_vals))
    # np.hypot, not np.abs(lam): it rounds like the scalar abs(lam) in every bit
    write_curve_csv(path, "re,im,modulus,residual,origin",
                    lam.real, lam.imag, np.hypot(lam.real, lam.imag),
                    np.concatenate((np.zeros(len(sub_vals)), core_res)),
                    np.repeat(["subspace", "core"], [len(sub_vals), len(core_vals)]))

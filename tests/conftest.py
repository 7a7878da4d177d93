import dataclasses

import numpy as np
import pytest

from gmspectra import from_edges, invert
from gmspectra.graph import GRAPH_CACHE
from gmspectra.operator import DEFAULT_ALPHA


def random_graph(rng, n, density):
    """Random directed graph from an n*n Bernoulli adjacency draw."""
    adj = rng.random((n, n)) < density
    src, dst = np.nonzero(adj)
    return from_edges(src, dst, n)


def write_version_1_cache(g, path):
    """The graph cache as version 1 wrote it: both link directions."""
    v1 = dataclasses.replace(GRAPH_CACHE, version=1,
                             layout=lambda n, n_ell: [("<i8", n + 1), ("<u4", n_ell)] * 2)
    inv = invert(g)
    v1.write(path, (g.node_count, g.edge_count),
             (g.out_offsets, g.out_indices, inv.out_offsets, inv.out_indices))


def random_probability(rng, n):
    v = rng.random(n)
    return v / v.sum()


def dense_s(g):
    """Dense S matrix, column j uniform when node j dangles; an oracle for
    small graphs."""
    n = g.node_count
    s = np.zeros((n, n))
    deg = g.out_degrees
    for j in range(n):
        if deg[j] == 0:
            s[:, j] = 1.0 / n
        else:
            s[g.successors(j), j] = 1.0 / deg[j]
    return s


def dense_g(g, alpha=DEFAULT_ALPHA):
    """Dense Google matrix alpha*S + (1-alpha)/N; an oracle for small graphs."""
    return alpha * dense_s(g) + (1.0 - alpha) / g.node_count


def dense_pagerank(dense_google):
    """Dominant right eigenvector of a dense Google matrix, sum 1."""
    vals, vecs = np.linalg.eig(dense_google)
    lead = np.argmin(np.abs(vals - 1.0))
    vec = np.real(vecs[:, lead])
    vec = np.abs(vec)
    return vec / vec.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20120714)

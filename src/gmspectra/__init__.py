"""Google-matrix spectral analysis of large directed networks.

PageRank/CheiRank by power iteration over implicit stochastic operators,
invariant-subspace decomposition with dense block spectra, Arnoldi core
spectrum, and the 2D-ranking statistical observables.
"""

# defined before the submodule imports: the manifest module reads it
__version__ = "0.1.0"

from .graph import (DirectedGraph, GraphStats, degree_stats, from_edges,
                    invert, load_cache, parse_edge_list, save_cache)
from .operator import GoogleOperator
from .ranking import (RankVector, cheirank, pagerank, rank_indices,
                      read_vector_cache, write_rank_csv, write_vector_cache)
from .subspaces import (SubspaceDecomposition, SubspaceSpectrum, decompose,
                        node_closure, subspace_block, subspace_spectrum)
from .arnoldi import (ArnoldiResult, arnoldi_core, eigvec_profile,
                      memory_estimate, write_spectrum_csv)
from .stats import (CorrelatorReport, PowerLawFit, SubspaceFractionCurve,
                    correlator, density_2d, n_k_counts, ng_filling,
                    powerlaw_fit, subspace_fraction)

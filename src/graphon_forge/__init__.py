"""Sparse graphon estimation from a single graph sample.

Pipeline: non-backtracking spectral extraction on one half of an edge split,
weighted-star moment estimation on the other half, a nonnegative grid-node
fit of the mollified moments of the joint eigenfunction law, and
sampling-based reconstruction of the kernel's informative-rank projection.
"""

from .estimator import (
    GraphonEstimate,
    assemble,
    load_estimate,
    sample_nodes,
    save_estimate,
)
from .evaluation import delta2_exact_cells, delta2_upper, diagnostics_C, l2_distance_grid
from .graph_sampler import (
    LatentAssignment,
    SparseGraph,
    degree_stats,
    sample_graph,
    split_edges,
)
from .graphon_model import (
    SpectralGraphon,
    StepFunction,
    StepGraphon,
    check_assumptions,
    load_graphon,
    rank_truncate,
    save_graphon,
    scale,
    spectral_decompose,
)
from .moment_poly import (
    DensityFit,
    LegendreBasis,
    MollifierMoments,
    NodeFit,
    eval_density,
    fit_density,
    fit_nodes,
    l1_norm_plus,
    legendre_basis,
    mollifier_moments,
    mollify_moments,
)
from .nonbacktracking import (
    NbSpectrum,
    OrientedEdgeSpace,
    build_nb_operator,
    ihara_bass_reduce,
    top_spectrum,
    vertex_aggregates,
)
from .pipeline import PipelineConfig, run_pipeline, run_scaled, run_scaled_ladder
from .star_counts import MomentTable, count_pair, count_star, moment_table, normalize_pair, normalize_star

__version__ = "0.1.0"

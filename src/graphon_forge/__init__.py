"""Sparse graphon estimation from a single graph sample.

Pipeline: non-backtracking spectral extraction on one half of an edge split,
weighted-star moment estimation on the other half, a nonnegative grid-node
fit of the mollified moments of the joint eigenfunction law, and
sampling-based reconstruction of the kernel's informative-rank projection.
"""

from .pipeline import PipelineConfig, run_pipeline, run_scaled, run_scaled_ladder

__version__ = "0.1.0"

"""Sampling the fitted feature law and assembling the step-kernel estimate.

The pipeline draws feature vectors Z_1..Z_m i.i.d. from the weighted grid
nodes of a nonnegative moment fit (`sample_nodes`). The estimate itself is the
rank-K step kernel sum_i lambda_i fhat_i(x) fhat_i(y) with
fhat_i(x) = Z_{ceil(x m)}(i) and x = 0 mapped to the first piece.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .moment_poly import NodeFit
from .rng import substream

FORMAT_VERSION = 1


class EstimateParseError(ValueError):
    pass


def sample_nodes(fit: NodeFit, m: int, seed: int) -> np.ndarray:
    """Draw m i.i.d. feature vectors from the fit's weighted nodes."""
    rng = substream(seed, "feature-sampling")
    return fit.nodes[rng.choice(fit.weights.size, size=m, p=fit.weights)]


@dataclass
class GraphonEstimate:
    """Step-kernel estimate with m pieces and K sampled feature columns."""

    lambdas: np.ndarray
    Z: np.ndarray
    kappa: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.Z = np.asarray(self.Z, dtype=float).reshape(-1, self.lambdas.size)
        if self.Z.shape[0] < 1:
            raise ValueError("need at least one piece")

    @property
    def m(self) -> int:
        return self.Z.shape[0]

    @property
    def K(self) -> int:
        return self.lambdas.size

    def piece_of(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.ceil(x * self.m).astype(int)
        return np.clip(idx, 1, self.m) - 1

    def feature_grid(self, g: int) -> np.ndarray:
        mid = (np.arange(g) + 0.5) / g
        return self.Z[self.piece_of(mid)]

    def evaluate(self, x, y):
        fx = self.Z[self.piece_of(x)]
        fy = self.Z[self.piece_of(y)]
        # multiply the feature pair first: fx*fy is exactly symmetric in x, y
        return ((fx * fy) * self.lambdas).sum(axis=-1)

    def kernel_grid(self, g: int) -> np.ndarray:
        f = self.feature_grid(g)
        return (f * self.lambdas) @ f.T


def assemble(Z: np.ndarray, lambdas: np.ndarray, kappa: float = np.inf, provenance=None) -> GraphonEstimate:
    """Estimate from sampled feature rows and the spectral weights."""
    return GraphonEstimate(lambdas, Z, kappa, provenance or {})


def save_estimate(est: GraphonEstimate, path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "lambdas": est.lambdas.tolist(),
        "m": est.m,
        "kappa": est.kappa,
        "Z": est.Z.ravel().tolist(),
        "provenance": est.provenance,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one C-encoder call; json.dump streams through the Python one


def load_estimate(path) -> GraphonEstimate:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EstimateParseError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise EstimateParseError(f"unsupported estimator file version {version!r}")
    lambdas = np.array(doc["lambdas"], dtype=float)
    flat = np.array(doc["Z"], dtype=float)
    if lambdas.size == 0 or flat.size % lambdas.size:
        raise EstimateParseError("Z length is not a multiple of the feature count")
    Z = flat.reshape(-1, lambdas.size)
    if Z.shape[0] != doc["m"]:
        raise EstimateParseError(f"m={doc['m']} does not match {Z.shape[0]} Z rows")
    return GraphonEstimate(lambdas, Z, float(doc["kappa"]), doc.get("provenance", {}))


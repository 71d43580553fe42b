"""Sampling the fitted feature law and assembling the step-kernel estimate.

The pipeline draws feature vectors Z_1..Z_m i.i.d. from the weighted grid
nodes of a nonnegative moment fit (`sample_nodes`). The estimate itself is the
rank-K step kernel sum_i lambda_i fhat_i(x) fhat_i(y) with
fhat_i(x) = Z_{ceil(x m)}(i) and x = 0 mapped to the first piece.

The fit has a handful of nodes, so the m rows of Z repeat a few distinct
ones. An estimate is held, evaluated and dumped as those distinct rows (the
atoms) plus one atom index per piece, Z = atoms[index].
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graphon_model import JsonObject
from .moment_poly import NodeFit
from .rng import substream

FORMAT_VERSION = 2


class EstimateParseError(ValueError):
    pass


def sample_nodes(fit: NodeFit, m: int, seed: int) -> np.ndarray:
    """Indices into fit.nodes of m i.i.d. draws from the fit's weighted nodes."""
    rng = substream(seed, "feature-sampling")
    return rng.choice(fit.weights.size, size=m, p=fit.weights)


@dataclass
class GraphonEstimate:
    """Step-kernel estimate with m pieces, each one of the (A, K) atoms."""

    lambdas: np.ndarray
    atoms: np.ndarray
    index: np.ndarray
    kappa: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        K = self.lambdas.size
        if K == 0:
            raise ValueError("lambdas is empty: need at least one feature")
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.size == 0 or atoms.size % K:
            raise ValueError(f"atoms hold {atoms.size} values, not a positive multiple of K = {K}")
        self.atoms = atoms.reshape(-1, K)
        self.index = np.asarray(self.index)
        if self.index.ndim != 1 or self.index.size == 0:
            raise ValueError("index must list one atom per piece, at least one piece")
        if self.index.dtype.kind not in "iu":
            raise ValueError(f"index entries must be integers, not {self.index.dtype}")
        if self.index.min() < 0 or self.index.max() >= self.atoms.shape[0]:
            raise ValueError(f"index entries must lie in [0, {self.atoms.shape[0]})")

    @property
    def Z(self) -> np.ndarray:
        """The (m, K) feature rows, one per piece."""
        return self.atoms[self.index]

    @property
    def m(self) -> int:
        return self.index.size

    @property
    def K(self) -> int:
        return self.lambdas.size

    @property
    def counts(self) -> np.ndarray:
        """Pieces per atom; an atom the draw never chose counts 0."""
        return np.bincount(self.index, minlength=self.atoms.shape[0])

    def piece_of(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.ceil(x * self.m).astype(int)
        return np.clip(idx, 1, self.m) - 1

    def features_at(self, x) -> np.ndarray:
        return self.atoms[self.index[self.piece_of(x)]]

    def feature_grid(self, g: int) -> np.ndarray:
        return self.features_at((np.arange(g) + 0.5) / g)

    def evaluate(self, x, y):
        fx = self.features_at(x)
        fy = self.features_at(y)
        # multiply the feature pair first: fx*fy is exactly symmetric in x, y
        return ((fx * fy) * self.lambdas).sum(axis=-1)

    def kernel_grid(self, g: int) -> np.ndarray:
        f = self.feature_grid(g)
        return (f * self.lambdas) @ f.T


def save_estimate(est: GraphonEstimate, path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "lambdas": est.lambdas.tolist(),
        "m": est.m,
        "kappa": est.kappa,
        "atoms": est.atoms.ravel().tolist(),
        "index": est.index.tolist(),
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
    if not isinstance(doc, dict):
        raise EstimateParseError(f"{path}: top level is a {type(doc).__name__}, not an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise EstimateParseError(
            f"{path}: unsupported estimate file version {version!r} (this reader takes {FORMAT_VERSION})"
        )
    doc = JsonObject(path, doc)
    try:
        lambdas, atoms, index = doc.numbers("lambdas"), doc.numbers("atoms"), doc.numbers("index", "i")
        kappa = doc.number("kappa")
    except ValueError as exc:
        raise EstimateParseError(str(exc)) from exc
    m, provenance = doc.get("m"), doc.get("provenance", {})
    if type(m) is not int:
        raise EstimateParseError(f"{path}: field 'm' is {m!r}, not an integer")
    if not isinstance(provenance, dict):
        raise EstimateParseError(f"{path}: field 'provenance' is not an object")
    if index.size != m:
        raise EstimateParseError(f"{path}: m={m} does not match the {index.size} entries of field 'index'")
    try:
        return GraphonEstimate(lambdas, atoms, index, kappa, provenance)
    except ValueError as exc:
        raise EstimateParseError(f"{path}: {exc}") from exc

"""End-to-end estimation pipeline with staged, cacheable, deterministic dumps.

Stage order: generate (sample + split) -> spectrum -> moments -> fit ->
estimate -> evaluate. Default constants follow the source procedure
(epsilon = 1/log log n clamped to [0.01, 0.5], e1 = 1/sqrt(log n), the
mollifier width formula floored at 0.05, m = n), with two desk-scale
adaptations recorded in the manifest next to the formula values: the
non-backtracking operator is rescaled by 1/(1 - epsilon) so its spectrum
estimates the unsplit kernel's eigenvalues rather than the thinned ones, and
the fit box is tightened to the feature scale implied by the estimated
pure moments whenever that is smaller than the conservative 2M/sqrt(lambda_1)
bound (a degree-N fit on the conservative box resolves nothing at desk-scale
N). Each stage can be run in isolation from the previous stage's dumps; both
paths call the same compute functions, and every dump embeds the config hash
so mismatched inputs are refused. Reruns with identical config and seed are
byte-identical apart from the manifest's timing section, whatever the BLAS
thread count.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dumps, evaluation, graph_sampler, graphon_model, moment_poly, nonbacktracking, star_counts
from . import estimator as est_mod
from .dumps import StageInputError

EPSILON_CLAMP = (0.01, 0.5)
DELTA_FLOOR = 0.05
N_CAP = 4  # desk-scale cap on the formula N
E0 = 0.5  # target accuracy in the formula N and delta, which N_CAP and DELTA_FLOOR override
KAPPA_PAD = 1.1  # pad on the moment-implied feature scale
H_LADDER = (1.0, 2.0, 4.0, 8.0)  # the scales `run_scaled_ladder` runs
# largest metrics_grid g: the evaluate stage holds about 24 g^2 bytes (400 MB
# here), whether or not the alignment search fits its budget
METRICS_GRID_MAX = 4096
MANIFEST_NAME = "manifest.json"
DEGENERATE_NAME = "degenerate.json"
# generate-stage dumps by the PipelineState attribute that holds them
GRAPH_DUMPS = {"latents": "latents.npy", "g1": "g1.npy", "g2": "g2.npy"}
AGGREGATE_DTYPE = np.dtype("<f8")  # of the spectrum stage's (n, K) aggregates.npy


@dataclass
class PipelineConfig:
    """Run parameters; every field but `out` changes a run's dumps and feeds the config hash."""

    model: str = ""                 # path to the graphon JSON
    n: int = 1000
    seed: int = 0
    epsilon_override: float | None = None
    e1_override: float | None = None
    N_override: int | None = None
    metrics_grid: int = 256
    out: str = ""

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        doc = dumps.read_json_object(path)
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def semantic_dict(self) -> dict:
        """Fields that affect a run's dumps: all but the output directory."""
        d = asdict(self)
        d.pop("out")
        return d

    def config_hash(self, model_bytes: bytes) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True).encode() + model_bytes
        return hashlib.sha256(payload).hexdigest()


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)  # a JSON true is no integer


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_config(cfg: PipelineConfig) -> None:
    """Refuse the first field of `cfg` of the wrong type or out of range, naming it.

    The seed is kept to the 32 bits `rng.substream` reads, so that no two
    seeds draw one graph under two config hashes.
    """
    rules = {  # field: (test, what it must be)
        "model": (lambda v: isinstance(v, str), "a path string"),
        "n": (lambda v: _is_int(v) and v >= 100, "n >= 100, an integer"),
        "seed": (lambda v: _is_int(v) and 0 <= v < 2**32, "0 <= seed < 2**32, an integer"),
        "epsilon_override": (lambda v: v is None or (_is_real(v) and 0 < v < 1), "0 < epsilon_override < 1, or null"),
        "e1_override": (lambda v: v is None or (_is_real(v) and math.isfinite(v) and v >= 0),
                        "a finite e1_override >= 0, or null"),
        "N_override": (lambda v: v is None or (_is_int(v) and v >= 1), "N_override >= 1, an integer, or null"),
        "metrics_grid": (lambda v: _is_int(v) and 1 <= v <= METRICS_GRID_MAX,
                         f"1 <= metrics_grid <= {METRICS_GRID_MAX}, an integer"),
        "out": (lambda v: isinstance(v, str), "a path string"),
    }
    for name, (allowed, need) in rules.items():
        value = getattr(cfg, name)
        if not allowed(value):
            raise ValueError(f"config field {name!r} is {value!r}; need {need}")


def default_epsilon(n: int) -> float:
    raw = 1.0 / math.log(math.log(n))
    return min(max(raw, EPSILON_CLAMP[0]), EPSILON_CLAMP[1])


def formula_N(K: int, M: float, e0: float) -> float:
    try:
        return (2.0 * K * M / e0) ** (6 * K + 30)
    except OverflowError:
        return math.inf


def formula_delta(K: int, lambda1: float, M: float, e0: float) -> float:
    return math.sqrt(e0 / (64.0 * K * lambda1 * M * M))


def moment_feature_scale(table: star_counts.MomentTable) -> float:
    """Largest per-coordinate scale implied by the pure even moments.

    (int f_i^(2j))^(1/(2j)) lower-bounds sup |f_i|; the max over available j
    and i estimates the box the features actually live in.
    """
    best = 0.0
    for i in range(table.K):
        for j in range(2, table.N + 1, 2):
            alpha = tuple(j if t == i else 0 for t in range(table.K))
            v = abs(table.value(alpha))
            if v > 0:
                best = max(best, v ** (1.0 / j))
    return best


class PipelineState:
    """Shared context between stages; loads whatever is not in memory from disk."""

    def __init__(self, cfg: PipelineConfig, out_dir, model: graphon_model.StepGraphon | None = None):
        check_config(cfg)
        self.cfg = cfg
        self.out = Path(out_dir)
        self.model = model if model is not None else graphon_model.load_graphon(cfg.model)
        model_doc = dumps.document(dumps.MODEL, vars(self.model))
        self.config_hash = cfg.config_hash(json.dumps(model_doc, sort_keys=True).encode())
        self.out.mkdir(parents=True, exist_ok=True)  # after the model: an unreadable one leaves no directory
        self.truth = graphon_model.spectral_decompose(self.model)
        self.report = graphon_model.check_assumptions(self.model, self.truth)
        self.M = self.model.bound
        self.latents = None
        self.g1 = None
        self.g2 = None
        self.epsilon = None
        self.edge_counts = None  # {"g1": m1, "g2": m2}, as split.json records them
        self.spectrum = None
        self.table = None
        self.fit = None
        self.estimate = None
        self.metrics = None
        self.degenerate = False
        self.warnings: list[str] = []
        self.constants: dict = {}
        self.timings: dict[str, float] = {}

    # -- disk round-trips ---------------------------------------------------
    def require_graphs(self, names=tuple(GRAPH_DUMPS)):
        """Load the named generate-stage dumps that are not in memory.

        `names` are keys of GRAPH_DUMPS. epsilon and the edge counts come from
        split.json, which also vouches for the config the dumps were generated
        under, and so for n = cfg.n; an edge dump whose row count differs from
        the one split.json records is refused.
        """
        if self.epsilon is None:
            split = dumps.read(self.out / "split.json", dumps.SPLIT, self.config_hash)
            self.epsilon = split["epsilon"]
            self.edge_counts = {"g1": split["m1"], "g2": split["m2"]}
        for name in names:
            if getattr(self, name) is not None:
                continue
            path = dumps.stage_input(self.out / GRAPH_DUMPS[name])
            if name == "latents":
                self.latents = graph_sampler.load_latents(path)
                continue
            graph = graph_sampler.load_edge_list(path, self.cfg.n)
            if graph.m != self.edge_counts[name]:
                raise StageInputError(
                    f"{path} holds {graph.m} edges, split.json records {self.edge_counts[name]}"
                )
            setattr(self, name, graph)

    def require_spectrum(self):
        if self.spectrum is None:
            fields = dumps.read(self.out / "spectrum.json", dumps.SPECTRUM, self.config_hash)
            shape = (self.cfg.n, fields["K"])
            path = self.out / "aggregates.npy"
            aggregates = graph_sampler.load_npy(path, AGGREGATE_DTYPE, 2)
            if aggregates.shape != shape:
                raise ValueError(f"{path}: expected shape {shape}, found {aggregates.shape}")
            self.spectrum = nonbacktracking.NbSpectrum(vertex_aggregates=aggregates, **fields)

    def require_table(self):
        if self.table is None:
            self.require_spectrum()
            fields = dumps.read(self.out / "moments.json", dumps.MOMENTS, self.config_hash, K=self.spectrum.K)
            self.table = star_counts.MomentTable(self.spectrum.K, **fields)

    def require_fit(self):
        if self.fit is None:
            self.require_spectrum()
            fields = dumps.read(self.out / "fit.json", dumps.FIT, self.config_hash, K=self.spectrum.K)
            self.fit = moment_poly.NodeFit(self.spectrum.K, **fields)

    def read_degeneracy(self, stage: str) -> None:
        """Take the degenerate flag from the record an earlier stage wrote, if any."""
        path = self.out / DEGENERATE_NAME
        if path.exists():
            record = dumps.read(path, dumps.DEGENERATE, self.config_hash)
            self.degenerate = STAGE_ORDER.index(record["stage"]) < STAGE_ORDER.index(stage)

    def require_estimate(self):
        if self.estimate is None:
            path = dumps.stage_input(self.out / "estimate.json")
            self.estimate = est_mod.load_estimate(path)
            dumps.check_hash(path, dumps.ESTIMATE, vars(self.estimate), self.config_hash)


# -- stages -------------------------------------------------------------------


def mark_degenerate(state: PipelineState, stage: str, reason: str) -> None:
    """Flag the run degenerate and persist why, so later staged runs need not re-derive it."""
    state.degenerate = True
    state.warnings.append(reason)
    dumps.write(state.out / DEGENERATE_NAME, dumps.DEGENERATE, {"stage": stage, "reason": reason}, state.config_hash)


def stage_generate(state: PipelineState) -> None:
    """Sample the graph and latents, then split the edges."""
    cfg = state.cfg
    graph, state.latents = graph_sampler.sample_graph(state.model, cfg.n, cfg.seed)
    state.epsilon = (
        cfg.epsilon_override if cfg.epsilon_override is not None else default_epsilon(cfg.n)
    )
    state.g1, state.g2 = graph_sampler.split_edges(graph, state.epsilon, cfg.seed)
    state.edge_counts = {"g1": state.g1.m, "g2": state.g2.m}
    (state.out / DEGENERATE_NAME).unlink(missing_ok=True)
    graph_sampler.save_latents(state.latents, state.out / GRAPH_DUMPS["latents"])
    for name in ("g1", "g2"):
        graph_sampler.save_edge_list(getattr(state, name), state.out / GRAPH_DUMPS[name])
    split = {"epsilon": state.epsilon, "m1": state.g1.m, "m2": state.g2.m}
    dumps.write(state.out / "split.json", dumps.SPLIT, split, state.config_hash)


def stage_spectrum(state: PipelineState) -> None:
    """Informative non-backtracking eigenpairs of G1, rescaled by 1/(1 - epsilon)."""
    cfg = state.cfg
    state.require_graphs(["g1"])
    try:
        state.spectrum = nonbacktracking.top_spectrum(
            state.g1, scale=1.0 / (1.0 - state.epsilon), e1_override=cfg.e1_override, seed=cfg.seed
        )
        state.warnings.extend(state.spectrum.warnings)
        if state.spectrum.K == 0:
            mark_degenerate(
                state, "spectrum", "no eigenvalue cleared the bulk cutoff; constant estimator emitted"
            )
    except nonbacktracking.DegenerateSpectrumError as exc:
        state.spectrum = None
        mark_degenerate(state, "spectrum", f"spectral stage degenerate: {exc}")
    if state.spectrum is not None:
        dumps.write(state.out / "spectrum.json", dumps.SPECTRUM, vars(state.spectrum), state.config_hash)
        aggregates = np.ascontiguousarray(state.spectrum.vertex_aggregates, dtype=AGGREGATE_DTYPE)
        graph_sampler.save_npy(aggregates, state.out / "aggregates.npy")


def effective_N(state: PipelineState) -> int:
    cfg = state.cfg
    K = state.spectrum.K
    n_formula = formula_N(K, state.M, E0)
    N = int(cfg.N_override) if cfg.N_override is not None else int(min(n_formula, N_CAP))
    state.constants.update(
        {
            "epsilon_formula": 1.0 / math.log(math.log(cfg.n)),
            "epsilon": state.epsilon,
            "e1_formula": nonbacktracking.default_e1(cfg.n),
            "e1": state.spectrum.e1,
            "N_formula": n_formula if math.isfinite(n_formula) else "inf",
            "N": max(N, 1),
        }
    )
    return max(N, 1)


def stage_moments(state: PipelineState) -> None:
    """Normalized star-count table on G2, every entry of total degree <= N."""
    if state.degenerate:
        return
    state.require_graphs(["g2"])
    state.require_spectrum()
    N = effective_N(state)
    try:
        state.table = star_counts.moment_table(
            state.g2, state.spectrum.lambdas, state.spectrum.vertex_aggregates, N, state.epsilon
        )
    except star_counts.MomentTableTooLarge as exc:
        mark_degenerate(state, "moments", f"moment table refused: {exc}; constant estimator emitted")
    if state.degenerate:
        return
    dumps.write(state.out / "moments.json", dumps.MOMENTS, vars(state.table), state.config_hash)
    if not state.table.valid:
        mark_degenerate(
            state, "moments", "pair diagonal not positive; all moments zeroed; constant estimator emitted"
        )


def stage_fit(state: PipelineState) -> None:
    """Mollify the moments and fit a nonnegative law on the box grid nodes."""
    if state.degenerate:
        return
    state.require_spectrum()
    state.require_table()
    K = state.spectrum.K
    lambda1 = float(state.spectrum.lambdas[0])
    N = state.table.N
    delta_formula = formula_delta(K, lambda1, state.M, E0)
    delta = max(delta_formula, DELTA_FLOOR)
    kappa_formula_val = 2.0 * state.M / math.sqrt(lambda1)
    scale_est = moment_feature_scale(state.table)
    if scale_est > 0:
        kappa = min(kappa_formula_val, max(KAPPA_PAD * scale_est, scale_est + 2 * delta))
    else:
        kappa = kappa_formula_val
    mm = moment_poly.mollifier_moments(delta, N)
    resolution = moment_poly.node_resolution(K)
    try:
        mollified = moment_poly.mollify_moments(state.table, mm)
        state.fit = moment_poly.fit_nodes(mollified, kappa, K, resolution, delta=delta)
    except moment_poly.UnusableFitError as exc:
        mark_degenerate(state, "fit", f"moment fit unusable: {exc}")
    state.constants.update(
        {
            "delta_formula": delta_formula,
            "delta": delta,
            "kappa_formula": kappa_formula_val,
            "kappa": kappa,
            "feature_scale_estimate": scale_est,
        }
    )
    if state.fit is not None:
        dumps.write(state.out / "fit.json", dumps.FIT, vars(state.fit), state.config_hash)


def stage_estimate(state: PipelineState) -> None:
    """Draw one fit node per piece and build the step-kernel estimate on the fit's nodes."""
    cfg = state.cfg
    if state.degenerate:
        state.require_graphs([])
        mean_deg = 2.0 * sum(state.edge_counts.values()) / cfg.n
        state.estimate = est_mod.GraphonEstimate(
            np.array([mean_deg]),
            np.ones((1, 1)),
            np.zeros(cfg.n, dtype=np.int64),
            0.0,
            {"degenerate": True, "config_hash": state.config_hash},
        )
    else:
        state.require_spectrum()
        state.require_fit()
        state.estimate = est_mod.GraphonEstimate(
            state.spectrum.lambdas,
            state.fit.nodes,
            est_mod.sample_nodes(state.fit, cfg.n, cfg.seed),
            state.fit.kappa,
            {"seed": cfg.seed, "config_hash": state.config_hash},
        )
    est_mod.save_estimate(state.estimate, state.out / "estimate.json")


def alignment_metrics(est: est_mod.GraphonEstimate, truth, g: int, rank: int) -> dict:
    """delta2_upper and the relabelling that attains it, or the reason it could not be computed."""
    try:
        rep = evaluation.delta2_upper(est, truth, g=g, rank=rank)
    except ValueError as exc:
        return {"delta2_upper": None, "alignment_warning": str(exc)}
    return {
        "delta2_upper": rep.delta2_upper,
        "sign_pattern": rep.sign_pattern.tolist(),
        "priority_order": list(rep.priority_order),
        "alignment_method": rep.method,
    }


def stage_evaluate(state: PipelineState) -> None:
    """Alignment distance to the rank-r0 truth plus ground-truth diagnostics."""
    cfg = state.cfg
    state.require_graphs(["latents"])
    state.require_estimate()
    try:
        state.require_spectrum()
    except StageInputError:
        state.spectrum = None
    truth = state.truth
    target_rank = min(max(state.report.r0, 1), truth.rank)
    metrics = alignment_metrics(state.estimate, truth, cfg.metrics_grid, target_rank)
    metrics["l2_grid"] = evaluation.l2_distance_grid(state.estimate, truth, cfg.metrics_grid)
    kg = state.estimate.kernel_grid(cfg.metrics_grid)
    metrics["fraction_negative_Qhat"] = float(np.mean(kg < 0))
    if state.spectrum is not None and state.latents is not None and state.spectrum.K > 0:
        diag = evaluation.diagnostics_C(
            state.spectrum.vertex_aggregates, state.latents, truth
        )
        metrics["C_matrix"] = diag.C.tolist()
        metrics["C_contraction"] = diag.contraction.tolist()
        metrics["C_diagonal_term"] = diag.diagonal_term.tolist()
    state.metrics = metrics
    dumps.write_json(state.out / "metrics.json", {"config_hash": state.config_hash, **metrics})


STAGE_ORDER = dumps.STAGES
STAGE_FUNCS = dict(
    zip(STAGE_ORDER, (stage_generate, stage_spectrum, stage_moments, stage_fit, stage_estimate, stage_evaluate))
)


@dataclass
class RunResult:
    config: PipelineConfig
    manifest: dict
    out_dir: Path
    estimate: est_mod.GraphonEstimate | None
    metrics: dict
    degenerate: bool


def spectrum_telemetry(spectrum: nonbacktracking.NbSpectrum | None) -> dict | None:
    """What the spectral solver did: its work, cutoff, and final-block Ritz values and residuals."""
    if spectrum is None:
        return None
    return {
        "iterations": spectrum.iterations,
        "start_block": spectrum.start_block,
        "block": spectrum.block,
        "orthonormalizations": spectrum.orthonormalizations,
        "iterated_dim": spectrum.iterated_dim,
        "core_vertices": spectrum.core_vertices,
        "peel_rounds": spectrum.peel_rounds,
        "cutoff": spectrum.cutoff,
        "ritz_values": [[float(w.real), float(w.imag)] for w in spectrum.all_eigenvalues],
        "ritz_residuals": spectrum.ritz_residuals.tolist(),
    }


def fit_telemetry(fit: moment_poly.NodeFit | None) -> dict | None:
    """What the node fit did: its grid, support, least-squares misfit and NNLS solves."""
    if fit is None:
        return None
    return {
        "resolution": fit.resolution,
        "grid_nodes": fit.resolution**fit.K,
        "support": fit.weights.size,
        "residual": fit.residual,
        "iterations": fit.iterations,
    }


def estimate_telemetry(est: est_mod.GraphonEstimate | None) -> dict | None:
    """The estimate's size: its pieces and the atoms at least one piece drew."""
    if est is None:
        return None
    return {"m": est.m, "atoms": int(np.count_nonzero(est.counts))}


def write_manifest(state: PipelineState) -> dict:
    manifest = {
        "config": state.cfg.semantic_dict(),
        "config_hash": state.config_hash,
        "model": {
            "M": state.M,
            "q": state.truth.degree_constant,
            "constant_degree": state.report.constant_degree,
            "r0": state.report.r0,
            "eigenvalues": state.truth.eigenvalues.tolist(),
        },
        "constants": state.constants,
        "K": 0 if state.degenerate or state.spectrum is None else state.spectrum.K,
        "degenerate": state.degenerate,
        "spectrum": spectrum_telemetry(state.spectrum),
        "fit": fit_telemetry(state.fit),
        "estimate": estimate_telemetry(state.estimate),
        "warnings": state.warnings,
        "stages": {
            "generate": [*GRAPH_DUMPS.values(), "split.json"],
            "spectrum": ["spectrum.json", "aggregates.npy"],
            "moments": ["moments.json"],
            "fit": ["fit.json"],
            "estimate": ["estimate.json"],
            "evaluate": ["metrics.json"],
        },
        "timings_sec": state.timings,
    }
    dumps.write_json(state.out / MANIFEST_NAME, manifest)
    return manifest


def run_pipeline(
    cfg: PipelineConfig,
    model: graphon_model.StepGraphon | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute every stage in order, writing dumps and a manifest."""
    t_all = time.perf_counter()
    out = Path(out_dir if out_dir is not None else (cfg.out or "run-out"))
    state = PipelineState(cfg, out, model=model)
    if state.report.non_simple:
        state.warnings.append("model has near-multiple informative eigenvalues")
    for name in STAGE_ORDER:
        t0 = time.perf_counter()
        STAGE_FUNCS[name](state)
        state.timings[name] = time.perf_counter() - t0  # dump writes included
    state.timings["total"] = time.perf_counter() - t_all
    manifest = write_manifest(state)
    return RunResult(cfg, manifest, out, state.estimate, state.metrics, state.degenerate)


def run_stage(
    name: str,
    cfg: PipelineConfig,
    model: graphon_model.StepGraphon | None = None,
    out_dir: str | Path | None = None,
) -> PipelineState:
    """Run one stage against the dumps already present in the output directory."""
    if name not in STAGE_FUNCS:
        raise ValueError(f"unknown stage {name!r}")
    out = Path(out_dir if out_dir is not None else (cfg.out or "run-out"))
    state = PipelineState(cfg, out, model=model)
    if name != "generate":  # generate clears the record, whatever config wrote it
        state.read_degeneracy(name)
    STAGE_FUNCS[name](state)
    return state


def run_scaled(
    cfg: PipelineConfig,
    h: float,
    model: graphon_model.StepGraphon | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Scale the model by h, run the pipeline, rescale the estimate by 1/h,
    and evaluate against the unscaled truth."""
    if h <= 0:
        raise ValueError("h must be positive")
    check_config(cfg)  # before the model is read from the path it names
    if model is None:
        model = graphon_model.load_graphon(cfg.model)
    scaled_model = graphon_model.scale(model, h)
    out = Path(out_dir if out_dir is not None else (cfg.out or "run-out")) / f"h-{h:g}"
    res = run_pipeline(cfg, model=scaled_model, out_dir=out)

    truth = graphon_model.spectral_decompose(model)
    unscaled = est_mod.GraphonEstimate(
        res.estimate.lambdas / h,
        res.estimate.atoms,
        res.estimate.index,
        res.estimate.kappa,
        dict(res.estimate.provenance, h=h),
    )
    # the scaled-mode guarantee is against the full unscaled kernel, not its
    # informative-rank projection, so charge the estimate for all of it
    metrics = alignment_metrics(unscaled, truth, cfg.metrics_grid, truth.rank)
    metrics["l2_grid"] = evaluation.l2_distance_grid(unscaled, truth, cfg.metrics_grid)
    res.manifest["scaled"] = {"h": h, "metrics_vs_unscaled": metrics}
    est_mod.save_estimate(unscaled, res.out_dir / "estimate_unscaled.json")
    dumps.write_json(res.out_dir / MANIFEST_NAME, res.manifest)
    return RunResult(cfg, res.manifest, res.out_dir, unscaled, metrics, res.degenerate)


def run_scaled_ladder(
    cfg: PipelineConfig,
    model: graphon_model.StepGraphon | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """Error-vs-h table over the scales of H_LADDER."""
    out = Path(out_dir if out_dir is not None else (cfg.out or "run-out"))
    rows = []
    for h in H_LADDER:
        res = run_scaled(cfg, h, model=model, out_dir=out)
        rows.append(
            {
                "h": h,
                "K": res.manifest["K"],
                "delta2_upper": res.metrics.get("delta2_upper"),
                "degenerate": res.degenerate,
            }
        )
    table = {"ladder": rows}
    dumps.write_json(out / "scaled_ladder.json", table)
    return table

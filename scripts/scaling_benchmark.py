"""Wall-time scaling of the full pipeline across graph sizes.

The pipeline is designed to run in O(n log n): blockwise sampling, block
subspace iteration on the Ihara-Bass companion for the spectrum, one sparse
matvec per power-sum block beta for the moments, and O(m) sampling. This
script measures it.

Runs single-threaded: BLAS thread counts are pinned to 1 before numpy is
imported. Each case is a size n and a degree scale h; h = 1 runs the pipeline
on the model itself, and h != 1 runs it in scaled mode on h times the model.
The defaults are the scale cases n = 2.5e4, 1e5 and 2e5 at h = 1, and
n = 5e4 at h = 8. Next to the stage times, each case prints what the spectral
solver did, as recorded in the run's manifest: iterations, the spectrum
stage's milliseconds per iteration, start and final block width, block QRs,
iterated dimension, cutoff, and the final block's Ritz values with their
residuals. Each case also prints the bytes its run directory holds and
its peak RSS (`ru_maxrss`, MB = 2^20 bytes). Every case runs in a fresh
interpreter, spawned for it alone, because `ru_maxrss` only ever grows
within one process: the peak printed is that case's own, imports included.
The last lines give the wall-time ratio between n = 1e5 and 2.5e4 at h = 1
(acceptance criterion 9, bound 6) and the ratio between the smallest and
largest h = 1 sizes against the n log n ideal.

Usage: python scripts/scaling_benchmark.py [--cases 25000:1 100000:1 200000:1 50000:8] [--seed 0]
"""
import argparse
import multiprocessing
import os
import resource
import tempfile
import time
from pathlib import Path

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline, run_scaled


def parse_case(text: str) -> tuple[int, float]:
    n, _, h = text.partition(":")
    return int(n), float(h or 1)


def run_case(model_path: str, out: str, n: int, h: float, seed: int) -> tuple[float, str]:
    """One case's wall time and its printed report; run in a process of its own."""
    cfg = PipelineConfig(model=model_path, n=n, seed=seed)
    t0 = time.perf_counter()
    res = run_pipeline(cfg, out_dir=out) if h == 1 else run_scaled(cfg, h, out_dir=out)
    wall = time.perf_counter() - t0
    timings = res.manifest["timings_sec"]
    lines = [f"n={n:>8d} h={h:g}: {wall:6.2f}s  stages={ {k: round(v, 2) for k, v in timings.items()} }"]
    dump_bytes = sum(p.stat().st_size for p in res.out_dir.iterdir())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    lines.append(f"{'':12}dumps {dump_bytes} B ({dump_bytes / 2**20:.2f} MB), peak RSS {peak_mb:.1f} MB")
    spec = res.manifest["spectrum"]
    if spec is not None:
        per_it = 1e3 * timings["spectrum"] / max(spec["iterations"], 1)
        ritz = ", ".join(f"{complex(re, im):.3g}" for re, im in spec["ritz_values"])
        res_ = ", ".join(f"{r:.1e}" for r in spec.get("ritz_residuals", []))
        lines.append(f"{'':12}spectrum: {spec['iterations']} iterations, {per_it:.1f} ms/iteration, "
                     f"block {spec['start_block']} -> {spec['block']}, "
                     f"{spec['orthonormalizations']} QRs, "
                     f"dim {spec['iterated_dim']} ({spec['core_vertices']} core vertices, "
                     f"{spec['peel_rounds']} peel rounds), cutoff {spec['cutoff']:.3f}")
        lines.append(f"{'':12}ritz [{ritz}]  residuals [{res_}]")
    return wall, "\n".join(lines)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=parse_case, nargs="+", metavar="N[:H]",
                    default=[(25_000, 1.0), (100_000, 1.0), (200_000, 1.0), (50_000, 8.0)])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as td:
        model_path = str(Path(td) / "model.json")
        save_graphon(model, model_path)
        walls = {}
        for n, h in args.cases:
            with spawn.Pool(1) as pool:
                wall, report = pool.apply(run_case, (model_path, str(Path(td) / f"bench-{n}-h{h:g}"), n, h, args.seed))
            walls[n, h] = wall
            print(report, flush=True)
        if (25_000, 1.0) in walls and (100_000, 1.0) in walls:
            print(f"criterion 9: ratio {walls[100_000, 1.0] / walls[25_000, 1.0]:.2f} "
                  f"(n = 1e5 vs 2.5e4, bound 6)")
        sizes = sorted(n for n, h in walls if h == 1)
        if len(sizes) >= 2:
            n0, n1 = sizes[0], sizes[-1]
            ideal = (n1 * np.log(n1)) / (n0 * np.log(n0))
            print(f"ratio {walls[n1, 1.0] / walls[n0, 1.0]:.2f} (n = {n1} vs {n0}) "
                  f"vs n log n ideal {ideal:.2f}")


if __name__ == "__main__":
    main()

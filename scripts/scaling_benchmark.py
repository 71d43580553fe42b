"""Wall-time scaling of the full pipeline across graph sizes.

The pipeline is designed to run in O(n log n): blockwise sampling, matrix-free
power iteration for the spectrum, one sparse matvec per moment-table entry,
and O(m) sampling. This script measures it.

Runs single-threaded: BLAS thread counts are pinned to 1 before numpy is
imported. Next to the stage times, each size prints what the spectral solver
did (iterations, block width, iterated dimension, cutoff, final Ritz values),
as recorded in the run's manifest.

Usage: python scripts/scaling_benchmark.py [--sizes 25000 50000 100000] [--seed 0]
"""
import argparse
import os
import tempfile
import time
from pathlib import Path

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[25_000, 50_000, 100_000])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))
    with tempfile.TemporaryDirectory() as td:
        save_graphon(model, Path(td) / "model.json")
        rows = []
        for n in args.sizes:
            cfg = PipelineConfig(
                model=str(Path(td) / "model.json"), n=n, seed=args.seed,
                N_override=4, determinism=True, threads=1,
            )
            t0 = time.perf_counter()
            res = run_pipeline(cfg, out_dir=Path(td) / f"bench-{n}")
            wall = time.perf_counter() - t0
            rows.append((n, wall, res.manifest["timings_sec"]))
            print(f"n={n:>8d}: {wall:6.2f}s  stages="
                  f"{ {k: round(v, 2) for k, v in rows[-1][2].items()} }")
            spec = res.manifest["spectrum"]
            if spec is not None:
                ritz = ", ".join(f"{complex(re, im):.3g}" for re, im in spec["ritz_values"])
                print(f"{'':12}spectrum: {spec['iterations']} iterations, block {spec['block']}, "
                      f"dim {spec['iterated_dim']}, cutoff {spec['cutoff']:.3f}, ritz [{ritz}]")
        if len(rows) >= 2:
            n0, t0s, _ = rows[0]
            n1, t1s, _ = rows[-1]
            ideal = (n1 * np.log(n1)) / (n0 * np.log(n0))
            print(f"ratio {t1s / t0s:.2f} vs n log n ideal {ideal:.2f}")


if __name__ == "__main__":
    main()

"""End-to-end demo on a two-block model.

Samples a sparse graph at edge probability Q(x,y)/n from an assortative
2-block kernel, runs the full estimation pipeline, and prints the spectrum,
the leading normalized moments, and the alignment distance to the truth.

Usage: python scripts/run_sbm_demo.py [--n 50000] [--seed 0] [--out demo-out]
"""
import argparse
import json
from pathlib import Path

import numpy as np

from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="demo-out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))
    save_graphon(model, out / "model.json")

    cfg = PipelineConfig(model=str(out / "model.json"), n=args.n, seed=args.seed, out=str(out))
    res = run_pipeline(cfg)

    print(f"graph: n={args.n}, degenerate={res.degenerate}")
    print(f"K = {res.manifest['K']}, constants: {json.dumps(res.manifest['constants'], indent=1)}")
    with open(out / "moments.json") as fh:
        entries = {tuple(e["alpha"]): e["value"] for e in json.load(fh)["entries"]}
    print("normalized moments: P(0,1)=%.3f P(0,2)=%.3f P(2,0)=%.3f"
          % (entries.get((0, 1), np.nan), entries.get((0, 2), np.nan), entries.get((2, 0), np.nan)))
    print(f"delta2 upper bound vs truth: {res.metrics['delta2_upper']:.3f}"
          f"  (truth L2 norm = 5.0)")
    print(f"negative kernel mass fraction: {res.metrics['fraction_negative_Qhat']:.3f}")
    print(f"stage timings: { {k: round(v, 2) for k, v in res.manifest['timings_sec'].items()} }")


if __name__ == "__main__":
    main()

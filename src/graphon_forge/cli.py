"""Batch command line: full pipeline, scaled mode, and isolated stages.

    graphon-forge run      --config cfg.json [--seed S] [--n N] [--out DIR]
    graphon-forge scaled   --config cfg.json [--h H]           (ladder without --h)
    graphon-forge generate|spectrum|moments|fit|estimate|evaluate --config cfg.json

Stage subcommands consume the previous stage's dumps from the output
directory and refuse inputs whose embedded config hash does not match. The
default output directory comes from --out, the config, or the
GRAPHON_FORGE_OUT environment variable, in that order. Reruns are
byte-identical whatever the BLAS thread count; pinning it before launch
(OPENBLAS_NUM_THREADS=1) is only a speed hint.
"""
from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphon-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ["run", "scaled", "generate", "spectrum", "moments", "fit", "estimate", "evaluate"]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", default=None)
        if name == "scaled":
            p.add_argument("--h", type=float, default=None, help="single scale; omit for the ladder")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from . import pipeline

    try:
        cfg = pipeline.PipelineConfig.from_json(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.n is not None:
            cfg.n = args.n
        out = args.out or cfg.out or os.environ.get("GRAPHON_FORGE_OUT") or "run-out"
        cfg.out = out
        if args.command == "run":
            res = pipeline.run_pipeline(cfg, out_dir=out)
            print(f"wrote {res.out_dir / pipeline.MANIFEST_NAME}")
            if res.degenerate:
                print("warning: degenerate run (constant estimator); see manifest warnings")
            return 0
        if args.command == "scaled":
            if args.h is not None:
                res = pipeline.run_scaled(cfg, args.h, out_dir=out)
                print(f"h={args.h:g}: delta2_upper={res.metrics.get('delta2_upper')}")
            else:
                table = pipeline.run_scaled_ladder(cfg, out_dir=out)
                for row in table["ladder"]:
                    print(
                        f"h={row['h']:g}: K={row['K']} delta2_upper={row['delta2_upper']}"
                        + (" (degenerate)" if row["degenerate"] else "")
                    )
            return 0
        pipeline.run_stage(args.command, cfg, out_dir=out)
        print(f"stage {args.command} complete in {out}")
        return 0
    except pipeline.StageInputError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # stage-tagged nonzero exit
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Digests of every dump the benchmark panel writes, from the checkout this script sits in.

    python scripts/panel_digests.py [--graph-seeds 2,3] [--compare EARLIER.json]

Runs each perfbench workload (perfbench/workloads.py) once per graph seed of
its panel, 8 estimates in all, with BLAS and OpenMP pinned to one thread and
the program imported from this checkout's src/. Each estimate is made and
checked as perfbench makes and checks it. `--graph-seeds` replaces every
workload's panel, as perfbench's option of that name does: `2,3` runs the
second panel that perfbench/README.md lists. Prints one JSON line:

    {"files": {"<workload>/<seed>/<dump>": sha256, ...},
     "errors": {"<workload>/<seed>": [check errors], ...}}

A manifest is hashed without its `timings_sec`, as perfbench's
`checks.dump_digest` reads it. The inputs and dumps go under one fixed root
in the system's temporary directory, whatever the checkout: the config hash
covers the model file's path, so two checkouts writing under two roots would
differ in every JSON dump. The root is emptied at the start of a run and its
dumps are left for inspection. With --compare, the digests are also checked
against an earlier output line, and the files that differ, or are in only
one of the two, are listed on stderr; the exit code is then 1 if any are.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(tempfile.gettempdir()) / "graphon-forge-panel-digests"


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("timings_sec", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_panel(graph_seeds: tuple[int, ...] | None = None) -> dict:
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    checkout = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads
    from graphon_forge import pipeline

    shutil.rmtree(ROOT, ignore_errors=True)
    files, errors = {}, {}
    for w in workloads.WORKLOADS.values():
        cfg_path = w.write_inputs(ROOT / w.name)
        for seed in graph_seeds or w.graph_seeds:
            cfg = pipeline.PipelineConfig.from_json(cfg_path)
            cfg.seed = seed
            cfg.out = str(ROOT / w.name / f"seed-{seed}")
            key = f"{w.name}/{seed}"
            try:
                w.run(cfg)
                errors[key] = w.check(cfg)[0]
            except Exception as exc:  # reported with the digests of whatever was written
                errors[key] = [f"raised {type(exc).__name__}: {exc}"]
            out = Path(cfg.out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                files[f"{key}/{path.relative_to(out)}"] = digest(path)
    return {"files": files, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--graph-seeds", default=None, help="comma-separated panel in place of each workload's own")
    ap.add_argument("--compare", type=Path, help="a file holding an earlier output line")
    args = ap.parse_args(argv)
    result = run_panel(tuple(int(s) for s in args.graph_seeds.split(",")) if args.graph_seeds else None)
    print(json.dumps(result, sort_keys=True))
    if args.compare is None:
        return 0
    earlier = json.loads(args.compare.read_text())["files"]
    now = result["files"]
    differ = sorted(k for k in earlier.keys() | now.keys() if earlier.get(k) != now.get(k))
    same = sum(earlier.get(k) == v for k, v in now.items())
    print(f"{same} of {len(now)} dump files identical to {args.compare}", file=sys.stderr)
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

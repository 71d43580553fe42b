"""graphon-forge benchmark: one workload per run, output checks, one JSON line.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
                             [--graph-seeds 2,3]

Run from the root of a source checkout: the program is imported from
./src, inputs and dumps go to ./.perfbench-out. BLAS and OpenMP are pinned
to one thread before numpy loads. A run repeats whole rounds and stops at
the round boundary nearest to --seconds (after one round at least), so it
measures about --seconds whatever the round length. A round is one estimate
per graph seed of the workload's panel, in an order rotated by --seed, then
the first of them again, which must write byte-identical dumps. Every estimate's dumps
are checked (checks.py); an estimate that raises, emits the constant
estimator or fails a check counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 records spans on every
estimate but the round's repeat, adds one more estimate of the first seed
that only takes tracemalloc peaks (spans.py says why), and prints the
per-layer metrics (medians per traced estimate), the import breakdown and
the tracing overhead: the traced first estimate minus its untraced repeat.
The last line of stdout is the JSON result; the exit code is nonzero only
when the run could not be made.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

OUT = Path(".perfbench-out")
SETUP_REPEATS = 3
MB = 1024.0 * 1024.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import graphon_forge; "
    "from graphon_forge import graphon_model, pipeline; "
    "graphon_model.load_graphon(pipeline.PipelineConfig.from_json(sys.argv[1]).model)"
)
MODULES = ("graphon_forge", "rng", "graphon_model", "graph_sampler", "star_counts", "moment_poly",
           "estimator", "evaluation", "nonbacktracking", "pipeline")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "dump_mb": "MB",
    "delta2_upper": "L2",
    "lambda_err": "ratio",
}
PER_LAYER = {
    "graph_sampler.sample_s": "s",
    "graph_sampler.write_s": "s",
    "graph_sampler.bytes": "B",
    "graph_sampler.read_s": "s",
    "graph_sampler.read_calls": "count",
    "nonbacktracking.build_s": "s",
    "nonbacktracking.dim": "count",
    "nonbacktracking.solve_s": "s",
    "nonbacktracking.applies": "count",
    "nonbacktracking.apply_s": "s",
    "nonbacktracking.rest_s": "s",
    "nonbacktracking.peak_mb": "MB",
    "star_counts.table_s": "s",
    "star_counts.entries": "count",
    "star_counts.terms": "count",
    "star_counts.profiles_s": "s",
    "star_counts.peak_mb": "MB",
    "moment_poly.mollifier_s": "s",
    "moment_poly.fit_s": "s",
    "moment_poly.nodes": "count",
    "moment_poly.support": "count",
    "moment_poly.peak_mb": "MB",
    "estimator.sample_s": "s",
    "estimator.write_s": "s",
    "estimator.bytes": "B",
    "estimator.read_s": "s",
    "evaluation.align_s": "s",
    "evaluation.candidates": "count",
    "evaluation.l2_s": "s",
    "evaluation.diagnostics_s": "s",
    **{f"pipeline.{s}_s": "s" for s in ("generate", "spectrum", "moments", "fit", "estimate", "evaluate", "reload")},
    **{f"{layer}.self_s": "s" for layer in ("graph_sampler", "nonbacktracking", "star_counts", "moment_poly",
                                            "estimator", "evaluation", "pipeline")},
    **{f"import.{m}_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--graph-seeds", default=None, help="comma-separated panel in place of the workload's own")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_subprocess(cmd) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stderr


def import_breakdown() -> dict[str, float]:
    """Cumulative import time of the package and each submodule, from -X importtime."""
    runs = []
    for _ in range(SETUP_REPEATS):
        _, err = timed_subprocess([sys.executable, "-X", "importtime", "-c",
                                   "import sys; sys.path.insert(0, 'src'); import graphon_forge"])
        seen = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and (m.group(2) == "graphon_forge" or m.group(2).startswith("graphon_forge.")):
                seen[m.group(2).split(".")[-1]] = int(m.group(1)) / 1e6
        runs.append(seen)
    return {f"import.{m}_s": statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}


def med(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/graphon_forge/__init__.py").is_file():
        print("error: run from the root of a graphon-forge checkout (src/graphon_forge not found)", file=sys.stderr)
        return 2
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path("src").resolve()))

    import checks
    import spans
    import workloads
    from graphon_forge import pipeline, star_counts

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    panel = tuple(int(s) for s in args.graph_seeds.split(",")) if args.graph_seeds else w.graph_seeds
    start = args.seed % len(panel)
    order = panel[start:] + panel[:start]
    roles = ["traced" if args.trace else "timed"] * len(order) + ["repeat"] + (["peaks"] if args.trace else [])
    round_seeds = list(order) + [order[0]] * (len(roles) - len(order))

    root = OUT / w.name
    shutil.rmtree(root, ignore_errors=True)
    cfg_path = w.write_inputs(root)
    if args.trace:
        layer_imports = import_breakdown()
    else:
        setup_s = statistics.median(
            timed_subprocess([sys.executable, "-c", SETUP_CODE, str(cfg_path)])[0] for _ in range(SETUP_REPEATS)
        )

    clear_profiles = getattr(star_counts.injective_profiles, "cache_clear", lambda: None)
    tracer = spans.Tracer()
    overhead = []
    run_s, dump_mb, d2, lam_err, digests = {}, {}, {}, {}, {}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    with spans.traced(tracer) if args.trace else contextlib.nullcontext():
        while True:
            t_round = time.perf_counter()
            times = []
            for seed, role in zip(round_seeds, roles):
                cfg = pipeline.PipelineConfig.from_json(cfg_path)
                cfg.seed = seed
                cfg.out = str(root / f"estimate-{attempted}")
                attempted += 1
                if role != "peaks":
                    clear_profiles()  # a CLI call starts with an empty cache; so does every estimate
                tracer.estimate = attempted if role in ("traced", "peaks") else None
                tracer.peaks_only = role == "peaks"
                try:
                    t0 = time.perf_counter()
                    w.run(cfg)
                    elapsed = time.perf_counter() - t0
                    tracer.estimate = None
                    errors, d2_val, lam_val = w.check(cfg)
                    digest = checks.dump_digest(cfg.out)
                    if digests.setdefault(seed, digest) != digest:
                        errors.append(f"seed {seed} wrote different dumps on a repeat")
                except Exception as exc:  # an estimate that raises counts as failed; the run goes on
                    tracer.estimate = None
                    errors = [f"raised {type(exc).__name__}: {exc}"]
                if errors:
                    failed += 1
                    times.append(None)
                    print(f"estimate {attempted} (seed {seed}) failed: " + "; ".join(errors[:5]), file=sys.stderr)
                else:
                    times.append(elapsed)
                    run_s.setdefault(seed, []).append(elapsed)
                    dump_mb[seed] = checks.dump_bytes(cfg.out) / MB
                    d2[seed], lam_err[seed] = d2_val, lam_val
                shutil.rmtree(cfg.out, ignore_errors=True)
            repeat = roles.index("repeat")
            if args.trace and None not in (times[0], times[repeat]):
                overhead.append(times[0] - times[repeat])
            # stop at the round boundary nearest to the deadline
            now = time.perf_counter()
            if now + (now - t_round) / 2 > deadline:
                break

    if args.trace:
        (OUT / f"spans-{w.name}-{args.seed}.json").write_text(json.dumps(tracer.dump()))
        rows = list(tracer.per_estimate().values())
        for row in rows:
            row["nonbacktracking.rest_s"] = row.get("nonbacktracking.solve_s", 0.0) - row.get("nonbacktracking.apply_s", 0.0)
        values = {k: med([row.get(k, 0.0) for row in rows]) for k in PER_LAYER}
        values.update({k: med(v) for k, v in tracer.peaks.items()})
        values.update(layer_imports)
        values["trace.overhead_s"] = med(overhead)
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            # every panel seed weighs the same, however often it ran
            "run_s": statistics.fmean(med(t) for t in run_s.values()) if run_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dump_mb": med(list(dump_mb.values())),
            "delta2_upper": med(list(d2.values())),
            "lambda_err": med(list(lam_err.values())),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

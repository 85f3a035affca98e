#!/usr/bin/env python3
"""raywarc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crawl-polite --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads and metric names are declared
in BENCHMARK.json.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same workload with spans recorded around every
call into the repo (written under .bench_build/perfbench/traces when
the run ends) plus the traced extras of each workload, and prints the
per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records nproc, the Ray session and any failed op.

Exits 2 without a result when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("warc_ray/__init__.py", "__ray_entry__.py", "tools/check_oracle.py")):
        print(f"repository sources not found under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Ray workers import warc_ray and these modules by name: put the
    # repository root and this directory on their path too
    sys.path[:0] = [ROOT, HERE]
    # a call abandoned at its deadline must never start a Ray instance
    # of its own
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import crawls
    import queries
    from harness import ProcessWatch, RaySession, Run, nproc
    from tracing import NullTracer, Tracer

    runners = {"crawl-polite": crawls.run, "crawl-archive": crawls.run,
               "query-exchange": queries.run}
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}"
    run_dir = os.path.join(work, "runs", run_id)
    os.makedirs(run_dir)
    cpus = nproc()
    r = Run(root=ROOT, work_dir=work, run_dir=run_dir, seed=args.seed,
            seconds=args.seconds, tracer=Tracer(run_id) if args.trace else NullTracer(),
            session=RaySession(cpus, os.path.join(ROOT, ".bench_build", "ray")))
    procs = ProcessWatch()
    procs.start()
    try:
        runners[args.workload](r, args.workload)
    except Exception as exc:  # the run still prints every metric
        r.fail(f"{args.workload}: {type(exc).__name__}: {exc}")
    if not r.broken:
        r.session.stop()
    r.e2e["peak_rss_mb"] = procs.stop()

    if args.trace:
        r.layer.update(nproc=cpus, ops_failed_share=r.failed / max(1, r.attempted),
                       **{"traced." + k: v for k, v in r.e2e.items()})
        r.layer["trace.spans"] = len(r.tracer.spans)
        r.layer["trace.overhead_s"] = r.tracer.overhead_s()
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        r.tracer.write(os.path.join(work, "traces", run_id + ".jsonl"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    values = r.layer if args.trace else r.e2e
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        r.fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "nproc": cpus,
                      "deadline_missed": r.broken, "errors": r.errors}))
    print(json.dumps({"correct": r.failed == 0, "attempted": max(1, r.attempted),
                      "failed": r.failed, "metrics": metrics}), flush=True)

    # after a missed deadline a thread still blocks inside Ray, and Ray
    # ends the process if that thread touches it after shutdown: stop
    # every process this run started by signal and leave at once
    procs.reap()
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(r.session.temp_dir, ignore_errors=True)   # Ray session logs
    if r.broken:
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

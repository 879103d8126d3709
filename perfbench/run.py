#!/usr/bin/env python3
"""hcplate benchmark.

    python3 perfbench/run.py --workload {homogenize,spectra,dynamics}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. Each workload is a closed loop: one client runs its operations one
at a time through `hcplate.cli.main` (or the library where the CLI has no
command). A pass runs every operation once in a fresh worker process
(worker.py); passes repeat while another whole pass still fits in S
seconds. Every output is checked (checks.py). Generated configs, outputs,
traces and recorded counts go to ./.perfbench_out.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

  --trace 0  wall_s: median over passes of the summed operation times;
             setup_s: median over fresh interpreters of the time to import
             hcplate (numpy and scipy included) and the workload's layer
             modules; peak_rss_mb: median over passes of the worker's
             peak RSS.
  --trace 1  one untraced pass, then traced passes (layers.py): per-layer
             metrics as medians over traced passes, failed_ops_frac,
             process context, and trace.overhead_frac, the traced over the
             untraced pass time, minus 1.

An operation fails when it raises, exits non-zero or fails its check;
`correct` is false when an operation that exited 0 produced a wrong output.
Counts that must repeat exactly (DOFs, nnz, fill, steps, beta evaluations,
calls) are compared between the traced passes of a run and with the last
traced run of the same workload and seed; every mismatch is printed and
counted in trace.unstable_counts.

`--seed 0 --write-reference` stores the first pass's outputs as the
workload's entry in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layers      # noqa: E402  (no numpy: safe before the thread limit)
import workloads   # noqa: E402

# One BLAS thread: the loop has a single client, and one thread gives the
# steadiest timings on a small shared machine. Never more than nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170      # a run must end within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_ops_frac": "frac", "splu.fill_ratio": "ratio",
         "evolution.step_ms": "ms", "process.cpu_s": "s",
         "process.blas_threads": "threads", "trace.overhead_frac": "frac",
         "trace.unstable_counts": "count"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name in layers.COUNT_METRICS else "s"


def limit_blas_threads() -> int:
    """Set the BLAS thread variables for every process started from here;
    they take effect because no process has imported numpy yet."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def measure_setup(modules: list[str]) -> float:
    """Median wall time to import hcplate (numpy and scipy included) and
    the workload's layer modules, each in a fresh interpreter; one unmeasured
    import first so that bytecode compilation is not counted."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import hcplate; "
            + "; ".join(f"import hcplate.{m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    samples = []
    for i in range(SETUP_REPEATS + 1):
        res = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, timeout=60,
                             check=True, cwd=ROOT)
        if i:
            samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(args, traced: bool, deadline: float) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload,
         str(args.seed), "1" if traced else "0"],
        capture_output=True, text=True, cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0))
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"perfbench: worker exited {res.returncode}")
    report = json.loads(res.stdout.strip().splitlines()[-1])
    report["wall_s"] = sum(r["s"] for r in report["ops"])
    return report


def check_counts(args, passes) -> int:
    """Number of exact counts that differ between the traced passes of this
    run or from the last traced run with the same workload and seed."""
    counts = {k: passes[0]["layers"][k] for k in layers.COUNT_METRICS}
    unstable = 0
    for k in layers.COUNT_METRICS:
        seen = sorted({p["layers"][k] for p in passes})
        if len(seen) > 1:
            unstable += 1
            print(f"# UNSTABLE count {k}: {seen} between passes")
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for k, v in counts.items():
            if k in before and before[k] != v:
                unstable += 1
                print(f"# UNSTABLE count {k}: {before[k]} last run, {v} now")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1))
    print("# counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return unstable


def write_reference(workload: str, report: dict):
    """Store a seed-0 pass as the reference; failed operations are stored
    with their exit code and no values."""
    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[workload] = {
        r["op"]: ({"values": report["captured"][r["op"]]}
                  if r["op"] in report["captured"] else {"exit": r["rc"]})
        for r in report["ops"]}
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"# reference for {workload} written to {path.relative_to(ROOT)}")


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s = measure_setup(workloads.MODULES[args.workload])
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        want_traced = bool(args.trace and untraced)
        (traced if want_traced else untraced).append(
            run_pass(args, want_traced, deadline))
        done = traced if args.trace else untraced
        if not done:
            continue
        left = args.seconds - (time.perf_counter() - start)
        if statistics.median(p["wall_s"] for p in done) > left:
            break

    passes = untraced + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"]
                 if r["rc"] != 0 or r["problems"])
    wrong = sum(1 for p in passes for r in p["ops"]
                if r["rc"] == 0 and r["problems"])
    last = passes[-1]
    print(f"# hcplate benchmark: workload={args.workload} seed={args.seed} "
          f"load=2**{workloads.load_exponent(args.seed)} cpu={cpu_model()!r} "
          f"nproc={os.cpu_count()} blas_threads={last['blas_threads']} "
          f"python={sys.version.split()[0]}")
    print("# pass times (s): untraced "
          + " ".join(f"{p['wall_s']:.3f}" for p in untraced)
          + (" traced " + " ".join(f"{p['wall_s']:.3f}" for p in traced)
             if traced else ""))
    for r in last["ops"]:
        ok = r["rc"] == 0 and not r["problems"]
        print(f"  {r['op']:32s} {r['s']:8.3f} s  "
              f"{'ok' if ok else 'FAILED (exit ' + str(r['rc']) + ')'}")
        for problem in r["problems"]:
            print(f"      check: {problem}")
    frac = failed / attempted
    print(f"# failed_ops_frac = {failed}/{attempted} = {frac:.4f}")
    if args.write_reference:
        if args.seed != 0:
            raise SystemExit("references are captured at seed 0 only")
        write_reference(args.workload, untraced[0])

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        }
    else:
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        unstable = check_counts(args, traced)
        print("# self time by layer, share of traced operation time "
              "(last pass; splu split by calling layer):")
        for layer, share in last["shares"].items():
            print(f"  {layer:24s} {100 * share:6.2f} %")
        print(f"# spans outside their operation span: "
              f"{sum(p['outside_op'] for p in traced)}; spans in "
              + " ".join(p["spans_file"] for p in traced))
        metrics.update({
            "failed_ops_frac": frac,
            "process.cpu_s": statistics.median(p["cpu_s"] for p in traced),
            "process.blas_threads": last["blas_threads"],
            "trace.overhead_frac": (
                statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in untraced) - 1.0),
            "trace.unstable_counts": unstable,
        })
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the first seed-0 pass as the reference")
    args = p.parse_args(argv)
    if not (SRC / "hcplate" / "__init__.py").is_file():
        print(f"perfbench: no hcplate sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

Imports hcplate from ./src, writes the generated configs, runs every
operation of the workload once, checks each output, and prints one JSON
object: per-operation exit codes, times and check problems, CPU time, peak
RSS and BLAS threads of this process, the checked quantities, and with
TRACE=1 the per-layer metrics of the pass (its spans go to
.perfbench_out/trace/). run.py starts one worker per pass so that every
pass starts from the same process state: a fresh heap, and the same
ARPACK start vectors.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def blas_threads_in_use() -> int:
    """Thread count read back from each loaded OpenBLAS (max over them),
    or the process's thread count when none answers."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and path.startswith("/"):
                libs.add(path)
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else len(os.listdir("/proc/self/task"))


def call(op, cfg_path: Path, out: Path) -> int:
    """Run one operation; returns its exit code."""
    import hcplate.cli
    if op.kind != "memory":
        return hcplate.cli.main([op.kind, "--config", str(cfg_path),
                                 "--out", str(out), "--quiet"])
    # evolve_memory_bending has no CLI command: build the model and call it
    # through the library, as cli does for `evolve`
    from hcplate import config as hc
    from hcplate.evolution import evolve_memory_bending
    from hcplate.fem.system import EigWorkspace
    from hcplate.limits import build_limit_model
    from workloads import MEMORY_MODES
    cfg = hc.load_config(cfg_path)
    model = build_limit_model(
        hc.parse_regime(cfg), hc.parse_material(cfg), hc.parse_shape(cfg),
        hc.parse_macro_mesh(cfg), cell_n=cfg["cell"]["n"],
        n_z=cfg["cell"]["n_z"], n_modes=cfg["solver"]["n_modes"],
        ws=EigWorkspace())
    ev = cfg["evolve"]
    times, modal = evolve_memory_bending(model, hc.parse_load(cfg), ev["T"],
                                         ev["dt"], n_macro_modes=MEMORY_MODES)
    out.mkdir(parents=True, exist_ok=True)
    (out / "memory.json").write_text(json.dumps(
        {"steps": len(times) - 1, "modal": modal.tolist()}))
    return 0


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(SRC))
    import checks
    import layers
    import workloads
    for m in workloads.MODULES[workload]:
        importlib.import_module(f"hcplate.{m}")

    ops = workloads.build(workload, seed)
    base = OUT / workload / f"seed{seed}"
    cfgs = {}
    for op in ops:
        cfgs[op.name] = base / "configs" / f"{op.name}.json"
        cfgs[op.name].parent.mkdir(parents=True, exist_ok=True)
        cfgs[op.name].write_text(json.dumps(op.config, indent=1))
    refs = json.loads((HERE / "reference.json").read_text()).get(workload, {}) \
        if (HERE / "reference.json").exists() else {}
    load_exp = workloads.load_exponent(seed)

    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    results, captured = [], {}
    cpu0 = time.process_time()
    for k, op in enumerate(ops):
        out = base / "out" / op.name
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.op = k
            span = tracer.begin(f"op:{op.name}", "cli")
        t0 = time.perf_counter()
        try:
            rc = call(op, cfgs[op.name], out)
        except Exception as exc:          # an operation that raises fails
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span, rc != 0)
        problems = []
        if rc == 0:
            try:
                q = checks.extract(op.kind, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc}"]
            else:
                captured[op.name] = q
                problems = checks.invariants(op.kind, q, op.config)
                ref = refs.get(op.name, {}).get("values")
                if ref is not None:
                    problems += checks.compare(q, ref, load_exp)
        results.append({"op": op.name, "rc": rc, "s": dt, "problems": problems})
    cpu = time.process_time() - cpu0

    report = {
        "ops": results, "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": blas_threads_in_use(), "captured": captured,
    }
    if tracer is not None:
        report["layers"] = layers.layer_metrics(tracer.spans, tracer.beta_evals)
        report["shares"] = layers.layer_shares(tracer.spans)
        report["outside_op"] = layers.coverage_violations(tracer.spans)
        path = OUT / "trace" / f"{workload}-seed{seed}-{os.getpid()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": list(layers.Span.__slots__),
            "ops": [op.name for op in ops],
            "spans": [s.to_list() for s in tracer.spans]}))
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""circlewarp benchmark: one workload, one fresh process, one JSON result.

    python3 bench/run.py --workload warp-m10 --seed 1 --seconds 1 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Workloads and metrics are declared in BENCHMARK.json.

--trace 0 repeats untraced passes of the workload (a closed loop, one
caller) until --seconds have elapsed, at least once, checks every pass and
reports the end-to-end metrics. Every pass takes longer than the 1 s that
BENCHMARK.json sets, so each run makes exactly one pass and a faster
program is not measured over more passes than its parent:
  setup_s      median over nine fresh processes of the time from process
               start to the first timed call (imports and input build)
  run_s        median wall seconds of one pass; the first pass is cold
  peak_rss_mb  ru_maxrss of this process
  ok_frac      share of checked operations that neither raised nor failed
               their output check (1 - failed/attempted)

--trace 1 makes one warm-up solve (its cold time is signs.solve_first_s),
then one traced pass: spans around each public layer call, plus the probes
of warp.py. It checks the pass and reports the per-layer metrics. The
traced wall time is trace.run_s; the tracing overhead is its median minus
the median run_s of untraced runs. At the default seed the checks compare
the traced outputs with pins recorded from untraced runs, which makes the
traced homeomorphism bitwise the one `run` returns. Layers a workload does
not exercise report 0.

Diagnostics (check lines, provenance) go to stdout before the result; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    return names, spec["end_to_end"], spec["per_layer"]


def _setup_seconds(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _guarded(checks, label, fn, *args):
    """Run one workload pass; an exception counts as one failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # the run must still report, so record and go on
        traceback.print_exc()
        checks.check(f"{label} completed", False, f"{type(exc).__name__}: {exc}")
        return None


def main(argv=None) -> int:
    # One BLAS thread, inherited by the set-up probes: on a two-core machine
    # shared with other jobs, two threads make times swing with their load.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from harness import DEFAULT_SEED, Checks, NullTracer, Tracer, provenance, warm_solver

    names, end_to_end, per_layer = _declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "circlewarp" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    mod = WORKLOADS[args.workload]
    name, seed = args.workload, args.seed
    prov = provenance()
    checks = Checks()

    if args.trace:
        tr = Tracer()
        inputs = mod.setup(name, seed, tr)
        warm_solver(tr)
        t0 = time.perf_counter()
        out = _guarded(checks, "traced pass", mod.traced, name, inputs, seed, tr)
        tr.values["trace.run_s"] = time.perf_counter() - t0
        if out is not None:
            mod.check(name, inputs, seed, out, checks)
        passes = [tr.values["trace.run_s"]]
        declared = {m["name"]: m["unit"] for m in per_layer}
        unknown = set(tr.values) - set(declared)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        values = {k: tr.values.get(k, 0.0) for k in declared}
        units = declared
    else:
        setup_s = _setup_seconds(name, seed)
        inputs = mod.setup(name, seed, NullTracer())
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            out = _guarded(checks, "pass", mod.untraced, name, inputs, seed, NullTracer())
            passes.append(time.perf_counter() - t0)
            if out is not None:
                mod.check(name, inputs, seed, out, checks)
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (checks.attempted - checks.failed) / max(checks.attempted, 1),
        }
        units = {m["name"]: m["unit"] for m in end_to_end}

    prov.update(
        workload=name,
        seed=seed,
        trace=args.trace,
        passes=passes,
        loadavg_end=os.getloadavg(),
    )
    print("provenance " + json.dumps(prov))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

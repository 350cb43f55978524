"""Run the benchmark in two sets of ten seeds and record how steady it is.

    python3 perfbench/baseline.py

This rebuilds perfbench/baseline.json.  In each of SETS sets, every
workload in BENCHMARK.json runs once per seed in SEEDS with
``--trace 0``; after the sets, each workload runs once at TRACE_SEED
with ``--trace 1``.  Per set and end-to-end metric it records the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the spread (q3 - q1) / median and the sample count; per metric
it records the drift, how much worse the second set's median is than
the first's, as a share of the first.  The traced run's per-layer
metrics are stored as they came.

The exit code is 1 when a spread or the drift of any metric exceeds
the metric's bound.  A spread below a third of the bound is the target
and is marked so in the printed table.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
SETS = 2
TRACE_SEED = 7
# Not part of this benchmark: benchmarks/bench_kernels.py compares the
# numba kernels with the numpy fallback, and numba is not importable
# where this baseline was taken; kernel numbers come from the traced run.
NOTES = (
    "benchmarks/bench_kernels.py is not part of this benchmark: its numba "
    "comparison cannot run without numba, and the kernels' numbers come from "
    "the traced run (kernels.u_xi_eval.*, kernels.u_xi_batch.*)."
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["exit"] = proc.returncode
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{result['wall_s']:.1f} s, correct={result['correct']}", flush=True)
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _environment() -> dict:
    probe = ("import json, sys, numpy, stlfunnel.kernels as k; "
             "print(json.dumps([k.USING_NUMBA, numpy.__version__, sys.version.split()[0]]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    using_numba, numpy_version, python_version = json.loads(out)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    return {
        "git_sha": sha, "USING_NUMBA": using_numba, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": python_version, "numpy": numpy_version,
    }


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    report = {"environment": _environment(), "notes": NOTES, "run_seconds": seconds,
              "seeds": list(SEEDS), "sets": SETS, "workloads": {}}
    runs = {w: [] for w in workloads}
    for _ in range(SETS):
        for w in workloads:
            runs[w].append([_run(w, s, seconds, 0) for s in SEEDS])
    within = True
    for w in workloads:
        traced = _run(w, TRACE_SEED, seconds, 1)
        rows = {}
        for m in bench["end_to_end"]:
            sets = [_stats([r["metrics"][m["name"]]["value"] for r in rs]) for rs in runs[w]]
            first, last = sets[0]["median"], sets[-1]["median"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (last - first) / first
            rows[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "drift": drift, "sets": sets}
            for i, st in enumerate(sets):
                ok = st["spread"] <= m["bound"]
                within &= ok
                mark = "target" if st["spread"] < m["bound"] / 3 else "ok" if ok else "WIDE"
                print(f"  {w:<12} set {i + 1} {m['name']:<24} median {st['median']:<12.6g} "
                      f"spread {st['spread']:.4f} bound {m['bound']} {mark}", flush=True)
            within &= drift <= m["bound"]
            print(f"  {w:<12} drift {m['name']:<24} {drift:+.4f} "
                  f"{'ok' if drift <= m['bound'] else 'WORSE'}", flush=True)
        plain = [r for rs in runs[w] for r in rs]
        report["workloads"][w] = {
            "end_to_end": rows,
            "correct": all(r["correct"] for r in plain + [traced]),
            "failed": sum(r["failed"] for r in plain + [traced]),
            "attempted": sum(r["attempted"] for r in plain + [traced]),
            "run_wall_s": {"median": statistics.median(r["wall_s"] for r in plain),
                           "max": max(r["wall_s"] for r in plain),
                           "traced": traced["wall_s"]},
            "per_layer_seed": TRACE_SEED,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())

"""Episode benchmark for stlfunnel: end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload rendezvous3 --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Each repetition runs in a fresh single-process child (episode.py) with
BLAS threads pinned to 1.  Repetitions of the workload at the given
seed repeat until ``--seconds`` have passed (at least one; the default
is BENCHMARK.json's ``run_seconds``), then extra
set-up-only children bring the set-up samples to SETUP_SAMPLES.  Every
metric is the median over the run's samples; the update latency is the
median over the events of all its repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs
of a plain and a traced repetition instead and prints the per-layer
metrics of the first traced one, plus the tracing overhead: the median
traced minus the median plain episode time.  The span log is kept under
.perfbench/trace/.

The output is a table of every metric by name and unit, the output
checks that failed, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from episode import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
# A run starts no repetition that could end past this many seconds, and
# a child still running then is killed.
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _child(workload: str, seed: int, mode: str, work: Path, timeout: float) -> dict | None:
    """Run one repetition in a fresh interpreter; None when it crashed or timed out."""
    rep_dir = Path(tempfile.mkdtemp(dir=work))
    out = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "episode.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed} {mode}: timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"{workload} seed {seed} {mode}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(out.read_text())
    spans = rep_dir / "spans.csv"
    if spans.exists():
        (work.parent / "trace").mkdir(exist_ok=True)
        shutil.move(spans, work.parent / "trace" / f"{workload}-seed{seed}-spans.csv")
    shutil.rmtree(rep_dir)
    return result


def _end_to_end(plain: list[dict], setups: list[float]) -> dict:
    def med(key):
        return statistics.median(r[key] for r in plain)

    return {
        "setup_s": statistics.median(setups),
        "episode_s": med("episode_s"),
        "update_latency_ms.p50": statistics.median(
            ms for r in plain for ms in r["update_latency_ms"]),
        "hold_step_us": med("hold_step_us"),
        "update_reduction": med("update_reduction"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def _layers(traced: dict) -> dict:
    """Per-layer metrics of one traced repetition; its counts repeat exactly per seed."""
    totals, counts = traced["layers"], traced["counts"]
    out = {}
    for name, agg in totals.items():
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.s"] = agg["s"]
        out[f"{name}.self_s"] = agg["self_s"]
    out.update(counts)
    for key in ("import.stlfunnel.s", "scenario.load_scenario.s", "scenario.build_episode.s"):
        out[key] = traced[key]
    batch_calls = out.get("kernels.u_xi_batch.calls", 0)
    radius_calls = out.get("controller.compute_trigger_radius.calls", 0)
    out["controller.shrink_rounds"] = out.get("controller.probe_points.calls", 0) - radius_calls
    out["controller.fd_batch_share"] = (
        out.get("controller.fd_batch_calls", 0) / batch_calls if batch_calls else 0.0)
    out["controller.compute_trigger_radius.share"] = (
        out.get("controller.compute_trigger_radius.s", 0.0) / out["sim.run_episode.s"])
    pct = statistics.quantiles(traced["update_latency_ms"], n=100, method="inclusive")
    out["controller.make_event.p50_ms"] = pct[49]
    out["controller.make_event.p98_ms"] = pct[97]
    out["sim.samples"] = traced["samples"]
    out["sim.triggers"] = traced["triggers"]
    for cause, count in traced["causes"].items():
        out[f"sim.triggers.{cause}"] = count
    return out


def _units(kind: str) -> dict[str, str]:
    """Metric names and units listed under ``kind`` in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict | None:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S

    def child(mode: str) -> dict | None:
        return _child(workload, seed, mode, work, deadline - time.perf_counter())

    child("setup")  # fills the bytecode and file caches; not measured
    modes = ("plain", "traced") if trace else ("plain",)
    plain, traced, crashed, longest = [], [], 0, 0.0
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            rep = child(mode)
            if rep is None:
                crashed += 1
            else:
                (plain if mode == "plain" else traced).append(rep)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start >= seconds or now + longest > deadline:
            break
    setups = [r["setup_s"] for r in plain]
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        rep = child("setup")
        if rep is not None:
            setups.append(rep["setup_s"])

    reps = plain + traced
    failed = crashed
    checks_failed = []
    for rep in reps:
        bad = [name for name, ok in rep["checks"].items() if not ok]
        checks_failed += [f"{workload} seed {seed} {rep['mode']}: {name}" for name in bad]
        # The episode and each monitor call are operations; an episode
        # fails when it is unsatisfied or one of its checks fails.
        failed += any(not name.startswith("monitor_") for name in bad)
        failed += rep["monitor_failed"]
    attempted = crashed + sum(1 + rep["monitor_calls"] for rep in reps)
    if not plain or (trace and not traced):
        return None
    if trace:
        per_layer = _layers(traced[0])
        plain_s = statistics.median(r["episode_s"] for r in plain)
        per_layer["trace.overhead_s"] = statistics.median(r["episode_s"] for r in traced) - plain_s
        per_layer["trace.overhead_share"] = per_layer["trace.overhead_s"] / plain_s
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit}
                   for name, unit in _units("per_layer").items()}
    else:
        values = _end_to_end(plain, setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _units("end_to_end").items()}
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": {"plain": len(plain), "traced": len(traced), "setup": len(setups)},
        "rho_theta": plain[0]["rho_theta"],
        "nested_first": plain[0]["nested_first"],
        "using_numba": plain[0]["using_numba"],
        "fail_rate": failed / attempted,
        "checks_failed": checks_failed,
        "correct": not checks_failed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_table(res: dict) -> None:
    reps = res["repetitions"]
    print(f"== {res['workload']} seed {res['seed']}: {reps['plain']} plain, "
          f"{reps['traced']} traced, {reps['setup']} set-up samples; "
          f"USING_NUMBA={res['using_numba']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_rate':<48} {res['fail_rate']:>16.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    print(f"  rho_theta={res['rho_theta']!r} nested_first={res['nested_first']!r}")
    for line in res["checks_failed"]:
        print(f"  CHECK FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stlfunnel episode benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stlfunnel" / "__init__.py").is_file():
        print(f"no stlfunnel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base, prefix="run-"))
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
            if res is None:
                print(f"{workload}: no repetition completed", file=sys.stderr)
                return 1
            _print_table(res)
            ok &= res["correct"]
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

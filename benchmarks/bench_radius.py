"""Per-call times of the trigger radius and its kernels, parent against change, one row per workload.

Run from the repository root:

    python3 benchmarks/bench_radius.py --label "what the change does"

The parent commit (``--parent``, default HEAD) is exported with
``git archive``, as ``bench_episode.py`` does; the change is this
checkout's working tree.  Pair i runs each workload's episode at
``--seed`` (default 7) once on each side, each in a fresh interpreter
with BLAS threads pinned to 1, the parent first in even pairs and the
change first in odd ones.  In that interpreter
``controller.compute_trigger_radius`` (the whole radius, called by
``make_event``), ``kernels.band_holds`` (the value-only check of a
round's late vertices, which since the leaf-local guard reads each leaf
at its own support's corners and gathers the values to every vertex)
and ``kernels.law_row_sums`` (the law Jacobian over an accepted box's
hypercube rows) are wrapped where ``controller`` looks them up, and
every call's wall time is recorded.  The wrappers pass their arguments
through, so they time either side's signature of ``band_holds``.
``kernels.guarded_rows``, the hypercube read-out that earlier versions
ran before ``law_row_sums``, is wrapped too where a side's
``controller`` has it; a name a side's ``controller`` lacks records no
calls.  Each ``law_row_sums`` call is also counted by what it returned:
"refused" (None, a row outside the band), "exact" (the exact row sums,
seen as a call of ``kernels._actuate``, the g^T transform that only the
exact rows pass through on either side) or "bound" (an omni row bound
that settled the radius).

Per workload, function and side, the row appended to
``BENCH_radius.json`` holds the calls per episode and, over the pairs,
the median and quartiles of each run's median per-call time (us) and how
many pairs the change won; per side, ``law_row_sums_returns`` holds the
distinct counts of those three outcomes over its runs.  Calls that
differ between the sides, as when a change moves the probe rows, are
printed, and each side's are recorded.  Nothing under ``perfbench/`` is
changed; the workloads' scenarios are read from each side's own tree.
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

from bench_episode import ROOT, _export, _git, _summary

RECORD = ROOT / "BENCH_radius.json"
WORKLOADS = ("rendezvous3", "patrol2d")
FUNCTIONS = ("compute_trigger_radius", "band_holds", "guarded_rows", "law_row_sums")
RETURNS = ("bound", "exact", "refused")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(root: Path, workload: str, seed: int) -> None:
    """Run one episode from ``root``'s package and print each wrapped call's
    seconds and the count of each ``law_row_sums`` outcome."""
    sys.path.insert(0, str(root / "src"))
    from stlfunnel import controller, kernels, scenario, sim

    times = {name: [] for name in FUNCTIONS}
    for name in [name for name in FUNCTIONS if hasattr(controller, name)]:
        def timed(*args, _fn=getattr(controller, name), _log=times[name]):
            t0 = time.perf_counter()
            out = _fn(*args)
            _log.append(time.perf_counter() - t0)
            return out
        setattr(controller, name, timed)

    returns = dict.fromkeys(RETURNS, 0)
    actuated = []
    actuate, row_sums = kernels._actuate, controller.law_row_sums
    kernels._actuate = lambda *args: actuated.append(1) or actuate(*args)

    def counted(*args):
        before = len(actuated)
        out = row_sums(*args)
        returns["refused" if out is None else "exact" if len(actuated) > before else "bound"] += 1
        return out

    controller.law_row_sums = counted
    path = (scenario.bundled_scenario_path() if workload == "rendezvous3"
            else root / "perfbench" / f"{workload}.yaml")
    sim.run_episode(scenario.build_episode(scenario.load_scenario(path), seed=seed))
    print(json.dumps({"times": times, "returns": returns}))


def _run(root: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root), "--workload", workload, "--seed", str(seed)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--label", default="")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args.child, args.workload[0], args.seed)
        return 0
    parent = _git("rev-parse", args.parent)
    dirty = _git("status", "--porcelain")
    change = f"working tree on {_git('rev-parse', 'HEAD')}" if dirty else _git("rev-parse", "HEAD")

    rows = []
    tmp = Path(tempfile.mkdtemp(prefix="bench-radius-"))
    try:
        _export(parent, tmp)
        roots = {"parent": tmp / "tree", "change": ROOT}
        for workload in args.workload or WORKLOADS:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(_run(roots[side], workload, args.seed))
                print(f"{workload} pair {i} done", flush=True)
            functions = {}
            for name in FUNCTIONS:
                calls = {side: sorted({len(r["times"][name]) for r in runs[side]}) for side in runs}
                if calls["parent"] != calls["change"]:
                    print(f"{workload} {name}: calls differ {calls}", flush=True)
                medians = {side: [1e6 * statistics.median(r["times"][name]) if r["times"][name] else 0.0
                                  for r in runs[side]] for side in runs}
                functions[name] = {
                    "calls": calls,
                    "parent_us": _summary(medians["parent"]),
                    "change_us": _summary(medians["change"]),
                    "change_wins": sum(p > c for p, c in zip(medians["parent"], medians["change"])),
                }
            returns = {side: {kind: sorted({r["returns"][kind] for r in runs[side]}) for kind in RETURNS}
                       for side in runs}
            rows.append({
                "label": args.label, "parent": parent, "change": change, "workload": workload,
                "seed": args.seed, "pairs": args.pairs, "source": "benchmarks/bench_radius.py",
                "functions": functions, "law_row_sums_returns": returns,
            })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = json.loads(RECORD.read_text()) if RECORD.exists() else []
    RECORD.write_text(json.dumps(record + rows, indent=1) + "\n")
    for row in rows:
        print(f"{row['workload']:12s} law_row_sums returns {row['law_row_sums_returns']}")
        for name, f in row["functions"].items():
            p, c = f["parent_us"], f["change_us"]
            print(f"{row['workload']:12s} {name:22s} calls {f['calls']['change']} "
                  f"parent {p['median']:8.1f} [{p['q1']:.1f}, {p['q3']:.1f}] us  "
                  f"change {c['median']:8.1f} [{c['q1']:.1f}, {c['q3']:.1f}] us  "
                  f"won {f['change_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

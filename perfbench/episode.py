"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, with ``src`` on
PYTHONPATH and BLAS threads pinned to 1, so the package's process-wide
caches (the optimizer's ``_cached_optimum``, ``compile_leaf_table``)
start cold every time, as they do for each CLI user.  A repetition:

1. set-up: ``import stlfunnel``, ``load_scenario``, ``build_episode``;
2. ``run_episode`` with the workload seed as the noise seed;
3. the replay stage on the run's own log: ``reporting.write_all``,
   ``reporting.read_trajectory`` and a fixed set of
   ``monitor_robustness`` calls on the read-back states, timed only by
   the traced run's spans;
4. output checks against plain-numpy oracles.

It writes one JSON object to ``--out``.  ``--mode setup`` stops after
step 1; ``--mode traced`` wraps the package's functions (see spans.py)
and adds the per-layer split.  Only the standard library is imported
before the set-up clock starts.

    PYTHONPATH=src python3 perfbench/episode.py --workload patrol2d --seed 0 --out r.json
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The monitor set of each workload: the scenario's own formula plus one
# Always formula and one nested chain over the same states.  Each is
# evaluated every EVAL_STEP seconds wherever its windows are covered.
WORKLOADS = {
    "rendezvous3": {
        "scenario": None,  # the bundled multi_robot.yaml
        "formulas": {
            "G": "G[0,10] (ball(2;45;5) and ball(5;45;5) and ball(8;45;5))",
            "nested": "F[0,50] (ball(0,1;20,30;10) and F[0,50] (ball(0,1;90,90;10)))",
        },
    },
    "patrol2d": {
        "scenario": HERE / "patrol2d.yaml",
        "formulas": {
            "G": "G[0,5] (ball(0,1;15,15;30))",
            "nested": "F[0,15] (ball(0,1;30,0;4) and F[0,15] (ball(0,1;30,30;4)))",
        },
    },
}
EVAL_STEP = 1.0
# The monitor evaluates nested chains through a relaxation that is
# meant to change, so their values are recorded but not checked.
UNCHECKED = {"nested"}
TOL = 1e-12


def _setup(workload: str, seed: int):
    t0 = time.perf_counter()
    import stlfunnel
    from stlfunnel import scenario

    t1 = time.perf_counter()
    path = WORKLOADS[workload]["scenario"] or scenario.bundled_scenario_path()
    cfg = scenario.load_scenario(path)
    t2 = time.perf_counter()
    spec = scenario.build_episode(cfg, seed=seed)
    t3 = time.perf_counter()
    times = {
        "setup_s": t3 - t0,
        "import.stlfunnel.s": t1 - t0,
        "scenario.load_scenario.s": t2 - t1,
        "scenario.build_episode.s": t3 - t2,
    }
    return spec, times


def _install(tracer, full: bool) -> None:
    """Wrap the package's functions where their callers look them up."""
    from stlfunnel import controller, kernels, monitor, optimize, reporting, sequencer, sim

    tracer.install([sim], "make_event", "controller.make_event")
    if not full:
        return
    state = {"probe_pending": False}

    def count_probe(counts, args, result):
        counts["controller.probe_points.points"] += result.shape[0]
        state["probe_pending"] = True

    def count_batch(counts, args, result):
        counts["kernels.u_xi_batch.points"] += args[6].shape[0]
        # The first batch after a probe round checks the box; the
        # others are finite-difference shifts for the Lipschitz bound.
        if state["probe_pending"]:
            state["probe_pending"] = False
        else:
            counts["controller.fd_batch_calls"] += 1

    def count_jump(counts, args, result):
        counts["sequencer.jumps"] += result is not None

    def count_opt(counts, args, result):
        counts["optimize.optimize_robustness.iterations"] += result.iterations

    def count_rows(counts, args, result):
        counts["robustness.exact_psi_batch.rows"] += args[1].shape[0]

    def count_bytes(counts, args, result):
        counts["reporting.write_all.bytes"] += sum(p.stat().st_size for p in result.values())

    def count_read(counts, args, result):
        counts["reporting.read_trajectory.rows"] += result[0].shape[0]

    tracer.install([sim], "run_episode", "sim.run_episode")
    tracer.install([sim], "step_rk4", "sim.step_rk4")
    tracer.install([sim], "init_sequencer", "sequencer.init_sequencer")
    tracer.install([sim], "jump_if_due", "sequencer.jump_if_due", count_jump)
    tracer.install([sim], "should_trigger", "controller.should_trigger")
    tracer.install([sim, monitor], "monitor_robustness", "monitor.monitor_robustness")
    tracer.install([controller], "compute_trigger_radius", "controller.compute_trigger_radius")
    tracer.install([controller], "_probe_points", "controller.probe_points", count_probe)
    tracer.install([controller], "continuous_law", "controller.continuous_law")
    tracer.install([kernels], "u_xi_eval", "kernels.u_xi_eval")
    tracer.install([kernels], "u_xi_batch", "kernels.u_xi_batch", count_batch)
    tracer.install([sequencer], "synthesize_funnel", "funnel.synthesize_funnel")
    tracer.install([optimize], "optimize_robustness", "optimize.optimize_robustness", count_opt)
    tracer.install([monitor], "exact_psi_batch", "robustness.exact_psi_batch", count_rows)
    tracer.install([reporting], "write_all", "reporting.write_all", count_bytes)
    tracer.install([reporting], "read_trajectory", "reporting.read_trajectory", count_read)


def _oracle_psi(psi, X):
    """Exact conjunction robustness per row, from the leaf definitions."""
    import numpy as np

    rows = []
    for leaf in psi.leaves:
        if leaf.kind == "affine":
            h = leaf.offset - X[:, list(leaf.sel)] @ np.asarray(leaf.coeffs)
        else:
            other = X[:, list(leaf.sel_b)] if leaf.kind == "join" else np.asarray(leaf.center)
            h = leaf.radius - np.linalg.norm(X[:, list(leaf.sel)] - other, axis=1)
        rows.append(-h if leaf.negated else h)
    return np.min(rows, axis=0)


def _oracle_value(theta, times, X, t: float) -> float:
    """Min over an ordered conjunction's atoms of the window min (G) or max (F)."""
    value = math.inf
    for atom in theta.atoms:
        mask = (times >= t + atom.a - TOL) & (times <= t + atom.b + TOL)
        rho = _oracle_psi(atom.psi, X[mask])
        value = min(value, float(rho.min() if atom.op == "G" else rho.max()))
    return value


def _eval_times(theta, t_end: float) -> list[float]:
    """Grid times at which every window of ``theta`` is covered by the log."""
    from stlfunnel.formulas import normalize_sequential

    latest = max(task.window[1] if task.m == 1 else task.window[0]
                 for task in normalize_sequential(theta))
    count = int(math.floor((t_end - latest) / EVAL_STEP + 1e-9)) + 1
    return [k * EVAL_STEP for k in range(max(count, 0))]


def _replay(workload, spec, traj, events, metrics, out_dir: Path, checks: dict) -> dict:
    import numpy as np
    from stlfunnel import monitor, reporting
    from stlfunnel.parsing import parse_formula

    paths = reporting.write_all(out_dir / "artifacts", traj, events, metrics)
    times, X = reporting.read_trajectory(paths["trajectory"])

    written = np.array([float("%.12g" % v) for v in traj.X.ravel()]).reshape(traj.X.shape)
    written_t = np.array([float("%.12g" % v) for v in traj.t])
    checks["read_back_equal"] = bool(np.array_equal(X, written) and np.array_equal(times, written_t))

    log = types.SimpleNamespace(t=times, X=X)
    formulas = {"theta": spec.theta}
    formulas.update({k: parse_formula(v) for k, v in WORKLOADS[workload]["formulas"].items()})
    calls = [(name, f, t) for name, f in formulas.items() for t in _eval_times(f, float(times[-1]))]
    failed, nested = 0, []
    for name, f, t in calls:
        try:
            got = monitor.monitor_robustness(f, log, t)
        except Exception:  # a failed call is a failed operation
            got = None
        ok = got is not None and (
            name in UNCHECKED or abs(got - _oracle_value(f, times, X, t)) <= TOL)
        failed += not ok
        checks[f"monitor_{name}"] = checks.get(f"monitor_{name}", True) and ok
        if name == "nested":
            nested.append(got)
    return {
        "monitor_calls": len(calls),
        "monitor_failed": failed,
        "nested_first": nested[0] if nested else None,
    }


def run(workload: str, seed: int, mode: str, out_dir: Path) -> dict:
    from spans import Tracer

    spec, times = _setup(workload, seed)
    result = {"workload": workload, "seed": seed, "mode": mode, **times}
    if mode == "setup":
        return result

    from stlfunnel import kernels, sim

    tracer = Tracer()
    _install(tracer, full=(mode == "traced"))
    t0 = time.perf_counter()
    traj, metrics, events = sim.run_episode(spec)
    episode_s = time.perf_counter() - t0

    latency = [tracer.ends[i] - tracer.starts[i]
               for i, name in enumerate(tracer.names) if name == "controller.make_event"]
    checks = {
        "satisfied": metrics.satisfied,
        "input_deviation_within_delta_u": metrics.max_input_deviation <= spec.trigger.delta_u,
        "xi_gap_positive": metrics.min_xi_gap > 0.0,
    }
    if metrics.satisfied:
        oracle = _oracle_value(spec.theta, traj.t, traj.X, 0.0)
        checks["rho_theta_oracle"] = abs(oracle - metrics.rho_theta) <= TOL
    result.update(
        episode_s=episode_s,
        update_latency_ms=[1e3 * dt for dt in latency],
        hold_step_us=(episode_s - math.fsum(latency)) / metrics.samples * 1e6,
        update_reduction=metrics.reduction,
        samples=metrics.samples,
        triggers=metrics.triggers,
        causes={c: sum(ev.cause == c for ev in events)
                for c in ("StateDeviation", "MaxInterval", "ModeSwitch", "Initial")},
        rho_theta=metrics.rho_theta,
        failure=metrics.failure,
        using_numba=bool(kernels.USING_NUMBA),
    )
    result.update(_replay(workload, spec, traj, events, metrics, out_dir, checks))
    result["checks"] = {name: bool(ok) for name, ok in checks.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced":
        result["layers"] = tracer.totals()
        result["counts"] = dict(tracer.counts)
        tracer.write(out_dir / "spans.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), default="plain")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode, args.out.parent)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

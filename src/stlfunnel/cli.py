"""Command line front end.

Exit codes: 0 success, 2 bad configuration or formula, 3 task not completed
(no feasible funnel at the start, deadline missed or horizon exhausted),
4 runtime guarantee lost (funnel exit or trigger radius collapse).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import ConfigError, OptimizationError, ParseError, StlFunnelError, WindowError
from .formulas import SmoothingConfig, normalize_sequential
from .monitor import monitor_robustness
from .optimize import optimize_robustness
from .parsing import parse_formula, parse_psi
from .reporting import read_trajectory, write_all
from .scenario import build_episode, bundled_scenario_path, load_scenario
from .sim import run_episode

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TASK = 3
EXIT_GUARANTEE = 4


def _read_formula_arg(text: str) -> str:
    """Treat the argument as a path if one exists, else as formula text."""
    p = Path(text)
    try:
        if p.is_file():
            return p.read_text()
    except OSError:
        pass
    return text


def _failure_exit(failure: str | None) -> int:
    if failure is None:
        return EXIT_OK
    kind = failure.split(":", 1)[0].strip()
    if kind in ("funnel", "trigger_floor"):
        return EXIT_GUARANTEE
    if kind in ("synthesis", "deadline", "horizon"):
        return EXIT_TASK
    return EXIT_CONFIG


def _run_and_report(spec, out_dir: str) -> int:
    traj, metrics, events = run_episode(spec)
    paths = write_all(out_dir, traj, events, metrics)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    print(f"satisfied={str(metrics.satisfied).lower()}")
    if math.isfinite(metrics.rho_theta):
        print(f"rho_theta={metrics.rho_theta:.6g}")
    print(f"samples={metrics.samples} triggers={metrics.triggers} "
          f"reduction={metrics.reduction:.4f}")
    if metrics.failure is not None:
        print(f"failure={metrics.failure} at t={metrics.failure_time:.4f}",
              file=sys.stderr)
    return _failure_exit(metrics.failure)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    spec = build_episode(cfg, seed=args.seed, dt=args.dt)
    return _run_and_report(spec, args.out)


def cmd_optimize(args: argparse.Namespace) -> int:
    text = _read_formula_arg(args.formula)
    smoothing = SmoothingConfig(eta=args.eta)
    try:
        tasks = [atom.psi for atom in parse_formula(text).atoms]
    except ParseError:
        tasks = [parse_psi(text)]
    for i, psi in enumerate(tasks):
        res = optimize_robustness(psi, smoothing)
        coords = ", ".join(f"{v:.6g}" for v in res.x_star)
        print(f"task {i}: rho_opt={res.rho_opt:.9g} iterations={res.iterations} "
              f"grad_norm={res.grad_norm:.3g} x_star=[{coords}]")
    return EXIT_OK


def cmd_monitor(args: argparse.Namespace) -> int:
    text = _read_formula_arg(args.formula)
    f = parse_formula(text)
    times, states = read_trajectory(args.trajectory)
    traj = SimpleNamespace(t=times, X=states)
    value = monitor_robustness(f, traj, args.at)
    print(f"rho={value:.9g}")
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = load_scenario(bundled_scenario_path())
    spec = build_episode(cfg)
    smoothing = spec.seq_cfg.smoothing

    checks: list[tuple[str, float, bool]] = []
    names = ("first phase", "second phase")
    # Closed-form phase optima at eta = 1 (derivation in the README).
    expected = (2.06, 3.89)
    for i, atom in enumerate(normalize_sequential(spec.theta)):
        res = optimize_robustness(atom.psi, smoothing)
        ok = abs(res.rho_opt - expected[i]) <= 0.02
        checks.append((f"rho_opt {names[i]} = {expected[i]:.2f} +/- 0.02", res.rho_opt, ok))

    traj, metrics, events = run_episode(spec)
    write_all(args.out, traj, events, metrics)

    checks.append(("task satisfied", 1.0 if metrics.satisfied else 0.0, metrics.satisfied))
    rho0 = metrics.rho_theta
    checks.append(("0.5 < rho_theta < 1.8", rho0, 0.5 < rho0 < 1.8))
    checks.append(("trigger reduction >= 0.90", metrics.reduction, metrics.reduction >= 0.90))

    failed = 0
    for label, value, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {label}: {value:.6g}")
        failed += 0 if ok else 1
    if metrics.failure is not None:
        print(f"failure={metrics.failure}", file=sys.stderr)
        return _failure_exit(metrics.failure)
    return EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stlfunnel",
        description="Synthesize and simulate event-triggered funnel controllers "
        "for timed reach/hold tasks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("--scenario", required=True, help="YAML scenario path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--dt", type=float, default=None, help="override step size")
    p_run.set_defaults(func=cmd_run)

    p_opt = sub.add_parser("optimize", help="report the best reachable robustness")
    p_opt.add_argument("--formula", required=True, help="formula text or file")
    p_opt.add_argument("--eta", type=float, default=1.0, help="smoothing sharpness")
    p_opt.set_defaults(func=cmd_optimize)

    p_mon = sub.add_parser("monitor", help="evaluate a formula on a logged run")
    p_mon.add_argument("--trajectory", required=True, help="trajectory CSV")
    p_mon.add_argument("--formula", required=True, help="formula text or file")
    p_mon.add_argument("--at", type=float, default=0.0, help="evaluation time")
    p_mon.set_defaults(func=cmd_monitor)

    p_rep = sub.add_parser(
        "reproduce-paper",
        help="run the bundled three-robot benchmark and check its targets",
    )
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, OptimizationError, WindowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StlFunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE


if __name__ == "__main__":
    sys.exit(main(argv=None))

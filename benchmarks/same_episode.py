"""Bitwise comparison of episodes, or of the kernels, between a parent commit and this checkout.

Run from the repository root:

    python3 benchmarks/same_episode.py --parent HEAD~1 --seeds 0-9
    python3 benchmarks/same_episode.py --parent HEAD~1 --formulas 200

The parent commit (``--parent``) is exported with ``git archive``, as
``bench_episode.py`` does; the change is this checkout's working tree.
Each side runs in a fresh interpreter that imports its own tree's package
and pickles what it computed; this process compares the two.

Episode mode runs each workload (rendezvous3, the bundled scenario, and
patrol2d, ``perfbench/patrol2d.yaml`` of each side's tree) at every seed
and compares ``t``, ``X``, ``rho_active``, ``gamma``, ``mode``, every
``TriggerEvent`` field, every ``RunMetrics`` field but ``wall_time``
(``delta_by`` per key, ``funnels`` per record key) and the input held at
each row: ``Trajectory.U`` where a side's tree still has it, else the
``u`` of the last event at or before the row, rebuilt from the events.
On a failed run the row at ``failure_time`` is left out on both sides,
since a tree with ``U`` logged a NaN input there.  ``--formulas N`` instead draws N seeded conjunctions
of ball, join, affine and ``not aff`` leaves on integrators and omni
teams of one to four robots (n = 12 samples the radius's late vertices),
with 16 states, a funnel and a trigger configuration each, and compares
``leaf_pass``, ``smooth_rho_grad``, ``shortest_supergradient``,
``exact_psi_batch``, ``u_xi_batch``, ``law_jacobian_batch`` and
``compute_trigger_radius`` (the radius, ``delta_by`` and the generator's
state after the call).  Each formula also gives a peak case
(``compute_trigger_radius_peak``): its first ball alone, at a state 0.02
from the ball's centre inside a flat funnel whose rho_max sits between
the state's value and the peak, so the late vertices pass and interior
hypercube rows rise above the upper wall.  The hypercube refusals
(``law_row_sums`` returning None inside the radius loop) are counted
over all radii, printed per side and compared too.

Per workload and seed, or per kernel, it prints "bitwise" or how many
fields differ, then one line for each differing field: its max relative
difference, or its shapes, or, for text and integers, the count of
differing entries and the first of them.  It exits 1 when anything
differs.  The noise is a function of (seed, step), so a change to what
the trigger radius draws moves no noise row.  It checks changes meant
to keep behaviour; it is not a test.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_episode import ROOT, _export, _git, _seeds

WORKLOADS = ("rendezvous3", "patrol2d")
KERNELS = ("leaf_pass", "smooth_rho_grad", "shortest_supergradient", "exact_psi_batch",
           "u_xi_batch", "law_jacobian_batch", "compute_trigger_radius", "compute_trigger_radius_peak")
REFUSALS = "hypercube refusals"
ROWS = 16


def _column(values: list) -> np.ndarray:
    """Values as one array: text as strings, numbers as float64 with None as NaN."""
    if any(isinstance(v, str) for v in values):
        return np.array(values, dtype=str)
    return np.array([math.nan if v is None else v for v in values], dtype=float)


def _flat(obj) -> np.ndarray:
    """Every number in nested lists, tuples and arrays, in order, as float64 (None as NaN)."""
    if obj is None:
        return np.full(1, math.nan)
    if isinstance(obj, (list, tuple)):
        parts = [_flat(v) for v in obj]
        return np.concatenate(parts) if parts else np.empty(0)
    return np.asarray(obj, dtype=float).ravel()


def _episodes(root: Path, workload: str, seeds: list[int]) -> dict:
    """The compared fields of each seed's episode, from ``root``'s package."""
    from dataclasses import fields

    from stlfunnel import controller, scenario, sim

    path = (scenario.bundled_scenario_path() if workload == "rendezvous3"
            else root / "perfbench" / f"{workload}.yaml")
    groups = {}
    for seed in seeds:
        spec = scenario.build_episode(scenario.load_scenario(path), seed=seed)
        traj, metrics, events = sim.run_episode(spec)
        out = {name: getattr(traj, name) for name in ("t", "X", "rho_active", "gamma", "mode")}
        held = getattr(traj, "U", None)
        if held is None:
            us = np.array([e.u for e in events]).reshape(-1, traj.X.shape[1])
            held = us[np.searchsorted([e.t for e in events], traj.t, side="right") - 1]
        out["held input"] = held[:max(len(traj.t) - (metrics.failure is not None), 0)]
        for f in fields(controller.TriggerEvent):
            out[f"event.{f.name}"] = _column([getattr(e, f.name) for e in events])
        for f in fields(sim.RunMetrics):
            value = getattr(metrics, f.name)
            if f.name == "delta_by":
                for key, count in value.items():
                    out[f"delta_by.{key}"] = _column([count])
            elif f.name == "funnels":
                for key in value[0] if value else ():
                    out[f"funnel.{key}"] = _column([rec[key] for rec in value])
            elif f.name != "wall_time":
                out[f.name] = _column([value])
        groups[f"{workload} seed {seed}"] = out
    return groups


def _formula_text(rng: np.random.Generator, n: int) -> str:
    """A conjunction over an n-dimensional state with at least one ball or join leaf."""
    leaves = []
    for k in range(int(rng.integers(1, 7))):
        kind = "ball" if k == 0 or n == 1 else rng.choice(["ball", "join", "aff", "not aff"])
        width = int(rng.integers(1, min(n, 3) + 1))
        sel = rng.choice(n, size=width, replace=False).tolist()
        ints = ",".join(map(str, sel))
        nums = ",".join(f"{v:.6g}" for v in rng.uniform(-4.0, 4.0, width))
        radius = f"{rng.uniform(1.0, 12.0):.6g}"
        if kind == "ball":
            leaves.append(f"ball({ints};{nums};{radius})")
        elif kind == "join":
            partners = [(j + int(rng.integers(1, n))) % n for j in sel]
            leaves.append(f"join({ints};{','.join(map(str, partners))};{radius})")
        else:
            coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, n + 1)))
            coeffs[0] = coeffs[0] or 0.5
            body = ",".join(f"{v:.6g}" for v in coeffs)
            leaves.append(f"{kind}({body};{rng.uniform(-5.0, 15.0):.6g})")
    return " and ".join(leaves)


def _formulas(count: int) -> dict:
    """Each kernel's results on ``count`` seeded formulas, from the imported package."""
    from stlfunnel import controller, kernels
    from stlfunnel.errors import TriggerFloorError
    from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig
    from stlfunnel.funnel import FunnelParams, PerformanceFunction
    from stlfunnel.parsing import parse_psi
    from stlfunnel.plants import omni_robot_team, single_integrator

    groups = {name: {} for name in KERNELS}
    refusals = 0
    row_sums = controller.law_row_sums

    def counted(*args):
        nonlocal refusals
        sums = row_sums(*args)
        refusals += sums is None
        return sums

    controller.law_row_sums = counted

    def radius(x, t, psi, fp, plant, tc, eta, seed):
        gen = np.random.default_rng(seed)
        try:
            found = controller.compute_trigger_radius(x, t, psi, fp, plant, tc, SmoothingConfig(eta=eta), gen)
        except TriggerFloorError as exc:
            found = f"TriggerFloorError: {exc}"
        return repr((found, gen.bit_generator.state))

    for i in range(count):
        rng = np.random.default_rng(i)
        if i % 4 == 3:
            # Every other omni team has four robots (n = 12), where the
            # radius samples 512 of its 2^n late vertices.
            agents = 4 if i % 8 == 7 else int(rng.integers(1, 4))
            plant = omni_robot_team(agents, input_gain=float(rng.uniform(1.0, 100.0)))
        else:
            plant = single_integrator(int(rng.integers(1, 7)), gain=float(rng.uniform(0.5, 5.0)))
        n = plant.n
        psi = parse_psi(_formula_text(rng, n))
        eta = float(rng.uniform(0.3, 3.0))
        X = rng.uniform(-6.0, 6.0, n) + rng.uniform(-2.0, 2.0, (ROWS, n))
        if plant.gbase is not None:
            X[:, 2::3] = rng.uniform(0.0, 360.0, (ROWS, n // 3))
        first = psi.leaves[0]
        X[-1, list(first.sel)] = first.center  # a row on the first ball's kink
        T = rng.uniform(0.0, 4.0, ROWS)
        table = kernels.compile_leaf_table(psi)
        states = X.tolist()
        kink = float(rng.choice([0.0, 1e-3, 0.5]))
        results = {
            "leaf_pass": [kernels.leaf_pass(table, xs) for xs in states],
            "smooth_rho_grad": [kernels.smooth_rho_grad(table, xs, eta) for xs in states],
            "shortest_supergradient": [kernels.shortest_supergradient(table, xs, eta, kink)
                                       for xs in states],
            "exact_psi_batch": kernels.exact_psi_batch(psi, X),
        }
        # A funnel around the rows' values; a quarter of the funnels, and
        # those of the four-robot teams, leave some rows outside, where the
        # law is NaN and the radius refuses boxes at its sampled vertices.
        rho = np.array([r for r, _ in results["smooth_rho_grad"]])
        rho_max = max(float(rho.max()) + 0.3 * float(np.ptp(rho)) + 0.1, 1.0)
        narrow = i % 4 == 1 or n == 12
        gamma_inf = (0.5 if narrow else 1.5) * (rho_max - float(rho.min())) + 0.1
        fp = FunnelParams(t_star=1.0, r=0.25 * rho_max, rho_max=rho_max, perf=PerformanceFunction(
            gamma0=float(rng.uniform(1.0, 3.0)) * gamma_inf, gamma_inf=gamma_inf,
            l=float(rng.uniform(0.0, 1.0))))
        results["u_xi_batch"] = kernels.u_xi_batch(X, T, psi, fp, plant, eta)
        results["law_jacobian_batch"] = kernels.law_jacobian_batch(X, T, psi, fp, plant, eta)
        tc = controller.TriggerConfig(delta_u=float(10.0 ** rng.uniform(-1.0, 2.0)))
        results["compute_trigger_radius"] = radius(X[0], float(T[0]), psi, fp, plant, tc, eta, i)
        x_peak = X[0].copy()
        x_peak[list(first.sel)] = first.center
        x_peak[first.sel[0]] += 0.02
        flat = PerformanceFunction(gamma0=1.0, gamma_inf=1.0, l=0.0)
        fp_peak = FunnelParams(t_star=1.0, r=0.25 * first.radius, rho_max=first.radius - 0.01, perf=flat)
        results["compute_trigger_radius_peak"] = radius(
            x_peak, 0.0, NonTemporalFormula(leaves=(first,)), fp_peak, plant, tc, eta, i)
        for name, value in results.items():
            groups[name][f"formula {i}"] = (np.array(value) if isinstance(value, str)
                                            else _flat(value))
    controller.law_row_sums = row_sums
    groups[REFUSALS] = {"count": np.array([refusals])}
    return groups


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries; inf where only one side is NaN."""
    if np.any(np.isnan(a) != np.isnan(b)):
        return math.inf
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.nanmax(rel, initial=0.0))


def _differences(parent: dict, change: dict) -> list[str]:
    """Every field whose bits differ between the sides, each with what differs."""
    found = []
    for name in list(parent) + [k for k in change if k not in parent]:
        if name not in parent or name not in change:
            found.append(f"{name}: only in the {'parent' if name in parent else 'change'}")
            continue
        a, b = parent[name], change[name]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            continue
        if a.shape != b.shape:
            found.append(f"{name}: shape {a.shape} against {b.shape}")
        elif a.dtype.kind == b.dtype.kind == "f":
            found.append(f"{name}: max relative difference {_max_rel(a, b):.3g}")
        else:
            bad = np.flatnonzero(a.ravel() != b.ravel())
            if bad.size:
                i = int(bad[0])
                found.append(f"{name}: {bad.size} of {a.size} differ, the first at {i}: "
                             f"{str(a.ravel()[i])[:80]} against {str(b.ravel()[i])[:80]}")
            else:
                found.append(f"{name}: dtype {a.dtype} against {b.dtype}")
    return found


def _child(args) -> None:
    """Compute one side's groups from ``args.child``'s package and pickle them to ``args.out``."""
    sys.path.insert(0, str(args.child / "src"))
    if args.formulas:
        groups = _formulas(args.formulas)
    else:
        groups = _episodes(args.child, args.workload[0], _seeds(args.seeds))
    with open(args.out, "wb") as fh:
        pickle.dump(groups, fh)


def _side(root: Path, out: Path, extra: list[str]) -> dict:
    """Run one side in a fresh interpreter and load what it computed."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root), "--out", str(out), *extra],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--formulas", type=int, default=0, metavar="N")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args)
        return 0
    parent = _git("rev-parse", args.parent)
    runs = ([["--formulas", str(args.formulas)]] if args.formulas else
            [["--workload", w, "--seeds", args.seeds] for w in args.workload or WORKLOADS])
    print(f"parent {parent} against the working tree on {_git('rev-parse', 'HEAD')}", flush=True)
    differ = 0
    tmp = Path(tempfile.mkdtemp(prefix="same-episode-"))
    try:
        _export(parent, tmp)
        for extra in runs:
            sides = [_side(root, tmp / f"{name}.pkl", extra)
                     for root, name in ((tmp / "tree", "parent"), (ROOT, "change"))]
            if REFUSALS in sides[0] and REFUSALS in sides[1]:
                counts = [int(side[REFUSALS]["count"][0]) for side in sides]
                print(f"{REFUSALS}: parent {counts[0]}, change {counts[1]}", flush=True)
            for group in list(sides[0]) + [g for g in sides[1] if g not in sides[0]]:
                found = (_differences(sides[0][group], sides[1][group])
                         if group in sides[0] and group in sides[1] else ["only on one side"])
                differ += bool(found)
                print(f"{group}: {'bitwise' if not found else f'{len(found)} differ'}", flush=True)
                for line in found:
                    print(f"  {line}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

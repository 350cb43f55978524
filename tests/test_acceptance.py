"""Release gate: eleven required behaviors, one printed verdict line each.

Every test prints exactly one [PASS]/[FAIL] line with the measured
numbers, then asserts.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from stlfunnel.controller import continuous_law
from stlfunnel.formulas import (
    SequentialFormula,
    SmoothingConfig,
    TemporalFormula,
    normalize_sequential,
)
from stlfunnel.funnel import FunnelParams, PerformanceFunction, SynthesisConfig, gamma_at, synthesize_funnel
from stlfunnel.kernels import exact_psi_batch, law_jacobian_batch, smooth_psi_value_and_grad
from stlfunnel.monitor import monitor_robustness
from stlfunnel.optimize import optimize_robustness
from stlfunnel.parsing import parse_formula
from stlfunnel.plants import omni_robot_team
from stlfunnel.scenario import build_episode, bundled_scenario_path, load_scenario
from stlfunnel.sequencer import SequencerConfig, init_sequencer, jump_if_due
from stlfunnel.sim import run_episode

from conftest import brute_monitor, random_concave_psi

SEEDED_RUN_SEEDS = tuple(range(10))


def _verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def benchmark_cfg():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="module")
def benchmark_run(benchmark_cfg):
    spec = build_episode(benchmark_cfg)
    traj, metrics, events = run_episode(spec)
    return SimpleNamespace(spec=spec, traj=traj, metrics=metrics, events=events)


@pytest.fixture(scope="module")
def seeded_metrics(benchmark_cfg):
    out = []
    for seed in SEEDED_RUN_SEEDS:
        spec = build_episode(benchmark_cfg, seed=seed)
        _, metrics, _ = run_episode(spec)
        out.append(metrics)
    return out


def test_c01_optimum_reproduction(benchmark_run, capsys):
    # Targets are the closed-form optima of the bundled phases at eta = 1.
    # Every leaf is concave, so the log-sum-exp soft minimum is too and its
    # stationary point is the global maximum.  Phase 1: headings at 45
    # (leaves 5), robot 2 on its centre (leaf 10), robots 1 and 3 each move
    # a = 20/3 toward each other, where 2e^(a-10) = 2e^(10-2a); both balls
    # and the join then read 10/3.  Phase 2: every robot sits at (90,90)
    # with heading 45, so each leaf is at its own maximum (10 or 5).
    targets = (
        -math.log(3 * math.exp(-10 / 3) + 3 * math.exp(-5) + math.exp(-10)),
        -math.log(3 * math.exp(-5) + 3 * math.exp(-10)),
    )
    smoothing = SmoothingConfig(eta=1.0)
    parts = []
    ok = True
    for task, target in zip(normalize_sequential(benchmark_run.spec.theta), targets):
        start = time.perf_counter()
        res = optimize_robustness(task.psi, smoothing)
        elapsed = time.perf_counter() - start
        hit = abs(res.rho_opt - target) <= 0.02 and elapsed < 5.0
        ok = ok and hit
        parts.append(f"rho_opt={res.rho_opt:.6f} (target {target:.6f}+-0.02, {elapsed:.2f}s)")
    _verdict(capsys, ok, "optimum reproduction", "; ".join(parts))


def test_c02_benchmark_run_satisfied(benchmark_run, capsys):
    m = benchmark_run.metrics
    ok = (
        m.satisfied
        and 0.5 < m.rho_theta < 1.8
        and m.wall_time < 60.0
        and benchmark_run.spec.dt == 0.01
    )
    _verdict(
        capsys, ok, "closed-loop benchmark",
        f"satisfied={m.satisfied} rho_theta={m.rho_theta:.5f} in (0.5, 1.8) "
        f"wall={m.wall_time:.1f}s < 60 at dt=0.01",
    )


def test_c03_trigger_reduction(benchmark_run, capsys):
    m = benchmark_run.metrics
    ok = m.reduction >= 0.90
    _verdict(
        capsys, ok, "trigger reduction",
        f"{m.triggers}/{m.samples} updates, reduction={m.reduction:.4f} >= 0.90",
    )


def test_c04_funnel_invariant_over_seeds(seeded_metrics, capsys):
    violations = sum(1 for m in seeded_metrics if m.failure == "funnel")
    unfinished = sum(1 for m in seeded_metrics if not m.satisfied)
    gap = min(m.min_xi_gap for m in seeded_metrics)
    ok = violations == 0 and unfinished == 0
    _verdict(
        capsys, ok, "funnel invariant",
        f"0 violations required: got {violations} across {len(seeded_metrics)} "
        f"seeded runs ({unfinished} unfinished), min xi gap {gap:.4f}",
    )


def test_c05_held_input_deviation_bound(benchmark_run, seeded_metrics, capsys):
    delta_u = benchmark_run.spec.trigger.delta_u
    worst = max(
        [benchmark_run.metrics.max_input_deviation]
        + [m.max_input_deviation for m in seeded_metrics]
    )
    ok = worst <= delta_u
    _verdict(
        capsys, ok, "held-input deviation (estimate)",
        f"max |u_cont - u_held|_inf at grid samples = {worst:.4f} <= delta_u = {delta_u} "
        "on all runs; delta_u / L_z uses a sampled Lipschitz estimate, and the law "
        "jumps at 45 degrees inside some trigger boxes",
    )


def test_c06_no_zeno(benchmark_run, seeded_metrics, capsys):
    runs = [benchmark_run.metrics] + list(seeded_metrics)
    min_gap = min(m.min_inter_event for m in runs)
    min_delta = min(m.min_delta for m in runs)
    dt = benchmark_run.spec.dt
    ok = min_gap >= dt and min_delta >= 1e-6
    _verdict(
        capsys, ok, "no Zeno",
        f"min inter-event {min_gap:.4f} >= dt={dt}; min delta {min_delta:.3g} >= 1e-06",
    )


def test_c07_gradient_suite(benchmark_run, capsys):
    tasks = normalize_sequential(benchmark_run.spec.theta)
    plant = omni_robot_team(3, input_gain=100.0)
    smoothing = SmoothingConfig(eta=1.0)
    # A wide static funnel: the angle states range over hundreds of
    # units, so gamma must dominate the whole reachable rho range to
    # keep random draws inside (-1, 0).
    fp = FunnelParams(
        t_star=50.0, r=0.5, rho_max=1.8,
        perf=PerformanceFunction(gamma0=2000.0, gamma_inf=2000.0, l=0.0),
    )
    rng = np.random.default_rng(20240817)
    h = 1e-6
    worst_grad = 0.0
    worst_jac = 0.0
    checked = 0
    while checked < 1000:
        psi = tasks[checked % 2].psi
        x = np.empty(9)
        x[0::3] = rng.uniform(0.0, 90.0, 3)
        x[1::3] = rng.uniform(0.0, 90.0, 3)
        x[2::3] = rng.uniform(0.0, 360.0, 3)
        t = float(rng.uniform(0.0, 40.0))

        rho, grad = smooth_psi_value_and_grad(psi, x, smoothing)
        if not (-1.0 < (rho - fp.rho_max) / fp.perf.gamma0 < 0.0):
            continue  # draw sits outside the funnel; the law is undefined
        fd = np.empty_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            fd[j] = (
                smooth_psi_value_and_grad(psi, x + e, smoothing)[0]
                - smooth_psi_value_and_grad(psi, x - e, smoothing)[0]
            ) / (2 * h)
        err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        worst_grad = max(worst_grad, err)

        du_dx = law_jacobian_batch(x[None, :], np.array([t]), psi, fp, plant, smoothing.eta)[0][0]
        fd_jac = np.empty_like(du_dx)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            up = continuous_law(x + e, t, psi, fp, plant, smoothing)
            dn = continuous_law(x - e, t, psi, fp, plant, smoothing)
            fd_jac[:, j] = (up - dn) / (2 * h)
        jerr = np.linalg.norm(du_dx - fd_jac) / max(1.0, np.linalg.norm(fd_jac))
        worst_jac = max(worst_jac, jerr)
        checked += 1
    ok = worst_grad < 1e-5 and worst_jac < 1e-5
    _verdict(
        capsys, ok, "gradient suite",
        f"{checked} states: robustness grad err {worst_grad:.2e}, "
        f"law jacobian err {worst_jac:.2e}, both < 1e-05",
    )


def test_c08_under_approximation_suite(capsys):
    rng = np.random.default_rng(513)
    violations = 0
    worst_gap = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 8))
        psi = random_concave_psi(rng, dim, int(rng.integers(1, 6)))
        x = rng.uniform(-8.0, 8.0, dim)
        eta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        smooth, _ = smooth_psi_value_and_grad(psi, x, SmoothingConfig(eta=eta))
        exact = exact_psi_batch(psi, x[None, :])[0]
        m = len(psi.leaves)
        slack = 1e-9 * max(1.0, abs(exact))
        if not (smooth <= exact + slack and exact <= smooth + math.log(m) / eta + slack):
            violations += 1
        worst_gap = max(worst_gap, exact - smooth)
    ok = violations == 0
    _verdict(
        capsys, ok, "under-approximation",
        f"{violations} violations on 10000 pairs; largest exact-smooth gap {worst_gap:.4f}",
    )


def test_c09_funnel_deadline_identity(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    second_branch = 0
    for _ in range(100):
        radius = float(rng.uniform(1.0, 10.0))
        center = float(rng.uniform(-20.0, 20.0))
        x0 = np.array([center + radius + float(rng.uniform(1.0, 50.0))])
        horizon = float(rng.uniform(0.5, 30.0))
        f = parse_formula(f"F[0,{horizon}](ball(0;{center};{radius}))")
        task = normalize_sequential(f)[0]
        fp = synthesize_funnel(task, x0, SynthesisConfig())
        if fp.perf.l > 0.0:
            second_branch += 1
        want = fp.rho_max - fp.r
        got = gamma_at(fp.perf, fp.t_star)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = second_branch == 100 and worst <= 1e-12
    _verdict(
        capsys, ok, "deadline width identity",
        f"gamma(t_star) = rho_max - r within {worst:.2e} (<= 1e-12 rel) "
        f"on {second_branch}/100 second-branch draws",
    )


def test_c10_monitor_matches_brute_force(capsys):
    rng = np.random.default_rng(99)
    mismatches = 0
    for i in range(500):
        dim = int(rng.integers(2, 5))
        times = np.arange(0.0, 8.0, 0.2)
        states = rng.uniform(-10.0, 10.0, (times.size, dim))
        if i % 3 == 2:
            # Nested chain: windows compose by cumulative sums.
            a1 = float(rng.uniform(0.0, 1.0))
            b1 = a1 + float(rng.uniform(0.2, 1.0))
            a2 = float(rng.uniform(0.0, 1.0))
            b2 = a2 + float(rng.uniform(0.2, 1.0))
            theta = SequentialFormula(kind="s2", atoms=(
                TemporalFormula(op="F", a=a1, b=b1, psi=random_concave_psi(rng, dim)),
                TemporalFormula(op="F", a=a2, b=b2, psi=random_concave_psi(rng, dim)),
            ))
        else:
            lo = 0.0
            atoms = []
            for _ in range(int(rng.integers(1, 4))):
                a = lo + float(rng.uniform(0.0, 1.5))
                b = a + float(rng.uniform(0.2, 1.5))
                lo = b
                op = "G" if rng.uniform() < 0.5 else "F"
                atoms.append(TemporalFormula(op=op, a=a, b=b, psi=random_concave_psi(rng, dim)))
            theta = SequentialFormula(kind="s1", atoms=tuple(atoms))
        got = monitor_robustness(theta, SimpleNamespace(t=times, X=states), 0.0)
        if got != brute_monitor(theta, times, states, 0.0):
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys, ok, "monitor oracle",
        f"{mismatches} mismatches on 500 random formula/signal pairs (exact equality)",
    )


def test_c11_sequencer_randomized(capsys):
    rng = np.random.default_rng(7001)
    cfg = SequencerConfig(synthesis=(SynthesisConfig(chi=0.2),))
    dt = 0.05
    failures = []

    def run_instance(text, windows, centers, x_start):
        f = parse_formula(text)
        n_tasks = len(windows)
        x = np.array([x_start])
        z = init_sequencer(f, x, cfg)
        guard = 0
        while not z.terminal and guard < 20_000:
            guard += 1
            hold = centers[z.q - 1] - 0.7
            x = x + np.clip(hold - x, -3.0, 3.0) * dt
            z.t_local += dt
            z_next = jump_if_due(z, x, cfg)
            if z_next is not None:
                z = z_next
        if not z.terminal or z.q != n_tasks + 1:
            failures.append(f"{text}: terminal mode not reached")
            return
        for q, jt in enumerate(z.jump_times):
            a, b = windows[q]
            if not (a - dt - 1e-9 <= jt <= b + dt + 1e-9):
                failures.append(f"{text}: jump {q} at {jt:.3f} outside [{a:.3f}, {b:.3f}]")
        if abs(z.Delta - z.jump_times[-1]) > 1e-9:
            failures.append(f"{text}: Delta {z.Delta:.6f} != last jump {z.jump_times[-1]:.6f}")

    n_instances = 0
    for _ in range(12):
        # Ordered conjunction mixing reach atoms with hold atoms that
        # keep the previous target, so the holds start satisfied.
        n_tasks = int(rng.integers(2, 4))
        windows = []
        centers = []
        parts = []
        lo = 0.0
        for k in range(n_tasks):
            a = lo + float(rng.uniform(0.6, 1.2))
            b = a + float(rng.uniform(1.2, 2.0))
            windows.append((a, b))
            lo = b
            hold_atom = k > 0 and rng.uniform() < 0.3
            ctr = centers[-1] if hold_atom else 3 * k
            centers.append(ctr)
            parts.append(f"{'G' if hold_atom else 'F'}[{a},{b}](ball(0;{ctr};2))")
        run_instance(
            " and ".join(parts), windows, centers,
            -0.7 + float(rng.uniform(-0.1, 0.1)),
        )
        n_instances += 1

    for _ in range(8):
        # Nested chains: local windows, cumulative global deadlines.
        n_tasks = int(rng.integers(2, 4))
        local = []
        for _ in range(n_tasks):
            a = float(rng.uniform(0.6, 1.2))
            b = a + float(rng.uniform(1.2, 2.0))
            local.append((a, b))
        text = ""
        for k in range(n_tasks - 1, -1, -1):
            a, b = local[k]
            inner = f" and {text}" if text else ""
            text = f"F[{a},{b}](ball(0;{3 * k};2){inner})"
        # Global windows by cumulative sums, checked against the library.
        cum_a = np.cumsum([a for a, _ in local])
        cum_b = np.cumsum([b for _, b in local])
        tasks = normalize_sequential(parse_formula(text))
        lib_windows = [task.window for task in tasks]
        want_windows = list(zip(cum_a.tolist(), cum_b.tolist()))
        if not np.allclose(lib_windows, want_windows, rtol=0, atol=1e-12):
            failures.append(f"{text}: windows {lib_windows} != cumulative {want_windows}")
        centers = [3 * k for k in range(n_tasks)]
        run_instance(text, want_windows, centers, -0.7 + float(rng.uniform(-0.1, 0.1)))
        n_instances += 1

    ok = not failures
    _verdict(
        capsys, ok, "sequencer",
        f"{n_instances} randomized instances: all jumps in window, terminal mode "
        f"reached, elapsed-time bookkeeping exact"
        + ("" if ok else f"; first failure: {failures[0]}"),
    )

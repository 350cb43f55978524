"""Closed-loop episode runner: logging, accounting, and failure honesty."""

import math

import numpy as np
import pytest

from stlfunnel import kernels, sim
from stlfunnel.controller import TriggerConfig, TriggerEvent, should_trigger
from stlfunnel.errors import WindowError
from stlfunnel.formulas import normalize_sequential
from stlfunnel.funnel import FunnelParams, PerformanceFunction, SynthesisConfig
from stlfunnel.parsing import parse_formula
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.sequencer import SequencerConfig
from stlfunnel.sim import EpisodeSpec, run_episode, step_rk4


def _toy_spec(**kw):
    base = dict(
        plant=single_integrator(1),
        theta=parse_formula("F[0,3](ball(0;2;1.5))"),
        x0=np.array([0.0]),
        dt=0.01,
        seed=3,
    )
    base.update(kw)
    return EpisodeSpec(**base)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TriggerConfig(sample_count=256.0),
        lambda: TriggerConfig(sample_count=True),
        lambda: _toy_spec(seed=7.0),
        lambda: _toy_spec(seed=True),
        lambda: single_integrator(1.0),
        lambda: single_integrator(True),
        lambda: omni_robot_team(1.0),
    ],
    ids=["sample_count-float", "sample_count-bool", "seed-float", "seed-bool",
         "dim-float", "dim-bool", "n_agents-float"],
)
def test_integer_fields_refuse_floats_and_bools(build):
    # Each object checks its own integer fields, so neither a float nor a
    # bool gets as far as the episode (or, for a bool seed, runs as 1).
    with pytest.raises(ValueError, match="integer"):
        build()


def test_integrator_run_satisfies_task():
    traj, metrics, events = run_episode(_toy_spec())
    assert metrics.failure is None and metrics.satisfied
    assert metrics.rho_theta > 0.0
    assert 0.0 < metrics.min_margin
    assert metrics.min_xi_gap > 0.0


def test_trajectory_log_shapes_and_grid():
    traj, metrics, events = run_episode(_toy_spec())
    n = len(traj.t)
    assert n == metrics.samples + 1
    assert traj.X.shape == (n, 1) and traj.U.shape == (n, 1)
    assert traj.rho_active.shape == (n,) and traj.gamma.shape == (n,)
    np.testing.assert_allclose(traj.t, np.arange(n) * traj.dt, rtol=0, atol=1e-12)
    assert np.all(np.isfinite(traj.U))
    assert np.all(traj.gamma > 0.0)
    assert traj.mode[0] == 1 and traj.mode[-1] == 2


def test_event_log_and_held_input():
    traj, metrics, events = run_episode(_toy_spec())
    assert events[0].cause == "Initial" and events[0].t == 0.0
    assert events[-1].cause == "ModeSwitch"
    assert all(e.delta >= 1e-6 for e in events)
    assert metrics.triggers == len(events)
    assert metrics.reduction == pytest.approx(1.0 - len(events) / metrics.samples)
    assert metrics.min_inter_event >= traj.dt - 1e-12
    assert metrics.max_input_deviation <= TriggerConfig().delta_u
    # The input is held between events: U may change only on event samples.
    event_ks = {int(round(e.t / traj.dt)) for e in events}
    changed = np.nonzero(np.any(np.diff(traj.U, axis=0) != 0.0, axis=1))[0] + 1
    assert set(changed.tolist()) <= event_ks
    # Each event holds the law of the phase active after any jump.  The
    # second spec switches into a phase with a new funnel, where the
    # pre-jump input differs from the post-jump one.
    _assert_events_hold_phase_law(_toy_spec(), traj, metrics, events)
    two_phase = _toy_spec(theta=parse_formula("F[0,3](ball(0;2;1.5)) and F[3,6](ball(0;-1;1.5))"))
    _assert_events_hold_phase_law(two_phase, *run_episode(two_phase))


def _phase_law(spec, traj, metrics):
    """u_xi_eval at row k's phase and the funnel clock the loop used there.

    Phase q's clock counts steps from its first row; the terminal mode
    keeps the last phase's funnel and restarts its clock at the closing
    switch, plus that phase's clock at the switch as an offset.
    """
    tasks = normalize_sequential(spec.theta)
    eta = spec.seq_cfg.smoothing.eta
    first = {int(q): int(np.argmax(traj.mode == q)) for q in np.unique(traj.mode)}

    def law(k, x):
        q = int(traj.mode[k])
        p = min(q, len(tasks))
        rec = metrics.funnels[p - 1]
        fp = FunnelParams(
            t_star=rec["t_star"], r=rec["r"], rho_max=rec["rho_max"],
            perf=PerformanceFunction(rec["gamma0"], rec["gamma_inf"], rec["l"]),
        )
        clock = (k - first[q]) * traj.dt
        if q > p:
            clock += (first[q] - first[p]) * traj.dt
        table = kernels.compile_leaf_table(tasks[p - 1].psi)
        return kernels.u_xi_eval(table, x, clock, eta, fp, spec.plant)[1]

    return law


def _assert_events_hold_phase_law(spec, traj, metrics, events):
    """Every event's u is u_xi_eval at its state and its phase's funnel clock, bitwise."""
    tasks = normalize_sequential(spec.theta)
    switches = [e for e in events if e.cause == "ModeSwitch"]
    assert metrics.satisfied and len(switches) == len(tasks)
    law = _phase_law(spec, traj, metrics)
    for e in events:
        k = int(round(e.t / traj.dt))
        assert np.array_equal(e.u, law(k, e.x)), (e.cause, e.t)


def _two_phase_tail_spec():
    return _toy_spec(
        theta=parse_formula("F[0,3](ball(0;2;1.5)) and F[3,6](ball(0;-1;1.5))"),
        seq_cfg=SequencerConfig(terminal_tail=0.5),
    )


def test_law_runs_only_at_events(monkeypatch):
    # Between events the loop reads only the value; the law is evaluated
    # once per event, and each event holds it at its phase's clock.
    calls = []
    eval_law = kernels.u_xi_eval

    def counted(*args):
        calls.append(args)
        return eval_law(*args)

    monkeypatch.setattr(kernels, "u_xi_eval", counted)
    spec = _two_phase_tail_spec()
    traj, metrics, events = run_episode(spec)
    monkeypatch.undo()
    assert metrics.satisfied and traj.mode[-1] == 3
    assert len(calls) == metrics.triggers == len(events)
    # Some events fire inside the terminal tail, on its offset clock.
    assert any(e.cause != "ModeSwitch" and traj.mode[int(round(e.t / traj.dt))] == 3 for e in events)
    _assert_events_hold_phase_law(spec, traj, metrics, events)


def test_trigger_test_same_for_list_and_array(rng):
    for i in range(300):
        n = int(rng.integers(1, 10))
        ex = rng.uniform(-50.0, 50.0, n)
        delta = float(rng.uniform(0.01, 1.0))
        t = 1.0 + float(rng.uniform(0.0, 1.5)) * delta
        x = ex + rng.uniform(-1.5, 1.5, n) * delta
        exact = i % 3 == 0
        if exact:
            # One coordinate exactly delta away, the rest well inside,
            # the clock too: the strict test must not fire.
            x = ex + rng.uniform(-0.5, 0.5, n) * delta
            j = int(rng.integers(n))
            x[j] = ex[j] + delta
            delta = abs(x[j] - ex[j])
            t = 1.0 + 0.5 * delta
        event = TriggerEvent(index=0, t=1.0, x=ex, u=np.zeros(n), delta=delta,
                             cause="Initial", delta_by="box")
        cause = should_trigger(x.tolist(), t, event)
        assert cause == should_trigger(x, t, event)
        if exact:
            assert cause is None


def _reference_deviation(spec, traj, metrics):
    """max |u - U|_inf over the logged rows with a finite input, row by row."""
    law = _phase_law(spec, traj, metrics)
    dev = 0.0
    for k in range(len(traj.t)):
        if np.all(np.isfinite(traj.U[k])):
            dev = max(dev, float(np.abs(law(k, traj.X[k]) - traj.U[k]).max()))
    return dev


@pytest.mark.parametrize("case", ["two_phase", "blocks", "horizon", "noise"])
def test_input_audit_matches_per_sample_law(case, monkeypatch):
    # The audit reads the law in batches per phase after the loop; it
    # must agree with the law evaluated at every logged row on its own.
    # "blocks" splits every phase into many short blocks.
    if case == "blocks":
        monkeypatch.setattr(sim, "_AUDIT_ROWS", 37)
    if case in ("two_phase", "blocks"):
        spec = _two_phase_tail_spec()
    elif case == "horizon":
        spec = _toy_spec(theta=parse_formula("F[2,3](ball(0;2;1.5))"), horizon=1.0)
    else:
        # Noise that leaves the funnel after some 70 samples.
        spec = _toy_spec(
            theta=parse_formula("F[2,3](ball(0;2;1.5))"),
            plant=single_integrator(1, w_max=30.0), seed=5,
        )
    traj, metrics, events = run_episode(spec)
    assert (metrics.failure is None) == (case in ("two_phase", "blocks"))
    # The noise run logs its failing sample with a NaN input; it stays out.
    assert np.isnan(traj.U[-1]).all() == (case == "noise")
    ref = _reference_deviation(spec, traj, metrics)
    assert 0.0 < ref and math.isfinite(metrics.max_input_deviation)
    assert metrics.max_input_deviation == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_input_audit_is_zero_without_samples():
    traj, metrics, events = run_episode(_toy_spec(theta=parse_formula("G[0,1](ball(0;100;1))")))
    assert metrics.failure.startswith("synthesis") and len(traj.t) == 0
    assert metrics.max_input_deviation == 0.0


def test_terminal_tail_extends_run():
    spec = _toy_spec(seq_cfg=SequencerConfig(terminal_tail=0.2))
    traj, metrics, events = run_episode(spec)
    assert metrics.satisfied
    jump_t = events[-1].t
    assert traj.t[-1] == pytest.approx(jump_t + 0.2, abs=1e-9)
    # The terminal mode keeps narrowing the same funnel.
    k_jump = int(round(jump_t / traj.dt))
    assert traj.gamma[-1] <= traj.gamma[k_jump] + 1e-12


def test_monitor_failure_is_recorded(monkeypatch):
    traj, metrics, events = run_episode(_toy_spec())
    assert metrics.monitor_error is None

    def broken_monitor(theta, log, t):
        raise WindowError("window end 3 exceeds last sample 2.5")

    monkeypatch.setattr(sim, "monitor_robustness", broken_monitor)
    traj, metrics, events = run_episode(_toy_spec())
    assert metrics.satisfied and metrics.failure is None
    assert math.isnan(metrics.rho_theta)
    assert metrics.monitor_error == "WindowError: window end 3 exceeds last sample 2.5"


def test_same_seed_reproduces_bitwise():
    spec = _toy_spec(plant=single_integrator(1, w_max=0.02), seed=11)
    a = run_episode(spec)
    b = run_episode(spec)
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[0].U, b[0].U)
    assert a[1].triggers == b[1].triggers


def test_different_seed_diverges():
    a = run_episode(_toy_spec(plant=single_integrator(1, w_max=0.02), seed=11))
    b = run_episode(_toy_spec(plant=single_integrator(1, w_max=0.02), seed=12))
    assert not np.array_equal(a[0].X, b[0].X)


def test_resolved_horizon():
    assert _toy_spec(horizon=7.5).resolved_horizon() == 7.5
    spec = _toy_spec(seq_cfg=SequencerConfig(terminal_tail=0.5))
    assert spec.resolved_horizon() == pytest.approx(3.5)


def test_horizon_failure_recorded():
    spec = _toy_spec(theta=parse_formula("F[2,3](ball(0;2;1.5))"), horizon=1.0)
    traj, metrics, events = run_episode(spec)
    assert not metrics.satisfied
    assert metrics.failure is not None and metrics.failure.startswith("horizon")
    assert metrics.failure_time == pytest.approx(1.0)
    assert math.isnan(metrics.rho_theta)


def test_infeasible_start_recorded_as_synthesis_failure():
    spec = _toy_spec(theta=parse_formula("G[0,1](ball(0;100;1))"))
    traj, metrics, events = run_episode(spec)
    assert not metrics.satisfied
    assert metrics.failure is not None and metrics.failure.startswith("synthesis")
    assert metrics.samples == 0 and len(traj.t) == 0


def test_infeasible_resynthesis_recorded_as_deadline_failure():
    # The second task's robustness ceiling is forced below the state's
    # value at the hand-over, so the mid-run synthesis must fail.
    spec = _toy_spec(
        theta=parse_formula("F[0,1](ball(0;0;2)) and F[2,3](ball(0;0;5))"),
        x0=np.array([-1.0]),
        seq_cfg=SequencerConfig(
            synthesis=(SynthesisConfig(), SynthesisConfig(rho_max=0.5))
        ),
    )
    traj, metrics, events = run_episode(spec)
    assert not metrics.satisfied
    assert metrics.failure is not None and metrics.failure.startswith("deadline")
    assert np.all(np.isnan(traj.U[-1]))


def test_overwhelming_noise_recorded_not_raised():
    # Window opens at t=2 so the noise cannot luck into an early jump;
    # it must wreck the funnel instead, and the run records that.
    spec = _toy_spec(
        theta=parse_formula("F[2,3](ball(0;2;1.5))"),
        plant=single_integrator(1, w_max=500.0),
        seed=5,
    )
    traj, metrics, events = run_episode(spec)
    assert not metrics.satisfied
    assert metrics.failure in ("funnel", "trigger_floor")
    assert metrics.failure_time is not None
    assert np.all(np.isnan(traj.U[-1]))


def test_funnel_records_cover_all_modes():
    traj, metrics, events = run_episode(_toy_spec())
    assert [rec["mode"] for rec in metrics.funnels] == [1]
    rec = metrics.funnels[0]
    assert rec["entry_time"] == 0.0
    assert rec["t_star"] == pytest.approx(3.0)
    assert 0.0 < rec["r"] < rec["rho_max"]
    assert rec["gamma0"] > 0.0 and rec["gamma_inf"] > 0.0


def test_step_rk4_matches_exact_linear_flow():
    plant = single_integrator(1)
    x = np.array([1.0])
    u = np.array([0.0])
    w = np.array([-1.0])  # dx/dt = -1 constant
    out = step_rk4(plant, x, u, w, 0.1)
    assert out[0] == pytest.approx(0.9, abs=1e-15)


def _planar_spec(**kw):
    return _toy_spec(plant=single_integrator(2), theta=parse_formula("F[0,3](ball(0,1;2,2;1.5))"), **kw)


def test_spec_rejects_short_x0():
    # Used to raise IndexError inside the episode loop.
    with pytest.raises(ValueError, match="x0"):
        _planar_spec(x0=np.array([0.0]))


def test_spec_rejects_long_x0():
    # Used to raise a matmul ValueError inside the episode loop.
    with pytest.raises(ValueError, match="x0"):
        _planar_spec(x0=np.zeros(3))


def test_spec_rejects_non_finite_x0():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="x0 must be finite"):
            _planar_spec(x0=np.array([0.0, bad]))


def test_spec_rejects_formula_beyond_state_and_nonpositive_dt():
    with pytest.raises(ValueError, match="state index 1"):
        _toy_spec(theta=parse_formula("F[0,3](ball(0,1;2,2;1.5))"))
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt"):
            _toy_spec(dt=dt)


def test_spec_compares_by_identity():
    # Comparing the 2-state x0 arrays field by field would raise.
    a, b = _planar_spec(x0=np.zeros(2)), _planar_spec(x0=np.zeros(2))
    assert a == a and a != b
    assert len({a, b}) == 2 and hash(a) == hash(a)

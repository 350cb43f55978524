"""Closed-loop episode runner: logging, accounting, and failure honesty."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from stlfunnel import controller, kernels, sequencer, sim
from stlfunnel.controller import TriggerConfig, TriggerEvent, should_trigger
from stlfunnel.errors import WindowError
from stlfunnel.formulas import normalize_sequential
from stlfunnel.funnel import FunnelParams, PerformanceFunction, SynthesisConfig
from stlfunnel.parsing import parse_formula
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.sequencer import SequencerConfig
from stlfunnel.sim import EpisodeSpec, run_episode, step_rk4

from reference import run_episode_per_sample


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
        lambda: _toy_spec(seed=7.0),
        lambda: _toy_spec(seed=True),
        lambda: single_integrator(1.0),
        lambda: single_integrator(True),
        lambda: omni_robot_team(1.0),
    ],
    ids=["seed-float", "seed-bool",
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


def _held_input(traj, events):
    """The input held at each row: the ``u`` of the last event at or before
    its time (the rule ``sim.Trajectory`` gives)."""
    return np.array([e.u for e in events])[np.searchsorted([e.t for e in events], traj.t, side="right") - 1]


def _scored_rows(traj, metrics):
    """The rows the scoring pass reads: all but the failure row that a
    failure at a cut row logs last.  A horizon failure's last row is an
    ordinary row."""
    return len(traj.t) - int(metrics.failure is not None and not metrics.failure.startswith(("horizon", "synthesis")))


def _assert_failure_row_unscored(traj, metrics):
    """The last row is the failure row, and the margins stop before it."""
    assert metrics.failure_time == traj.t[-1] and _scored_rows(traj, metrics) == len(traj.t) - 1
    upper = np.array([rec["rho_max"] for rec in metrics.funnels])[np.minimum(traj.mode, len(metrics.funnels)) - 1]
    rho, lower = traj.rho_active[:-1], upper[:-1] - traj.gamma[:-1]
    margins = np.concatenate([rho - lower, upper[:-1] - rho])
    assert metrics.min_margin == float(margins.min(initial=math.inf))


def test_trajectory_log_shapes_and_grid():
    traj, metrics, events = run_episode(_toy_spec())
    n = len(traj.t)
    assert n == metrics.samples + 1
    U = _held_input(traj, events)
    assert traj.X.shape == (n, 1) and U.shape == (n, 1)
    assert traj.rho_active.shape == (n,) and traj.gamma.shape == (n,)
    np.testing.assert_allclose(traj.t, np.arange(n) * traj.dt, rtol=0, atol=1e-12)
    assert np.all(np.isfinite(U))
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
    changed = np.nonzero(np.any(np.diff(_held_input(traj, events), axis=0) != 0.0, axis=1))[0] + 1
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
    # The tail outlasts the 0.5 s hold that starts it, so a MaxInterval
    # event fires inside it, one step past that hold.
    return _toy_spec(
        theta=parse_formula("F[0,3](ball(0;2;1.5)) and F[3,6](ball(0;-1;1.5))"),
        seq_cfg=SequencerConfig(terminal_tail=0.6),
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


def test_trigger_rows_match_the_single_row_test(rng):
    # The segment loop tests a block of rows at once with should_trigger;
    # each row's pair is the literal per-row test, and one state with an
    # integer step count gives the same pair as scalars.
    for i in range(300):
        n = int(rng.integers(1, 10))
        K = int(rng.integers(1, 60))
        ex = rng.uniform(-50.0, 50.0, n)
        delta = float(rng.uniform(0.01, 1.0))
        X = ex + rng.uniform(-1.5, 1.5, (K, n)) * delta
        steps = int(rng.integers(0, 150)) + np.arange(K)
        if i % 3 == 0:
            # One coordinate exactly delta away, the rest well inside, and
            # a hold of exactly delta: the strict tests must not fire.
            X = ex + rng.uniform(-0.5, 0.5, (K, n)) * delta
            j = int(rng.integers(n))
            X[:, j] = ex[j] + delta
            delta = float(abs(X[0, j] - ex[j]))
            steps = np.minimum(steps, int(delta / 0.01))
        event = TriggerEvent(index=0, t=1.0, x=ex, u=np.zeros(n), delta=delta,
                             cause="Initial", delta_by="box")
        deviates, late = should_trigger(X, steps, 0.01, event)
        assert deviates.shape == late.shape == (K,)
        for row, s, d, l in zip(X, steps.tolist(), deviates.tolist(), late.tolist()):
            expected = (max(abs(a - b) for a, b in zip(row.tolist(), ex.tolist())) > delta, s > delta / 0.01)
            assert (d, l) == expected == tuple(bool(v) for v in should_trigger(row, s, 0.01, event))
            if i % 3 == 0:
                assert expected == (False, False)


def test_each_cut_row_is_read_once_and_jumps_only_where_due(monkeypatch):
    # The read that cuts at a row hands its verdicts to the loop head: the
    # head calls jump_if_due only where that read found the jump due or
    # overdue, once per phase change or deadline failure, and rho is not
    # read again at a row the trigger cut at.
    cases = [(_two_phase_tail_spec(), None), _cut_specs()["deadline"][:2]]
    checked = 0
    for spec, failure in cases:
        jumps, reads = [], []
        jump_if_due, rho_rows = sim.jump_if_due, kernels.rho_rows
        monkeypatch.setattr(sim, "jump_if_due", lambda *args, **kw: jumps.append(args[0].q) or jump_if_due(*args, **kw))
        monkeypatch.setattr(kernels, "rho_rows", lambda X, *args: reads.extend(r.tobytes() for r in X) or rho_rows(X, *args))
        traj, metrics, events = run_episode(spec)
        monkeypatch.undo()
        assert (metrics.failure or "").startswith(failure or "") and (metrics.failure is None) == (failure is None)
        assert len(jumps) == sum(e.cause == "ModeSwitch" for e in events) + (failure is not None)
        # Rows (k_a, k_b] of a segment that a trigger cuts, after an event
        # that did not switch phase, are read once each.
        counts = Counter(reads)
        steps = [int(round(e.t / traj.dt)) for e in events]
        for a, b, ka, kb in zip(events, events[1:], steps, steps[1:]):
            if b.cause in ("StateDeviation", "MaxInterval") and a.cause != "ModeSwitch":
                assert [counts.get(traj.X[j].tobytes()) for j in range(ka + 1, kb + 1)] == [1] * (kb - ka)
                checked += 1
    assert checked >= 5


def test_max_interval_fires_one_step_past_delta():
    # The terminal tail runs on an offset funnel clock.  There an event
    # held for exactly delta = 0.5 (50 steps) used to fire MaxInterval at
    # its 50th step, where the clocks' difference rounded up past 0.5.
    # Every MaxInterval event now fires at the first step past delta.
    traj, metrics, events = run_episode(_two_phase_tail_spec())
    steps = [int(round(e.t / traj.dt)) for e in events]
    held = [(k - k0, prev.delta) for k0, k, prev, e in zip(steps, steps[1:], events, events[1:])
            if e.cause == "MaxInterval"]
    assert len(held) >= 5 and any(delta == 0.5 for _, delta in held)
    for gap, delta in held:
        assert gap - 1 <= delta / traj.dt < gap


def _reference_deviation(spec, traj, metrics, events):
    """max |u - U|_inf over the scored rows, row by row."""
    law = _phase_law(spec, traj, metrics)
    U = _held_input(traj, events)
    dev = 0.0
    for k in range(_scored_rows(traj, metrics)):
        dev = max(dev, float(np.abs(law(k, traj.X[k]) - U[k]).max()))
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
    # The noise run logs its failing sample last; the audit stops before it.
    assert (_scored_rows(traj, metrics) < len(traj.t)) == (case == "noise")
    if case == "noise":
        _assert_failure_row_unscored(traj, metrics)
    ref = _reference_deviation(spec, traj, metrics, events)
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
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(_held_input(a[0], a[2]), _held_input(b[0], b[2]))
    assert a[1].triggers == b[1].triggers


def test_different_seed_diverges():
    a = run_episode(_toy_spec(plant=single_integrator(1, w_max=0.02), seed=11))
    b = run_episode(_toy_spec(plant=single_integrator(1, w_max=0.02), seed=12))
    assert not np.array_equal(a[0].X, b[0].X)


def test_radius_draws_move_no_noise_row(monkeypatch):
    # The noise is a function of (seed, step) alone: a radius that draws a
    # different number of values from its generator on each call leaves
    # the run bitwise that of a fixed radius that draws none, and the same
    # seed run twice gives the same bits.
    spec = _toy_spec(plant=single_integrator(1, w_max=3.0), seed=0)

    def run(draws):
        calls = []

        def radius(*args):
            calls.append(args[-1].random(draws(len(calls))))
            return 0.1, "box"

        monkeypatch.setattr(controller, "compute_trigger_radius", radius)
        return run_episode(spec), len(calls)

    (fixed, _), (drawing, calls), (again, _) = run(lambda i: 0), run(lambda i: i % 5 + 1), run(lambda i: i % 5 + 1)
    assert calls > 5
    for traj, metrics, events in (drawing, again):
        for f in dataclasses.fields(traj):
            assert _same_bits(getattr(traj, f.name), getattr(fixed[0], f.name)), f.name
        assert [(e.t, e.cause, e.u.tobytes()) for e in events] == [(e.t, e.cause, e.u.tobytes()) for e in fixed[2]]


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
    _assert_failure_row_unscored(traj, metrics)


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
    _assert_failure_row_unscored(traj, metrics)


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


def _cut_specs():
    """Toy episodes named after the cut they reach, each with the failure it ends on
    (None for success) and an event cause it must log (None for any)."""
    noisy = dict(theta=parse_formula("F[2,3](ball(0;2;1.5))"), seed=0)
    nine = " and ".join(f"ball({i % 3};{2 + 0.1 * i:g};{3 + 0.2 * i:g})" for i in range(9))
    return {
        "state_deviation": (_toy_spec(plant=single_integrator(1, w_max=3.0), seed=0), None, "StateDeviation"),
        # The terminal tail outlasts a hold of exactly delta.
        "max_interval_and_tail": (_two_phase_tail_spec(), None, "MaxInterval"),
        "eventually_jump_no_noise": (_toy_spec(), None, "ModeSwitch"),
        "always_jump": (_toy_spec(theta=parse_formula("G[0,1](ball(0;0;4)) and F[1,2](ball(0;6;4))"),
                                  x0=np.array([2.0])), None, "ModeSwitch"),
        # The jump out of task 1 enters a task that cannot be synthesized.
        "deadline": (_toy_spec(theta=parse_formula("F[0,1](ball(0;0;2)) and F[2,3](ball(0;0;5))"),
                               x0=np.array([-1.9]),
                               seq_cfg=SequencerConfig(synthesis=(SynthesisConfig(), SynthesisConfig(rho_max=0.5)))),
                     "deadline", "Initial"),
        "funnel": (_toy_spec(plant=single_integrator(1, w_max=30.0), **noisy), "funnel", "StateDeviation"),
        # The jump is made overdue wherever the funnel band is left
        # (test_segment_loop_matches_per_sample_reference patches it): the
        # failing row is both, and the funnel failure comes first.
        "funnel_at_deadline": (_toy_spec(plant=single_integrator(1, w_max=30.0), **noisy), "funnel", "StateDeviation"),
        # Every radius is 2 (test_segment_loop_matches_per_sample_reference
        # fixes it), too wide for its box: the funnel is left inside a segment.
        "funnel_inside_segment": (_toy_spec(plant=single_integrator(1, w_max=3.0), **noisy), "funnel", "Initial"),
        "trigger_floor": (_toy_spec(plant=single_integrator(1, w_max=20.0), trigger=TriggerConfig(delta_u=1e-4),
                                    **noisy), "trigger_floor", "StateDeviation"),
        "horizon": (_toy_spec(theta=parse_formula("F[2,3](ball(0;2;1.5))"), horizon=1.0), "horizon", "MaxInterval"),
        # Off the sample grid: the last block ends where the noise table does.
        "horizon_off_grid": (_toy_spec(plant=single_integrator(1, w_max=0.5), horizon=1.003, **noisy),
                             "horizon", "MaxInterval"),
        "terminal_tail": (_toy_spec(seq_cfg=SequencerConfig(terminal_tail=0.2)), None, "ModeSwitch"),
        "omni": (_toy_spec(plant=omni_robot_team(1, input_gain=50.0, w_max=0.1), x0=np.array([0.0, 0.0, 30.0]),
                           theta=parse_formula("F[0,3](ball(0,1;1,1;0.5))")), None, "MaxInterval"),
        "nine_leaves": (_toy_spec(plant=single_integrator(3, w_max=0.2), x0=np.zeros(3),
                                  theta=parse_formula(f"F[0,3]({nine})")), None, "ModeSwitch"),
    }


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(_cut_specs()))
def test_segment_loop_matches_per_sample_reference(case, monkeypatch):
    # The segment loop handles the held rows between events as blocks and
    # cuts each where a test fires; it must reproduce the per-sample loop
    # bitwise, up to the radius generator's state at the end.
    spec, failure, cause = _cut_specs()[case]
    if case == "funnel_inside_segment":
        monkeypatch.setattr(controller, "compute_trigger_radius", lambda *args: (2.0, "box"))
    if case == "funnel_at_deadline":
        jump_rows = sequencer.jump_rows

        def overdue_outside_band(z, rho, t):
            due, overdue = jump_rows(z, rho, t)
            xi = (rho - z.fp.rho_max) / kernels.funnel_width(z.fp.perf, t + z.offset)[0]
            return due, overdue | ~((-1.0 < xi) & (xi < 0.0))

        monkeypatch.setattr(sequencer, "jump_rows", overdue_outside_band)
        monkeypatch.setattr(sim, "jump_rows", overdue_outside_band)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    traj, metrics, events = run_episode(spec)
    ref_traj, ref_metrics, ref_events, ref_rng, ref_U = run_episode_per_sample(spec)

    assert (metrics.failure or "").startswith(failure or "") and (metrics.failure is None) == (failure is None)
    assert any(e.cause == cause for e in events) and metrics.samples > 10
    for f in dataclasses.fields(traj):
        assert _same_bits(getattr(traj, f.name), getattr(ref_traj, f.name)), f.name
    assert len(events) == len(ref_events)
    for e, r in zip(events, ref_events):
        for f in dataclasses.fields(e):
            a, b = getattr(e, f.name), getattr(r, f.name)
            assert _same_bits(a, b) if isinstance(a, np.ndarray) else repr(a) == repr(b), f.name
    for f in dataclasses.fields(metrics):
        if f.name != "wall_time":
            assert repr(getattr(metrics, f.name)) == repr(getattr(ref_metrics, f.name)), f.name
    # The input the reference held at each row rebuilds from the events on
    # every scored row; only a failure row, which it logs with a NaN input,
    # is past them.
    stop = _scored_rows(traj, metrics)
    assert np.isnan(ref_U[stop:]).all() and not np.isnan(ref_U[:stop]).any()
    assert _same_bits(_held_input(traj, events)[:stop], ref_U[:stop])
    assert sum(metrics.delta_by.values()) == metrics.triggers
    assert metrics.reduction == 1.0 - metrics.triggers / metrics.samples
    # Each loop makes the noise generator, then the radius generator.
    assert len(made) == 4 and made[1].bit_generator.state == ref_rng.bit_generator.state

"""Exact trajectory monitoring against a brute-force evaluator."""

from types import SimpleNamespace

import numpy as np
import pytest

from stlfunnel.errors import WindowError
from stlfunnel.monitor import monitor_robustness
from stlfunnel.parsing import parse_formula
from conftest import brute_monitor, random_concave_psi


def _traj(times, states):
    return SimpleNamespace(t=np.asarray(times, float), X=np.asarray(states, float))


def test_eventually_window_max():
    f = parse_formula("F[1,3](ball(0;5;2))")
    times = np.arange(0.0, 5.0, 0.5)
    states = np.linspace(0.0, 10.0, times.size)[:, None]
    got = monitor_robustness(f, _traj(times, states), 0.0)
    assert got == pytest.approx(brute_monitor(f, times, states, 0.0))


def test_always_window_min():
    f = parse_formula("G[0,2](ball(0;0;3))")
    times = np.arange(0.0, 3.0, 0.25)
    states = np.sin(times)[:, None] * 2.0
    got = monitor_robustness(f, _traj(times, states), 0.0)
    assert got == pytest.approx(brute_monitor(f, times, states, 0.0))


def test_shifted_evaluation_time():
    f = parse_formula("F[0,1](ball(0;8;1))")
    times = np.arange(0.0, 10.0, 0.1)
    states = times[:, None]
    for t in (0.0, 3.7, 7.5):
        got = monitor_robustness(f, _traj(times, states), t)
        assert got == pytest.approx(brute_monitor(f, times, states, t))


def test_random_formulas_match_brute_force(rng):
    for _ in range(100):
        n_atoms = int(rng.integers(1, 4))
        dim = 3
        times = np.arange(0.0, 8.0, 0.2)
        states = rng.uniform(-10, 10, (times.size, dim))
        lo = 0.0
        atoms = []
        for _ in range(n_atoms):
            a = lo + float(rng.uniform(0, 1.5))
            b = a + float(rng.uniform(0.2, 1.5))
            lo = b
            op = "G" if rng.uniform() < 0.5 else "F"
            psi = random_concave_psi(rng, dim)
            atoms.append((op, a, b, psi))
        text_atoms = []
        from stlfunnel.formulas import SequentialFormula, TemporalFormula

        theta = SequentialFormula(
            kind="s1",
            atoms=tuple(TemporalFormula(op=op, a=a, b=b, psi=psi) for op, a, b, psi in atoms),
        )
        got = monitor_robustness(theta, _traj(times, states), 0.0)
        assert got == pytest.approx(brute_monitor(theta, times, states, 0.0), abs=1e-12)


def test_chain_uses_cumulative_windows(rng):
    f = parse_formula("F[0,2](ball(0;0;1) and F[1,3](ball(0;5;1)))")
    times = np.arange(0.0, 6.0, 0.1)
    states = times[:, None]
    got = monitor_robustness(f, _traj(times, states), 0.0)
    # Second step's global window is [0+1, 2+3] = [1, 5].
    assert got == pytest.approx(brute_monitor(f, times, states, 0.0))


def test_truncated_eventually_is_sound():
    f = parse_formula("F[0,10](ball(0;2;1))")
    times = np.arange(0.0, 5.0, 0.5)
    states = times[:, None]
    got = monitor_robustness(f, _traj(times, states), 0.0)
    assert got == pytest.approx(1.0 - 2.0 + 2.0 - 1.0 + 1.0)  # peak at x = 2


def test_truncated_always_raises():
    f = parse_formula("G[0,10](ball(0;2;9))")
    times = np.arange(0.0, 5.0, 0.5)
    with pytest.raises(WindowError):
        monitor_robustness(f, _traj(times, times[:, None]), 0.0)


def test_window_before_samples_raises():
    f = parse_formula("F[0,1](ball(0;0;1))")
    times = np.arange(2.0, 5.0, 0.5)
    with pytest.raises(WindowError):
        monitor_robustness(f, _traj(times, times[:, None]), 0.0)


def test_empty_window_raises():
    f = parse_formula("F[0.31,0.39](ball(0;0;1))")
    times = np.arange(0.0, 2.0, 0.5)
    with pytest.raises(WindowError):
        monitor_robustness(f, _traj(times, times[:, None]), 0.0)


def test_empty_trajectory_raises():
    f = parse_formula("F[0,1](ball(0;0;1))")
    with pytest.raises(WindowError, match="no samples"):
        monitor_robustness(f, _traj(np.empty(0), np.empty((0, 1))), 0.0)


def test_non_finite_state_raises_with_its_time():
    # min(inf, nan) is inf in Python, so an unchecked NaN would read rho=inf.
    times = np.array([0.0, 0.5])
    f = parse_formula("G[0,0.5] (ball(0;0;2))")
    with pytest.raises(ValueError, match="non-finite state at t=0$"):
        monitor_robustness(f, _traj(times, [[np.nan], [1.0]]), 0.0)
    # With several atoms the NaN atom is not dropped either.
    f = parse_formula("F[0,0.5] (ball(0;1;2)) and G[0.5,0.5] (ball(0;1;2))")
    with pytest.raises(ValueError, match="t=0.5$"):
        monitor_robustness(f, _traj(times, [[1.0], [np.inf]]), 0.0)


def test_non_finite_time_raises():
    f = parse_formula("F[0,1](ball(0;0;1))")
    with pytest.raises(ValueError, match="time nan at sample 1"):
        monitor_robustness(f, _traj([0.0, np.nan, 1.0], [[0.0], [0.0], [0.0]]), 0.0)

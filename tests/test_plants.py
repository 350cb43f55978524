"""Plant models: actuation structure, invertibility, and RK4 order."""

import math

import numpy as np
import pytest

from stlfunnel.plants import (
    OMNI_B,
    OMNI_R,
    Plant,
    omni_robot_team,
    single_integrator,
)
from stlfunnel.sim import step_rk4


def test_wheel_geometry_matrix_invertible():
    assert np.linalg.det(OMNI_B) == pytest.approx(0.5196152422706632, rel=1e-12)
    bbt = OMNI_B @ OMNI_B.T
    assert np.diag(bbt) == pytest.approx([1.5, 1.5, 0.12])
    assert bbt - np.diag(np.diag(bbt)) == pytest.approx(np.zeros((3, 3)), abs=1e-15)


def test_single_integrator_dynamics():
    p = single_integrator(3, gain=2.0)
    x = np.array([1.0, -1.0, 0.5])
    assert p.f(x) == pytest.approx(np.zeros(3))
    assert p.g(x) == pytest.approx(2.0 * np.eye(3))
    assert p.n == 3 and p.m == 3


def test_omni_team_block_structure():
    team = omni_robot_team(n_agents=3, input_gain=1.0)
    assert team.n == 9 and team.m == 9
    x = np.zeros(9)
    g = team.g(x)
    base = np.linalg.inv(OMNI_B.T) * OMNI_R
    for a in range(3):
        blk = g[3 * a : 3 * a + 3, 3 * a : 3 * a + 3]
        assert blk == pytest.approx(base, abs=1e-12)
    off = g.copy()
    for a in range(3):
        off[3 * a : 3 * a + 3, 3 * a : 3 * a + 3] = 0.0
    assert np.all(off == 0.0)


def test_omni_base_rows():
    base = np.linalg.inv(OMNI_B.T) * OMNI_R
    assert base[0] == pytest.approx([0.0, 0.011547005383792514, -0.011547005383792514])
    assert base[1] == pytest.approx([-0.013333333333333, 0.006666666666667, 0.006666666666667])
    assert base[2] == pytest.approx([0.033333333333333, 0.033333333333333, 0.033333333333333])


def test_omni_orientation_rotates_position_rows():
    team = omni_robot_team(n_agents=1, input_gain=1.0)
    x = np.array([0.0, 0.0, 90.0])  # degrees
    g = team.g(x)
    base = np.linalg.inv(OMNI_B.T) * OMNI_R
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert g == pytest.approx(rot @ base, abs=1e-12)


def test_omni_gain_scales_actuation():
    a = omni_robot_team(n_agents=1, input_gain=1.0)
    b = omni_robot_team(n_agents=1, input_gain=100.0)
    x = np.array([1.0, 2.0, 33.0])
    assert b.g(x) == pytest.approx(100.0 * a.g(x))


def test_rk4_fourth_order_convergence():
    # dx/dt = -x + u with u held at 1: known closed form.
    plant = Plant(
        n=1, m=1,
        f=lambda x: -x,
        g=lambda x: np.eye(1),
        w_max=0.0,
        kernel_kind=0, kernel_gain=1.0, kernel_gbase=np.zeros((3, 3)),
    )
    u = np.array([1.0])
    w = np.zeros(1)
    x0 = np.array([2.0])
    horizon = 1.0
    exact = 1.0 + (2.0 - 1.0) * math.exp(-horizon)
    errs = []
    for steps in (8, 16, 32, 64):
        dt = horizon / steps
        x = x0.copy()
        for _ in range(steps):
            x = step_rk4(plant, x, u, w, dt)
        errs.append(abs(x[0] - exact))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for rate in rates:
        assert rate == pytest.approx(4.0, abs=0.3)


def test_rk4_noise_enters_additively():
    plant = single_integrator(2)
    x = np.zeros(2)
    w = np.array([0.5, -0.25])
    out = step_rk4(plant, x, np.zeros(2), w, 0.1)
    assert out == pytest.approx(w * 0.1)

"""Plant models: actuation structure, validation and the exact held flow."""

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


def test_plant_rejects_inconsistent_fields():
    bad = [
        dict(n=3, gbase=np.eye(2)),
        dict(n=0),
        dict(n=2, gain=0.0),
        dict(n=2, gain=math.nan),
        dict(n=2, w_max=-0.1),
    ]
    for fields in bad:
        with pytest.raises(ValueError):
            Plant(**fields)


def test_plant_compares_by_identity():
    # Comparing the gbase arrays field by field would raise.
    a, b = omni_robot_team(), omni_robot_team()
    assert a == a and a != b
    assert len({a, b}) == 2


def test_omni_team_of_four_states_rejected():
    # Used to pass construction and fail with IndexError inside the law.
    with pytest.raises(ValueError, match="divisible by 3"):
        Plant(n=4, gbase=np.linalg.inv(OMNI_B.T) * OMNI_R)


def _dense_rk4(plant, x, u, w, dt, steps):
    """Fine classical RK4 of the dense rate g(x) u + w: the reference."""
    def rate(y):
        return plant.g(y) @ u + w

    h = dt / steps
    for _ in range(steps):
        k1 = rate(x)
        k2 = rate(x + 0.5 * h * k1)
        k3 = rate(x + 0.5 * h * k2)
        k4 = rate(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _draw(plant, rng):
    x = rng.uniform(-50.0, 50.0, plant.n)
    x[2::3] = rng.uniform(-360.0, 720.0, len(x[2::3]))  # headings, degrees
    return x, rng.uniform(-20.0, 20.0, plant.m), rng.uniform(-0.5, 0.5, plant.n)


@pytest.mark.parametrize("plant", [single_integrator(4, gain=2.5), omni_robot_team(3, input_gain=100.0)])
def test_flow_matches_dense_integration(plant):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, u, w = _draw(plant, rng)
        want = _dense_rk4(plant, x, u, w, 0.1, 100)
        np.testing.assert_allclose(step_rk4(plant, x, u, w, 0.1), want, rtol=1e-12, atol=1e-11)


def test_flow_equals_closed_form_omni_arc():
    # One agent with a held input that turns it: the heading is linear in
    # t and the position integrates rot(theta(t)) @ v in closed form.
    plant = omni_robot_team(n_agents=1, input_gain=100.0)
    u = np.array([1.0, 2.0, 15.0])
    v = plant.gain * plant.gbase @ u
    omega = math.radians(v[2])
    assert abs(v[2]) > 10.0  # degrees per second
    x0 = np.array([1.0, -2.0, 30.0])
    horizon = 2.0
    p0 = math.radians(x0[2])
    p1 = p0 + omega * horizon
    ds, dc = math.sin(p1) - math.sin(p0), math.cos(p1) - math.cos(p0)
    exact = np.array([
        x0[0] + (ds * v[0] + dc * v[1]) / omega,
        x0[1] + (-dc * v[0] + ds * v[1]) / omega,
        x0[2] + v[2] * horizon,
    ])
    np.testing.assert_allclose(step_rk4(plant, x0, u, np.zeros(3), horizon), exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("plant", [single_integrator(4, gain=2.5), omni_robot_team(3, input_gain=100.0)])
def test_two_steps_equal_one_double_step(plant):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, u, w = _draw(plant, rng)
        twice = step_rk4(plant, step_rk4(plant, x, u, w, 0.05), u, w, 0.05)
        np.testing.assert_allclose(twice, step_rk4(plant, x, u, w, 0.1), rtol=0.0, atol=1e-12)


def test_zero_turn_moves_in_a_straight_line():
    # The heading noise cancels the body turn exactly: phi == 0.
    plant = omni_robot_team(n_agents=1, input_gain=100.0)
    u = np.array([3.0, -1.0, 2.0])
    b20, b21, b22 = plant.gbody_rows[2]
    turn = b20 * u[0] + b21 * u[1] + b22 * u[2]
    assert turn != 0.0
    w = np.array([0.25, -0.5, -turn])
    x0 = np.array([1.0, -2.0, 30.0])
    dt = 0.5
    vx, vy, _ = plant.gbody @ u
    c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
    line = x0 + dt * np.array([c * vx - s * vy + w[0], s * vx + c * vy + w[1], 0.0])
    out = step_rk4(plant, x0, u, w, dt)
    assert out[2] == x0[2]
    np.testing.assert_allclose(out, line, rtol=0.0, atol=1e-12)


def test_rk4_noise_enters_additively():
    # With no input the omni heading noise turns nothing that moves.
    for plant in (single_integrator(2), omni_robot_team(n_agents=1, input_gain=100.0)):
        x = np.array([1.0, -2.0, 30.0])[: plant.n]
        w = np.array([0.5, -0.25, 2.0])[: plant.n]
        out = step_rk4(plant, x, np.zeros(plant.m), w, 0.1)
        assert out == pytest.approx(x + w * 0.1, abs=1e-15)

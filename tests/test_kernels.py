"""The batch read-out, the plain-float pointwise loop and the reference law agree."""

import numpy as np
import pytest

from stlfunnel import kernels
from stlfunnel.controller import continuous_law
from stlfunnel.formulas import SmoothingConfig
from stlfunnel.funnel import FunnelParams, PerformanceFunction
from stlfunnel.parsing import parse_psi
from stlfunnel.plants import omni_robot_team, single_integrator

from conftest import PSI1_TEXT, random_concave_psi


def _funnel(rho_max, gamma0, gamma_inf, l):
    return FunnelParams(
        t_star=1.0, r=0.25 * rho_max, rho_max=rho_max,
        perf=PerformanceFunction(gamma0=gamma0, gamma_inf=gamma_inf, l=l),
    )


def _assert_batch_matches_pointwise(X, T, psi, fp, plant, eta):
    U, XI = kernels.u_xi_batch(X, T, psi, fp, plant, eta)
    table = kernels.compile_leaf_table(psi)
    for p in range(X.shape[0]):
        xi, u = kernels.u_xi_eval(table, X[p], float(T[p]), eta, fp, plant)
        assert XI[p] == pytest.approx(xi, rel=1e-13, abs=1e-14)
        if -1.0 < xi < 0.0:
            np.testing.assert_allclose(U[p], u, rtol=1e-11, atol=1e-12)
            # The kernels' actuation fields describe the same g as plant.g.
            ref = continuous_law(X[p], float(T[p]), psi, fp, plant, SmoothingConfig(eta=eta))
            np.testing.assert_allclose(ref, u, rtol=1e-11, atol=1e-12)
        else:
            assert np.all(np.isnan(U[p])) and np.all(np.isnan(u))


def test_batch_matches_pointwise(rng):
    plant = omni_robot_team(3, input_gain=100.0)
    psi = parse_psi(PSI1_TEXT)
    P = 64
    X = rng.uniform(0.0, 90.0, (P, plant.n))
    T = rng.uniform(0.0, 10.0, P)
    _assert_batch_matches_pointwise(X, T, psi, _funnel(1.8, 50.0, 30.0, 0.05), plant, 1.0)
    # Random ball, join and affine conjunctions on single integrators.
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        psi = random_concave_psi(rng, dim, int(rng.integers(1, 5)))
        plant = single_integrator(dim, gain=float(rng.uniform(0.5, 2.0)))
        X = rng.uniform(-3.0, 3.0, (8, dim))
        T = rng.uniform(0.0, 5.0, 8)
        _assert_batch_matches_pointwise(X, T, psi, _funnel(0.5, 4.0, 1.0, 0.3), plant, 2.0)


def test_input_is_nan_outside_open_interval():
    plant = single_integrator(1)
    table = kernels.compile_leaf_table(parse_psi("ball(0;0;1)"))
    fp = _funnel(0.5, 1.0, 1.0, 0.0)
    # rho(0) = 1 with rho_max really low: xi >= 0.
    xi, u = kernels.u_xi_eval(table, np.zeros(1), 0.0, 1.0, fp, plant)
    assert xi >= 0.0 and np.isnan(u[0])
    # rho(5) = -4 far below the funnel floor: xi <= -1.
    xi, u = kernels.u_xi_eval(table, np.array([5.0]), 0.0, 1.0, fp, plant)
    assert xi <= -1.0 and np.isnan(u[0])

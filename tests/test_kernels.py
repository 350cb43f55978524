"""The batch read-out, the plain-float pointwise loop and the reference law agree."""

import numpy as np
import pytest

from stlfunnel import kernels
from stlfunnel.controller import continuous_law
from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig
from stlfunnel.funnel import FunnelParams, PerformanceFunction
from stlfunnel.parsing import parse_psi
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.predicates import affine, ball, join

from conftest import PSI1_TEXT, flipped, random_concave_psi


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


def _random_psi(rng, dim):
    """``random_concave_psi`` with some affine leaves written as ``not aff``
    and, sometimes, a ball that reads one state twice; one draw in four has
    a single leaf."""
    n_leaves = 1 if rng.random() < 0.25 else int(rng.integers(2, 6))
    leaves = [
        flipped(leaf) if rng.random() < 0.3 and leaf.kind == "affine" else leaf
        for leaf in random_concave_psi(rng, dim, n_leaves).leaves
    ]
    if n_leaves > 1 and rng.random() < 0.5:
        j, c = int(rng.integers(dim)), float(rng.uniform(-5.0, 5.0))
        leaves.append(ball((j, j), (c, c), float(rng.uniform(1.0, 8.0))))
    return NonTemporalFormula(leaves=tuple(leaves))


def _band_funnel(rng, pts, psi, eta):
    """A funnel wide enough that every row (x, t) of pts has xi inside the guard's band."""
    rho = kernels._softmin(kernels._leaf_readout(pts[:, :-1], psi)[2], eta)[0]
    spread = float(rho.max() - rho.min())
    rho_max = max(float(rho.max()) + 0.3 * spread + 0.1, 1.0)
    gamma_inf = 1.5 * (rho_max - float(rho.min())) + 0.1
    return _funnel(rho_max, float(rng.uniform(1.0, 3.0)) * gamma_inf, gamma_inf, float(rng.uniform(0.0, 1.0)))


@pytest.mark.parametrize("kind", ["integrator", "omni"])
def test_law_row_bound_covers_row_sums(rng, kind):
    # The bound that lets the trigger radius skip the Jacobian pass holds
    # at every probe row the guard accepts.  Each draw places a box
    # of rows (x, t) and a funnel wide enough that every row's xi lies in
    # the guard's band, and hands both functions the guard's read-outs
    # of two row blocks, joined once, as the radius loop does.
    for _ in range(150):
        if kind == "omni":
            plant = omni_robot_team(int(rng.integers(1, 4)), input_gain=float(rng.uniform(1.0, 100.0)))
        else:
            plant = single_integrator(int(rng.integers(1, 7)), gain=float(rng.uniform(0.5, 5.0)))
        n = plant.n
        psi = _random_psi(rng, n)
        eta = float(rng.uniform(0.3, 3.0))
        x = rng.uniform(-8.0, 8.0, n)
        width = float(rng.uniform(0.01, 3.0))
        first = psi.leaves[0]
        if first.kind == "ball" and rng.random() < 0.5:
            # Rows close to a ball's centre, where its curvature dominates.
            x[list(first.sel)] = first.center
            width = 10.0 ** rng.uniform(-3.0, -1.0)
        if kind == "omni":
            x[2::3] = rng.uniform(0.0, 360.0, n // 3)
        P = 48
        pts = np.column_stack([
            x + rng.uniform(-width, width, (P, n)), rng.uniform(0.0, 4.0, P),
        ])
        fp = _band_funnel(rng, pts, psi, eta)
        k = int(rng.integers(1, P))
        blocks = tuple(kernels.guarded_readout(b, psi, fp, eta) for b in (pts[:k], pts[k:]))
        assert all(b is not None for b in blocks)
        rows = kernels.joined_rows(blocks, psi, n)
        exact = kernels.law_row_sums(pts, psi, fp, plant, eta, rows).max()
        assert np.isfinite(exact)
        # Where the bound is tight, as when one leaf's |q| q^T term dominates,
        # the two sides round apart by a few ulps; the radius compares the
        # bound with a 1e-9 relative margin.
        assert kernels.law_row_bound(pts, psi, fp, plant, eta, rows) >= exact * (1.0 - 1e-12)


@pytest.mark.parametrize("kind", ["integrator", "omni"])
def test_batch_rows_are_independent(rng, kind):
    # Every batch function computes each row on its own: P rows at once
    # equal P one-row calls, and the bound over all rows is the largest
    # one-row bound.  A misplaced axis or transpose in the rows-last layout
    # mixes rows and fails this.  The conjunction has twelve leaves of every
    # kind, two of them ``not aff`` and one ball reading a state twice.  The
    # tolerance is relative to each array's largest entry, since BLAS may
    # add a one-row product in another order.
    if kind == "omni":
        plant = omni_robot_team(3, input_gain=40.0)
    else:
        plant = single_integrator(5, gain=1.7)
    n = plant.n
    leaves = list(random_concave_psi(rng, n, 7).leaves)
    leaves.append(flipped(affine((0, 2), (1.5, -0.5), 4.0)))
    leaves.append(flipped(affine((1, 3, 4), (-1.0, 0.25, 2.0), -6.0)))
    leaves.append(join((0,), (n - 1,), 12.0))
    leaves.append(affine((0, 1, 2), (0.5, -1.0, 0.25), 20.0))
    leaves.append(ball((1, 1), (2.0, 2.0), 9.0))
    psi = NonTemporalFormula(leaves=tuple(leaves))
    assert len(psi.leaves) == 12 and {leaf.kind for leaf in psi.leaves} == {"ball", "join", "affine"}
    eta = 0.8
    P = 40
    x = rng.uniform(-4.0, 4.0, n)
    if kind == "omni":
        x[2::3] = rng.uniform(0.0, 360.0, n // 3)
    pts = np.column_stack([x + rng.uniform(-0.5, 0.5, (P, n)), rng.uniform(0.0, 3.0, P)])
    fp = _band_funnel(rng, pts, psi, eta)

    def law(rows):
        return kernels.u_xi_batch(rows[:, :-1], rows[:, -1], psi, fp, plant, eta)

    def jacobian(rows):
        return kernels.law_jacobian_batch(rows[:, :-1], rows[:, -1], psi, fp, plant, eta)

    def row_sums(rows):
        return (kernels.law_row_sums(rows, psi, fp, plant, eta),)

    for fn in (law, jacobian, row_sums):
        whole = fn(pts)
        rows = [fn(pts[p : p + 1]) for p in range(P)]
        for k, full in enumerate(whole):
            assert full.shape[0] == P
            stacked = np.concatenate([row[k] for row in rows])
            atol = 1e-14 * float(np.abs(full).max())
            np.testing.assert_allclose(full, stacked, rtol=1e-14, atol=atol)

    def bound(rows, cut):
        blocks = tuple(kernels.guarded_readout(b, psi, fp, eta) for b in (rows[:cut], rows[cut:]) if len(b))
        assert all(b is not None for b in blocks)
        return kernels.law_row_bound(rows, psi, fp, plant, eta, kernels.joined_rows(blocks, psi, n))

    single = max(bound(pts[p : p + 1], 1) for p in range(P))
    assert bound(pts, 17) == pytest.approx(single, rel=1e-14, abs=0.0)


def test_value_is_bitwise_the_gradient_paths_value(rng):
    # The episode loop reads rho from smooth_rho at every sample and the
    # law from smooth_rho_grad only at events; both must see one value.
    seen = set()
    for _ in range(200):
        dim = int(rng.integers(1, 8))
        psi = _random_psi(rng, dim)
        seen.update(leaf.kind for leaf in psi.leaves)
        table = kernels.compile_leaf_table(psi)
        eta = float(rng.uniform(0.1, 5.0))
        xs = rng.uniform(-12.0, 12.0, dim).tolist()
        assert kernels.smooth_rho(table, xs, eta) == kernels.smooth_rho_grad(table, xs, eta)[0]
    assert seen == {"affine", "ball", "join"}
    # An overflowing norm is the value itself on both paths.
    table = kernels.compile_leaf_table(parse_psi("ball(0,1;0,0;1) and ball(0;2;3)"))
    xs = [1e300, 1e300]
    rho = kernels.smooth_rho(table, xs, 1.0)
    assert rho == -np.inf and rho == kernels.smooth_rho_grad(table, xs, 1.0)[0]

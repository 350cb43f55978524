"""The batch read-out, the plain-float pointwise loop and the reference law agree."""

import pickle

import numpy as np
import pytest

from stlfunnel import kernels
from stlfunnel.controller import _latin_hypercube, continuous_law
from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig
from stlfunnel.funnel import FunnelParams, PerformanceFunction
from stlfunnel.parsing import parse_psi
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.predicates import affine, ball, join

from conftest import PSI1_TEXT, flipped, random_concave_psi
from reference import hessian_form_stacked, latin_hypercube_columns


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
        assert XI[p] == xi
        if -1.0 < xi < 0.0:
            # u is close, not bitwise: the batch gradient is a BLAS product
            # (``_leaf_grads``), and the omni g^T associates its terms
            # differently on the two paths.
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
def test_batch_rows_are_independent(rng, kind):
    # Every batch function computes each row on its own: P rows at once
    # equal P one-row calls.  A misplaced axis or transpose in the rows-last layout
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


def test_value_is_bitwise_the_gradient_paths_value(rng):
    # The episode reads rho at a segment's rows with rho_rows and the law
    # from smooth_rho_grad only at events; both must see one value.  One to
    # twelve leaves of up to twelve slots, on integrators and on omni teams
    # (headings in degrees), in blocks of one row too: numpy sums a single
    # row pairwise from eight terms on, so both paths add one by one.
    seen, counts = set(), set()
    for i in range(400):
        omni = i % 2 == 1
        dim = 3 * int(rng.integers(1, 5)) if omni else int(rng.integers(1, 13))
        n_leaves = int(rng.integers(1, 13))
        psi = NonTemporalFormula(leaves=tuple(
            flipped(leaf) if leaf.kind == "affine" and rng.random() < 0.3 else leaf
            for leaf in random_concave_psi(rng, dim, n_leaves).leaves))
        seen.update(leaf.kind for leaf in psi.leaves)
        counts.add(n_leaves)
        table = kernels.compile_leaf_table(psi)
        eta = float(rng.uniform(0.1, 5.0))
        X = rng.uniform(-12.0, 12.0, (1 if i % 3 == 0 else int(rng.integers(2, 40)), dim))
        if omni:
            X[:, 2::3] = rng.uniform(0.0, 360.0, (X.shape[0], dim // 3))
        want = np.array([kernels.smooth_rho_grad(table, xs, eta)[0] for xs in X.tolist()])
        assert kernels.rho_rows(X, psi, eta).tobytes() == want.tobytes()
    assert seen == {"affine", "ball", "join"} and counts == set(range(1, 13))
    # An overflowing norm is the value itself on both paths.
    psi = parse_psi("ball(0,1;0,0;1) and ball(0;2;3)")
    xs = [1e300, 1e300]
    rho = kernels.rho_rows(np.array([xs]), psi, 1.0)[0]
    assert rho == -np.inf and rho == kernels.smooth_rho_grad(kernels.compile_leaf_table(psi), xs, 1.0)[0]


def test_soft_minimum_rounds_alike_on_both_paths(rng):
    # One state's soft minimum (_softmin_point, a list) and many rows'
    # (_softmin, an array) must agree bitwise.  math.log and np.log differ
    # on few sums z, so the values are drawn directly, 2000 rows per leaf
    # count 2-12, in [-3, 3], at eta 1 and 0.2.
    for eta in (1.0, 0.2):
        for n_leaves in range(2, 13):
            H = rng.uniform(-3.0, 3.0, (n_leaves, 2000))
            want = kernels._softmin(H, eta)[0]
            got = np.array([kernels._softmin_point(h, eta)[0] for h in H.T.tolist()])
            assert got.tobytes() == want.tobytes(), (eta, n_leaves)


@pytest.mark.parametrize("f, lo, hi", [(np.exp, -50.0, 0.0), (np.log, 1.0, 12.0)])
def test_numpy_rounds_a_float_as_an_array_element(rng, f, lo, hi):
    # One state takes exp and log of Python floats and many rows take them
    # of arrays; the two paths agree bitwise only if numpy rounds both
    # alike.  The funnel width's exp(-l t) over -l t in [-50, 0] and the
    # soft minimum's log(z) over z in [1, 12], at lengths 1-40, each value
    # at every position of its array, on aligned and shifted buffers.
    for size in range(1, 41):
        buf = rng.uniform(lo, hi, 25 * size + 1)
        for start in (0, 1):
            rows = buf[start:start + 25 * size].reshape(25, size)
            got = np.array([f(row) for row in rows])
            want = np.array([[f(v) for v in row] for row in rows.tolist()])
            assert got.tobytes() == want.tobytes(), (f.__name__, size, start)


@pytest.mark.parametrize("kind", ["integrator", "omni"])
def test_slot_space_curvature_matches_stacked_form(rng, monkeypatch, kind):
    # _hessian_form builds the leaf curvature as sum_i A_i^T B_i A_i with
    # W x W slot blocks B_i, through one cached map; the earlier form
    # contracted the stacked leaf gradients.  Both agree to rounding, on
    # random blocks and through the law Jacobian, with selectors that
    # repeat within a ball and a join.
    if kind == "omni":
        plant = omni_robot_team(3, input_gain=40.0)
        psi = parse_psi(PSI1_TEXT + " and join(0,0;3,3;60) and ball(4,4;50,50;90)")
    else:
        plant = single_integrator(4, gain=1.7)
        psi = parse_psi("ball(0,0;1,1;3) and join(0,0;1,1;3) and ball(0,1;1,2;4) "
                        "and aff(0.5,-0.25,0,1;3) and not aff(0,0,2,0.5;-9) and join(2,3;0,1;8)")
    n = plant.n
    mp = kernels._leaf_maps(psi, n)
    L, W = mp.ia.shape
    P = 33
    args = (rng.normal(size=(L, W, P)), rng.normal(size=(n, P)), rng.normal(size=(L, P)),
            rng.normal(size=P), rng.normal(size=(L, P)))
    got = kernels._hessian_form(*args, kernels._slot_map(psi, n))
    want = hessian_form_stacked(*args, mp.grad)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * float(np.abs(want).max()))

    x = rng.uniform(0.0, 90.0, n) if kind == "omni" else rng.uniform(-2.0, 2.0, n)
    pts = np.column_stack([x + rng.uniform(-1.0, 1.0, (P, n)), rng.uniform(0.0, 3.0, P)])
    fp = _band_funnel(rng, pts, psi, 1.0)
    new = kernels.law_jacobian_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, 1.0)
    monkeypatch.setattr(kernels, "_hessian_form",
                        lambda *a: hessian_form_stacked(*a[:-1], mp.grad))
    old = kernels.law_jacobian_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, 1.0)
    for got, want in zip(new, old):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * float(np.abs(want).max()))


def test_latin_hypercube_draws_what_the_column_form_drew():
    # Permuting the rows of (dims, count) strata gives bitwise the points
    # and the generator state of permuting the columns of (count, dims).
    for dims in range(1, 14):
        for count in (1, 2, 64, 100, 256):
            for seed in (0, 7, 2**32 - 1):
                new, old = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _latin_hypercube(dims, count, new)
                want = latin_hypercube_columns(dims, count, old)
                assert got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
                assert new.bit_generator.state == old.bit_generator.state


def test_formula_hash_is_kept_and_equality_unchanged():
    # The per-formula caches hash a conjunction on every lookup; it hashes
    # its leaves once.  Equal leaves still compare and hash equal, an equal
    # formula finds the same cache entry, and a pickle carries no hash.
    psi, same = parse_psi(PSI1_TEXT), parse_psi(PSI1_TEXT)
    assert psi is not same and psi == same and hash(psi) == hash(same) == hash(psi.leaves)
    assert psi != parse_psi("ball(0;0;1)")
    assert kernels._leaf_maps(same, 9) is kernels._leaf_maps(psi, 9)
    assert "_hash" in vars(psi)
    copy = pickle.loads(pickle.dumps(psi))
    assert "_hash" not in vars(copy) and copy == psi and hash(copy) == hash(psi)

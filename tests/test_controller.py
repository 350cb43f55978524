"""Feedback law, analytic Jacobians, trigger radii, and hold rules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stlfunnel import controller, kernels
from stlfunnel.kernels import (
    _leaf_readout, _readout, guarded_readout, joined_rows, law_jacobian_batch, law_row_sums,
)
from stlfunnel.controller import (
    TriggerConfig,
    TriggerEvent,
    _corners,
    _latin_hypercube,
    _probe_points,
    compute_trigger_radius,
    continuous_law,
    make_event,
    should_trigger,
)
from stlfunnel.errors import FunnelViolation, TriggerFloorError
from stlfunnel.formulas import SmoothingConfig
from stlfunnel.funnel import FunnelParams, PerformanceFunction
from stlfunnel.parsing import parse_psi
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.scenario import build_episode, bundled_scenario_path, load_scenario
from stlfunnel.sequencer import init_sequencer
from conftest import PSI1_TEXT


def _flat_funnel(rho_max=0.5, width=1.0):
    return FunnelParams(
        t_star=1.0, r=0.25 * rho_max, rho_max=rho_max,
        perf=PerformanceFunction(gamma0=width, gamma_inf=width, l=0.0),
    )


def _narrowing_funnel():
    return FunnelParams(
        t_star=5.0, r=1.0, rho_max=4.0,
        perf=PerformanceFunction(gamma0=12.0, gamma_inf=2.5, l=0.4),
    )


def test_law_hand_computed_1d():
    # rho = 1 - |x|; at x = 0.9: rho = 0.1, xi = -0.4,
    # eps = ln(0.6/0.4), grad rho = -1, and u = +eps toward the origin.
    psi = parse_psi("ball(0;0;1)")
    fp = _flat_funnel()
    plant = single_integrator(1)
    u = continuous_law(np.array([0.9]), 0.0, psi, fp, plant)
    assert u == pytest.approx([math.log(1.5)], rel=1e-12)


def test_law_transform_values():
    # rho = 1 - |x| in a flat unit-width funnel at rho_max = 0.5, so
    # x = 0.5 - xi puts the error at xi and u = S(xi) with unit gain.
    # S maps (-1, 0) onto the reals, increasing, with S(-1/2) = 0.
    psi = parse_psi("ball(0;0;1)")
    fp = _flat_funnel()
    plant = single_integrator(1)

    def S(xi):
        return continuous_law(np.array([0.5 - xi]), 0.0, psi, fp, plant)[0]

    assert S(-0.5) == pytest.approx(0.0, abs=1e-12)
    assert S(-0.31) == pytest.approx(math.log(0.69 / 0.31))
    assert S(-0.69) == pytest.approx(-math.log(0.69 / 0.31))


def test_law_funnel_error_inside_and_outside():
    psi = parse_psi("ball(0;0;1)")
    fp = _flat_funnel()
    plant = single_integrator(1, gain=2.0)
    # rho = 0.1: e = xi = -0.4 and u = gain * S(-0.4).
    u = continuous_law(np.array([0.9]), 0.0, psi, fp, plant)
    assert u == pytest.approx([2.0 * math.log(0.6 / 0.4)], rel=1e-12)
    with pytest.raises(FunnelViolation) as below:
        continuous_law(np.array([5.0]), 0.0, psi, fp, plant)  # rho < rho_max - gamma
    assert below.value.xi == pytest.approx(-4.5)
    with pytest.raises(FunnelViolation) as above:
        continuous_law(np.array([0.0]), 0.0, psi, fp, plant)  # rho = 1.0 > rho_max
    assert above.value.xi == pytest.approx(0.5)


def test_law_pushes_toward_satisfaction():
    psi = parse_psi("ball(0,1;5,5;3)")
    fp = _flat_funnel(rho_max=2.0, width=12.0)
    plant = single_integrator(2)
    x = np.array([0.0, 0.0])
    u = continuous_law(x, 0.0, psi, fp, plant)
    direction = u / np.linalg.norm(u)
    to_target = np.array([5.0, 5.0]) / math.sqrt(50.0)
    assert direction == pytest.approx(to_target, abs=1e-9)


def _law_jacobian(x, t, psi, fp, plant, sm):
    """(du/dx, du/dt) at one state from the batch Jacobian, or None outside the funnel."""
    du_dx, du_dt, xi = law_jacobian_batch(x[None, :], np.array([t]), psi, fp, plant, sm.eta)
    if not -1.0 < xi[0] < 0.0:
        return None
    return du_dx[0], du_dt[0]


def test_law_jacobian_matches_fd_integrator(rng):
    psi = parse_psi("ball(0,1;1,2;4) and aff(0.5,-0.25;3) and join(0;1;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2, gain=1.5)
    sm = SmoothingConfig(eta=1.2)
    checked = 0
    for _ in range(40):
        x = rng.uniform(-2, 4, 2)
        t = float(rng.uniform(0.0, 4.0))
        jac = _law_jacobian(x, t, psi, fp, plant, sm)
        if jac is None:
            continue
        du_dx, du_dt = jac
        checked += 1
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (
                continuous_law(x + e, t, psi, fp, plant, sm)
                - continuous_law(x - e, t, psi, fp, plant, sm)
            ) / (2 * h)
            assert du_dx[:, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        fd_t = (
            continuous_law(x, t + h, psi, fp, plant, sm)
            - continuous_law(x, t - h, psi, fp, plant, sm)
        ) / (2 * h)
        assert du_dt == pytest.approx(fd_t, rel=1e-5, abs=1e-7)
    assert checked >= 10


def test_law_jacobian_matches_fd_omni(rng):
    # Orientation states enter the actuation matrix; the Jacobian must
    # include that dependence (converted from degrees).
    psi = parse_psi(PSI1_TEXT)
    fp = FunnelParams(
        t_star=50.0, r=0.5, rho_max=1.8,
        perf=PerformanceFunction(gamma0=50.0, gamma_inf=30.0, l=0.05),
    )
    plant = omni_robot_team(n_agents=3, input_gain=100.0)
    sm = SmoothingConfig(eta=1.0)
    base = np.array([10.0, 10.0, 0.0, 38.0, 57.0, 0.0, 80.0, 15.0, 0.0])
    checked = 0
    for _ in range(30):
        x = base + rng.uniform(-2, 2, 9)
        t = float(rng.uniform(0.0, 6.0))
        jac = _law_jacobian(x, t, psi, fp, plant, sm)
        if jac is None:
            continue
        du_dx, du_dt = jac
        checked += 1
        h = 1e-6
        for i in range(9):
            e = np.zeros(9)
            e[i] = h
            fd = (
                continuous_law(x + e, t, psi, fp, plant, sm)
                - continuous_law(x - e, t, psi, fp, plant, sm)
            ) / (2 * h)
            assert du_dx[:, i] == pytest.approx(fd, rel=2e-5, abs=1e-6)
        fd_t = (
            continuous_law(x, t + h, psi, fp, plant, sm)
            - continuous_law(x, t - h, psi, fp, plant, sm)
        ) / (2 * h)
        assert du_dt == pytest.approx(fd_t, rel=2e-5, abs=1e-8)
    assert checked >= 10


def _batch_u_xi(pts, psi, fp, plant, smoothing):
    """Law and funnel error per probe row (x, t) from the batch law."""
    return kernels.u_xi_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, smoothing.eta)


def _fd_row_sums(pts, psi, fp, plant, sm, h=1e-6):
    """sum_k |du_j/dz_k| from central differences of the batch law."""
    rows = np.zeros((pts.shape[0], plant.m))
    for k in range(pts.shape[1]):
        shift = np.zeros(pts.shape[1])
        shift[k] = h
        up, _ = _batch_u_xi(pts + shift, psi, fp, plant, sm)
        dn, _ = _batch_u_xi(pts - shift, psi, fp, plant, sm)
        rows += np.abs(up - dn) / (2 * h)
    return rows


def _assert_in_funnel(pts, psi, fp, plant, sm):
    _, xi = _batch_u_xi(pts, psi, fp, plant, sm)
    assert np.all((xi > -1.0) & (xi < 0.0))


def test_law_row_sums_match_fd_integrator(rng):
    # ball, join and affine leaves; x2 also sits in a wide ball whose
    # softmin weight is about e^-45, so the law's kink at that ball's
    # centre stays far below difference resolution.  The last point is
    # that centre: the zero-gradient convention must give the same
    # finite rows as the differences, not 0/0.
    psi = parse_psi(
        "ball(0,1;1,2;4) and aff(0.5,-0.25,0;3) and join(0;1;6) "
        "and aff(0,0,1;2) and ball(2;0;40)"
    )
    fp = _narrowing_funnel()
    plant = single_integrator(3, gain=1.5)
    sm = SmoothingConfig(eta=1.2)
    x = np.array([0.5, 1.0, 0.3])
    probes = _probe_points(
        x, 0.2, 0.3, 0.3, TriggerConfig(sample_count=64),
        int(rng.integers(2**32)), _corners(x, 0.2, 0.3, 0.3, rng),
    )
    pts = np.vstack([probes, [[0.5, 1.0, 0.0, 0.4]]])
    _assert_in_funnel(pts, psi, fp, plant, sm)
    rows = law_row_sums(pts, psi, fp, plant, sm.eta)
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows, _fd_row_sums(pts, psi, fp, plant, sm), rtol=1e-6, atol=0.0)


def test_law_row_sums_match_fd_omni(rng):
    # n = 9 with random headings: the rows include the heading column of
    # the rotated actuation and the time column of the funnel.
    psi = parse_psi(
        "ball(0,1;12,11;10) and ball(3,4;39,58;10) and join(0,1;6,7;78) "
        "and aff(0,0,0.05;30) and ball(8;180;200)"
    )
    fp = FunnelParams(
        t_star=50.0, r=0.5, rho_max=12.0,
        perf=PerformanceFunction(gamma0=200.0, gamma_inf=150.0, l=0.05),
    )
    plant = omni_robot_team(n_agents=3, input_gain=100.0)
    sm = SmoothingConfig(eta=1.0)
    tc = TriggerConfig(sample_count=32)
    base = np.array([10.0, 10.0, 0.0, 38.0, 57.0, 0.0, 80.0, 15.0, 0.0])
    boxes = []
    for _ in range(3):
        x = base + rng.uniform(-2.0, 2.0, 9)
        x[2::3] = rng.uniform(0.0, 360.0, 3)
        t = float(rng.uniform(0.0, 6.0))
        seed = int(rng.integers(2**32))
        boxes.append(_probe_points(x, t, 1.0, 1.0, tc, seed, _corners(x, t, 1.0, 1.0, rng)))
    pts = np.vstack(boxes)
    _assert_in_funnel(pts, psi, fp, plant, sm)
    rows = law_row_sums(pts, psi, fp, plant, sm.eta)
    np.testing.assert_allclose(rows, _fd_row_sums(pts, psi, fp, plant, sm), rtol=1e-6, atol=0.0)


def test_trigger_radius_pinned_to_finite_difference_radius():
    # Bundled scenario, x0, phase 1 at funnel time 0, default_rng(7).
    # The expected radii were computed by the earlier central-difference
    # Lipschitz estimate (step 1e-6, 2(n+1) batch-law calls) on the same
    # probe points.  At the scenario's delta_u = 50 the box term binds
    # (0.5 halved twice by the funnel guard); at delta_u = 5 the
    # Lipschitz term delta_u / L_z binds.
    spec = build_episode(load_scenario(bundled_scenario_path()))
    x0 = np.asarray(spec.x0, dtype=float)
    z = init_sequencer(spec.theta, x0, spec.seq_cfg)
    assert z.q == 1
    for delta_u, fd_radius in ((50.0, 0.125), (5.0, 0.1131052226669569)):
        tc = replace(spec.trigger, delta_u=delta_u)
        delta, _ = compute_trigger_radius(
            x0, z.t_local + z.offset, z.psi, z.fp, spec.plant, tc,
            spec.seq_cfg.smoothing, np.random.default_rng(7),
        )
        assert delta == pytest.approx(fd_radius, rel=1e-6)


def _reference_probe_points(x, t, bx, bt, tc, rng):
    """Probe points as drawn by one full round: seed, hypercube rows, then corners.

    The rows are a Latin hypercube from the seed's own generator: per
    coordinate, a permutation of the strata plus a uniform offset.
    """
    dims = x.shape[0] + 1
    count = tc.sample_count
    gen = np.random.default_rng(int(rng.integers(2**32)))
    perm = gen.permuted(np.tile(np.arange(count), (dims, 1)), axis=1).T
    unit = (perm + gen.random((count, dims))) / count
    pts = np.empty((count, dims))
    pts[:, :-1] = x + (2.0 * unit[:, :-1] - 1.0) * bx
    pts[:, -1] = t + unit[:, -1] * bt
    return np.vstack([pts, _corners(x, t, bx, bt, rng)])


def _reference_trigger_radius(x, t, psi, fp, plant, tc, sm, rng):
    """The radius loop that draws and checks every probe of a round at once.

    Each round builds all probe points, checks xi at every one of them
    with the batch kernel and halves the box on any failure.  Returns
    the radius and the number of rounds.
    """
    bx, bt = tc.delta_x0, tc.delta_t0
    rounds = 1
    while True:
        pts = _reference_probe_points(x, t, bx, bt, tc, rng)
        _, xi = _batch_u_xi(pts, psi, fp, plant, sm)
        if np.all((xi > -1.0 + 1e-3) & (xi < -1e-3)):
            break
        bx *= tc.shrink
        bt *= tc.shrink
        rounds += 1
        if min(bx, bt) < tc.delta_floor:
            raise TriggerFloorError(t, "no admissible box")
    l_z = float(law_row_sums(pts, psi, fp, plant, sm.eta).max()) * tc.lipschitz_safety
    delta = min(tc.delta_u / l_z if l_z > 0.0 else math.inf, bx, bt)
    if delta < tc.delta_floor:
        raise TriggerFloorError(t, "delta below floor")
    return delta, rounds


# Each case's delta_u makes delta_u / L_z the binding term, so the
# radius is the largest Jacobian row sum over the accepted round's
# probes.  In most cases that row is a corner; in the interior case it
# is a hypercube row, so that case also pins the hypercube points.
def _bundled_phase1_case():
    spec = build_episode(load_scenario(bundled_scenario_path()))
    x0 = np.asarray(spec.x0, dtype=float)
    z = init_sequencer(spec.theta, x0, spec.seq_cfg)
    return (x0, z.t_local + z.offset, z.psi, z.fp, spec.plant,
            replace(spec.trigger, delta_u=5.0), spec.seq_cfg.smoothing)


def _integrator_wall_case():
    # rho(x) = -0.15 against a lower wall near -0.28 at t = 0.3.
    psi = parse_psi("ball(0,1;0,0;1) and aff(0.5,-0.25;3) and join(0;1;4)")
    fp = FunnelParams(
        t_star=5.0, r=0.2, rho_max=0.9,
        perf=PerformanceFunction(gamma0=1.2, gamma_inf=1.0, l=0.4),
    )
    return (np.array([0.8, 0.8]), 0.3, psi, fp, single_integrator(2, gain=1.5),
            TriggerConfig(delta_u=2.0), SmoothingConfig())


def _integrator_peak_case():
    # x sits 0.02 from the ball's centre, where rho peaks above the upper
    # wall: every corner passes, and rounds fail at interior hypercube rows.
    psi = parse_psi("ball(0;0;1)")
    fp = _flat_funnel(rho_max=0.99, width=1.0)
    return (np.array([0.02]), 0.0, psi, fp, single_integrator(1),
            TriggerConfig(delta_u=0.02), SmoothingConfig())


def _omni4_case():
    # n = 12: 2^13 box vertices, so the corners are a random subsample
    # of _CORNER_CAP rows drawn after the hypercube seed.
    psi = parse_psi(
        "ball(0,1;20,30;10) and ball(3,4;40,60;10) and ball(6,7;60,30;10) "
        "and ball(9,10;30,80;10) and join(0,1;6,7;30) and join(3,4;9,10;40) "
        "and ball(2;45;5) and ball(5;45;5) and ball(8;45;5) and ball(11;45;5)"
    )
    fp = FunnelParams(
        t_star=50.0, r=0.5, rho_max=1.8,
        perf=PerformanceFunction(gamma0=43.8, gamma_inf=30.0, l=0.05),
    )
    x = np.array([10.0, 10.0, 0.0, 38.0, 57.0, 0.0, 80.0, 15.0, 0.0, 25.0, 85.0, 0.0])
    return (x, 0.0, psi, fp, omni_robot_team(n_agents=4, input_gain=100.0),
            TriggerConfig(delta_u=1.0), SmoothingConfig())


def _integrator_interior_case():
    # The ball's law is steepest near its centre, inside the box, so the
    # largest row sum sits at a hypercube row, not at a corner.
    psi = parse_psi("ball(0,1;0,0;3)")
    return (np.array([0.6, 0.0]), 0.2, psi, _narrowing_funnel(), single_integrator(2),
            TriggerConfig(delta_u=0.5), SmoothingConfig())


@pytest.mark.parametrize(
    "case, rounds",
    [
        (_bundled_phase1_case, 3),
        (_integrator_wall_case, 5),
        (_integrator_peak_case, 7),
        (_omni4_case, 3),
        (_integrator_interior_case, 1),
    ],
    ids=["bundled-phase1", "integrator-wall", "integrator-peak", "omni4", "integrator-interior"],
)
def test_corner_first_guard_matches_full_round(case, rounds):
    # Checking the corners before building the hypercube rows is only an
    # early exit: the radius and the rng stream after the call are the
    # same as when every round draws and checks all probes at once.
    x, t, psi, fp, plant, tc, sm = case()
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    expected, ref_rounds = _reference_trigger_radius(x, t, psi, fp, plant, tc, sm, ref_rng)
    assert ref_rounds == rounds
    assert expected < tc.delta_x0 * tc.shrink ** (rounds - 1)
    assert compute_trigger_radius(x, t, psi, fp, plant, tc, sm, rng) == (expected, "lipschitz")
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "delta_u, delta_by", [(50.0, "bound"), (7.0, "box"), (5.0, "lipschitz")]
)
def test_omni_radius_equals_exact_row_sums_radius(delta_u, delta_by):
    # n = 9: the 2^10 corners outnumber the 256 hypercube rows, so the
    # radius tries the row bound first.  At delta_u = 50 the bound settles
    # the box term without the Jacobian pass; at 7 it does not, and the
    # pass finds that the box term binds anyway; at 5 delta_u / L_z binds.
    # Each way the radius and the rng stream equal the full round's
    # min(delta_u / (safety * max row sum), box_x, box_t).
    x, t, psi, fp, plant, tc, sm = _bundled_phase1_case()
    tc = replace(tc, delta_u=delta_u)
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    expected, _ = _reference_trigger_radius(x, t, psi, fp, plant, tc, sm, ref_rng)
    assert compute_trigger_radius(x, t, psi, fp, plant, tc, sm, rng) == (expected, delta_by)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_row_bound_runs_only_where_corners_outnumber_rows(monkeypatch):
    # Where the 2^(n+1) corners are no more than the hypercube rows the
    # Jacobian pass is cheap, and the radius never computes the bound.
    def refuse(*args):
        raise AssertionError("law_row_bound called")

    monkeypatch.setattr(controller, "law_row_bound", refuse)
    for case in (_integrator_wall_case, _integrator_peak_case, _integrator_interior_case):
        x, t, psi, fp, plant, tc, sm = case()
        compute_trigger_radius(x, t, psi, fp, plant, tc, sm, np.random.default_rng(7))
    x, t, psi, fp, plant, tc, sm = _bundled_phase1_case()
    at_par = replace(tc, delta_u=50.0, sample_count=1024)
    assert compute_trigger_radius(x, t, psi, fp, plant, at_par, sm, np.random.default_rng(7))[1] == "box"
    with pytest.raises(AssertionError, match="law_row_bound called"):
        compute_trigger_radius(
            x, t, psi, fp, plant, replace(at_par, sample_count=1023), sm, np.random.default_rng(7)
        )


def test_interior_case_peaks_at_a_hypercube_row():
    # The interior case's accepted round is its first: there the largest
    # row sum is a hypercube row's, about five times the corners' largest.
    x, t, psi, fp, plant, tc, sm = _integrator_interior_case()
    rng = np.random.default_rng(7)
    seed = int(rng.integers(2**32))
    corners = _corners(x, t, tc.delta_x0, tc.delta_t0, rng)
    pts = _probe_points(x, t, tc.delta_x0, tc.delta_t0, tc, seed, corners)
    rows = law_row_sums(pts, psi, fp, plant, sm.eta).max(axis=1)
    assert rows[: tc.sample_count].max() > 4.0 * rows[tc.sample_count :].max()


@pytest.mark.parametrize("count", [64, 100, 256])
def test_latin_hypercube_probes_stratify_the_box(rng, count):
    # The probe rows are a Latin hypercube for any count: a power of two
    # or not, each coordinate has one point in each stratum of width 1/count.
    tc = TriggerConfig(sample_count=count)
    every = np.arange(count, dtype=float)[:, None]
    for dims in range(2, 14):
        for seed in (0, 1, 12345, 2**32 - 1):
            unit = _latin_hypercube(dims, count, seed)
            assert unit.shape == (count, dims)
            assert np.all((unit >= 0.0) & (unit <= 1.0))
            strata = np.sort(np.floor(unit * count), axis=0)
            np.testing.assert_array_equal(strata, np.broadcast_to(every, unit.shape))
            x = rng.uniform(-5.0, 5.0, dims - 1)
            t = float(rng.uniform(0.0, 3.0))
            bx, bt = rng.uniform(0.01, 1.0, 2)
            corners = _corners(x, t, bx, bt, rng)
            pts = _probe_points(x, t, bx, bt, tc, seed, corners)
            rows = pts[:count]
            assert np.all((rows[:, :-1] >= x - bx) & (rows[:, :-1] <= x + bx))
            assert np.all((rows[:, -1] >= t) & (rows[:, -1] <= t + bt))
            np.testing.assert_array_equal(pts[count:], corners)


def test_guard_blocks_feed_the_jacobian_unchanged():
    # The radius loop hands law_row_sums the guard's read-outs of the
    # hypercube block and of the corner block, joined by ``joined_rows``.
    # Every read-out field is computed row by row, so the rows sums equal
    # one pass over the stacked probe rows bit for bit.
    x, t, psi, fp, plant, tc, sm = _bundled_phase1_case()
    rng = np.random.default_rng(7)
    seed = int(rng.integers(2**32))
    corners = _corners(x, t, 0.125, 0.125, rng)
    pts = _probe_points(x, t, 0.125, 0.125, tc, seed, corners)
    blocks = tuple(guarded_readout(b, psi, fp, sm.eta) for b in (pts[: tc.sample_count], corners))
    assert all(b is not None for b in blocks)
    np.testing.assert_array_equal(
        law_row_sums(pts, psi, fp, plant, sm.eta, joined_rows(blocks, psi, x.shape[0])),
        law_row_sums(pts, psi, fp, plant, sm.eta),
    )


@pytest.mark.parametrize(
    "text, norm_only",
    [
        ("ball(0,1;1,2;4) and ball(2;0;3)", True),
        ("join(0;1;6) and join(0,1;2,3;5) and ball(1,2;0.5,-1;3)", True),
        ("ball(0,1;1,2;4) and not aff(0,0,2;-0.5)", False),
        ("join(0;3;0.25) and not aff(1,0,0,-1;0.25)", False),
        ("aff(0.5,-0.25,0.1;3) and ball(0,1;1,2;4)", False),
        ("aff(0,0,1;2) and not aff(1,1,0,0.3;-6) and join(1;2;5)", False),
    ],
)
def test_guard_readout_xi_matches_batch_kernel(rng, text, norm_only):
    # The guard's leaf values and xi, from the batch read-out, against the
    # plain-float pointwise loop.  Both sum each leaf's terms in selector
    # order without BLAS, so ball, join and affine values agree bit for
    # bit.  xi also goes through exp and log, which numpy's vectorized
    # routines and the math module may round one ulp apart.  The last two
    # rows sit at norm centres: the first at ball(0,1;1,2;4)'s, the
    # origin at every join's and ball(2;0;3)'s.
    psi = parse_psi(text)
    assert norm_only == all(leaf.kind != "affine" for leaf in psi.leaves)
    fp = _narrowing_funnel()
    plant = single_integrator(4)
    sm = SmoothingConfig(eta=1.3)
    pts = np.column_stack([rng.uniform(-3.0, 5.0, (200, 4)), rng.uniform(0.0, 6.0, 200)])
    pts = np.vstack([pts, [[1.0, 2.0, 2.0, 0.0, 0.7], [0.0, 0.0, 0.0, 0.0, 0.0]]])
    _, _, h = _leaf_readout(pts[:, :-1], psi)
    got = _readout(pts[:, :-1], pts[:, -1], psi, fp, sm.eta).xi
    table = kernels.compile_leaf_table(psi)
    want_h = np.array([kernels.leaf_pass(table, p[:-1].tolist())[0] for p in pts])
    want = np.array([kernels.u_xi_eval(table, p[:-1], p[-1], sm.eta, fp, plant)[0] for p in pts])
    # The read-out keeps rows along its last axis: h is (leaves, rows).
    np.testing.assert_array_equal(h.T, want_h)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_trigger_config_rejects_empty_probe_set():
    for count in (0, -8):
        with pytest.raises(ValueError, match="sample_count"):
            TriggerConfig(sample_count=count)
    for count in (1, 3, 100):
        assert TriggerConfig(sample_count=count).sample_count == count


@pytest.mark.parametrize("field", ["delta_u", "delta_x0", "delta_t0", "delta_floor", "lipschitz_safety"])
def test_trigger_config_rejects_nan(field):
    # A NaN radius would stop both trigger tests from ever firing again.
    with pytest.raises(ValueError, match="trigger lengths|lipschitz_safety"):
        TriggerConfig(**{field: math.nan})


def test_trigger_strict_inequalities():
    ev = TriggerEvent(
        index=0, t=1.0, x=np.zeros(2), u=np.zeros(2), delta=0.5, cause="Initial", delta_by="box"
    )
    # Exactly at the radius or the interval: hold.
    assert should_trigger(np.array([0.5, 0.0]), 1.0, ev) is None
    assert should_trigger(np.zeros(2), 1.5, ev) is None
    # Strictly beyond: fire, state deviation first.
    assert should_trigger(np.array([0.5001, 0.0]), 1.0, ev) == "StateDeviation"
    assert should_trigger(np.zeros(2), 1.5001, ev) == "MaxInterval"
    assert should_trigger(np.array([0.6, 0.0]), 2.0, ev) == "StateDeviation"


def test_trigger_radius_bounds_input_deviation(rng):
    # Design bound, checked empirically: everywhere inside the trigger
    # box the continuous law stays within delta_u of the event input.
    psi = parse_psi("ball(0,1;4,4;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2)
    tc = TriggerConfig(delta_u=0.5, sample_count=128)
    sm = SmoothingConfig()
    x_i = np.array([1.0, 1.0])
    t_i = 0.5
    delta, _ = compute_trigger_radius(x_i, t_i, psi, fp, plant, tc, sm, rng)
    assert delta >= tc.delta_floor
    u_i = continuous_law(x_i, t_i, psi, fp, plant, sm)
    worst = 0.0
    for _ in range(500):
        x = x_i + rng.uniform(-delta, delta, 2)
        t = t_i + float(rng.uniform(0.0, delta))
        u = continuous_law(x, t, psi, fp, plant, sm)
        worst = max(worst, float(np.max(np.abs(u - u_i))))
    assert worst <= tc.delta_u + 1e-9


def test_trigger_radius_deterministic_given_rng():
    psi = parse_psi("ball(0,1;4,4;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2)
    tc = TriggerConfig(delta_u=1.0)
    a = compute_trigger_radius(
        np.array([1.0, 1.0]), 0.0, psi, fp, plant, tc, rng=np.random.default_rng(5)
    )
    b = compute_trigger_radius(
        np.array([1.0, 1.0]), 0.0, psi, fp, plant, tc, rng=np.random.default_rng(5)
    )
    assert a == b


def test_trigger_floor_near_funnel_boundary():
    # rho(x0) just inside the lower wall: no admissible sampling box.
    psi = parse_psi("ball(0;0;1)")
    fp = FunnelParams(
        t_star=1.0, r=0.1, rho_max=0.9,
        perf=PerformanceFunction(gamma0=1.0, gamma_inf=1.0, l=0.0),
    )
    plant = single_integrator(1)
    x = np.array([1.0999999])  # rho just above rho_max - gamma = -0.1
    tc, sm = TriggerConfig(), SmoothingConfig()
    ref_rng, rng = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(TriggerFloorError):
        _reference_trigger_radius(x, 0.0, psi, fp, plant, tc, sm, ref_rng)
    with pytest.raises(TriggerFloorError):
        compute_trigger_radius(x, 0.0, psi, fp, plant, tc, sm, rng)
    # Rounds rejected at the corners draw from the rng as full rounds do.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_make_event_snapshots_state_and_input():
    # The event holds the caller's input as given and adds the radius.
    psi = parse_psi("ball(0,1;4,4;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2)
    tc = TriggerConfig()
    x = np.array([1.0, 2.0])
    u = continuous_law(x, 0.25, psi, fp, plant)
    ev = make_event(psi, fp, x, 0.25, u, 3, "Initial", plant, tc, rng=np.random.default_rng(4))
    x[0] = 9.0  # the event keeps its own copy of the state
    assert ev.index == 3 and ev.cause == "Initial" and ev.t == 0.25
    np.testing.assert_array_equal(ev.x, [1.0, 2.0])
    assert ev.u is u
    want = compute_trigger_radius(
        np.array([1.0, 2.0]), 0.25, psi, fp, plant, tc, rng=np.random.default_rng(4)
    )
    assert (ev.delta, ev.delta_by) == want and ev.delta > 0.0

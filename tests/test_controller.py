"""Feedback law, analytic Jacobians, trigger radii, and hold rules."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from stlfunnel import controller, kernels
from stlfunnel.kernels import (
    _leaf_readout, _readout, band_holds, law_jacobian_batch, law_row_sums,
)
from stlfunnel.controller import (
    TriggerConfig,
    TriggerEvent,
    _latin_hypercube,
    _probe_points,
    compute_trigger_radius,
    continuous_law,
    make_event,
    should_trigger,
)
from stlfunnel.errors import FunnelViolation, TriggerFloorError
from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig
from stlfunnel.funnel import FunnelParams, PerformanceFunction
from stlfunnel.parsing import parse_psi
from stlfunnel.plants import omni_robot_team, single_integrator
from stlfunnel.predicates import affine, ball
from stlfunnel.scenario import build_episode, bundled_scenario_path, load_scenario
from stlfunnel.sequencer import init_sequencer
from conftest import PSI1_TEXT, flipped, random_concave_psi


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
    # The second formula repeats a selector within a leaf, which adds up in
    # A_i and so in the A_i^T A_i term of the leaf Hessians.
    fp = _narrowing_funnel()
    plant = single_integrator(2, gain=1.5)
    sm = SmoothingConfig(eta=1.2)
    for text in ("ball(0,1;1,2;4) and aff(0.5,-0.25;3) and join(0;1;6)",
                 "ball(0,0;1,1;3) and join(0,0;1,1;3) and ball(0,1;1,2;4)"):
        psi = parse_psi(text)
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


def _box_rows(x, t, bx, bt, count, rng):
    """``count`` Latin hypercube rows (x', t') of the box B(x, bx) x [t, t + bt]."""
    unit = _latin_hypercube(x.shape[0] + 1, count, rng)
    return np.column_stack([x + (2.0 * unit[:, :-1] - 1.0) * bx, t + unit[:, -1] * bt])


def _late_vertices(x, t, bx, bt, rng):
    """A round's late vertices as rows (x + s * bx, t + bt) over the sign rows s of ``_probe_points``."""
    signs = _probe_points(x.shape[0], rng)
    return np.column_stack([x + signs * bx, np.full(signs.shape[0], t + bt)])


def _all_corners(x, t, bx, bt):
    """All 2^(n+1) corners of the box B(x, bx) x [t, t + bt]."""
    dims = x.shape[0] + 1
    signs = np.array(np.meshgrid(*[(-1.0, 1.0)] * dims, indexing="ij")).reshape(dims, -1).T
    return np.column_stack([x + signs[:, :-1] * bx, t + (0.5 * signs[:, -1] + 0.5) * bt])


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
    probes = np.vstack([_box_rows(x, 0.2, 0.3, 0.3, 64, rng), _all_corners(x, 0.2, 0.3, 0.3)])
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
    base = np.array([10.0, 10.0, 0.0, 38.0, 57.0, 0.0, 80.0, 15.0, 0.0])
    boxes = []
    for _ in range(3):
        x = base + rng.uniform(-2.0, 2.0, 9)
        x[2::3] = rng.uniform(0.0, 360.0, 3)
        t = float(rng.uniform(0.0, 6.0))
        boxes += [_box_rows(x, t, 1.0, 1.0, 32, rng), _late_vertices(x, t, 1.0, 1.0, rng)]
    pts = np.vstack(boxes)
    _assert_in_funnel(pts, psi, fp, plant, sm)
    rows = law_row_sums(pts, psi, fp, plant, sm.eta)
    np.testing.assert_allclose(rows, _fd_row_sums(pts, psi, fp, plant, sm), rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("agents", [1, 2, 3, 4])
def test_omni_row_bound_dominates_exact_row_sums(agents):
    # The read-out bound that lets the radius skip the leaf gradients, the
    # Hessian and the wheel map is at least every exact row sum, with no
    # tolerance: random conjunctions on teams of 1-4 robots (n = 12
    # included), headings anywhere in [0, 360), and a funnel around the
    # rows' values that keeps every row inside the band, on both sides of
    # xi = -0.5 where eps changes sign.  Two kinds of rows test the bound's
    # rounding terms: rows within 1e-6 of a heading ball's centre, where a
    # single-slot ball's zero curvature term, w / |r| up to 1e12 times
    # |eps|, is computed as a cancellation; and rows where an affine leaf on
    # a heading lies so far below the others that its weight is 1 to
    # rounding, where the bound is tight up to its margin.
    rng = np.random.default_rng(agents)
    plant = omni_robot_team(n_agents=agents, input_gain=float(rng.uniform(1.0, 100.0)))
    n = plant.n

    def rows():
        pts = _box_rows(rng.uniform(-6.0, 6.0, n), float(rng.uniform(0.0, 4.0)), 2.0, 1.0, 64, rng)
        pts[:, 2:n:3] = rng.uniform(0.0, 360.0, (64, agents))
        return pts

    def check(psi, eta, pts):
        rho = kernels.rho_rows(pts[:, :-1], psi, eta)
        rho_max = max(float(rho.max() + 0.3 * np.ptp(rho) + 0.1), 1.0)
        gamma_inf = 1.5 * (rho_max - float(rho.min())) + 0.1
        fp = FunnelParams(t_star=1.0, r=0.25 * rho_max, rho_max=rho_max, perf=PerformanceFunction(
            gamma0=float(rng.uniform(1.0, 3.0)) * gamma_inf, gamma_inf=gamma_inf,
            l=float(rng.uniform(0.0, 1.0))))
        exact = law_row_sums(pts, psi, fp, plant, eta)
        bound = law_row_sums(pts, psi, fp, plant, eta, lambda top: True)
        assert exact is not None and bound.shape == exact.shape == (64, n)
        assert np.all(bound >= exact)

    for _ in range(12):
        psi = random_concave_psi(rng, n)
        eta = float(rng.uniform(0.3, 3.0))
        check(psi, eta, rows())
    for kind in ("centre", "dominant") * 4:
        others = random_concave_psi(rng, n)
        eta = float(rng.uniform(0.3, 3.0))
        pts = rows()
        h = kernels.exact_psi_batch(others, pts[:, :-1])
        a = 3 * int(rng.integers(agents)) + 2
        if kind == "centre":
            centre = float(rng.uniform(0.0, 360.0))
            pts[:, a] = centre + rng.choice((-1.0, 1.0), 64) * 10.0 ** rng.uniform(-12.0, -6.0, 64)
            leaf = ball((a,), (centre,), float(np.median(h)))
        else:
            coeff = float(rng.uniform(0.5, 2.0))
            leaf = affine((a,), (coeff,), float((h + coeff * pts[:, a]).min()) - 40.0 / eta)
        psi = NonTemporalFormula(leaves=(*others.leaves, leaf))
        psi.validate()
        check(psi, eta, pts)


def _radius_rounds(monkeypatch, x, t, psi, fp, plant, tc, sm, rng):
    """``compute_trigger_radius``'s result, its rounds (``_probe_points``
    calls) and the rows its last ``law_row_sums`` call read."""
    rounds, read = [], []
    probe, sums = controller._probe_points, controller.law_row_sums
    monkeypatch.setattr(controller, "_probe_points", lambda *a: rounds.append(a) or probe(*a))
    monkeypatch.setattr(controller, "law_row_sums", lambda pts, *a: read.append(pts) or sums(pts, *a))
    out = compute_trigger_radius(x, t, psi, fp, plant, tc, sm, rng)
    monkeypatch.undo()
    return out, len(rounds), read[-1]


def test_trigger_radius_pinned_to_finite_difference_radius(monkeypatch):
    # Bundled scenario, x0, phase 1 at funnel time 0, default_rng(7).  At
    # the scenario's delta_u = 50 the box term binds (0.5 halved twice by
    # the funnel guard).  At delta_u = 4 the Lipschitz term delta_u / L_z
    # binds, with L_z twice the largest row sum of central differences
    # (step 1e-6, 2(n+1) batch-law calls) at the accepted round's rows.
    spec = build_episode(load_scenario(bundled_scenario_path()))
    x0 = np.asarray(spec.x0, dtype=float)
    z = init_sequencer(spec.theta, x0, spec.seq_cfg)
    assert z.q == 1
    args = (x0, z.t_local + z.offset, z.psi, z.fp, spec.plant)
    sm = spec.seq_cfg.smoothing
    wide = replace(spec.trigger, delta_u=50.0)
    assert compute_trigger_radius(*args, wide, sm, np.random.default_rng(7)) == (0.125, "box")
    tc = replace(spec.trigger, delta_u=4.0)
    (delta, delta_by), _, pts = _radius_rounds(monkeypatch, *args, tc, sm, np.random.default_rng(7))
    fd_l_z = float(_fd_row_sums(pts, z.psi, z.fp, spec.plant, sm).max()) * controller._LIPSCHITZ_SAFETY
    assert delta_by == "lipschitz" and delta < 0.125
    assert delta == pytest.approx(tc.delta_u / fd_l_z, rel=1e-6)


def _reference_probe_points(x, t, bx, bt, rng):
    """Probe points of one full round: hypercube rows from a seed, then every corner.

    The rows are a Latin hypercube from the seed's own generator: per
    coordinate, a permutation of the strata plus a uniform offset.
    """
    dims = x.shape[0] + 1
    count = controller._SAMPLE_COUNT
    gen = np.random.default_rng(int(rng.integers(2**32)))
    perm = gen.permuted(np.tile(np.arange(count), (dims, 1)), axis=1).T
    unit = (perm + gen.random((count, dims))) / count
    pts = np.empty((count, dims))
    pts[:, :-1] = x + (2.0 * unit[:, :-1] - 1.0) * bx
    pts[:, -1] = t + unit[:, -1] * bt
    return np.vstack([pts, _all_corners(x, t, bx, bt)])


def _reference_trigger_radius(x, t, psi, fp, plant, tc, sm, rng):
    """The box of a radius loop that draws and checks every probe of a round at once.

    Each round builds hypercube rows and all 2^(n+1) corners, checks xi
    at every one of them with the batch law and halves the box on any
    failure.  Returns the accepted box (bx, bt) and the number of rounds.
    """
    bx, bt = tc.delta_x0, tc.delta_t0
    rounds = 1
    while True:
        pts = _reference_probe_points(x, t, bx, bt, rng)
        _, xi = _batch_u_xi(pts, psi, fp, plant, sm)
        if np.all((xi > -1.0 + 1e-3) & (xi < -1e-3)):
            return bx, bt, rounds
        bx *= controller._SHRINK
        bt *= controller._SHRINK
        rounds += 1
        if min(bx, bt) < controller._DELTA_FLOOR:
            raise TriggerFloorError(t, "no admissible box")


# Each case's delta_u makes delta_u / L_z the binding term, so the
# radius is set by the largest Jacobian row sum over the accepted
# round's hypercube rows.
def _bundled_phase1_case():
    spec = build_episode(load_scenario(bundled_scenario_path()))
    x0 = np.asarray(spec.x0, dtype=float)
    z = init_sequencer(spec.theta, x0, spec.seq_cfg)
    return (x0, z.t_local + z.offset, z.psi, z.fp, spec.plant,
            replace(spec.trigger, delta_u=4.0), spec.seq_cfg.smoothing)


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
    # wall: every vertex passes, and rounds fail at interior hypercube rows.
    psi = parse_psi("ball(0;0;1)")
    fp = _flat_funnel(rho_max=0.99, width=1.0)
    return (np.array([0.02]), 0.0, psi, fp, single_integrator(1),
            TriggerConfig(delta_u=0.02), SmoothingConfig())


def _omni4_case():
    # n = 12: 2^12 late vertices, so a round reads a random sample of
    # _VERTEX_CAP of them.
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


def _assert_radius_of_reference_box(monkeypatch, case, tc, rounds=None):
    """The radius loop shrinks the box as often as the reference, and its
    radius is min(delta_u / (safety * largest row sum), box_x, box_t)
    over its accepted round's hypercube rows, which lie in that box."""
    x, t, psi, fp, plant, _, sm = case
    bx, bt, ref_rounds = _reference_trigger_radius(x, t, psi, fp, plant, tc, sm, np.random.default_rng(7))
    if rounds is not None:
        assert ref_rounds == rounds
    (delta, delta_by), got_rounds, pts = _radius_rounds(
        monkeypatch, x, t, psi, fp, plant, tc, sm, np.random.default_rng(7)
    )
    assert got_rounds == ref_rounds
    assert pts.shape[0] == controller._SAMPLE_COUNT
    assert np.all(np.abs(pts[:, :-1] - x) <= bx + 1e-12)
    assert np.all((pts[:, -1] >= t) & (pts[:, -1] <= t + bt))
    sums = law_row_sums(pts, psi, fp, plant, sm.eta)
    assert np.all(np.isfinite(sums))
    l_z = float(sums.max()) * controller._LIPSCHITZ_SAFETY
    box = min(bx, bt)
    assert delta == min(tc.delta_u / l_z, box)
    return delta, delta_by, box


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
def test_corner_first_guard_matches_full_round(monkeypatch, case, rounds):
    # The radius loop reads a round's late vertices first and draws and
    # reads hypercube rows only where they pass.  It takes as many rounds
    # as the reference's check of every corner and a hypercube at once
    # (omni4, n = 12, reads a sample of its vertices and agrees too),
    # and the accepted round's row sums are finite.
    args = case()
    delta, delta_by, box = _assert_radius_of_reference_box(monkeypatch, args, args[5], rounds)
    assert delta_by == "lipschitz" and delta < box


@pytest.mark.parametrize("delta_u, delta_by, settled", [
    pytest.param(5.6, "box", False, id="5.6-box"),
    pytest.param(4.0, "lipschitz", False, id="4.0-lipschitz"),
    pytest.param(50.0, "box", True, id="50.0-box"),
])
def test_omni_radius_equals_exact_row_sums_radius(monkeypatch, delta_u, delta_by, settled):
    # n = 9, where the crossover of the two terms sits near delta_u = 4.6:
    # at delta_u = 5.6 and 50 the box term binds, at 4 delta_u / L_z does.
    # Each way the radius is the reference box's
    # min(delta_u / (safety * max row sum), box_x, box_t).  At 50 the
    # read-out bound settles the radius, and the pass builds neither the
    # body-frame terms nor the wheel map.  At 5.6 the bound (6.1 times the
    # exact largest row here) cannot show that the box binds, and at 4 the
    # box does not: both reach the exact transform.
    args = _bundled_phase1_case()
    tc = replace(args[5], delta_u=delta_u)
    delta, got_by, box = _assert_radius_of_reference_box(monkeypatch, args, tc, 3)
    assert got_by == delta_by and (delta == box) == (delta_by == "box")
    calls = {"_body_frame": [], "_omni_apply": []}
    for name, log in calls.items():
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, _fn=fn, _log=log: _log.append(a) or _fn(*a))
    radius = compute_trigger_radius(*args[:5], tc, args[6], np.random.default_rng(7))
    assert radius == (delta, got_by)
    assert [len(log) for log in calls.values()] == ([0, 0] if settled else [1, 2])


def test_interior_case_peaks_at_a_hypercube_row(monkeypatch):
    # The interior case's accepted round is its first: there the largest
    # row sum over its hypercube rows is about five times the largest over
    # all the box's corners, so the corners alone would overstate the radius.
    x, t, psi, fp, plant, tc, sm = _integrator_interior_case()
    _, rounds, pts = _radius_rounds(monkeypatch, x, t, psi, fp, plant, tc, sm, np.random.default_rng(7))
    assert rounds == 1
    corners = _all_corners(x, t, tc.delta_x0, tc.delta_t0)
    rows = law_row_sums(pts, psi, fp, plant, sm.eta).max()
    assert rows > 4.0 * law_row_sums(corners, psi, fp, plant, sm.eta).max()


@pytest.mark.parametrize("count", [64, 100, 256])
def test_latin_hypercube_probes_stratify_the_box(count):
    # The hypercube rows are a Latin hypercube for any count: a power of
    # two or not, each coordinate has one point in each stratum of width
    # 1/count.  (That the radius maps them into its box is checked with
    # the reference box above.)
    every = np.arange(count, dtype=float)[:, None]
    for dims in range(2, 14):
        for seed in (0, 1, 12345, 2**32 - 1):
            unit = _latin_hypercube(dims, count, np.random.default_rng(seed))
            assert unit.shape == (count, dims)
            assert np.all((unit >= 0.0) & (unit <= 1.0))
            strata = np.sort(np.floor(unit * count), axis=0)
            np.testing.assert_array_equal(strata, np.broadcast_to(every, unit.shape))


@pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 12])
def test_probe_points_are_the_late_vertices(n):
    # A round's guard rows are the sign patterns of the late vertices
    # (x +- bx, t + bt): all 2^n of them in product order, drawing nothing
    # from the rng, up to n = 9, and above that 512 patterns drawn from it.
    draw, fresh = np.random.default_rng(3), np.random.default_rng(3)
    signs = _probe_points(n, draw)
    assert signs.shape[1] == n and set(np.unique(signs)) == {-1.0, 1.0}
    if n <= 9:
        assert signs.shape[0] == 2**n == len({tuple(row) for row in signs})
        assert signs.tolist() == [list(s) for s in itertools.product((-1.0, 1.0), repeat=n)]
        assert draw.bit_generator.state == fresh.bit_generator.state
    else:
        np.testing.assert_array_equal(signs, fresh.choice((-1.0, 1.0), size=(512, n)))


@pytest.mark.parametrize("n", range(1, 7))
def test_vertex_check_is_sound(rng, n):
    # Every leaf is concave and gamma never increases, so where xi stays
    # in the band at the box's late vertices it stays above the lower
    # wall over the whole box B(x, bx) x [t, t + bt]: at all 2^(n+1)
    # corners and at uniform points inside.  Random conjunctions of ball,
    # join, aff and ``not aff`` leaves, random funnels with l >= 0 (a
    # quarter of them flat) and boxes from 1e-3 to 20 wide; the check
    # accepts and refuses some of each, and law_row_sums gives the same
    # verdict on the vertices.
    sm = SmoothingConfig(eta=1.0)
    plant = single_integrator(n)
    accepted = refused = 0
    for _ in range(100):
        leaves = [flipped(leaf) if leaf.kind == "affine" and rng.random() < 0.5 else leaf
                  for leaf in random_concave_psi(rng, n).leaves]
        psi = NonTemporalFormula(leaves=tuple(leaves))
        x = rng.uniform(-6.0, 6.0, n)
        t = float(rng.uniform(0.0, 3.0))
        rho = float(kernels.rho_rows(x[None], psi, sm.eta)[0])
        # xi(x, t) = xi0 inside a funnel of width gamma_t at t.
        xi0 = float(rng.uniform(-0.95, -0.05))
        rho_max = max(rho, 0.0) + float(rng.uniform(0.1, 3.0))
        gamma_t = (rho_max - rho) / -xi0
        l = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.5))
        gamma_inf = gamma_t * float(rng.uniform(0.3, 1.0))
        gamma0 = gamma_inf + (gamma_t - gamma_inf) * math.exp(l * t)
        fp = FunnelParams(t_star=1.0, r=0.5 * rho_max, rho_max=rho_max,
                          perf=PerformanceFunction(gamma0=gamma0, gamma_inf=gamma_inf, l=l))
        bx, bt = 10.0 ** rng.uniform(-3.0, 1.3, 2)
        signs = _probe_points(n, rng)
        vertices = np.column_stack([x + signs * bx, np.full(2**n, t + bt)])
        holds = band_holds(x, bx, t + bt, signs, psi, fp, sm.eta)
        assert holds == (law_row_sums(vertices, psi, fp, plant, sm.eta) is not None)
        if not holds:
            refused += 1
            continue
        accepted += 1
        inside = np.column_stack([x + rng.uniform(-bx, bx, (1000, n)), t + rng.uniform(0.0, bt, 1000)])
        pts = np.vstack([_all_corners(x, t, bx, bt), inside])
        assert np.all(_readout(pts[:, :-1], pts[:, -1], psi, fp, sm.eta).xi > -1.0 + 1e-3)
    assert accepted >= 10 and refused >= 10


def _full_vertex_verdict(x, bx, t, signs, psi, fp, eta):
    """The guard's leaf values (L, V) and verdict from a read-out of every late vertex."""
    X = x + signs * bx
    xi = _readout(X, np.full(signs.shape[0], t), psi, fp, eta).xi
    return _leaf_readout(X, psi)[2], bool(-1.0 + 1e-3 < xi.min() and xi.max() < -1e-3)


def _corner_values(x, bx, signs, psi):
    """The guard's leaf values (L, V): each leaf read at its own support's corners, then gathered."""
    plan = kernels._vertex_plan(psi, x.shape[0], signs.shape[0])
    return np.take(_leaf_readout(x + signs[plan.pick] * bx, psi)[2], plan.gather), plan


@pytest.mark.parametrize("n", range(1, 10))
def test_corner_plan_is_bitwise_the_full_vertex_readout(rng, n):
    # band_holds reads each leaf at the 2^|S_i| corners of its own support
    # and gathers its values to all 2^n late vertices: the leaf values are
    # bitwise those of a read-out of every vertex, and so is the verdict.
    # Random conjunctions of ball, join, aff and ``not aff`` leaves, every
    # other one with a leaf that reads all n coordinates (the plan then
    # reads every vertex), in funnels that accept and refuse boxes.
    sm = SmoothingConfig(eta=1.0)
    verdicts, sparse = [], 0
    for k in range(40):
        leaves = [flipped(leaf) if leaf.kind == "affine" and rng.random() < 0.5 else leaf
                  for leaf in random_concave_psi(rng, n).leaves]
        if k % 2:
            leaves.append(ball(tuple(range(n)), tuple(rng.uniform(-5.0, 5.0, n)), 30.0))
        psi = NonTemporalFormula(leaves=tuple(leaves))
        x = rng.uniform(-6.0, 6.0, n)
        bx = float(10.0 ** rng.uniform(-3.0, 0.5))
        signs = _probe_points(n, rng)
        got, plan = _corner_values(x, bx, signs, psi)
        want = _leaf_readout(x + signs * bx, psi)[2]
        assert got.tobytes() == want.tobytes()
        sparse += plan.pick.shape[0] < 2**n
        if k % 2:
            assert plan.pick.shape[0] == 2**n
        # A funnel whose lower wall sits inside the vertices' rho range.
        rho = kernels._softmin(want, sm.eta)[0]
        rho_max = max(float(rho.max()), 0.0) + 0.1
        fp = _flat_funnel(rho_max, float(rng.uniform(0.6, 1.6)) * (rho_max - float(rho.min())))
        _, holds = _full_vertex_verdict(x, bx, 1.0, signs, psi, fp, sm.eta)
        assert band_holds(x, bx, 1.0, signs, psi, fp, sm.eta) == holds
        verdicts.append(holds)
    assert True in verdicts and False in verdicts
    assert sparse > 0 or n <= 2


def test_corner_plan_reads_fewer_rows_and_samples_read_all():
    # The bundled phase 1 (n = 9, seven leaves of at most four coordinates)
    # reads 34 corner rows in place of 512 vertices; omni4's n = 12 round
    # reads its 512 sampled patterns as they are, with the same verdicts.
    x, t, psi, *_ = _bundled_phase1_case()
    assert kernels._vertex_plan(psi, 9, 512).pick.shape == (34,)
    x, t, psi, fp, _, _, sm = _omni4_case()
    rng = np.random.default_rng(7)
    verdicts = set()
    for bx in 0.5 ** np.arange(0, 8):
        signs = _probe_points(12, rng)
        got, plan = _corner_values(x, bx, signs, psi)
        want, holds = _full_vertex_verdict(x, bx, t + bx, signs, psi, fp, sm.eta)
        assert plan.pick.tolist() == list(range(512))
        assert got.tobytes() == want.tobytes()
        assert band_holds(x, bx, t + bx, signs, psi, fp, sm.eta) == holds
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_law_row_sums_refuse_rows_outside_the_band(monkeypatch):
    # law_row_sums returns None exactly when some row's xi leaves
    # (-1 + 1e-3, -1e-3), and the Jacobian's row sums otherwise.  Boxes of
    # 256 hypercube rows halving from 0.5: the bundled phase-1 and
    # integrator-wall rows leave at the lower wall down to 0.25 and
    # 0.0625, the integrator-peak rows at the upper wall down to 0.015625.
    # A refused box builds no Jacobian term.
    built, body_frame = [], kernels._body_frame
    monkeypatch.setattr(kernels, "_body_frame", lambda *a: built.append(a) or body_frame(*a))
    for case in (_bundled_phase1_case, _integrator_wall_case, _integrator_peak_case):
        x, t, psi, fp, plant, _, sm = case()
        rng = np.random.default_rng(7)
        verdicts = []
        for b in 0.5 ** np.arange(1, 8):
            pts = _box_rows(x, t, b, b, controller._SAMPLE_COUNT, rng)
            xi = _readout(pts[:, :-1], pts[:, -1], psi, fp, sm.eta).xi
            built.clear()
            sums = law_row_sums(pts, psi, fp, plant, sm.eta)
            verdicts.append(sums is not None)
            assert len(built) == verdicts[-1]
            assert verdicts[-1] == bool(np.all((xi > -1.0 + 1e-3) & (xi < -1e-3)))
            if sums is not None:
                du_dx, du_dt, _ = law_jacobian_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, sm.eta)
                np.testing.assert_array_equal(sums, np.abs(du_dx).sum(axis=2) + np.abs(du_dt))
        assert not verdicts[0] and verdicts[-1]
    # A row exactly on the upper wall (xi = 0, where d eps / d xi is
    # infinite) is refused without a floating-point warning.
    pts = np.array([[0.01, 0.0], [0.5, 0.0]])
    assert _readout(pts[:, :-1], pts[:, -1], psi, fp, sm.eta).xi[0] == 0.0
    assert law_row_sums(pts, psi, fp, plant, sm.eta) is None


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


@pytest.mark.parametrize("field", ["delta_u", "delta_x0", "delta_t0"])
def test_trigger_config_rejects_nan(field):
    # A NaN radius would stop both trigger tests from ever firing again.
    with pytest.raises(ValueError, match="trigger lengths"):
        TriggerConfig(**{field: math.nan})


def test_trigger_strict_inequalities():
    ev = TriggerEvent(
        index=0, t=1.0, x=np.zeros(2), u=np.zeros(2), delta=0.5, cause="Initial", delta_by="box"
    )
    # Exactly at the radius or the interval (50 steps of 0.01): hold.
    assert should_trigger(np.array([0.5, 0.0]), 0, 0.01, ev) == (False, False)
    assert should_trigger(np.zeros(2), 50, 0.01, ev) == (False, False)
    # Strictly beyond: fire.  Each pair is (StateDeviation, MaxInterval);
    # the loop takes StateDeviation where both fire.
    assert should_trigger(np.array([0.5001, 0.0]), 0, 0.01, ev) == (True, False)
    assert should_trigger(np.zeros(2), 51, 0.01, ev) == (False, True)
    assert should_trigger(np.array([0.6, 0.0]), 100, 0.01, ev) == (True, True)
    # A hold of delta = 0.25 = 25 steps from funnel clock 29 dt: the clock
    # 25 steps later, 54 dt, minus 29 dt rounds up past 0.25, so a test on
    # the clocks' difference fired at exactly delta.  The step count holds.
    ev = replace(ev, delta=0.25)
    assert 54 * 0.01 - 29 * 0.01 > ev.delta
    assert should_trigger(np.zeros(2), 25, 0.01, ev) == (False, False)
    assert should_trigger(np.zeros(2), 26, 0.01, ev) == (False, True)


def test_trigger_radius_bounds_input_deviation(rng, monkeypatch):
    # Design bound, checked empirically: everywhere inside the trigger
    # box the continuous law stays within delta_u of the event input,
    # here with half the default hypercube rows.
    monkeypatch.setattr(controller, "_SAMPLE_COUNT", 128)
    psi = parse_psi("ball(0,1;4,4;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2)
    tc = TriggerConfig(delta_u=0.5)
    sm = SmoothingConfig()
    x_i = np.array([1.0, 1.0])
    t_i = 0.5
    delta, _ = compute_trigger_radius(x_i, t_i, psi, fp, plant, tc, sm, rng)
    assert delta >= controller._DELTA_FLOOR
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
        np.array([1.0, 1.0]), 0.0, psi, fp, plant, tc, SmoothingConfig(), np.random.default_rng(5)
    )
    b = compute_trigger_radius(
        np.array([1.0, 1.0]), 0.0, psi, fp, plant, tc, SmoothingConfig(), np.random.default_rng(5)
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
    rng = np.random.default_rng(0)
    with pytest.raises(TriggerFloorError):
        _reference_trigger_radius(x, 0.0, psi, fp, plant, tc, sm, np.random.default_rng(0))
    with pytest.raises(TriggerFloorError):
        compute_trigger_radius(x, 0.0, psi, fp, plant, tc, sm, rng)
    # Every round is refused at its late vertices, before it draws any
    # hypercube row, so the rng is left as it was.
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_nan_row_sums_raise_trigger_floor(monkeypatch):
    # A NaN row sum, from the bound or the exact rows, never reads as
    # "box": it does not settle a pass, and the radius raises.
    assert math.isnan(controller._radius(50.0, math.nan, 0.5))
    asked = []

    def nan_rows(pts, psi, fp, plant, eta, settles):
        asked.append(settles(math.nan))
        return np.full((pts.shape[0], plant.m), np.nan)

    monkeypatch.setattr(controller, "law_row_sums", nan_rows)
    x, t, psi, fp, plant, tc, sm = _bundled_phase1_case()
    with pytest.raises(TriggerFloorError):
        compute_trigger_radius(x, t, psi, fp, plant, replace(tc, delta_u=50.0), sm, np.random.default_rng(7))
    assert asked == [False]


def test_make_event_snapshots_state_and_input():
    # The event holds the caller's input as given and adds the radius.
    psi = parse_psi("ball(0,1;4,4;6)")
    fp = _narrowing_funnel()
    plant = single_integrator(2)
    tc = TriggerConfig()
    x = np.array([1.0, 2.0])
    u = continuous_law(x, 0.25, psi, fp, plant)
    sm = SmoothingConfig()
    ev = make_event(psi, fp, x, 0.25, u, 3, "Initial", plant, tc, sm, np.random.default_rng(4))
    x[0] = 9.0  # the event keeps its own copy of the state
    assert ev.index == 3 and ev.cause == "Initial" and ev.t == 0.25
    np.testing.assert_array_equal(ev.x, [1.0, 2.0])
    assert ev.u is u
    want = compute_trigger_radius(
        np.array([1.0, 2.0]), 0.25, psi, fp, plant, tc, sm, np.random.default_rng(4)
    )
    assert (ev.delta, ev.delta_by) == want and ev.delta > 0.0

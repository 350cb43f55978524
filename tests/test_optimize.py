"""Robustness maximization: analytic optima and concavity properties."""

import math

import numpy as np
import pytest

from stlfunnel.errors import FormulaError
from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig, normalize_sequential
from stlfunnel.funnel import synthesize_funnel
from stlfunnel.optimize import cached_optimum, optimize_robustness
from stlfunnel.parsing import parse_formula, parse_psi
from stlfunnel.predicates import affine
from conftest import PSI1_TEXT, PSI2_TEXT, flipped, random_concave_psi, random_consistent_psi

# Both leaves peak at x3 = -7.5, x2 = x4 = 9.3, x1 = x5, but reaching that
# point from the ball's centre moves x2 and x4 together along the join's kink.
KINK_PAIR_TEXT = "ball(3,4;-7.5,9.3;7) and join(1,2;5,4;2.5)"


def softmin_of(radii, eta: float) -> float:
    """The soft minimum of leaf values that all sit at their maxima."""
    return -math.log(math.fsum(math.exp(-eta * r) for r in radii)) / eta


def test_single_ball_optimum_is_radius():
    psi = parse_psi("ball(0,1;3,-2;4)")
    res = optimize_robustness(psi)
    # One leaf: the soft minimum is the leaf itself, maximal at the center.
    assert res.rho_opt == pytest.approx(4.0, abs=1e-8)
    assert res.x_star == pytest.approx([3.0, -2.0], abs=1e-4)


def test_two_separated_balls_optimum():
    # Centers 6 apart, radii 5: exact max of min is at the midpoint, 2.
    psi = parse_psi("ball(0;0;5) and ball(0;6;5)")
    res = optimize_robustness(psi, SmoothingConfig(eta=4.0))
    exact_best = 2.0
    gap = math.log(2) / 4.0
    assert exact_best - gap - 1e-6 <= res.rho_opt <= exact_best + 1e-6
    assert res.x_star == pytest.approx([3.0], abs=1e-3)


def test_collapse_instance_reaches_kink_optimum():
    # Ball plus a zero-distance-optimal join: the maximizer collapses
    # both points onto the center, a kink of the norm surface.
    psi = parse_psi("ball(0,1;0,0;2) and join(0,1;2,3;1)")
    res = optimize_robustness(psi)
    expected = -math.log(math.exp(-2.0) + math.exp(-1.0))
    assert res.rho_opt == pytest.approx(expected, rel=1e-12)
    assert res.grad_norm == 0.0


@pytest.mark.parametrize("eta", [0.2, 1.0])
def test_kink_pair_reaches_closed_form_with_certificate(eta):
    res = optimize_robustness(parse_psi(KINK_PAIR_TEXT), SmoothingConfig(eta=eta))
    assert res.rho_opt == pytest.approx(softmin_of([7.0, 2.5], eta), rel=1e-12)
    assert res.grad_norm == 0.0
    assert res.x_star[[2, 3, 4]] == pytest.approx([9.3, -7.5, 9.3], abs=1e-12)
    assert res.x_star[1] == res.x_star[5]


def test_kink_pair_task_synthesizes():
    # The optimum 0.794 is positive, so the phase has a funnel.
    eta = 0.2
    (task,) = normalize_sequential(parse_formula(f"F[0,10] ({KINK_PAIR_TEXT})"))
    fp = synthesize_funnel(task, np.zeros(6), smoothing=SmoothingConfig(eta=eta))
    assert fp.rho_max < softmin_of([7.0, 2.5], eta)
    assert fp.rho_max > 0.0


def test_consistent_conjunctions_reach_softmin_of_radii():
    # Every leaf peaks at one shared point, so the optimum is the soft
    # minimum of the radii; reaching it needs every kink at once.
    rng = np.random.default_rng(5)
    for trial in range(60):
        eta = (1.0, 0.2)[trial % 2]
        psi, radii = random_consistent_psi(rng, int(rng.integers(2, 7)))
        res = optimize_robustness(psi, SmoothingConfig(eta=eta))
        assert res.rho_opt == pytest.approx(softmin_of(radii, eta), rel=1e-9), psi


def test_fixture_psi1_value():
    # Closed form: robots 1 and 3 each move 20/3 toward each other, so both
    # balls and the join read 10/3; -ln(3e^(-10/3) + 3e^(-5) + e^(-10)).
    res = optimize_robustness(parse_psi(PSI1_TEXT))
    assert res.rho_opt == pytest.approx(2.061356302220677, rel=1e-9)


def test_fixture_psi2_value():
    # Closed form: every robot at (90,90) with heading 45 puts each leaf at
    # its maximum (three at 5, three at 10); -ln(3e^(-5) + 3e^(-10)).
    res = optimize_robustness(parse_psi(PSI2_TEXT))
    assert res.rho_opt == pytest.approx(3.894672362842772, rel=1e-9)


def test_result_beats_every_probe(rng):
    # Concavity: no random probe may beat the reported optimum.
    from stlfunnel.kernels import smooth_psi_value_and_grad

    cfg = SmoothingConfig(eta=1.0)
    for _ in range(10):
        psi = random_concave_psi(rng, 4)
        res = optimize_robustness(psi, cfg)
        for _ in range(200):
            x = rng.uniform(-15, 15, 4)
            assert smooth_psi_value_and_grad(psi, x, cfg)[0] <= res.rho_opt + 1e-7


def test_initial_point_does_not_change_optimum(rng):
    cfg = SmoothingConfig(eta=1.0)
    psi = random_concave_psi(rng, 3)
    base = optimize_robustness(psi, cfg).rho_opt
    for _ in range(5):
        res = optimize_robustness(psi, cfg, x_init=rng.uniform(-20, 20, 3))
        assert res.rho_opt == pytest.approx(base, abs=1e-6)


def test_explicit_init_dimension_checked():
    psi = parse_psi("ball(0,1;0,0;1)")
    with pytest.raises(ValueError):
        optimize_robustness(psi, x_init=np.array([0.0]))


def test_unbounded_conjunction_rejected():
    # Two affine bounds in the same direction leave x0 unbounded above.
    psi = NonTemporalFormula(leaves=(affine((0,), (-1.0,), 2.0), flipped(affine((0,), (1.0,), -5.0))))
    with pytest.raises(FormulaError, match="two-sided band"):
        optimize_robustness(psi)


def test_cached_optimum_is_stable():
    psi = parse_psi("ball(0;1;2)")
    a = cached_optimum(psi, 1.0)
    b = cached_optimum(psi, 1.0)
    assert a == b == pytest.approx(2.0, abs=1e-8)


def test_fixture_runtimes_under_five_seconds():
    import time

    for text in (PSI1_TEXT, PSI2_TEXT):
        start = time.perf_counter()
        optimize_robustness(parse_psi(text))
        assert time.perf_counter() - start < 5.0

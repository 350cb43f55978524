"""Leaf predicate values, gradients, and Hessians.

Each leaf is evaluated as a one-leaf conjunction through the evaluator:
a one-leaf soft minimum is the leaf itself.
"""

import math

import numpy as np
import pytest

from stlfunnel.formulas import NonTemporalFormula
from stlfunnel.kernels import smooth_psi_hessian, smooth_psi_value_and_grad
from stlfunnel.predicates import affine, ball, join
from conftest import brute_leaf, central_diff, flipped


def leaf_value_and_grad(p, x):
    return smooth_psi_value_and_grad(NonTemporalFormula(leaves=(p,)), x)


def leaf_hessian(p, x):
    return smooth_psi_hessian(NonTemporalFormula(leaves=(p,)), x)


def test_ball_value_and_grad():
    p = ball((0, 1), (3.0, 4.0), 2.0)
    x = np.array([0.0, 0.0, 7.0])
    h, g = leaf_value_and_grad(p, x)
    assert h == pytest.approx(2.0 - 5.0)
    # Unit vector from x toward the center.
    assert g == pytest.approx(np.array([3.0 / 5.0, 4.0 / 5.0, 0.0]))


def test_ball_grad_zero_at_center():
    p = ball((0,), (1.0,), 0.5)
    h, g = leaf_value_and_grad(p, np.array([1.0, 9.0]))
    assert h == pytest.approx(0.5)
    assert np.all(g == 0.0)
    assert np.all(leaf_hessian(p, np.array([1.0, 9.0])) == 0.0)


def test_join_value_and_grad():
    p = join((0, 1), (2, 3), 10.0)
    x = np.array([0.0, 0.0, 3.0, 4.0])
    h, g = leaf_value_and_grad(p, x)
    assert h == pytest.approx(5.0)
    assert g == pytest.approx(np.array([0.6, 0.8, -0.6, -0.8]))


def test_affine_value_and_grad():
    p = affine((0, 2), (2.0, -1.0), 4.0)
    x = np.array([1.0, 5.0, 3.0])
    h, g = leaf_value_and_grad(p, x)
    assert h == pytest.approx(4.0 - 2.0 + 3.0)
    assert g == pytest.approx(np.array([-2.0, 0.0, 1.0]))


def test_negation_flips_value_grad_hessian(rng):
    # ``not aff(c;o)`` is the leaf aff(-c;-o): its value and gradient are
    # exactly the negated ones, and both Hessians are zero.
    p = affine((0, 1, 3), (1.0, -2.0, 0.3), 3.0)
    x = rng.uniform(-5, 5, 4)
    h, g = leaf_value_and_grad(p, x)
    hn, gn = leaf_value_and_grad(flipped(p), x)
    assert hn == -h
    assert np.array_equal(gn, -g)
    assert np.all(leaf_hessian(flipped(p), x) == 0.0) and np.all(leaf_hessian(p, x) == 0.0)


@pytest.mark.parametrize(
    "p",
    [
        ball((0, 2), (1.0, -1.0), 2.5),
        join((0, 1), (2, 3), 4.0),
        affine((1, 3), (0.5, -2.0), 1.0),
        flipped(affine((0, 1, 2, 3), (0.5, 1.0, -2.0, 3.0), 5.0)),
    ],
)
def test_grad_matches_finite_differences(p, rng):
    for _ in range(10):
        x = rng.uniform(-4, 4, 4)
        h, g = leaf_value_and_grad(p, x)
        assert h == pytest.approx(brute_leaf(p, x), rel=1e-12, abs=1e-12)
        fd = central_diff(lambda y: leaf_value_and_grad(p, y)[0], x)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize(
    "p",
    [
        ball((0, 2), (1.0, -1.0), 2.5),
        join((0, 1), (2, 3), 4.0),
        affine((1, 3), (0.5, -2.0), 1.0),
    ],
)
def test_hessian_matches_finite_differences(p, rng):
    for _ in range(5):
        x = rng.uniform(-4, 4, 4)
        hess = leaf_hessian(p, x)
        assert hess == pytest.approx(hess.T)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-5
            row_fd = (
                leaf_value_and_grad(p, x + e)[1]
                - leaf_value_and_grad(p, x - e)[1]
            ) / 2e-5
            assert hess[i] == pytest.approx(row_fd, rel=1e-4, abs=1e-6)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        ball((0, 1), (1.0,), 2.0)
    with pytest.raises(ValueError):
        join((0, 1), (2,), 2.0)
    with pytest.raises(ValueError):
        affine((0,), (1.0, 2.0), 0.0)


def test_spec_rejects_non_finite_numbers():
    for build in (
        lambda: ball((0,), (math.inf,), 1.0),
        lambda: ball((0,), (0.0,), math.nan),
        lambda: join((0,), (1,), math.inf),
        lambda: affine((0,), (math.nan,), 0.0),
        lambda: affine((0,), (1.0,), -math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_min_dim():
    assert ball((0, 4), (0.0, 0.0), 1.0).min_dim == 5
    assert join((0,), (7,), 1.0).min_dim == 8
    assert affine((2,), (1.0,), 0.0).min_dim == 3

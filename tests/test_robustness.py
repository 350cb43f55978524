"""Exact and smoothed conjunction robustness against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlfunnel.formulas import NonTemporalFormula, SmoothingConfig
from stlfunnel.kernels import (
    compile_leaf_table,
    exact_psi_batch,
    leaf_pass,
    smooth_psi_value_and_grad,
)
from stlfunnel.parsing import parse_psi
from conftest import (
    PSI1_TEXT,
    PSI2_TEXT,
    brute_exact,
    brute_smooth,
    central_diff,
    random_concave_psi,
)

_coords = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
_etas = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


def _seeded_psi(seed: int, dim: int) -> NonTemporalFormula:
    return random_concave_psi(np.random.default_rng(seed), dim)


def test_exact_equals_brute_force(rng):
    for _ in range(50):
        psi = random_concave_psi(rng, 5)
        x = rng.uniform(-15, 15, 5)
        assert exact_psi_batch(psi, x[None, :])[0] == pytest.approx(brute_exact(psi, x), abs=1e-12)


def test_leaf_values_order_matches_leaves(rng):
    psi = parse_psi("ball(0;0;2) and aff(1;3) and join(0;1;4)")
    x = rng.uniform(-3, 3, 2)
    vals = leaf_pass(compile_leaf_table(psi), x.tolist())[0]
    assert vals == pytest.approx([psi_leaf_val(psi, i, x) for i in range(3)])


def psi_leaf_val(psi, i, x):
    from conftest import brute_leaf

    return brute_leaf(psi.leaves[i], x)


def test_smooth_equals_brute_force(rng):
    cfg = SmoothingConfig(eta=1.7)
    for _ in range(50):
        psi = random_concave_psi(rng, 4)
        x = rng.uniform(-12, 12, 4)
        v, _ = smooth_psi_value_and_grad(psi, x, cfg)
        assert v == pytest.approx(brute_smooth(psi, x, 1.7), rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    x=st.lists(_coords, min_size=6, max_size=6),
    eta=_etas,
)
def test_underapproximation_bound(seed, x, eta):
    """smooth <= exact <= smooth + ln(m)/eta everywhere."""
    psi = _seeded_psi(seed, 6)
    cfg = SmoothingConfig(eta=eta)
    xv = np.asarray(x)
    smooth, _ = smooth_psi_value_and_grad(psi, xv, cfg)
    exact = exact_psi_batch(psi, xv[None, :])[0]
    gap = math.log(len(psi.leaves)) / eta
    assert smooth <= exact + 1e-9
    assert exact <= smooth + gap + 1e-9


# A selector repeated within a leaf: h = 3 - sqrt(2) |x0 - 1| and
# 3 - sqrt(2) |x0 - x1|, whose gradients add the repeated terms.
REPEATED_SELECTORS = ("ball(0,0;1,1;3)", "join(0,0;1,1;3)")


def test_smooth_grad_matches_finite_differences(rng):
    cfg = SmoothingConfig(eta=1.0)
    cases = [(random_concave_psi(rng, 5), rng.uniform(-8, 8, 5)) for _ in range(30)]
    cases += [(parse_psi(text), rng.uniform(-8, 8, 5)) for text in REPEATED_SELECTORS]
    for psi, x in cases:
        _, grad = smooth_psi_value_and_grad(psi, x, cfg)
        fd = central_diff(lambda y: smooth_psi_value_and_grad(psi, y, cfg)[0], x)
        assert grad == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_batch_matches_pointwise(rng):
    psi = parse_psi(PSI1_TEXT)
    X = rng.uniform(0, 100, (40, 9))
    batch = exact_psi_batch(psi, X)
    table = compile_leaf_table(psi)
    direct = np.array([min(leaf_pass(table, x.tolist())[0]) for x in X])
    assert batch == pytest.approx(direct, abs=1e-12)


def test_fixture_values_at_known_points():
    psi2 = parse_psi(PSI2_TEXT)
    x = np.array([90.0, 90.0, 45.0, 90.0, 90.0, 45.0, 90.0, 90.0, 45.0])
    # All agents collapsed at the corner: leaves (10, 10, 10, 5, 5, 5).
    assert exact_psi_batch(psi2, x[None, :])[0] == pytest.approx(5.0)
    expected = -math.log(3 * math.exp(-10.0) + 3 * math.exp(-5.0))
    assert smooth_psi_value_and_grad(psi2, x, SmoothingConfig(eta=1.0))[0] == pytest.approx(
        expected, rel=1e-14
    )


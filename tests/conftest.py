"""Shared fixtures and independent brute-force oracles.

The oracles here recompute every quantity from first principles with
plain numpy so library results are checked against code that shares no
implementation with the package.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from stlfunnel.formulas import NonTemporalFormula, normalize_sequential
from stlfunnel.predicates import PredicateSpec, affine, ball, join

PSI1_TEXT = (
    "ball(0,1;20,30;10) and ball(3,4;40,60;10) and ball(6,7;60,30;10) "
    "and join(0,1;6,7;30) and ball(2;45;5) and ball(5;45;5) and ball(8;45;5)"
)
PSI2_TEXT = (
    "ball(0,1;90,90;10) and join(0,1;3,4;10) and join(3,4;6,7;10) "
    "and ball(2;45;5) and ball(5;45;5) and ball(8;45;5)"
)
THETA_TEXT = f"F[0,50] ({PSI1_TEXT}) and F[50,100] ({PSI2_TEXT})"


def _norm(diffs) -> float:
    # d * d is the correctly rounded square; d ** 2 goes through the C
    # library's pow, which can land one ulp away.
    return math.sqrt(sum(d * d for d in diffs))


def brute_leaf(leaf: PredicateSpec, x: np.ndarray) -> float:
    """Leaf value computed directly from its definition."""
    if leaf.kind == "affine":
        h = leaf.offset - sum(c * x[i] for c, i in zip(leaf.coeffs, leaf.sel))
    elif leaf.kind == "ball":
        h = leaf.radius - _norm(x[i] - c for i, c in zip(leaf.sel, leaf.center))
    else:
        h = leaf.radius - _norm(x[i] - x[j] for i, j in zip(leaf.sel, leaf.sel_b))
    return -h if leaf.negated else h


def brute_exact(psi: NonTemporalFormula, x: np.ndarray) -> float:
    return min(brute_leaf(leaf, x) for leaf in psi.leaves)


def brute_monitor(theta, times, states, t: float) -> float:
    """Min over the tasks of the window minimum (G) or maximum (F) of
    ``brute_exact``, enumerating the samples inside each window."""
    out = math.inf
    for task in normalize_sequential(theta):
        lo, hi = t + task.window[0], t + task.window[1]
        vals = [
            brute_exact(task.psi, x)
            for tt, x in zip(times, states)
            if lo - 1e-12 <= tt <= hi + 1e-12
        ]
        out = min(out, min(vals) if task.m == 1 else max(vals))
    return out


def brute_smooth(psi: NonTemporalFormula, x: np.ndarray, eta: float) -> float:
    """Log-sum-exp soft minimum evaluated in extended precision."""
    hs = [brute_leaf(leaf, x) for leaf in psi.leaves]
    acc = math.fsum(math.exp(-eta * h) for h in hs)
    return -math.log(acc) / eta


def central_diff(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def random_concave_psi(
    rng: np.random.Generator, dim: int, n_leaves: int | None = None,
    kinds: tuple[str, ...] = ("ball", "join", "affine"),
) -> NonTemporalFormula:
    """Random well-posed conjunction of concave leaves on a dim state.

    After a first ball, each leaf's kind is drawn from ``kinds`` (a join
    falls back to an affine leaf below two dimensions)."""
    if n_leaves is None:
        n_leaves = int(rng.integers(1, 6))
    leaves = []
    # First leaf is always a ball so the conjunction is well posed.
    k = int(rng.integers(1, dim + 1))
    sel = tuple(int(i) for i in rng.choice(dim, size=k, replace=False))
    center = tuple(float(c) for c in rng.uniform(-10, 10, k))
    leaves.append(ball(sel, center, float(rng.uniform(0.5, 10.0))))
    for _ in range(n_leaves - 1):
        kind = rng.choice(list(kinds))
        if kind == "ball":
            k = int(rng.integers(1, dim + 1))
            sel = tuple(int(i) for i in rng.choice(dim, size=k, replace=False))
            center = tuple(float(c) for c in rng.uniform(-10, 10, k))
            leaves.append(ball(sel, center, float(rng.uniform(0.5, 10.0))))
        elif kind == "join" and dim >= 2:
            k = int(rng.integers(1, dim // 2 + 1))
            picks = rng.choice(dim, size=2 * k, replace=False)
            sel_a = tuple(int(i) for i in picks[:k])
            sel_b = tuple(int(i) for i in picks[k:])
            leaves.append(join(sel_a, sel_b, float(rng.uniform(0.5, 10.0))))
        else:
            k = int(rng.integers(1, dim + 1))
            sel = tuple(int(i) for i in rng.choice(dim, size=k, replace=False))
            coeffs = tuple(float(c) for c in rng.uniform(-2, 2, k))
            if all(c == 0.0 for c in coeffs):
                coeffs = (1.0,) + coeffs[1:]
            leaves.append(affine(sel, coeffs, float(rng.uniform(-5, 5))))
    psi = NonTemporalFormula(leaves=tuple(leaves))
    psi.validate()
    return psi


def random_consistent_psi(rng: np.random.Generator, dim: int) -> tuple[NonTemporalFormula, list[float]]:
    """Random conjunction of two to five ball and join leaves that all peak
    at one shared point, and the leaves' radii.

    The point's coordinates fall into groups of equal value; balls are
    centred on it and joins pair coordinates of one group, so the smooth
    optimum is the soft minimum of the radii,
    -(1/eta) ln sum_i exp(-eta r_i).
    """
    n_leaves = int(rng.integers(2, 6))
    group = rng.integers(0, int(rng.integers(1, dim + 1)), dim)
    point = rng.uniform(-10, 10, dim)[group]
    leaves, radii = [], []
    for i in range(n_leaves):
        radius = float(rng.uniform(0.5, 10.0))
        pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim) if group[a] == group[b]]
        if i > 0 and pairs and rng.random() < 0.5:
            picks = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
            sel_a, sel_b, used = [], [], set()
            for a, b in (pairs[k] for k in picks):
                if a not in used and b not in used:
                    used.update((a, b))
                    sel_a.append(a)
                    sel_b.append(b)
            leaves.append(join(tuple(sel_a), tuple(sel_b), radius))
        else:
            k = int(rng.integers(1, dim + 1))
            sel = tuple(int(j) for j in rng.choice(dim, size=k, replace=False))
            leaves.append(ball(sel, tuple(float(point[j]) for j in sel), radius))
        radii.append(radius)
    psi = NonTemporalFormula(leaves=tuple(leaves))
    psi.validate()
    return psi, radii


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

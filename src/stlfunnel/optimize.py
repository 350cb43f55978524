"""Maximization of the smoothed robustness.

The smoothed conjunction of concave leaves is concave, so gradient
ascent with a backtracking line search finds the global optimum on the
smooth part of the surface.  Distance leaves keep the norm kink at
coincidence points; when the maximizer sits on such a kink the ascent
zigzags, so a stalled ascent is finished by a derivative-free polish
and an exact coincidence snap, both accepted only if they do not lower
the objective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizationError
from .formulas import NonTemporalFormula, SmoothingConfig
from .kernels import compile_leaf_table, leaf_pass, smooth_psi_value_and_grad

__all__ = ["OptimizationResult", "optimize_robustness", "cached_optimum"]

_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5
_GRAD_TOL = 1e-8
_MAX_ITER = 50_000
_ESCAPE_NORM = 1e8
_STALL_WINDOW = 100
_STALL_GAIN = 1e-12
# Generous on purpose: candidates are only accepted when they raise the
# objective, so a wide net costs one evaluation and risks nothing.
_SNAP_DIST = 0.5


@dataclass(frozen=True)
class OptimizationResult:
    x_star: np.ndarray
    rho_opt: float
    iterations: int
    grad_norm: float


def _default_init(psi: NonTemporalFormula) -> np.ndarray:
    """Mean of ball centers per component; zero where unconstrained."""
    dim = psi.min_dim
    sums = np.zeros(dim)
    counts = np.zeros(dim)
    for leaf in psi.leaves:
        if leaf.kind == "ball" and not leaf.negated:
            for idx, c in zip(leaf.sel, leaf.center):
                sums[idx] += c
                counts[idx] += 1
    with np.errstate(invalid="ignore"):
        init = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return init


def _snap_candidate(psi: NonTemporalFormula, x: np.ndarray) -> np.ndarray | None:
    """Exact-coincidence candidate for a near-collapsed iterate.

    Components tied by an almost-zero-distance join are merged into one
    class; a class touched by an almost-centered ball is pinned to that
    center.  Classes with conflicting pins are left untouched.
    """
    n = x.shape[0]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    # Norm leaves carry (difference vector, length); affine leaves None.
    _, diffs = leaf_pass(compile_leaf_table(psi), x.tolist())
    near = [diff is not None and diff[1] < _SNAP_DIST for diff in diffs]
    touched = False
    for leaf, close in zip(psi.leaves, near):
        if close and leaf.kind == "join" and not leaf.negated:
            touched = True
            for a, b in zip(leaf.sel, leaf.sel_b):
                union(a, b)
    anchors: dict[int, float] = {}
    conflict: set[int] = set()
    for leaf, close in zip(psi.leaves, near):
        if close and leaf.kind == "ball" and not leaf.negated:
            touched = True
            for idx, c in zip(leaf.sel, leaf.center):
                root = find(idx)
                if root in anchors and abs(anchors[root] - c) > 1e-12:
                    conflict.add(root)
                anchors[root] = c
    if not touched:
        return None

    snapped = x.copy()
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    for root, members in groups.items():
        if root in conflict:
            continue
        if root in anchors:
            snapped[members] = anchors[root]
        elif len(members) > 1:
            snapped[members] = x[members].mean()
    return snapped


def optimize_robustness(
    psi: NonTemporalFormula,
    cfg: SmoothingConfig = SmoothingConfig(),
    x_init: np.ndarray | None = None,
) -> OptimizationResult:
    """Maximize the smoothed robustness of a conjunction.

    Starts from ``x_init`` when given, else from the mean of ball
    centers.  Returns the best point seen; iterates escaping to
    infinity raise OptimizationError (the conjunction then has no
    bounded superlevel set).
    """
    psi.validate()
    if x_init is not None:
        x = np.array(x_init, dtype=float)
        if x.shape[0] < psi.min_dim:
            raise ValueError(f"state dimension {x.shape[0]} below formula's {psi.min_dim}")
    else:
        x = _default_init(psi)

    value, grad = smooth_psi_value_and_grad(psi, x, cfg)
    step = 1.0
    iteration = 0
    window_ref = value
    stalled = False
    while iteration < _MAX_ITER:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= _GRAD_TOL:
            return OptimizationResult(
                x_star=x, rho_opt=float(value), iterations=iteration, grad_norm=gnorm
            )
        # Backtracking from a step that grows again after successes, so
        # progress is not throttled by one early short step.
        step = min(step * 2.0, 1e6)
        gg = gnorm * gnorm
        while True:
            x_new = x + step * grad
            value_new, grad_new = smooth_psi_value_and_grad(psi, x_new, cfg)
            if value_new >= value + _ARMIJO_SLOPE * step * gg:
                break
            step *= _ARMIJO_SHRINK
            if step < 1e-18:
                stalled = True
                break
        if stalled:
            break
        x, value, grad = x_new, value_new, grad_new
        if not np.isfinite(value) or np.linalg.norm(x) > _ESCAPE_NORM:
            raise OptimizationError(
                "ascent iterates escape to infinity; the conjunction has no "
                "bounded superlevel set"
            )
        iteration += 1
        if iteration % _STALL_WINDOW == 0:
            if value - window_ref < _STALL_GAIN * max(1.0, abs(value)):
                stalled = True
                break
            window_ref = value

    # Nonsmooth finish: zigzag or cap means the maximizer likely sits on
    # a coincidence kink.  Polish without derivatives, then try the
    # exact collapse; keep whichever point scores best.
    res = minimize(
        lambda p: -smooth_psi_value_and_grad(psi, p, cfg)[0],
        x,
        method="Powell",
        options={"xtol": 1e-12, "ftol": 1e-14, "maxfev": 200_000},
    )
    iteration += int(res.nit)
    if np.linalg.norm(res.x) > _ESCAPE_NORM:
        raise OptimizationError(
            "iterates escape to infinity; the conjunction has no bounded "
            "superlevel set"
        )
    if -res.fun >= value:
        x, value = res.x, -res.fun
    snapped = _snap_candidate(psi, x)
    if snapped is not None:
        snap_value, _ = smooth_psi_value_and_grad(psi, snapped, cfg)
        if snap_value >= value:
            x, value = snapped, snap_value
    _, grad = smooth_psi_value_and_grad(psi, x, cfg)
    return OptimizationResult(
        x_star=x,
        rho_opt=float(value),
        iterations=iteration,
        grad_norm=float(np.linalg.norm(grad)),
    )


@functools.lru_cache(maxsize=None)
def cached_optimum(psi: NonTemporalFormula, eta: float) -> float:
    """Memoized smooth optimum for repeated synthesis calls."""
    return optimize_robustness(psi, SmoothingConfig(eta=eta)).rho_opt

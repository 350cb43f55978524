"""Maximization of the smoothed robustness.

The smoothed conjunction of concave leaves is concave, so a point is its
maximum exactly when 0 lies in its superdifferential (Rockafellar,
*Convex Analysis*, 1970).  A ball or join leaf has a kink where its
difference vector vanishes; there its superdifferential is a whole ball
of directions, and maximizers often sit on such kinks, where a plain
gradient ascent zigzags.  The ascent here steps along the shortest
element of a widened superdifferential instead
(``kernels.shortest_supergradient``): a norm leaf within a tolerance of
its kink contributes its whole ball, so a step cannot cross that kink and
slides along it.  Steps follow Polak-Ribiere+ conjugate directions built
from that element, with a backtracking line search refined once by a
parabola.  The tolerance starts at the snap distance and falls tenfold
each time the ascent stalls, that is, when the element is no longer than
the tolerance, the line search fails or progress stops; below 1e-10 an
exact coincidence snap finishes.  The same shortest supergradient at the
returned point is its certificate: its length,
``OptimizationResult.grad_norm``, is zero at a kink optimum.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError
from .formulas import NonTemporalFormula, SmoothingConfig
from .kernels import compile_leaf_table, leaf_pass, shortest_supergradient

__all__ = ["OptimizationResult", "optimize_robustness", "cached_optimum"]

_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5
_GRAD_TOL = 1e-8
_MAX_ITER = 50_000
_ESCAPE_NORM = 1e8
_STALL_WINDOW = 100
_STALL_GAIN = 1e-12
# Generous on purpose: candidates are only accepted when they raise the
# objective, so a wide net costs one evaluation and risks nothing.  It is
# also the first kink tolerance of the ascent.
_SNAP_DIST = 0.5
_KINK_FLOOR = 1e-10


@dataclass(frozen=True)
class OptimizationResult:
    x_star: np.ndarray
    rho_opt: float
    iterations: int
    grad_norm: float


def _dot(a: list, b: list) -> float:
    return math.fsum(map(operator.mul, a, b))


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
    centers, and ascends as the module docstring describes, with the kink
    tolerance falling from ``_SNAP_DIST`` to below ``_KINK_FLOOR``;
    ``_snap_candidate`` then tries the exact coincidence point.
    ``grad_norm`` is the length of the shortest supergradient at the
    returned point, counting norm leaves within the last tolerance of
    their kink as on it: zero certifies a kink optimum.  Iterates
    escaping to infinity raise OptimizationError (the conjunction then
    has no bounded superlevel set).
    """
    psi.validate()
    if x_init is not None:
        x = np.array(x_init, dtype=float)
        if x.shape[0] < psi.min_dim:
            raise ValueError(f"state dimension {x.shape[0]} below formula's {psi.min_dim}")
    else:
        x = _default_init(psi)

    table = compile_leaf_table(psi)
    eta = cfg.eta
    kink = _SNAP_DIST
    xs = x.tolist()
    value, d = shortest_supergradient(table, xs, eta, kink)
    p, dd = d, _dot(d, d)
    step = 1.0
    iteration = 0
    window_ref = value
    while iteration < _MAX_ITER:
        # Stationary at this tolerance: shrink it, or stop below the floor.
        stalled = dd <= max(_GRAD_TOL, kink) ** 2
        if not stalled:
            # Backtracking from a step that grows again after successes, so
            # progress is not throttled by one early short step.
            step = min(step * 2.0, 1e6)
            slope = _dot(d, p)
            while True:
                xs_new = [xi + step * pi for xi, pi in zip(xs, p)]
                value_new, d_new = shortest_supergradient(table, xs_new, eta, kink)
                if value_new >= value + _ARMIJO_SLOPE * step * slope:
                    break
                step *= _ARMIJO_SHRINK
                if step < 1e-18:
                    stalled = True
                    break
        if not stalled:
            # Refine the accepted step once, to the top of the parabola
            # through (0, value) with that slope and (step, value_new); the
            # conjugate directions need steps near the line's maximum.
            curv = value + step * slope - value_new
            top = slope * step * step / (2.0 * curv) if curv > 0.0 else step
            if top != step:
                xs_top = [xi + top * pi for xi, pi in zip(xs, p)]
                value_top, d_top = shortest_supergradient(table, xs_top, eta, kink)
                if value_top > value_new:
                    xs_new, value_new, d_new, step = xs_top, value_top, d_top, top
            if not math.isfinite(value_new) or math.sqrt(_dot(xs_new, xs_new)) > _ESCAPE_NORM:
                raise OptimizationError(
                    "ascent iterates escape to infinity; the conjunction has no "
                    "bounded superlevel set"
                )
            iteration += 1
            dd_new = _dot(d_new, d_new)
            beta = max(0.0, (dd_new - _dot(d_new, d)) / dd)
            p = [di + beta * pi for di, pi in zip(d_new, p)]
            if _dot(p, d_new) <= 0.0:  # not uphill: restart
                p = d_new
            xs, value, d, dd = xs_new, value_new, d_new, dd_new
            if iteration % _STALL_WINDOW == 0:
                stalled = value - window_ref < _STALL_GAIN * max(1.0, abs(value))
                window_ref = value
        if stalled:
            if kink < _KINK_FLOOR:
                break
            kink /= 10.0
            value, d = shortest_supergradient(table, xs, eta, kink)
            p, dd = d, _dot(d, d)
            step = 1.0
            window_ref = value

    x = np.array(xs)
    snapped = _snap_candidate(psi, x)
    if snapped is not None:
        snap_value, snap_d = shortest_supergradient(table, snapped.tolist(), eta, kink)
        if snap_value >= value:
            x, value, d = snapped, snap_value, snap_d
    return OptimizationResult(
        x_star=x, rho_opt=value, iterations=iteration, grad_norm=math.sqrt(_dot(d, d))
    )


@functools.lru_cache(maxsize=None)
def cached_optimum(psi: NonTemporalFormula, eta: float) -> float:
    """Memoized smooth optimum for repeated synthesis calls."""
    return optimize_robustness(psi, SmoothingConfig(eta=eta)).rho_opt

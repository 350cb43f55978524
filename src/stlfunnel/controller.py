"""Event-triggered hold around the funnel feedback law.

The law is u(x, t) = -eps(x, t) * g(x)^T * grad rho(x) with eps the
transformed funnel error.  The episode loop evaluates it once per
sample (``kernels.u_xi_eval``) and hands that input to ``make_event``
when the trigger fires, so an event adds only the trigger radius.
Between events the input is frozen; a new event fires when the state
leaves an infinity-norm ball of radius delta_i around the event state
or when delta_i seconds elapse, with delta_i chosen so the frozen input
stays within delta_u of the law over the whole inter-event box.  The
law's Lipschitz constant over that box comes from its analytic
Jacobian, evaluated in one vectorized pass over the probe points.
The probes are the box corners plus quasi-random points: one
unscrambled Sobol point set per (dimension, sample count), built once
per process and moved on each round by a random shift modulo 1
(Cranley and Patterson, SIAM J. Numer. Anal. 1976) drawn from the
round's seed.

This module keeps only the trigger: its configuration and event record,
the box corners and probe points, the radius loop, ``should_trigger``
and ``make_event``.  The funnel guard on the probe rows and the law
Jacobian over them are evaluated in ``kernels`` (``guarded_readout``,
``law_row_sums``).  ``continuous_law``, the law from the dense g(x), and
``law_jacobian``, a one-row call into ``kernels.law_jacobian_batch``,
are the reference forms the tests compare against; neither is on the
episode path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.stats import qmc

from .errors import FunnelViolation, TriggerFloorError
from .formulas import NonTemporalFormula, SmoothingConfig
from .funnel import FunnelParams, gamma_at
from .kernels import guarded_readout, law_jacobian_batch, law_row_sums, smooth_psi_value_and_grad
from .plants import Plant

__all__ = [
    "TriggerConfig",
    "TriggerEvent",
    "continuous_law",
    "law_jacobian",
    "compute_trigger_radius",
    "should_trigger",
]

Cause = Literal["StateDeviation", "MaxInterval", "Initial", "ModeSwitch"]

_CORNER_CAP = 1024


@dataclass(frozen=True)
class TriggerConfig:
    """Parameters of the trigger-radius construction."""

    delta_u: float = 50.0
    lipschitz_safety: float = 2.0
    delta_x0: float = 0.5
    delta_t0: float = 0.5
    shrink: float = 0.5
    sample_count: int = 256
    delta_floor: float = 1e-6

    def __post_init__(self) -> None:
        if min(self.delta_u, self.delta_x0, self.delta_t0, self.delta_floor) <= 0.0:
            raise ValueError("trigger lengths must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must sit in (0, 1)")
        if self.lipschitz_safety < 1.0:
            raise ValueError("lipschitz_safety must be at least 1")
        if self.sample_count < 1 or self.sample_count & (self.sample_count - 1):
            raise ValueError(f"sample_count must be a power of two for Sobol balance, got {self.sample_count}")


@dataclass(frozen=True)
class TriggerEvent:
    index: int
    t: float
    x: np.ndarray
    u: np.ndarray
    delta: float
    cause: Cause


def continuous_law(
    x: np.ndarray,
    t: float,
    psi: NonTemporalFormula,
    fp: FunnelParams,
    plant: Plant,
    smoothing: SmoothingConfig = SmoothingConfig(),
) -> np.ndarray:
    """Reference law u = -eps * g(x)^T * grad rho from the dense ``plant.g(x)``.

    Raises FunnelViolation outside the funnel.  Not on the episode path:
    the loop evaluates the same law through ``kernels.u_xi_eval``, and
    the tests hold both that and the analytic Jacobian to this form.
    """
    rho, grad = smooth_psi_value_and_grad(psi, x, smoothing)
    xi = (rho - fp.rho_max) / gamma_at(fp.perf, t)
    if not (-1.0 < xi < 0.0):
        raise FunnelViolation(xi, t)
    eps = math.log(-(xi + 1.0) / xi)
    return -eps * (plant.g(x).T @ grad)


def law_jacobian(
    x: np.ndarray,
    t: float,
    psi: NonTemporalFormula,
    fp: FunnelParams,
    plant: Plant,
    smoothing: SmoothingConfig = SmoothingConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobian of the law: (du/dx with shape (m, n), du/dt).

    A batch of one over the vectorized Jacobian that also sizes the
    trigger radius.  Raises FunnelViolation outside the funnel.
    """
    x = np.asarray(x, dtype=float)
    du_dx, du_dt, xi = law_jacobian_batch(
        x[None, :], np.array([float(t)]), psi, fp, plant, smoothing.eta
    )
    if not (-1.0 < xi[0] < 0.0):
        raise FunnelViolation(float(xi[0]), t)
    return du_dx[0], du_dt[0]


@functools.lru_cache(maxsize=None)
def _corner_signs(dims: int) -> np.ndarray:
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=dims)))
    signs.setflags(write=False)
    return signs


def _corners(x: np.ndarray, t: float, bx: float, bt: float, rng: np.random.Generator) -> np.ndarray:
    """Corner points of the box, capped by random subsampling."""
    dims = x.shape[0] + 1
    if 2**dims <= _CORNER_CAP:
        signs = _corner_signs(dims)
    else:
        signs = rng.choice((-1.0, 1.0), size=(_CORNER_CAP, dims))
    pts = np.empty_like(signs)
    pts[:, :-1] = x + signs[:, :-1] * bx
    # Time extends forward only: [t, t + bt].
    pts[:, -1] = t + (signs[:, -1] * 0.5 + 0.5) * bt
    return pts


@functools.lru_cache(maxsize=None)
def _sobol_base(dims: int, count: int) -> np.ndarray:
    """The first ``count`` unscrambled Sobol points in [0, 1)^dims, built once."""
    base = qmc.Sobol(d=dims, scramble=False).random(count)
    base.setflags(write=False)
    return base


def _shifted_unit(dims: int, count: int, seed: int) -> np.ndarray:
    """The Sobol base moved by a random shift modulo 1 drawn from ``seed``.

    A Cranley-Patterson rotation: the shift is uniform on [0, 1)^dims,
    so every point is uniform on the cube, and a shift modulo 1 keeps
    the base's stratification (for a power-of-two ``count``, one point
    in each 1/count stratum of every coordinate).
    """
    unit = _sobol_base(dims, count) + np.random.default_rng(seed).random(dims)
    unit[unit >= 1.0] -= 1.0
    return unit


def _probe_points(
    x: np.ndarray, t: float, bx: float, bt: float, tc: TriggerConfig, seed: int,
    corners: np.ndarray,
) -> np.ndarray:
    """Shifted Sobol points of the box drawn from ``seed``, then ``corners``."""
    dims = x.shape[0] + 1
    count = tc.sample_count
    unit = _shifted_unit(dims, count, seed)
    pts = np.empty((count + corners.shape[0], dims))
    pts[:count, :-1] = x + (2.0 * unit[:, :-1] - 1.0) * bx
    pts[:count, -1] = t + unit[:, -1] * bt
    pts[count:] = corners
    return pts


def compute_trigger_radius(
    x_i: np.ndarray,
    t_i: float,
    psi: NonTemporalFormula,
    fp: FunnelParams,
    plant: Plant,
    tc: TriggerConfig = TriggerConfig(),
    smoothing: SmoothingConfig = SmoothingConfig(),
    rng: np.random.Generator | None = None,
) -> float:
    """Trigger radius delta_i = min(delta_u / L_z, box_x, box_t).

    L_z estimates the Lipschitz constant of the law over the box
    B(x_i, box_x) x [t_i, t_i + box_t]: the max infinity-norm of the
    analytic Jacobian with respect to z = (x, t) at quasi-random probes
    plus box corners, times a safety factor.  The box first shrinks
    until all probes keep xi inside (-1 + 1e-3, -1e-3), so the Jacobian
    is finite at every probe; radii below ``delta_floor`` raise
    TriggerFloorError.

    Each round draws the shift seed and then the corners (a random
    subsample above 2^10 of them) from ``rng``, and checks the corners
    first.  The Sobol rows, the cached base moved by a shift from that
    seed's own generator, are built and checked only when every corner
    passes.  This is an early exit from the same all-points test, not a
    different test: a round is accepted exactly when every probe
    passes, the rng is drawn in the same order whether or not the Sobol
    rows are built, and the accepted round's guard read-outs feed the
    Jacobian pass unchanged.  The probes, the radius and the rng stream
    therefore do not depend on the order of the checks.  With concave
    leaves the soft minimum is concave in x and gamma decreases in t, so
    the lowest xi over the box sits at a vertex: when the corners are
    all 2^(n+1) vertices, a box that crosses the lower wall fails at a
    corner and its Sobol rows are never built.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x_i = np.asarray(x_i, dtype=float)
    eta = smoothing.eta
    bx, bt = tc.delta_x0, tc.delta_t0
    while True:
        seed = int(rng.integers(2**32))
        corners = _corners(x_i, t_i, bx, bt, rng)
        at_corners = guarded_readout(corners, psi, fp, eta)
        if at_corners is not None:
            pts = _probe_points(x_i, t_i, bx, bt, tc, seed, corners)
            at_sobol = guarded_readout(pts[: tc.sample_count], psi, fp, eta)
            if at_sobol is not None:
                break
        bx *= tc.shrink
        bt *= tc.shrink
        if min(bx, bt) < tc.delta_floor:
            raise TriggerFloorError(
                t_i, f"no admissible box above {tc.delta_floor:g} (state near funnel boundary)"
            )

    row_sums = law_row_sums(pts, psi, fp, plant, eta, (at_sobol, at_corners))
    l_z = float(row_sums.max()) * tc.lipschitz_safety
    delta = min(tc.delta_u / l_z if l_z > 0.0 else math.inf, bx, bt)
    if delta < tc.delta_floor:
        raise TriggerFloorError(t_i, f"delta {delta:.3g} below floor {tc.delta_floor:g}")
    return delta


def should_trigger(x: np.ndarray, t: float, event: TriggerEvent) -> Cause | None:
    """Strict-inequality trigger test against the active event.

    StateDeviation takes precedence when both conditions exceed.
    """
    if float(np.abs(np.asarray(x) - event.x).max()) > event.delta:
        return "StateDeviation"
    if t - event.t > event.delta:
        return "MaxInterval"
    return None


def make_event(
    psi: NonTemporalFormula,
    fp: FunnelParams,
    x: np.ndarray,
    t: float,
    u: np.ndarray,
    index: int,
    cause: Cause,
    plant: Plant,
    tc: TriggerConfig,
    smoothing: SmoothingConfig = SmoothingConfig(),
    rng: np.random.Generator | None = None,
) -> TriggerEvent:
    """Hold ``u``, the law the caller evaluated at (x, t), and size its radius.

    The law is not evaluated again here: the event adds only the
    trigger radius, which may raise TriggerFloorError.
    """
    x = np.asarray(x, dtype=float)
    delta = compute_trigger_radius(x, t, psi, fp, plant, tc, smoothing, rng)
    return TriggerEvent(index=index, t=t, x=x.copy(), u=u, delta=delta, cause=cause)

"""Event-triggered hold around the funnel feedback law.

The law is u(x, t) = -eps(x, t) * g(x)^T * grad rho(x) with eps the
transformed funnel error.  The episode loop evaluates it only where
the trigger fires (``kernels.u_xi_eval``) and hands that input to
``make_event``, so an event adds only the trigger radius; the held rows
between events are tested as one block (``should_trigger``), and the row
where the block is cut acts on that block's verdicts.
Between events the input is frozen; a new event fires when the state
leaves an infinity-norm ball of radius delta_i around the event state
or when delta_i seconds elapse, with delta_i chosen so the frozen input
stays within delta_u of the law over the whole inter-event box.  Each
round of the radius loop first checks the funnel band at the box's late
vertices, where every leaf's concavity and the never-increasing funnel
width put the lowest xi over the box; only a box that passes draws its
probes, a Latin hypercube (McKay, Beckman and Conover, Technometrics
1979) with one point in each 1/count stratum of every coordinate, and
the law's Lipschitz constant over the box comes from its analytic
Jacobian, evaluated in one vectorized pass over those probes.  For an
omni team that pass first bounds every Jacobian row from the probes'
leaf read-out alone; where even that bound leaves the box term binding,
the radius is the box and no Jacobian term is formed.  Each event
records which term set its radius (``TriggerEvent.delta_by``).

This module keeps only the trigger: its configuration and event record,
the late vertices (as sign patterns) and hypercube probes, the radius
loop, the trigger test (``should_trigger``, over rows) and
``make_event``.  The vertex check, which reads each leaf only at the
corners of the coordinates it selects, and the law Jacobian over the
probe rows, which checks the band there again, are evaluated in
``kernels`` (``band_holds``, ``law_row_sums``).
``TriggerConfig`` holds delta_u and the caps on the state bound and the
maximum triggering interval; the radius loop's own settings are module
constants.  ``continuous_law``, the law from the dense g(x), is the
reference form the tests compare against; it is not on the episode path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import FunnelViolation, TriggerFloorError
from .formulas import NonTemporalFormula, SmoothingConfig
from .funnel import FunnelParams, gamma_at
from .kernels import band_holds, law_row_sums, smooth_psi_value_and_grad, vertex_signs
from .plants import Plant

__all__ = [
    "TriggerConfig",
    "TriggerEvent",
    "continuous_law",
    "compute_trigger_radius",
    "should_trigger",
]

Cause = Literal["StateDeviation", "MaxInterval", "Initial", "ModeSwitch"]
# What set the radius: the box term or delta_u / L_z.
DeltaBy = Literal["box", "lipschitz"]

# Late vertices a guard round reads at most: all of them up to n = 9.
_VERTEX_CAP = 512
# The radius loop: the factor on the largest Jacobian row, the box's
# shrink per refused round, the Latin hypercube rows of an accepted box
# and the smallest box or radius before TriggerFloorError.
_LIPSCHITZ_SAFETY = 2.0
_SHRINK = 0.5
_SAMPLE_COUNT = 256
_DELTA_FLOOR = 1e-6


@dataclass(frozen=True)
class TriggerConfig:
    """The held input's tolerance delta_u and the caps delta_x0 on the state
    bound and delta_t0 on the maximum triggering interval."""

    delta_u: float = 50.0
    delta_x0: float = 0.5
    delta_t0: float = 0.5

    def __post_init__(self) -> None:
        if not all(v > 0.0 for v in (self.delta_u, self.delta_x0, self.delta_t0)):
            raise ValueError("trigger lengths must be positive")


@dataclass(frozen=True)
class TriggerEvent:
    index: int
    t: float
    x: np.ndarray
    u: np.ndarray
    delta: float
    cause: Cause
    delta_by: DeltaBy
    # For a StateDeviation or MaxInterval event, max(|x - x_k|_inf, t - t_k)
    # / delta_k against the previous event k when the trigger fired: how far
    # past the box the grid sample was.  None for Initial and ModeSwitch.
    overshoot: float | None = None


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
    the loop evaluates the same law at events through
    ``kernels.u_xi_eval`` and audits it after the loop through
    ``kernels.u_xi_batch``; the tests hold both, and the analytic
    Jacobian, to this form.
    """
    rho, grad = smooth_psi_value_and_grad(psi, x, smoothing)
    xi = (rho - fp.rho_max) / gamma_at(fp.perf, t)
    if not (-1.0 < xi < 0.0):
        raise FunnelViolation(xi, t)
    eps = math.log(-(xi + 1.0) / xi)
    return -eps * (plant.g(x).T @ grad)


def _probe_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """One round's guard rows as sign patterns (V, n): the late vertices
    (x +- bx, t + bt) of the box B(x, bx) x [t, t + bt] are x + s * bx at
    t + bt for the rows s.  All 2^n of them up to n = 9 (the cached
    ``kernels.vertex_signs``, nothing drawn), above that ``_VERTEX_CAP``
    patterns drawn from ``rng``."""
    if 2**n <= _VERTEX_CAP:
        return vertex_signs(n)
    return rng.choice((-1.0, 1.0), size=(_VERTEX_CAP, n))


@functools.lru_cache(maxsize=None)
def _strata(dims: int, count: int) -> np.ndarray:
    """The strata 0 .. count - 1 of every coordinate as a read-only (dims, count) array."""
    return np.broadcast_to(np.arange(count, dtype=float), (dims, count))


def _latin_hypercube(dims: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points in [0, 1]^dims drawn from ``rng``, one per 1/count
    stratum of every coordinate: per coordinate, a random permutation of
    the strata plus a uniform offset inside each."""
    # Permuting the contiguous rows of (dims, count) strata draws what
    # permuting the columns of (count, dims) would, and is faster; the
    # permutation copies the cached strata.
    unit = rng.permuted(_strata(dims, count), axis=1).T
    unit += rng.random((count, dims))
    unit /= count
    return unit


def _radius(delta_u: float, top: float, box: float) -> float:
    """min(delta_u / L_z, box) with L_z = ``_LIPSCHITZ_SAFETY`` * ``top``, the
    largest Jacobian row sum (infinite where L_z is 0); NaN where ``top`` is
    NaN, so that a NaN row neither settles a pass nor passes the floor."""
    l_z = top * _LIPSCHITZ_SAFETY
    if l_z > 0.0:
        return min(delta_u / l_z, box)
    return box if l_z == 0.0 else math.nan


def compute_trigger_radius(
    x_i: np.ndarray,
    t_i: float,
    psi: NonTemporalFormula,
    fp: FunnelParams,
    plant: Plant,
    tc: TriggerConfig,
    smoothing: SmoothingConfig,
    rng: np.random.Generator,
) -> tuple[float, DeltaBy]:
    """Trigger radius delta_i = min(delta_u / L_z, box_x, box_t), and what set it.

    The box B(x_i, box_x) x [t_i, t_i + box_t] shrinks until xi stays
    inside (-1 + 1e-3, -1e-3) over it, so the law Jacobian is finite
    there; boxes and radii below ``_DELTA_FLOOR`` raise
    TriggerFloorError.  Each round first reads xi at the box's late
    vertices (``_probe_points``, ``kernels.band_holds``, which reads each
    leaf at its own support's corners).  Every leaf is
    concave and gamma never increases, so the lowest xi over the box sits
    at one of them: for n <= 9, where all 2^n are read, a box that passes
    cannot leave the band at its bottom.  Only then does the round draw
    ``_SAMPLE_COUNT`` Latin hypercube rows of the box from ``rng`` and
    take the law Jacobian over them (``kernels.law_row_sums``), which
    checks the band again: the sampled check of the upper wall, and of
    the lower one above n = 9.

    L_z estimates the Lipschitz constant of the law over the accepted
    box: the largest infinity-norm row of that Jacobian with respect to
    z = (x, t) over its hypercube rows, times ``_LIPSCHITZ_SAFETY``.
    ``delta_by`` names the term that set the radius, "box" or "lipschitz".
    The pass is handed the radius's own test, ``_radius(...) == box``: for
    an omni team it asks that test about an upper bound on every row
    (``kernels._omni_readout_bound``, from the hypercube's leaf read-out,
    with no leaf gradient, Hessian or wheel map), and where it holds
    returns the bound rows, so the radius is the box and "box" bitwise as
    the exact rows would give.  Otherwise it returns the exact rows.  A
    NaN row neither settles the test nor passes the floor: it raises
    TriggerFloorError.
    """
    x_i = np.asarray(x_i, dtype=float)
    eta = smoothing.eta
    bx, bt = tc.delta_x0, tc.delta_t0
    while True:
        if band_holds(x_i, bx, t_i + bt, _probe_points(x_i.shape[0], rng), psi, fp, eta):
            pts = _latin_hypercube(x_i.shape[0] + 1, _SAMPLE_COUNT, rng)
            pts[:, :-1] = x_i + (2.0 * pts[:, :-1] - 1.0) * bx
            pts[:, -1] = t_i + pts[:, -1] * bt
            box = min(bx, bt)
            sums = law_row_sums(pts, psi, fp, plant, eta, lambda top: _radius(tc.delta_u, top, box) == box)
            if sums is not None:
                break
        bx *= _SHRINK
        bt *= _SHRINK
        if min(bx, bt) < _DELTA_FLOOR:
            raise TriggerFloorError(
                t_i, f"no admissible box above {_DELTA_FLOOR:g} (state near funnel boundary)"
            )

    delta = _radius(tc.delta_u, float(sums.max()), box)
    if not delta >= _DELTA_FLOOR:
        raise TriggerFloorError(t_i, f"delta {delta:.3g} below floor {_DELTA_FLOOR:g}")
    return delta, "lipschitz" if delta < box else "box"


def should_trigger(
    X: np.ndarray, steps: np.ndarray | int, dt: float, event: TriggerEvent
) -> tuple[np.ndarray, np.ndarray]:
    """The trigger's two strict tests at every row of X (K, n), ``steps``
    (K,) samples of ``dt`` after the event: whether max_j |x_j - x_event_j|
    exceeds delta (StateDeviation, which takes precedence where both fire)
    and whether the whole steps exceed delta / dt (MaxInterval).

    Comparing step counts keeps a hold of exactly delta from firing
    however the funnel clock rounds.  One state (n,) with an integer
    ``steps`` gives the two tests as scalars.
    """
    return np.abs(X - event.x).max(axis=-1) > event.delta, steps > event.delta / dt


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
    smoothing: SmoothingConfig,
    rng: np.random.Generator,
) -> TriggerEvent:
    """Hold ``u``, the law the caller evaluated at (x, t), and size its radius.

    The law is not evaluated again here: the event adds only the
    trigger radius, which may raise TriggerFloorError.
    """
    x = np.asarray(x, dtype=float)
    delta, delta_by = compute_trigger_radius(x, t, psi, fp, plant, tc, smoothing, rng)
    return TriggerEvent(
        index=index, t=t, x=x.copy(), u=u, delta=delta, cause=cause, delta_by=delta_by
    )

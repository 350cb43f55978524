"""Event-triggered hold around the funnel feedback law.

The law is u(x, t) = -eps(x, t) * g(x)^T * grad rho(x) with eps the
transformed funnel error.  The episode loop evaluates it only where
the trigger fires (``kernels.u_xi_eval``) and hands that input to
``make_event``, so an event adds only the trigger radius; between
events a sample reads the value of rho and runs ``should_trigger``.
Between events the input is frozen; a new event fires when the state
leaves an infinity-norm ball of radius delta_i around the event state
or when delta_i seconds elapse, with delta_i chosen so the frozen input
stays within delta_u of the law over the whole inter-event box.  The
law's Lipschitz constant over that box comes from its analytic
Jacobian, evaluated in one vectorized pass over the probe points.
The probes are the box corners plus a Latin hypercube (McKay, Beckman
and Conover, Technometrics 1979) drawn from the round's seed: for any
sample count, one point in each 1/count stratum of every coordinate.
Where the corners outnumber the hypercube rows, a cheaper upper bound
on the same sampled estimate comes first, and when it already leaves
delta_u / L_z above the box the Jacobian pass is skipped; each event
records which term set its radius (``TriggerEvent.delta_by``).

This module keeps only the trigger: its configuration and event record,
the box corners and probe points, the radius loop, ``should_trigger``
and ``make_event``.  The funnel guard on the probe rows, the law
Jacobian over them and its row bound are evaluated in ``kernels``
(``guarded_readout``, ``joined_rows``, ``law_row_sums``,
``law_row_bound``); the bound and the Jacobian share one joined read-out
and one gradient step.
``continuous_law``, the law from the dense g(x), is the reference form
the tests compare against; it is not on the episode path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import FunnelViolation, TriggerFloorError
from .formulas import NonTemporalFormula, SmoothingConfig
from .funnel import FunnelParams, gamma_at
from .kernels import guarded_readout, joined_rows, law_row_bound, law_row_sums, smooth_psi_value_and_grad
from .plants import Plant, is_int

__all__ = [
    "TriggerConfig",
    "TriggerEvent",
    "continuous_law",
    "compute_trigger_radius",
    "should_trigger",
]

Cause = Literal["StateDeviation", "MaxInterval", "Initial", "ModeSwitch"]
# What set the radius: the row bound without the Jacobian pass, or after
# that pass the box term or delta_u / L_z.
DeltaBy = Literal["bound", "box", "lipschitz"]

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
        if not all(v > 0.0 for v in (self.delta_u, self.delta_x0, self.delta_t0, self.delta_floor)):
            raise ValueError("trigger lengths must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must sit in (0, 1)")
        if not self.lipschitz_safety >= 1.0:
            raise ValueError("lipschitz_safety must be at least 1")
        if not is_int(self.sample_count) or self.sample_count < 1:
            raise ValueError(f"sample_count must be an integer of at least 1, got {self.sample_count!r}")


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


def _latin_hypercube(dims: int, count: int, seed: int) -> np.ndarray:
    """``count`` points in [0, 1]^dims drawn from ``seed``, one per 1/count
    stratum of every coordinate: per coordinate, a random permutation of
    the strata plus a uniform offset inside each."""
    rng = np.random.default_rng(seed)
    strata = np.broadcast_to(np.arange(count, dtype=float)[:, None], (count, dims))
    unit = rng.permuted(strata, axis=0)
    unit += rng.random((count, dims))
    unit /= count
    return unit


def _probe_points(
    x: np.ndarray, t: float, bx: float, bt: float, tc: TriggerConfig, seed: int,
    corners: np.ndarray,
) -> np.ndarray:
    """Latin hypercube rows of the box drawn from ``seed``, then ``corners``."""
    dims = x.shape[0] + 1
    count = tc.sample_count
    unit = _latin_hypercube(dims, count, seed)
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
) -> tuple[float, DeltaBy]:
    """Trigger radius delta_i = min(delta_u / L_z, box_x, box_t), and what set it.

    L_z estimates the Lipschitz constant of the law over the box
    B(x_i, box_x) x [t_i, t_i + box_t]: the max infinity-norm of the
    analytic Jacobian with respect to z = (x, t) at Latin hypercube
    probes plus box corners, times a safety factor.  The box first
    shrinks until all probes keep xi inside (-1 + 1e-3, -1e-3), so the
    Jacobian is finite at every probe; radii below ``delta_floor`` raise
    TriggerFloorError.

    Each round draws the hypercube's seed and then the corners (a random
    subsample above 2^10 of them) from ``rng``, and checks the corners
    first.  The hypercube rows, drawn from that seed's own generator,
    are built and checked only when every corner passes.  This is an
    early exit from the same all-points test, not a different test: a
    round is accepted exactly when every probe passes, the rng is drawn
    in the same order whether or not the hypercube rows are built, and
    the accepted round's guard read-outs feed the Jacobian pass
    unchanged.  The probes, the radius and the rng stream therefore do
    not depend on the order of the checks.  Every leaf is concave, so
    the soft minimum is concave in x, and gamma decreases in t, so
    the lowest xi over the box sits at a vertex: when the corners are
    all 2^(n+1) vertices, a box that crosses the lower wall fails at a
    corner and its hypercube rows are never built.

    ``delta_by`` names the term that set the radius.  When the corners
    outnumber the hypercube rows (n >= 8 at the default 256 rows), the
    accepted round first takes ``kernels.law_row_bound``, an upper bound
    on the largest Jacobian row sum over the same probes, from the guard's
    read-outs alone.  If even that bound leaves delta_u / L_z above the
    box (with a 1e-9 relative margin for rounding), the box term binds,
    the Jacobian pass is skipped and ``delta_by`` is "bound".  Otherwise
    the pass runs over all probes as before, and ``delta_by`` is "box" or
    "lipschitz".  The radius is the same either way.  The gate is there
    because the bound pays only where the pass is large: at 1280 probe
    rows (n = 9) it costs about a third of the pass and settles most
    radii of the bundled scenario, while at 264 rows (n = 2), where
    numpy's fixed cost per call dominates, it costs nearly as much as
    the pass and settles under half of the patrol benchmark's radii.
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
            at_rows = guarded_readout(pts[: tc.sample_count], psi, fp, eta)
            if at_rows is not None:
                break
        bx *= tc.shrink
        bt *= tc.shrink
        if min(bx, bt) < tc.delta_floor:
            raise TriggerFloorError(
                t_i, f"no admissible box above {tc.delta_floor:g} (state near funnel boundary)"
            )

    box = min(bx, bt)
    rows = joined_rows((at_rows, at_corners), psi, x_i.shape[0])
    # A NaN bound fails the comparison and falls through to the exact pass.
    if (corners.shape[0] > tc.sample_count
            and law_row_bound(pts, psi, fp, plant, eta, rows) * tc.lipschitz_safety
            * box * (1.0 + 1e-9) < tc.delta_u):
        delta, delta_by = box, "bound"
    else:
        l_z = float(law_row_sums(pts, psi, fp, plant, eta, rows).max()) * tc.lipschitz_safety
        delta = min(tc.delta_u / l_z if l_z > 0.0 else math.inf, box)
        delta_by = "lipschitz" if delta < box else "box"
    if delta < tc.delta_floor:
        raise TriggerFloorError(t_i, f"delta {delta:.3g} below floor {tc.delta_floor:g}")
    return delta, delta_by


def should_trigger(x: np.ndarray | list[float], t: float, event: TriggerEvent) -> Cause | None:
    """Strict-inequality trigger test against the active event.

    StateDeviation takes precedence when both conditions exceed.  ``x``
    is an array or the list of its floats; the deviation is the same
    max |x_j - x_event_j| either way, in plain floats.
    """
    if max([abs(a - b) for a, b in zip(x, event.x.tolist())]) > event.delta:
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
    delta, delta_by = compute_trigger_radius(x, t, psi, fp, plant, tc, smoothing, rng)
    return TriggerEvent(
        index=index, t=t, x=x.copy(), u=u, delta=delta, cause=cause, delta_by=delta_by
    )

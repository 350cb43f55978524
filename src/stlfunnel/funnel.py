"""Performance funnels and their runtime synthesis.

A funnel prescribes that the smoothed robustness rho(x(t)) of the
active conjunction stays inside

    rho_max - gamma(t) < rho(x(t)) < rho_max

with gamma(t) = (gamma0 - gamma_inf) * exp(-l t) + gamma_inf.  The
normalized error xi = (rho - rho_max) / gamma(t) then lives in (-1, 0)
and the law maps it to an unconstrained error by the strictly increasing
transform S(xi) = ln(-(xi + 1) / xi), with S(-1/2) = 0.  Parameter
synthesis picks (t_star, rho_max, r, gamma0, gamma_inf, l) so that
gamma(t_star) <= rho_max - r, which forces rho > r at the satisfaction
time t_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SynthesisError
from .formulas import AtomicTask, SmoothingConfig
from .kernels import funnel_width, smooth_psi_value_and_grad

__all__ = [
    "PerformanceFunction",
    "FunnelParams",
    "SynthesisConfig",
    "gamma_at",
    "synthesize_funnel",
    "audit_funnel",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class PerformanceFunction:
    """Exponentially narrowing bound gamma(t)."""

    gamma0: float
    gamma_inf: float
    l: float

    def __post_init__(self) -> None:
        if not (self.gamma0 >= self.gamma_inf > 0.0):
            raise ValueError("need gamma0 >= gamma_inf > 0")
        if self.l < 0.0:
            raise ValueError("decay rate must be nonnegative")


def gamma_at(pf: PerformanceFunction, t: float) -> float:
    """Value of the performance bound at time t >= 0."""
    return float(funnel_width(pf, t)[0])


@dataclass(frozen=True)
class FunnelParams:
    """Synthesized funnel for one atomic task."""

    t_star: float
    r: float
    rho_max: float
    perf: PerformanceFunction

    def __post_init__(self) -> None:
        if not (0.0 < self.r < self.rho_max):
            raise ValueError("need 0 < r < rho_max")


@dataclass(frozen=True)
class SynthesisConfig:
    """Synthesis defaults and explicit overrides.

    ``chi`` is the safety gap below the achievable optimum; when None it
    defaults to 5% of (rho_opt - max(0, rho(x0))).  ``r_frac`` sizes the
    satisfaction threshold r as a fraction of rho_max.  The remaining
    fields override the corresponding synthesized parameter outright.
    """

    chi: float | None = None
    r_frac: float = 0.25
    t_star: float | None = None
    rho_max: float | None = None
    r: float | None = None
    gamma0: float | None = None
    gamma_inf: float | None = None
    l: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.r_frac < 1.0):
            raise ValueError("r_frac must sit in (0, 1)")
        if not all(v is None or v > 0.0 for v in (self.chi, self.rho_max, self.r, self.gamma0, self.gamma_inf)):
            raise ValueError("chi, rho_max, r, gamma0 and gamma_inf must be positive when set")
        if not all(v is None or v >= 0.0 for v in (self.t_star, self.l)):
            raise ValueError("t_star and l must be non-negative when set")


def synthesize_funnel(
    phi: AtomicTask,
    x0: np.ndarray,
    cfg: SynthesisConfig = SynthesisConfig(),
    smoothing: SmoothingConfig = SmoothingConfig(),
) -> FunnelParams:
    """Select funnel parameters for one atomic task starting at x0.

    The task window is interpreted on the clock that starts at x0 (the
    sequencer passes windows already shifted into that clock).  The
    returned parameters are re-audited against every interval
    constraint; a failed audit raises SynthesisError.
    """
    from .optimize import cached_optimum

    lo, hi = phi.local_window if phi.p == 0 else phi.window
    if hi < 0.0:
        raise SynthesisError(f"task window [{lo:.6g}, {hi:.6g}] already passed")
    lo = max(lo, 0.0)

    rho0, _ = smooth_psi_value_and_grad(phi.psi, np.asarray(x0, dtype=float), smoothing)
    if not math.isfinite(rho0):
        raise SynthesisError(f"robustness at x0 is not finite ({rho0})")
    rho_opt = cached_optimum(phi.psi, smoothing.eta)
    if rho_opt <= 0.0:
        raise SynthesisError(f"achievable optimum {rho_opt:.6g} is not positive")

    t_star = cfg.t_star if cfg.t_star is not None else (lo if phi.m == 1 else hi)
    if not lo <= t_star <= hi:
        raise SynthesisError(f"t_star {t_star:.6g} outside window [{lo:.6g}, {hi:.6g}]")

    floor = max(0.0, rho0)
    chi = cfg.chi if cfg.chi is not None else 0.05 * (rho_opt - floor)
    if not 0.0 < chi < rho_opt - floor:
        raise SynthesisError(
            f"chi {chi:.6g} must sit in (0, {rho_opt - floor:.6g}); "
            "the task is not reachable from this state otherwise"
        )

    rho_max = cfg.rho_max if cfg.rho_max is not None else rho_opt - chi
    r = cfg.r if cfg.r is not None else cfg.r_frac * rho_max

    if rho0 >= rho_max:
        raise SynthesisError(
            f"rho_max {rho_max:.6g} must exceed the current robustness {rho0:.6g}"
        )
    if t_star == 0.0 and rho0 <= r:
        raise SynthesisError(
            f"immediate deadline but rho(x0)={rho0:.6g} <= r={r:.6g}"
        )

    if cfg.gamma0 is not None:
        gamma0 = cfg.gamma0
    elif t_star > 0.0:
        gamma0 = (rho_max - rho0) + 0.5 * rho_max
    else:
        gamma0 = rho_max - r

    second_branch = -gamma0 + rho_max < r
    if cfg.gamma_inf is not None:
        gamma_inf = cfg.gamma_inf
    elif second_branch:
        # The interval top min(gamma0, rho_max - r) would demand an
        # infinite decay rate here, so take the interval midpoint.
        gamma_inf = 0.5 * (rho_max - r)
    else:
        gamma_inf = min(gamma0, rho_max - r)

    if cfg.l is not None:
        l = cfg.l
    elif second_branch:
        if t_star <= 0.0:
            raise SynthesisError("gamma0 exceeds rho_max - r with an immediate deadline")
        num = r + gamma_inf - rho_max
        den = -(gamma0 - gamma_inf)
        if not num < 0.0 or not den < 0.0:
            raise SynthesisError(
                f"no finite decay rate reaches gamma(t_star) = rho_max - r "
                f"with gamma_inf={gamma_inf:.6g}"
            )
        l = math.log(num / den) / (-t_star)
    else:
        l = 0.0

    try:
        params = FunnelParams(
            t_star=t_star,
            r=r,
            rho_max=rho_max,
            perf=PerformanceFunction(gamma0=gamma0, gamma_inf=gamma_inf, l=l),
        )
    except ValueError as exc:
        # Explicit overrides can yield parameters the dataclasses reject.
        raise SynthesisError(str(exc)) from exc
    audit_funnel(params, rho0=rho0, rho_opt=rho_opt, chi=chi)
    return params


def audit_funnel(fp: FunnelParams, rho0: float, rho_opt: float, chi: float) -> None:
    """Re-validate every interval constraint on synthesized parameters."""
    pf = fp.perf
    tol = _REL_TOL * max(1.0, abs(rho_opt), pf.gamma0)
    checks = [
        (pf.gamma0 >= pf.gamma_inf > 0.0, "gamma ordering"),
        (pf.l >= 0.0, "nonnegative decay"),
        (max(0.0, rho0) < fp.rho_max <= rho_opt - chi + tol, "rho_max interval"),
        (0.0 < fp.r < fp.rho_max, "r interval"),
        (pf.gamma0 > fp.rho_max - rho0, "gamma0 lower bound"),
        (
            fp.t_star > 0.0 or pf.gamma0 <= fp.rho_max - fp.r + tol,
            "gamma0 upper bound at an immediate deadline",
        ),
        (pf.gamma_inf <= min(pf.gamma0, fp.rho_max - fp.r) + tol, "gamma_inf interval"),
        (
            gamma_at(pf, fp.t_star) <= fp.rho_max - fp.r + tol,
            "funnel width at t_star",
        ),
    ]
    for ok, name in checks:
        if not ok:
            raise SynthesisError(f"funnel audit failed: {name}")

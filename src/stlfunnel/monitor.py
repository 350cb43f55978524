"""Exact robustness monitoring over sampled trajectories.

Temporal windows are evaluated over the samples whose timestamps fall
in the closed interval [t+a, t+b].  Coverage rules:

* the window start must lie inside the sampled span and the window must
  contain at least one sample, otherwise the value is undefined;
* an Always window must additionally be covered through its end, since
  a truncated minimum would overestimate;
* an Eventually window may be truncated by an early-stopped run: the
  max over the recorded samples is a sound lower bound and constitutes
  the run's satisfaction evidence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import WindowError
from .formulas import SequentialFormula, TemporalFormula, normalize_sequential
from .kernels import exact_psi_batch

if TYPE_CHECKING:
    from .sim import Trajectory

__all__ = ["monitor_robustness"]


def monitor_robustness(
    f: TemporalFormula | SequentialFormula, traj: Trajectory, t: float
) -> float:
    """Exact robustness of a temporal formula over a sampled trajectory.

    Evaluates the min/max composition of exact conjunction robustness
    over the trajectory samples: Always takes the window minimum,
    Eventually the window maximum, and a sequential formula the minimum
    over its atomic tasks.  Chains are evaluated through their
    cumulative-window normalization.  Only the samples inside a window
    are read out.  A trajectory without samples raises WindowError, and a
    non-finite time or window state raises ValueError naming its time.
    """
    times = np.asarray(traj.t, dtype=float)
    X = np.asarray(traj.X, dtype=float)
    if times.size == 0:
        raise WindowError("trajectory has no samples")
    bad = ~np.isfinite(times)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"trajectory time {times[k]} at sample {k} is not finite")
    if f.__class__ is TemporalFormula:
        atoms = [(f.op, f.a, f.b, f.psi)]
    else:
        atoms = [
            ("G" if task.m == 1 else "F", task.window[0], task.window[1], task.psi)
            for task in normalize_sequential(f)
        ]
    value = np.inf
    for op, a, b, psi in atoms:
        lo, hi = t + a, t + b
        if times[0] > lo + 1e-12:
            raise WindowError(f"window start {lo:.6g} precedes first sample {times[0]:.6g}")
        if op == "G" and times[-1] < hi - 1e-12:
            raise WindowError(f"window end {hi:.6g} exceeds last sample {times[-1]:.6g}")
        mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
        if not mask.any():
            raise WindowError(f"no samples inside window [{lo:.6g}, {hi:.6g}]")
        window = X[mask]
        bad = ~np.isfinite(window).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite state at t={times[mask][bad.argmax()]:.6g}")
        rho = exact_psi_batch(psi, window)
        value = min(value, rho.min() if op == "G" else rho.max())
    return float(value)

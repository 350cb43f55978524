"""Hybrid sequencing of ordered atomic tasks.

One funnel controller is active per mode.  Completing task q jumps the
mode counter, accumulates the elapsed local clock into Delta, resets
the clock, and synthesizes a fresh funnel for task q+1 from the state
at the jump.  Windows of ordered-conjunction tasks live on the global
clock and are shifted by Delta at each entry; chain-step windows are
already relative to the previous satisfaction time and are used as-is.
After the final task the system enters a terminal mode that keeps the
last conjunction and funnel active.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DeadlineError
from .formulas import AtomicTask, NonTemporalFormula, SequentialFormula, SmoothingConfig, normalize_sequential
from .funnel import FunnelParams, SynthesisConfig, synthesize_funnel
from .robustness import smooth_psi_value_and_grad

__all__ = ["SequencerConfig", "HybridState", "init_sequencer", "jump_if_due"]

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class SequencerConfig:
    """Per-task synthesis overrides plus shared smoothing.

    ``synthesis`` is broadcast when a single config is given for a
    multi-task formula.  ``terminal_tail`` extends the run past the
    final jump by a fixed duration.
    """

    synthesis: tuple[SynthesisConfig, ...] = (SynthesisConfig(),)
    smoothing: SmoothingConfig = SmoothingConfig()
    terminal_tail: float = 0.0

    def task_synthesis(self, index: int, n_tasks: int) -> SynthesisConfig:
        if len(self.synthesis) == 1:
            return self.synthesis[0]
        if len(self.synthesis) != n_tasks:
            raise ValueError("synthesis override count does not match task count")
        return self.synthesis[index]


@dataclass
class HybridState:
    """Mode, clocks, and the active funnel of one episode."""

    tasks: list[AtomicTask]
    q: int
    t_local: float
    Delta: float
    fp: FunnelParams
    terminal_offset: float = 0.0
    jump_times: list[float] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def terminal(self) -> bool:
        return self.q > self.n_tasks

    @property
    def active_task(self) -> AtomicTask:
        return self.tasks[min(self.q, self.n_tasks) - 1]


def _entry_task(task: AtomicTask, delta: float) -> AtomicTask:
    """Shift a task window onto the clock that starts at mode entry."""
    if task.p == 0:
        return task
    lo, hi = task.window
    if hi - delta < -_TIME_TOL:
        raise DeadlineError(0, delta, float("nan"))
    return replace(task, window=(max(lo - delta, 0.0), hi - delta))


def init_sequencer(
    theta: SequentialFormula, x0: np.ndarray, cfg: SequencerConfig = SequencerConfig()
) -> HybridState:
    """Mode-1 hybrid state with the first funnel synthesized at x0."""
    tasks = normalize_sequential(theta)
    fp = synthesize_funnel(
        _entry_task(tasks[0], 0.0), x0, cfg.task_synthesis(0, len(tasks)), cfg.smoothing
    )
    return HybridState(tasks=tasks, q=1, t_local=0.0, Delta=0.0, fp=fp)


def jump_if_due(
    z: HybridState,
    x: np.ndarray,
    cfg: SequencerConfig = SequencerConfig(),
    rho: float | None = None,
) -> HybridState | None:
    """Evaluate the jump condition at a sample; return the post-jump state.

    Eventually tasks jump at the first sample where the smoothed
    robustness sits in (r, rho_max) and the local clock is inside the
    jump window; Always tasks jump when the local clock reaches the
    window deadline.  A clock past its deadline without a jump raises
    DeadlineError.  Returns None when no jump is due.
    """
    if z.terminal:
        return None
    task = z.active_task
    entry = _entry_task(task, z.Delta)
    lo, hi = entry.window if task.p == 1 else entry.local_window
    lo = max(lo, 0.0)
    if rho is None:
        rho, _ = smooth_psi_value_and_grad(task.psi, np.asarray(x, dtype=float), cfg.smoothing)

    if task.m == 1:
        due = z.t_local >= hi - _TIME_TOL
        if due and not rho > z.fp.r:
            raise DeadlineError(z.q, z.Delta + z.t_local, rho)
    else:
        top = z.fp.t_star
        due = (z.fp.r < rho < z.fp.rho_max) and (lo - _TIME_TOL <= z.t_local <= top + _TIME_TOL)
        if not due and z.t_local > top + _TIME_TOL:
            raise DeadlineError(z.q, z.Delta + z.t_local, rho)
    if not due:
        return None

    new_q = z.q + 1
    new_delta = z.Delta + z.t_local
    if new_q <= z.n_tasks:
        next_task = _entry_task(z.tasks[new_q - 1], new_delta)
        fp = synthesize_funnel(
            next_task, x, cfg.task_synthesis(new_q - 1, z.n_tasks), cfg.smoothing
        )
        offset = 0.0
    else:
        # Terminal mode: keep the last funnel; its clock keeps running
        # so the prescribed bound continues to narrow, never re-widens.
        fp = z.fp
        offset = z.t_local
    return HybridState(
        tasks=z.tasks,
        q=new_q,
        t_local=0.0,
        Delta=new_delta,
        fp=fp,
        terminal_offset=offset,
        jump_times=z.jump_times + [new_delta],
    )


def funnel_clock(z: HybridState) -> float:
    """Clock against which the active funnel is evaluated."""
    return z.t_local + (z.terminal_offset if z.terminal else 0.0)


def active_psi(z: HybridState) -> NonTemporalFormula:
    return z.active_task.psi


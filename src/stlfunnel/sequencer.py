"""Hybrid sequencing of ordered atomic tasks.

One funnel controller is active per mode.  Completing task q jumps the
mode counter, accumulates the elapsed local clock into Delta, resets
the clock, and enters task q+1 from the state at the jump.  Entering a
task resolves the mode once: windows of ordered-conjunction tasks live
on the global clock and are shifted by Delta, chain-step windows are
already relative to the previous satisfaction time and are used as-is,
and the funnel is synthesized.  The resulting ``HybridState`` holds the
mode's conjunction, funnel, task kind and jump window, so the jump
check (``jump_rows``) only compares numbers, at one sample or at a
block of rows.  After the final task the
system enters a terminal mode that keeps the last conjunction and
funnel active.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DeadlineError
from .formulas import AtomicTask, NonTemporalFormula, SequentialFormula, SmoothingConfig, normalize_sequential
from .funnel import FunnelParams, SynthesisConfig, synthesize_funnel
from .kernels import smooth_psi_value_and_grad

__all__ = ["SequencerConfig", "HybridState", "init_sequencer", "jump_rows", "jump_if_due"]

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

    def __post_init__(self) -> None:
        if not self.synthesis:
            raise ValueError("synthesis needs at least one entry")
        if not self.terminal_tail >= 0.0:
            raise ValueError(f"terminal_tail must be non-negative, got {self.terminal_tail}")

    def task_synthesis(self, index: int, n_tasks: int) -> SynthesisConfig:
        if len(self.synthesis) == 1:
            return self.synthesis[0]
        if len(self.synthesis) != n_tasks:
            raise ValueError("synthesis override count does not match task count")
        return self.synthesis[index]


@dataclass
class HybridState:
    """The active mode of one episode, resolved once when it is entered.

    Entering task q fixes its conjunction ``psi``, its funnel ``fp``,
    whether it is an Always task, and its jump window ``[lo, hi]`` on
    the mode clock ``t_local``: Always tasks jump at hi, Eventually
    tasks anywhere in [lo, hi] with hi the funnel's t_star.  None of
    these change until the next jump.  The terminal mode keeps the last
    task's ``psi`` and ``fp`` and sets ``offset`` to that task's clock at
    the jump; the funnel is evaluated at ``t_local + offset``, and
    ``offset`` is 0.0 in every other mode.
    """

    tasks: list[AtomicTask]
    q: int
    Delta: float
    psi: NonTemporalFormula
    fp: FunnelParams
    always: bool
    jump_window: tuple[float, float]
    jump_times: list[float]
    t_local: float = 0.0
    terminal: bool = False
    offset: float = 0.0


def _enter(
    tasks: list[AtomicTask],
    q: int,
    delta: float,
    x: np.ndarray,
    cfg: SequencerConfig,
    jump_times: list[float],
    rho: float = float("nan"),
) -> HybridState:
    """Resolve task q (1-based), entered at global time delta in state x.

    Ordered-conjunction windows are shifted onto the mode clock; a
    window that already closed raises DeadlineError for task q with the
    robustness ``rho`` at the jump.  The funnel is synthesized here,
    once per mode.
    """
    task = tasks[q - 1]
    if task.p == 1:
        lo, hi = task.window
        if hi - delta < -_TIME_TOL:
            raise DeadlineError(q, delta, rho)
        lo, hi = max(lo - delta, 0.0), hi - delta
        task = replace(task, window=(lo, hi))
    else:
        lo, hi = task.local_window
    fp = synthesize_funnel(task, x, cfg.task_synthesis(q - 1, len(tasks)), cfg.smoothing)
    always = task.m == 1
    return HybridState(
        tasks=tasks,
        q=q,
        Delta=delta,
        psi=task.psi,
        fp=fp,
        always=always,
        jump_window=(max(lo, 0.0), hi if always else fp.t_star),
        jump_times=jump_times,
    )


def init_sequencer(
    theta: SequentialFormula, x0: np.ndarray, cfg: SequencerConfig = SequencerConfig()
) -> HybridState:
    """Mode-1 hybrid state with the first funnel synthesized at x0."""
    return _enter(normalize_sequential(theta), 1, 0.0, x0, cfg, [])


def jump_rows(z: HybridState, rho: float | np.ndarray, t: float | np.ndarray) -> tuple:
    """Whether the jump is due, and whether its deadline passed without it,
    at robustness ``rho`` and mode clock ``t``: floats, or arrays of rows.

    Eventually tasks are due where rho sits in (r, rho_max) and t inside
    the jump window, and overdue once t is past the window without that;
    Always tasks are due once t reaches the window deadline, and overdue
    there unless rho > r.  The terminal mode is neither.
    """
    if z.terminal:
        return False, False
    lo, hi = z.jump_window
    if z.always:
        due = t >= hi - _TIME_TOL
        return due, due & np.logical_not(rho > z.fp.r)
    due = (z.fp.r < rho) & (rho < z.fp.rho_max) & (lo - _TIME_TOL <= t) & (t <= hi + _TIME_TOL)
    return due, np.logical_not(due) & (t > hi + _TIME_TOL)


def jump_if_due(
    z: HybridState,
    x: np.ndarray,
    cfg: SequencerConfig = SequencerConfig(),
    rho: float | None = None,
) -> HybridState | None:
    """Evaluate the jump condition (``jump_rows``) at a sample, on the mode
    clock ``z.t_local``; return the post-jump state.

    An overdue clock raises DeadlineError, as does entering a task whose
    window already closed.  Returns None when no jump is due.
    """
    if z.terminal:
        return None
    if rho is None:
        rho, _ = smooth_psi_value_and_grad(z.psi, np.asarray(x, dtype=float), cfg.smoothing)
    t = z.t_local
    due, overdue = jump_rows(z, rho, t)
    if overdue:
        raise DeadlineError(z.q, z.Delta + t, rho)
    if not due:
        return None

    delta = z.Delta + t
    jump_times = z.jump_times + [delta]
    if z.q < len(z.tasks):
        return _enter(z.tasks, z.q + 1, delta, x, cfg, jump_times, rho)
    # Terminal mode: keep the last funnel; its clock keeps running so
    # the prescribed bound continues to narrow, never re-widens.
    return replace(
        z, q=z.q + 1, Delta=delta, t_local=0.0, terminal=True, offset=t, jump_times=jump_times
    )

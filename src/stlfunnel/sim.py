"""Fixed-step closed-loop simulation with event-triggered input holds.

An episode is a control loop, then one scoring pass.  The loop holds
inputs, appends events and phases, and logs the rows it computed (state,
rho, gamma).  Its unit is the segment between events.  Every row is
tested once, by one read of the active phase's rows (``read``): rho
(``kernels.rho_rows``), gamma (``kernels.funnel_width``), the funnel
band test, the jump or deadline test (``jump_rows``, due or overdue),
the terminal test and the horizon test, as row comparisons.  The read
that cuts at a row hands that row's verdicts, and the trigger's cause
there, to the loop head, which only acts on them: it fails the run,
jumps (``jump_if_due``, where the read found the jump due or overdue;
the row is then read again, alone, in the new phase), evaluates the law
(``kernels.u_xi_eval``) and calls ``make_event``, which holds that input
and adds the trigger radius, or finishes.  Row 0 is read alone too.  The
rows after the head hold its input and form one block of K = floor(delta
/ dt) + 1 - (steps already held) rows, so MaxInterval fires at its last
row at the latest (fewer where the noise table ends, at or past the
horizon row, which then fires):

* its noise is rows k ... k + K - 1 of the episode's noise table, and
  ``step_rk4`` gives its K states, rows k + 1 ... k + K, under the exact
  zero-order-hold flow of dx/dt = g(x) u_held + w, each step holding its
  noise row;
* the trigger test runs on every row (``should_trigger``), and ``read``
  up to the first row where it fires.

The block is cut at its first row where any test fires: the head row and
the rows before the cut are logged as one block, and the cut row is the
next head.  The segments reproduce a per-sample loop bitwise, since one
row and a block take gamma and rho with the same exp and log
(``kernels``).

The seed is split once into two independent streams.  The first draws
the episode's noise table up front, int(horizon / dt) + 1 rows, row k
the disturbance held from sample k to k + 1: the noise is a function of
(seed, step) alone.  The second is the trigger radius's generator, so
what the radius draws moves no noise row.

A failure at a cut row logs that row and ends the episode, at one site.
All clocks advance on an integer step counter so jump bookkeeping is
exact.  The scoring pass (``_score``) computes every ``RunMetrics``
figure from the joined log, the events and the phases, all rows but a
failure row.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import get_args

import numpy as np

from . import kernels
from .kernels import u_xi_batch
from .controller import DeltaBy, TriggerConfig, TriggerEvent, make_event, should_trigger
from .errors import DeadlineError, SynthesisError, TriggerFloorError
from .formulas import SequentialFormula, normalize_sequential
from .monitor import monitor_robustness
from .plants import _DEG, Plant, is_int
from .sequencer import HybridState, SequencerConfig, init_sequencer, jump_if_due, jump_rows

__all__ = ["EpisodeSpec", "Trajectory", "RunMetrics", "step_rk4", "run_episode"]


# eq=False: identity equality and hashing, as an ndarray field cannot compare.
@dataclass(frozen=True, eq=False)
class EpisodeSpec:
    """Everything needed to run one closed-loop episode, with its sizes checked."""

    plant: Plant
    theta: SequentialFormula
    x0: np.ndarray
    seq_cfg: SequencerConfig = SequencerConfig()
    trigger: TriggerConfig = TriggerConfig()
    dt: float = 0.01
    horizon: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        n = self.plant.n
        if np.shape(self.x0) != (n,):
            raise ValueError(f"x0 has shape {np.shape(self.x0)}, plant expects ({n},)")
        if not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be finite, got {np.asarray(self.x0, dtype=float).tolist()}")
        if self.theta.min_dim > n:
            raise ValueError(f"formula references state index {self.theta.min_dim - 1}, plant has {n}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        n_tasks, n_synth = len(normalize_sequential(self.theta)), len(self.seq_cfg.synthesis)
        if n_synth not in (1, n_tasks):
            raise ValueError(f"{n_synth} synthesis entries for {n_tasks} tasks: give one, or one per task")

    def resolved_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
        last = max(task.window[1] for task in normalize_sequential(self.theta))
        return last + self.seq_cfg.terminal_tail


@dataclass
class Trajectory:
    """Uniformly sampled run log.  Row k holds the ``u`` of the last event at or before it,
    ``np.searchsorted([e.t for e in events], traj.t, side="right") - 1``: both times are k * dt."""

    dt: float
    t: np.ndarray
    X: np.ndarray
    rho_active: np.ndarray
    gamma: np.ndarray
    mode: np.ndarray


@dataclass
class RunMetrics:
    samples: int
    triggers: int
    reduction: float
    satisfied: bool
    rho_theta: float
    min_margin: float
    wall_time: float
    failure: str | None = None
    failure_time: float | None = None
    # Why the offline monitor could not score a satisfied run
    # ("ExceptionType: message"); rho_theta then stays NaN.
    monitor_error: str | None = None
    # max |u(x_k, t_k) - U_k|_inf over the scored rows, U_k the input held
    # at row k, computed after the loop at grid samples only.  The trigger radius
    # that should keep it below delta_u rests on a Lipschitz constant
    # estimated at sampled probes, so this is an estimate, not a bound.
    max_input_deviation: float = 0.0
    # Largest ``TriggerEvent.overshoot``; 0 when no event fired on the trigger.
    max_overshoot: float = 0.0
    min_delta: float = math.inf
    min_inter_event: float = math.inf
    min_xi_gap: float = math.inf
    # Events per term that set the radius (``TriggerEvent.delta_by``).
    delta_by: dict[str, int] = field(default_factory=lambda: dict.fromkeys(get_args(DeltaBy), 0))
    funnels: list[dict] = field(default_factory=list)


def step_rk4(plant: Plant, x: np.ndarray, u_held: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Exact flow of dx/dt = g(x) u + w over ``dt`` with u and w held.

    ``w`` is one noise row (n,), giving the state one step on, or K rows
    (K, n), giving the K states after one to K steps, step j holding row j.
    No Runge-Kutta is left; the name is kept only for the benchmark tracer.
    The integrator moves by dt (gain u + w), one cumulative sum over the
    steps.  An omni agent's body velocity v = gbody u_a is fixed, so its
    heading turns by phi = dt (v_th + w_th) and, with phi in radians, its
    position by dt sinc(phi/2) rot(th0 + phi/2) (v_x, v_y) + dt (w_x, w_y);
    sinc(0) = 1 is the straight line.  The omni steps run in plain floats.
    """
    W = np.reshape(w, (-1, plant.n))
    if plant.gbase is None:
        moves = np.empty((W.shape[0] + 1, plant.n))
        moves[0] = x
        np.multiply(dt, plant.gain * u_held + W, out=moves[1:])
        out = np.cumsum(moves, axis=0)[1:]
    else:
        xs, us = x.tolist(), u_held.tolist()
        vel = [[r[0] * us[a] + r[1] * us[a + 1] + r[2] * us[a + 2] for r in plant.gbody_rows]
               for a in range(0, len(xs), 3)]
        rows = []
        for ws in W.tolist():
            nxt = []
            for a, (vx, vy, vth) in zip(range(0, len(xs), 3), vel):
                turn = dt * (vth + ws[a + 2])  # degrees
                half = 0.5 * turn * _DEG
                arc = dt if half == 0.0 else dt * math.sin(half) / half
                mid = xs[a + 2] * _DEG + half
                c, s = math.cos(mid), math.sin(mid)
                nxt += (xs[a] + arc * (c * vx - s * vy) + dt * ws[a],
                        xs[a + 1] + arc * (s * vx + c * vy) + dt * ws[a + 1], xs[a + 2] + turn)
            rows.append(nxt)
            xs = nxt
        out = np.array(rows)
    return out if np.ndim(w) == 2 else out[0]


def _funnel_record(z: HybridState) -> dict:
    pf = z.fp.perf
    return {
        "mode": z.q,
        "entry_time": z.Delta,
        "t_star": z.fp.t_star,
        "r": z.fp.r,
        "rho_max": z.fp.rho_max,
        "gamma0": pf.gamma0,
        "gamma_inf": pf.gamma_inf,
        "l": pf.l,
    }


# Rows per ``u_xi_batch`` call of the input audit.  Blocks reuse the
# freed heap the trigger radius leaves (``_keep_freed_heap``); one call
# per whole phase raised rendezvous3's peak RSS by 1.1 MB (2 %), blocks
# of 1024 rows leave it flat.
_AUDIT_ROWS = 1024


def _score(
    traj: Trajectory, scored: int, failure: str | None, failure_time: float | None,
    phases: list[tuple[HybridState, int]], events: list[TriggerEvent], event_steps: list[int], plant: Plant, eta: float,
) -> RunMetrics:
    """The run's figures from its log, events and phases; rows from ``scored``
    on (a failure row) stay out of the margins and the input audit.

    The audit reads the law with ``u_xi_batch`` at each phase's rows, in
    blocks of ``_AUDIT_ROWS``, at their funnel clock (k - k_entry) dt +
    offset, which rounds as the loop's clock does, against the input of
    the last event at or before row k, found on the integer steps.
    """
    samples = max(len(traj.t) - 1, 0)
    metrics = RunMetrics(
        samples=samples, triggers=len(events), reduction=1.0 - len(events) / samples if samples else 0.0,
        satisfied=failure is None, rho_theta=math.nan, min_margin=math.inf, wall_time=0.0,
        failure=failure, failure_time=failure_time,
        max_overshoot=max([0.0] + [e.overshoot for e in events if e.overshoot is not None]),
        min_delta=min([math.inf] + [e.delta for e in events]),
        # Step counts keep the grid spacing exact in floats.
        min_inter_event=float(np.min(np.diff(event_steps))) * traj.dt if len(event_steps) >= 2 else math.inf,
        delta_by={key: sum(e.delta_by == key for e in events) for key in get_args(DeltaBy)},
        funnels=[_funnel_record(z) for z, _ in phases if not z.terminal],
    )
    held = np.array([e.u for e in events])
    ends = [min(k, scored) for _, k in phases[1:]] + [scored]
    for (z, k_entry), end in zip(phases, ends):
        rho, gam = traj.rho_active[k_entry:end], traj.gamma[k_entry:end]
        xi = (rho - z.fp.rho_max) / gam
        metrics.min_margin = min(metrics.min_margin, float((rho - (z.fp.rho_max - gam)).min(initial=math.inf)),
                                 float((z.fp.rho_max - rho).min(initial=math.inf)))
        metrics.min_xi_gap = min(metrics.min_xi_gap, float((1.0 + xi).min(initial=math.inf)),
                                 float((-xi).min(initial=math.inf)))
        for lo in range(k_entry, end, _AUDIT_ROWS):
            hi = min(lo + _AUDIT_ROWS, end)
            ks = np.arange(lo, hi)
            gap = u_xi_batch(traj.X[lo:hi], (ks - k_entry) * traj.dt + z.offset, z.psi, z.fp, plant, eta)[0]
            gap -= held[np.searchsorted(event_steps, ks, side="right") - 1]
            metrics.max_input_deviation = max(metrics.max_input_deviation, float(np.abs(gap, out=gap).max()))
    return metrics


# glibc's mallopt parameter M_TOP_PAD, and the freed heap an episode keeps.
_M_TOP_PAD = -2
_HEAP_PAD = 16 << 20


def _keep_freed_heap() -> None:
    """Keep up to ``_HEAP_PAD`` bytes of freed heap instead of returning it.

    Every event's trigger radius allocates and frees numpy temporaries:
    at n = 9 a ``tracemalloc`` peak of 0.19 MB for one radius at the
    bundled scenario's start, where the read-out bound settles the pass
    (0.63 MB while every pass built the body-frame Jacobian), and more
    for the passes that still build it.  glibc hands freed memory at the
    top of its heap back to the kernel once it exceeds a trim threshold
    that tracks the largest block freed so far, so without a pad the
    events fault those pages in again: on rendezvous3 at seeds 3-5,
    6.9e3-7.4e3 minor faults per episode (``ru_minflt``) against 1.7e3
    with the pad (one run each, 2-core shared host; in the same session,
    6.0e4-6.1e4 against 1.7e3 while every pass built the body-frame
    Jacobian).  patrol2d (n = 2,
    radius peak 0.09 MB) is flat: 1.1e3 faults either way at seed 3.  A
    no-op where the C library has no ``mallopt``.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TOP_PAD, _HEAP_PAD)


def run_episode(spec: EpisodeSpec) -> tuple[Trajectory, RunMetrics, list[TriggerEvent]]:
    """Simulate one episode; never raises on runtime failures.

    Failures (funnel violation, missed deadline, trigger floor, horizon
    exhaustion) mark the metrics and truncate the trajectory instead of
    raising, so callers always receive the partial logs.
    """
    _keep_freed_heap()
    t_start = time.perf_counter()
    plant = spec.plant
    n = plant.n
    smoothing = spec.seq_cfg.smoothing
    eta = smoothing.eta
    dt = spec.dt
    horizon = spec.resolved_horizon()
    noise_seq, radius_seq = np.random.SeedSequence(spec.seed).spawn(2)
    noise = np.random.default_rng(noise_seq).uniform(-plant.w_max, plant.w_max, (int(horizon / dt) + 1, n))
    rng = np.random.default_rng(radius_seq)
    tail = spec.seq_cfg.terminal_tail
    x = np.array(spec.x0, dtype=float)

    # The log as blocks of rows (X, rho, gamma), joined in finish.
    blocks = [(np.empty((0, n)), np.empty(0), np.empty(0))]
    events: list[TriggerEvent] = []

    def finish(failure: str | None, failure_time: float | None, scored: int | None = None):
        """Join the log and score its first ``scored`` rows (default: all)."""
        X, rho, gamma = (np.concatenate(column) for column in zip(*blocks))
        rows = len(rho)
        # Row k is sample k, and its mode is that of the phase it lies in.
        mode = np.repeat(np.array([z.q for z, _ in phases], dtype=int), np.diff([k for _, k in phases] + [rows]))
        traj = Trajectory(dt=dt, t=np.arange(rows) * dt, X=X, rho_active=rho, gamma=gamma, mode=mode)
        metrics = _score(traj, rows if scored is None else scored, failure, failure_time,
                         phases, events, event_steps, plant, eta)
        if metrics.satisfied:
            try:
                metrics.rho_theta = monitor_robustness(spec.theta, traj, 0.0)
            except Exception as exc:
                metrics.monitor_error = f"{type(exc).__name__}: {exc}"
        metrics.wall_time = time.perf_counter() - t_start
        return traj, metrics, events

    def fail(kind: str) -> tuple[Trajectory, RunMetrics, list[TriggerEvent]]:
        """Log the current sample, row k, and end the episode scoring the rows before it."""
        blocks.append((x[None], np.array([rho]), np.array([gam])))
        return finish(kind, t, scored=k)

    event_steps: list[int] = []
    # Each phase's state and entry step; row k of the log is sample k.
    phases: list[tuple[HybridState, int]] = []
    try:
        z = init_sequencer(spec.theta, x, spec.seq_cfg)
    except (SynthesisError, DeadlineError) as exc:
        return finish(f"synthesis: {exc}", 0.0)
    phases.append((z, 0))

    table = kernels.compile_leaf_table(z.psi)
    event: TriggerEvent | None = None
    k = 0
    k_entry = 0

    def read(X: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rho and gamma of the active phase at states X, steps ks, and its
        row tests there: whether the funnel band is left, the jump is due or
        overdue, the terminal tail is over, the horizon is reached."""
        T_local = (ks - k_entry) * dt
        rhos = kernels.rho_rows(X, z.psi, eta)
        gams = kernels.funnel_width(z.fp.perf, T_local + z.offset)[0]
        xis = (rhos - z.fp.rho_max) / gams
        tests = np.empty((4, len(ks)), dtype=bool)
        tests[0] = ~((-1.0 < xis) & (xis < 0.0))
        tests[1] = np.logical_or(*jump_rows(z, rhos, T_local))
        tests[2] = z.terminal & (T_local >= tail - 1e-12)
        tests[3] = ks * dt >= horizon - 1e-12
        return rhos, gams, tests

    rhos, gams, tests = read(x[None], np.array([k]))
    row, cause = 0, "Initial"

    while True:
        # Row k, where the last read cut, acts on that read's verdicts and
        # the trigger's cause there: it fails, jumps, holds a new input or
        # finishes.
        t = k * dt
        z.t_local = (k - k_entry) * dt
        rho, gam = float(rhos[row]), float(gams[row])
        if tests[1, row] and not tests[0, row]:  # a row outside the band fails first
            try:
                z = jump_if_due(z, x, spec.seq_cfg, rho=rho)
            except (DeadlineError, SynthesisError) as exc:
                return fail(f"deadline: {exc}")
            k_entry = k
            phases.append((z, k))
            table = kernels.compile_leaf_table(z.psi)
            # Row k is read again in the new phase, which does not jump there.
            rhos, gams, tests = read(x[None], np.array([k]))
            rho, gam, row, cause = float(rhos[0]), float(gams[0]), 0, "ModeSwitch"
        band, _, done, past = tests[:, row]
        if band:
            return fail("funnel")

        if cause is not None:
            overshoot = None
            if cause in ("StateDeviation", "MaxInterval"):
                # The trigger tests grid samples only, so the state or clock
                # has left the previous event's box by the time it fires.
                held = k - event_steps[-1]  # whole steps since the event
                reach = max(float(np.abs(x - event.x).max()), held * dt)
                overshoot = reach / event.delta
            t_fun = z.t_local + z.offset
            u = kernels.u_xi_eval(table, x, t_fun, eta, z.fp, plant)[1]
            try:
                event = make_event(
                    z.psi, z.fp, x, t_fun, u, len(events), cause,
                    plant, spec.trigger, smoothing, rng,
                )
            except TriggerFloorError:
                return fail("trigger_floor")
            # The controller tracks the funnel clock; log wall-clock time.
            events.append(replace(event, t=t, overshoot=overshoot))
            event_steps.append(k)

        if done or past:
            blocks.append((x[None], np.array([rho]), np.array([gam])))
            return finish(None, None) if done else finish(f"horizon: mode {z.q} unfinished", t)

        # The segment: rows k + 1 ... k + K hold the event's input, up to the
        # row where MaxInterval must fire, or to row len(noise), at or past
        # the horizon row.  The trigger test runs on every row and ``read`` up
        # to the first row where it fires; the block is cut at the first row
        # where any test fires, and that row is the next head.
        W = noise[k:event_steps[-1] + int(event.delta / dt) + 1]
        X = step_rk4(plant, x, event.u, W, dt)
        ks = np.arange(k + 1, k + 1 + len(W))
        deviates, late = should_trigger(X, ks - event_steps[-1], dt, event)
        fires = deviates | late
        end = int(fires.argmax()) + 1 if fires.any() else len(ks)  # else the horizon fires at the last row
        rhos, gams, tests = read(X[:end], ks[:end])
        row = int((fires[:end] | tests.any(axis=0)).argmax())
        # Copies: a view would keep the whole block alive until finish.
        blocks.append((np.concatenate((x[None], X[:row])), np.concatenate(([rho], rhos[:row])),
                       np.concatenate(([gam], gams[:row]))))
        x, k = X[row], k + 1 + row
        cause = "StateDeviation" if deviates[row] else "MaxInterval" if late[row] else None

"""Fixed-step closed-loop simulation with event-triggered input holds.

Each sample evaluates only the smoothed robustness and the funnel state
(``kernels.smooth_rho``), at one site in ``run_episode``: if a mode jump
is due, the sample is evaluated again in the new phase and that
evaluation replaces the first.  The law runs only where the trigger
fires: ``kernels.u_xi_eval`` right before ``make_event``, which holds
that input and adds the trigger radius.  The sample is then logged and
``step_rk4`` moves the state by the exact zero-order-hold flow of
dx/dt = g(x) u_held + w, with a fresh uniform noise draw held constant
across the step.  A failure at any of these stages logs the sample with
a NaN input and ends the episode, again at one site.  All clocks advance
on an integer step counter so jump bookkeeping is exact.  The held-input
audit (``RunMetrics.max_input_deviation``) runs after the loop, batched
per phase over that phase's logged rows (``u_xi_batch``).
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
from .funnel import gamma_at
from .monitor import monitor_robustness
from .plants import _DEG, Plant, is_int
from .sequencer import HybridState, SequencerConfig, init_sequencer, jump_if_due

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
    """Uniformly sampled run log."""

    dt: float
    t: np.ndarray
    X: np.ndarray
    U: np.ndarray
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
    # max |u(x_k, t_k) - U_k|_inf over the logged rows with a finite input,
    # computed after the loop at grid samples only.  The trigger radius
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

    No Runge-Kutta is left; the name is kept only for the benchmark tracer.
    The integrator moves by dt (gain u + w).  An omni agent's body velocity
    v = gbody u_a is fixed, so its heading turns by phi = dt (v_th + w_th)
    and, with phi in radians, its position by dt sinc(phi/2) rot(th0 +
    phi/2) (v_x, v_y) + dt (w_x, w_y); sinc(0) = 1 is the straight line.
    """
    if plant.gbase is None:
        return x + dt * (plant.gain * u_held + w)
    xs, us, ws = x.tolist(), u_held.tolist(), w.tolist()
    out = []
    for a in range(0, len(xs), 3):
        vx, vy, vth = (r[0] * us[a] + r[1] * us[a + 1] + r[2] * us[a + 2] for r in plant.gbody_rows)
        turn = dt * (vth + ws[a + 2])  # degrees
        half = 0.5 * turn * _DEG
        arc = dt if half == 0.0 else dt * math.sin(half) / half
        mid = xs[a + 2] * _DEG + half
        c, s = math.cos(mid), math.sin(mid)
        out += (xs[a] + arc * (c * vx - s * vy) + dt * ws[a],
                xs[a + 1] + arc * (s * vx + c * vy) + dt * ws[a + 1], xs[a + 2] + turn)
    return np.array(out)


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


# Rows per ``u_xi_batch`` call of the input audit.  Blocks the size of a
# trigger radius's probe batch reuse the freed heap the radius leaves
# (``_keep_freed_heap``); one call per whole phase raised rendezvous3's
# peak RSS by 1.1 MB (2 %), blocks of 1024 rows leave it flat.
_AUDIT_ROWS = 1024


def _input_deviation(
    traj: Trajectory, phases: list[tuple[HybridState, int]], plant: Plant, eta: float
) -> float:
    """max |u(x_k, t_k) - U_k|_inf over the logged rows with a finite input.

    ``u_xi_batch`` reads the law at each phase's rows, in blocks of
    ``_AUDIT_ROWS``, at their funnel clock (k - k_entry) dt + offset,
    which rounds as the loop's clock does.  Only a failure row, always
    the last, is logged with a NaN input; it stays out.
    """
    rows = len(traj.t)
    stop = rows - int(rows > 0 and np.isnan(traj.U[-1]).any())
    ends = [min(k, stop) for _, k in phases[1:]] + [stop]
    dev = 0.0
    for (z, k_entry), end in zip(phases, ends):
        for lo in range(k_entry, end, _AUDIT_ROWS):
            hi = min(lo + _AUDIT_ROWS, end)
            T = (np.arange(lo, hi) - k_entry) * traj.dt + z.offset
            gap = u_xi_batch(traj.X[lo:hi], T, z.psi, z.fp, plant, eta)[0]
            gap -= traj.U[lo:hi]
            dev = max(dev, float(np.abs(gap, out=gap).max()))
    return dev


# glibc's mallopt parameter M_TOP_PAD, and the freed heap an episode keeps.
_M_TOP_PAD = -2
_HEAP_PAD = 16 << 20


def _keep_freed_heap() -> None:
    """Keep up to ``_HEAP_PAD`` bytes of freed heap instead of returning it.

    Every event's trigger radius allocates and frees MBs of numpy
    temporaries at n = 9 with 1280 probe rows: about 1.8 MB for the row
    bound and 3.4 MB when the Jacobian pass runs (``tracemalloc`` peaks).
    glibc hands freed memory at the top of its heap back to the kernel
    once it exceeds a trim threshold that tracks the largest block freed
    so far, so without a pad every event faults those pages in again.
    On rendezvous3 at seeds 0-9, with the pass running in about 30 of
    519 events, that is a median 2.4e5 minor faults per episode against
    2.6e3 with the pad, and 1.70 s against 1.45 s (median episode, slower
    in 10 of 10 pairs; 2-core shared host).  patrol2d (n = 2) is flat.
    A no-op where the C library has no ``mallopt``.
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
    rng = np.random.default_rng(spec.seed)
    plant = spec.plant
    smoothing = spec.seq_cfg.smoothing
    eta = smoothing.eta
    dt = spec.dt
    horizon = spec.resolved_horizon()
    x = np.array(spec.x0, dtype=float)

    rows_t: list[float] = []
    rows_x: list[np.ndarray] = []
    rows_u: list[np.ndarray] = []
    rows_rho: list[float] = []
    rows_gamma: list[float] = []
    rows_mode: list[int] = []
    events: list[TriggerEvent] = []
    metrics = RunMetrics(
        samples=0, triggers=0, reduction=0.0, satisfied=False,
        rho_theta=math.nan, min_margin=math.inf, wall_time=0.0,
    )

    def finish(failure: str | None, failure_time: float | None) -> tuple[Trajectory, RunMetrics, list[TriggerEvent]]:
        traj = Trajectory(
            dt=dt,
            t=np.asarray(rows_t),
            # Shaped (samples, n) and (samples, m) even with no sample.
            X=np.asarray(rows_x).reshape(-1, plant.n),
            U=np.asarray(rows_u).reshape(-1, plant.m),
            rho_active=np.asarray(rows_rho),
            gamma=np.asarray(rows_gamma),
            mode=np.asarray(rows_mode, dtype=int),
        )
        metrics.samples = max(len(rows_t) - 1, 0)
        metrics.triggers = len(events)
        metrics.reduction = 1.0 - metrics.triggers / metrics.samples if metrics.samples else 0.0
        metrics.failure = failure
        metrics.failure_time = failure_time
        metrics.satisfied = failure is None
        metrics.max_input_deviation = _input_deviation(traj, phases, plant, eta)
        if len(event_steps) >= 2:
            # Step counts keep the grid spacing exact in floats.
            metrics.min_inter_event = float(np.min(np.diff(event_steps))) * dt
        if metrics.satisfied:
            try:
                metrics.rho_theta = monitor_robustness(spec.theta, traj, 0.0)
            except Exception as exc:
                metrics.monitor_error = f"{type(exc).__name__}: {exc}"
        metrics.wall_time = time.perf_counter() - t_start
        return traj, metrics, events

    def log_sample(u: np.ndarray) -> None:
        rows_t.append(t); rows_x.append(x.copy()); rows_u.append(u)
        rows_rho.append(rho); rows_gamma.append(gam); rows_mode.append(z.q)

    def fail(kind: str) -> tuple[Trajectory, RunMetrics, list[TriggerEvent]]:
        """Log the current sample with a NaN input and end the episode."""
        log_sample(np.full(plant.m, np.nan))
        return finish(kind, t)

    event_steps: list[int] = []
    # Each phase's state and entry step; row k of the log is sample k.
    phases: list[tuple[HybridState, int]] = []
    try:
        z = init_sequencer(spec.theta, x, spec.seq_cfg)
    except (SynthesisError, DeadlineError) as exc:
        return finish(f"synthesis: {exc}", 0.0)
    phases.append((z, 0))

    metrics.funnels.append(_funnel_record(z))
    table = kernels.compile_leaf_table(z.psi)
    event: TriggerEvent | None = None
    jumped = False
    k = 0
    k_entry = 0

    while True:
        t = k * dt
        z.t_local = (k - k_entry) * dt
        t_fun = z.t_local + z.offset
        xs = x.tolist()
        gam = gamma_at(z.fp.perf, t_fun)
        xi = (kernels.smooth_rho(table, xs, eta) - z.fp.rho_max) / gam
        rho = z.fp.rho_max + xi * gam

        if not (-1.0 < xi < 0.0):
            return fail("funnel")
        if not jumped:
            try:
                z_next = jump_if_due(z, x, spec.seq_cfg, rho=rho)
            except (DeadlineError, SynthesisError) as exc:
                return fail(f"deadline: {exc}")
            if z_next is not None:
                z, jumped, k_entry = z_next, True, k
                phases.append((z, k))
                if not z.terminal:
                    metrics.funnels.append(_funnel_record(z))
                table = kernels.compile_leaf_table(z.psi)
                continue  # evaluate this sample again in the new phase

        if jumped:
            cause = "ModeSwitch"
        elif event is None:
            cause = "Initial"
        else:
            cause = should_trigger(xs, t_fun, event)
        if cause is not None:
            overshoot = None
            if cause in ("StateDeviation", "MaxInterval"):
                # The trigger tests grid samples only, so the state or clock
                # has left the previous event's box by the time it fires.
                reach = max(float(np.abs(x - event.x).max()), t_fun - event.t)
                overshoot = reach / event.delta
                metrics.max_overshoot = max(metrics.max_overshoot, overshoot)
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
            metrics.min_delta = min(metrics.min_delta, event.delta)
            metrics.delta_by[event.delta_by] += 1

        u_held = event.u
        metrics.min_margin = min(metrics.min_margin, rho - (z.fp.rho_max - gam), z.fp.rho_max - rho)
        metrics.min_xi_gap = min(metrics.min_xi_gap, 1.0 + xi, -xi)

        log_sample(u_held.copy())

        if z.terminal and z.t_local >= spec.seq_cfg.terminal_tail - 1e-12:
            return finish(None, None)
        if t >= horizon - 1e-12:
            return finish(f"horizon: mode {z.q} unfinished", t)

        w = rng.uniform(-plant.w_max, plant.w_max, plant.n) if plant.w_max > 0 else np.zeros(plant.n)
        x = step_rk4(plant, x, u_held, w, dt)
        jumped = False
        k += 1

"""Fixed-step closed-loop simulation with event-triggered input holds.

Each sample evaluates the law and the funnel state once, at one site in
``run_episode``: if a mode jump is due, the sample is evaluated again in
the new phase and that evaluation replaces the first.  When the trigger
fires, the event holds the input the loop just evaluated and adds only
the trigger radius.  The sample is then logged and ``step_rk4`` moves the
state by the exact zero-order-hold flow of dx/dt = g(x) u_held + w, with
a fresh uniform noise draw held constant across the step.  A failure at
any of these stages logs the sample with a NaN input and ends the
episode, again at one site.  All clocks advance on an integer step
counter so jump bookkeeping is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .controller import TriggerConfig, TriggerEvent, make_event, should_trigger
from .errors import DeadlineError, SynthesisError, TriggerFloorError
from .formulas import SequentialFormula, normalize_sequential
from .funnel import gamma_at
from .monitor import monitor_robustness
from .plants import _DEG, Plant
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
    max_input_deviation: float = 0.0
    min_delta: float = math.inf
    min_inter_event: float = math.inf
    min_xi_gap: float = math.inf
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


def run_episode(spec: EpisodeSpec) -> tuple[Trajectory, RunMetrics, list[TriggerEvent]]:
    """Simulate one episode; never raises on runtime failures.

    Failures (funnel violation, missed deadline, trigger floor, horizon
    exhaustion) mark the metrics and truncate the trajectory instead of
    raising, so callers always receive the partial logs.
    """
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
    try:
        z = init_sequencer(spec.theta, x, spec.seq_cfg)
    except (SynthesisError, DeadlineError) as exc:
        return finish(f"synthesis: {exc}", 0.0)

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
        xi, u_cont = kernels.u_xi_eval(table, x, t_fun, eta, z.fp, plant)
        gam = gamma_at(z.fp.perf, t_fun)
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
                if not z.terminal:
                    metrics.funnels.append(_funnel_record(z))
                table = kernels.compile_leaf_table(z.psi)
                continue  # evaluate this sample again in the new phase

        if jumped:
            cause = "ModeSwitch"
        elif event is None:
            cause = "Initial"
        else:
            cause = should_trigger(x, t_fun, event)
        if cause is not None:
            try:
                event = make_event(
                    z.psi, z.fp, x, t_fun, u_cont, len(events), cause,
                    plant, spec.trigger, smoothing, rng,
                )
            except TriggerFloorError:
                return fail("trigger_floor")
            # The controller tracks the funnel clock; log wall-clock time.
            events.append(replace(event, t=t))
            event_steps.append(k)
            metrics.min_delta = min(metrics.min_delta, event.delta)

        u_held = event.u
        dev = float(np.abs(u_cont - u_held).max())
        metrics.max_input_deviation = max(metrics.max_input_deviation, dev)
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

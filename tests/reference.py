"""Earlier forms of the package's code, kept only as the tests' references.

``run_episode_per_sample`` takes one Python iteration per sample: it
reads rho at the state (``smooth_rho_grad``'s value, which it logs and
tests as read), checks the funnel, the jump and the trigger, logs the
row and steps the state with row k of the noise table that the seed's
first stream draws.  ``sim.run_episode``, which handles the held rows
between events as blocks, must reproduce it bitwise: logs, events,
metrics and the radius stream's state at the end.
It returns the radius's generator as a fourth item and, as a fifth, the
input it held at each row, with a NaN row at a failure row.  Its metrics
fold row by row inside the loop, and its input audit
(``input_deviation``) reads that per-row input and leaves out the NaN
row, where ``sim`` scores its log after the loop and rebuilds the input
from the events.

``hessian_form_stacked`` is the law Jacobian's curvature form over the
stacked leaf gradients, which ``kernels._hessian_form`` builds in slot
space; ``latin_hypercube_columns`` draws the radius's hypercube by
permuting the columns of a (count, dims) array, which
``controller._latin_hypercube`` draws from contiguous rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from stlfunnel import kernels, sim
from stlfunnel.controller import make_event, should_trigger
from stlfunnel.errors import DeadlineError, SynthesisError, TriggerFloorError
from stlfunnel.funnel import gamma_at
from stlfunnel.kernels import u_xi_batch
from stlfunnel.monitor import monitor_robustness
from stlfunnel.sequencer import init_sequencer, jump_if_due
from stlfunnel.sim import RunMetrics, Trajectory, _funnel_record, step_rk4


def input_deviation(traj, U, phases, plant, eta):
    """max |u(x_k, t_k) - U_k|_inf over the logged rows with a finite input.

    ``u_xi_batch`` reads the law at each phase's rows, in blocks of
    ``sim._AUDIT_ROWS``, at their funnel clock (k - k_entry) dt + offset,
    which rounds as the loop's clock does.  Only a failure row, always
    the last, is logged with a NaN input; it stays out.
    """
    rows = len(traj.t)
    stop = rows - int(rows > 0 and np.isnan(U[-1]).any())
    ends = [min(k, stop) for _, k in phases[1:]] + [stop]
    dev = 0.0
    for (z, k_entry), end in zip(phases, ends):
        for lo in range(k_entry, end, sim._AUDIT_ROWS):
            hi = min(lo + sim._AUDIT_ROWS, end)
            T = (np.arange(lo, hi) - k_entry) * traj.dt + z.offset
            gap = u_xi_batch(traj.X[lo:hi], T, z.psi, z.fp, plant, eta)[0]
            gap -= U[lo:hi]
            dev = max(dev, float(np.abs(gap, out=gap).max()))
    return dev


def run_episode_per_sample(spec):
    """(Trajectory, RunMetrics, events, generator, U) of ``spec``, one sample per iteration."""
    t_start = time.perf_counter()
    plant = spec.plant
    smoothing = spec.seq_cfg.smoothing
    eta = smoothing.eta
    dt = spec.dt
    horizon = spec.resolved_horizon()
    noise_seq, radius_seq = np.random.SeedSequence(spec.seed).spawn(2)
    noise = np.random.default_rng(noise_seq).uniform(-plant.w_max, plant.w_max, (int(horizon / dt) + 1, plant.n))
    rng = np.random.default_rng(radius_seq)
    x = np.array(spec.x0, dtype=float)

    rows_t, rows_x, rows_u, rows_rho, rows_gamma, rows_mode = [], [], [], [], [], []
    events = []
    metrics = RunMetrics(
        samples=0, triggers=0, reduction=0.0, satisfied=False,
        rho_theta=math.nan, min_margin=math.inf, wall_time=0.0,
    )

    def finish(failure, failure_time):
        traj = Trajectory(
            dt=dt,
            t=np.asarray(rows_t),
            X=np.asarray(rows_x).reshape(-1, plant.n),
            rho_active=np.asarray(rows_rho),
            gamma=np.asarray(rows_gamma),
            mode=np.asarray(rows_mode, dtype=int),
        )
        U = np.asarray(rows_u).reshape(-1, plant.m)
        metrics.samples = max(len(rows_t) - 1, 0)
        metrics.triggers = len(events)
        metrics.reduction = 1.0 - metrics.triggers / metrics.samples if metrics.samples else 0.0
        metrics.failure = failure
        metrics.failure_time = failure_time
        metrics.satisfied = failure is None
        metrics.max_input_deviation = input_deviation(traj, U, phases, plant, eta)
        if len(event_steps) >= 2:
            metrics.min_inter_event = float(np.min(np.diff(event_steps))) * dt
        if metrics.satisfied:
            try:
                metrics.rho_theta = monitor_robustness(spec.theta, traj, 0.0)
            except Exception as exc:
                metrics.monitor_error = f"{type(exc).__name__}: {exc}"
        metrics.wall_time = time.perf_counter() - t_start
        return traj, metrics, events, rng, U

    def log_sample(u):
        rows_t.append(t); rows_x.append(x.copy()); rows_u.append(u)
        rows_rho.append(rho); rows_gamma.append(gam); rows_mode.append(z.q)

    def fail(kind):
        log_sample(np.full(plant.m, np.nan))
        return finish(kind, t)

    event_steps = []
    phases = []
    try:
        z = init_sequencer(spec.theta, x, spec.seq_cfg)
    except (SynthesisError, DeadlineError) as exc:
        return finish(f"synthesis: {exc}", 0.0)
    phases.append((z, 0))

    metrics.funnels.append(_funnel_record(z))
    table = kernels.compile_leaf_table(z.psi)
    event = None
    jumped = False
    k = 0
    k_entry = 0

    while True:
        t = k * dt
        z.t_local = (k - k_entry) * dt
        t_fun = z.t_local + z.offset
        gam = gamma_at(z.fp.perf, t_fun)
        rho = kernels.smooth_rho_grad(table, x.tolist(), eta)[0]
        xi = (rho - z.fp.rho_max) / gam

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
                continue

        if jumped:
            cause = "ModeSwitch"
        elif event is None:
            cause = "Initial"
        else:
            held = k - event_steps[-1]
            cause = next((c for c, hit in zip(("StateDeviation", "MaxInterval"), should_trigger(x, held, dt, event)) if hit), None)
        if cause is not None:
            overshoot = None
            if cause in ("StateDeviation", "MaxInterval"):
                reach = max(float(np.abs(x - event.x).max()), held * dt)
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

        x = step_rk4(plant, x, u_held, noise[k], dt)
        jumped = False
        k += 1


def hessian_form_stacked(unit, q, leaf_coef, grad_coef, ata_coef, grad):
    """sum_i leaf_coef_i q_i q_i^T + grad_coef q q^T + sum_i ata_coef_i A_i^T A_i: (n, n, P).

    ``grad`` is ``_leaf_maps``'s (n, L * W) map of the -A_i^T side by side.
    The leaf gradients q_i = -A_i^T unit_i and q stack into one
    (L + 1, n, P) array whose outer products form in one contraction;
    the A_i^T A_i term is one matrix product.
    """
    L, W, P = unit.shape
    n = q.shape[0]
    G = grad.reshape(n, L, W).transpose(1, 0, 2)
    grads = np.empty((L + 1, n, P))
    np.matmul(G, unit, out=grads[:L])
    grads[L] = q
    coef = np.concatenate([leaf_coef, grad_coef[None]])
    out = np.einsum("kap,kbp->abp", grads * coef[:, None, :], grads)
    ata = (G @ G.transpose(0, 2, 1)).reshape(L, n * n).T
    out += (ata @ ata_coef).reshape(n, n, P)
    return out


def latin_hypercube_columns(dims, count, rng):
    """``count`` Latin hypercube points in [0, 1]^dims: the strata permuted
    per column of a (count, dims) array, plus a uniform offset in each."""
    strata = np.broadcast_to(np.arange(count, dtype=float)[:, None], (count, dims))
    unit = rng.permuted(strata, axis=0)
    unit += rng.random((count, dims))
    unit /= count
    return unit

"""Hybrid task sequencing: windows, jumps, clocks, and bookkeeping."""

import numpy as np
import pytest

from stlfunnel.errors import DeadlineError
from stlfunnel.formulas import normalize_sequential
from stlfunnel.funnel import SynthesisConfig
from stlfunnel.parsing import parse_formula
from stlfunnel.sequencer import SequencerConfig, init_sequencer, jump_if_due, jump_rows


def test_chain_normalization_matches_cumulative_oracle():
    f = parse_formula("F[1,2](ball(0;0;1) and F[3,4](ball(0;5;1)))")
    tasks = normalize_sequential(f)
    assert [t.window for t in tasks] == [(1.0, 2.0), (4.0, 6.0)]
    assert [t.local_window for t in tasks] == [(1.0, 2.0), (3.0, 4.0)]
    assert all(t.m == 0 and t.p == 0 for t in tasks)


def test_chain_normalization_three_steps():
    f = parse_formula(
        "F[0,2](ball(0;0;1) and F[1,3](ball(0;3;1) and F[2,2](ball(0;6;1))))"
    )
    tasks = normalize_sequential(f)
    assert [t.window for t in tasks] == [(0.0, 2.0), (1.0, 5.0), (3.0, 7.0)]


def test_ordered_conjunction_normalization_passthrough():
    f = parse_formula("G[1,2](ball(0;0;5)) and F[3,4](ball(0;1;5))")
    tasks = normalize_sequential(f)
    assert [t.window for t in tasks] == [(1.0, 2.0), (3.0, 4.0)]
    assert [t.m for t in tasks] == [1, 0]
    assert all(t.p == 1 for t in tasks)


def _cfg(**kw):
    return SequencerConfig(synthesis=(SynthesisConfig(**kw),))


def test_init_creates_mode_one():
    f = parse_formula("F[0,5](ball(0;0;4))")
    z = init_sequencer(f, np.array([2.0]), _cfg(chi=0.5))
    assert z.q == 1 and z.Delta == 0.0 and not z.terminal
    assert z.psi is z.tasks[0].psi and z.offset == 0.0
    # F[0,5]: the jump window runs from the window start to t_star.
    assert not z.always and z.jump_window == (0.0, z.fp.t_star)


def test_eventually_jump_fires_inside_window_and_band():
    f = parse_formula("F[0,5](ball(0;0;4))")
    z = init_sequencer(f, np.array([2.0]), _cfg(chi=0.5))
    # rho outside (r, rho_max): no jump even though the clock allows it.
    assert jump_if_due(z, np.array([3.9]), _cfg(chi=0.5)) is None
    # rho inside: jump to the terminal mode.
    z.t_local = 1.0
    z2 = jump_if_due(z, np.array([1.0]), _cfg(chi=0.5))
    assert z2 is not None and z2.q == 2 and z2.terminal
    assert z2.Delta == 1.0
    assert z2.jump_times == [1.0]
    # Terminal keeps the funnel and continues its clock.
    assert z2.fp is z.fp
    assert z2.psi is z.psi
    z2.t_local = 0.75
    assert z2.t_local + z2.offset == pytest.approx(1.75)


def test_eventually_overdue_raises():
    f = parse_formula("F[0,5](ball(0;0;4))")
    z = init_sequencer(f, np.array([2.0]), _cfg(chi=0.5))
    z.t_local = z.fp.t_star + 1.0
    with pytest.raises(DeadlineError):
        jump_if_due(z, np.array([3.9]), _cfg(chi=0.5))


def test_always_jump_waits_for_deadline():
    f = parse_formula("G[0,2](ball(0;0;4))")
    z = init_sequencer(f, np.array([1.0]), _cfg(chi=0.5))
    z.t_local = 1.0
    assert jump_if_due(z, np.array([1.0]), _cfg(chi=0.5)) is None
    z.t_local = 2.0
    z2 = jump_if_due(z, np.array([1.0]), _cfg(chi=0.5))
    assert z2 is not None and z2.terminal


def test_always_deadline_without_margin_raises():
    f = parse_formula("G[0,2](ball(0;0;4))")
    z = init_sequencer(f, np.array([1.0]), _cfg(chi=0.5))
    z.t_local = 2.0
    with pytest.raises(DeadlineError):
        jump_if_due(z, np.array([4.5]), _cfg(chi=0.5))


def test_ordered_windows_shift_by_elapsed_time():
    # Two tasks on the global clock; the second window must be entered
    # on the local clock shifted by the first task's elapsed time.
    f = parse_formula("F[0,4](ball(0;0;4)) and F[6,10](ball(0;6;4))")
    cfg = _cfg(chi=0.5)
    z = init_sequencer(f, np.array([2.0]), cfg)
    z.t_local = 3.0
    z2 = jump_if_due(z, np.array([1.0]), cfg)
    assert z2 is not None and z2.q == 2
    # Global window [6, 10] minus Delta = 3 gives local [3, 7].
    assert z2.fp.t_star == pytest.approx(7.0)
    # Jump band not open before the shifted window start.
    z2.t_local = 1.0
    assert jump_if_due(z2, np.array([5.0]), cfg) is None
    z2.t_local = 3.5
    z3 = jump_if_due(z2, np.array([5.0]), cfg)
    assert z3 is not None and z3.terminal
    assert z3.Delta == pytest.approx(6.5)
    assert z3.jump_times == [3.0, 6.5]


def test_chain_windows_use_local_clock():
    # Chain steps carry their own offset windows; no shifting applies.
    f = parse_formula("F[0,4](ball(0;0;4) and F[2,6](ball(0;6;4)))")
    cfg = _cfg(chi=0.5)
    z = init_sequencer(f, np.array([2.0]), cfg)
    z.t_local = 3.5
    z2 = jump_if_due(z, np.array([1.0]), cfg)
    assert z2 is not None
    # Next deadline is the step's own upper offset, not cumulative.
    assert z2.fp.t_star == pytest.approx(6.0)
    z2.t_local = 1.0
    assert jump_if_due(z2, np.array([5.0]), cfg) is None  # before local lo = 2
    z2.t_local = 2.5
    assert jump_if_due(z2, np.array([5.0]), cfg) is not None


def test_missed_entry_deadline_names_entered_task():
    # Task 1 holds until its deadline at t = 1; jumping at t = 3 enters
    # task 2, whose global window [1, 2] has already closed.
    f = parse_formula("G[0,1](ball(0;0;4)) and F[1,2](ball(0;6;4))")
    cfg = _cfg(chi=0.5)
    z = init_sequencer(f, np.array([2.0]), cfg)
    assert z.always and z.jump_window == (0.0, 1.0)
    z.t_local = 3.0
    with pytest.raises(DeadlineError, match="task 2 missed its deadline at t=3 ") as info:
        jump_if_due(z, np.array([1.0]), cfg, rho=3.0)
    assert info.value.task_index == 2
    assert info.value.t == 3.0 and info.value.rho == 3.0


def test_synthesis_override_broadcast_vs_per_task():
    f = parse_formula("F[0,4](ball(0;0;4)) and F[6,10](ball(0;6;4))")
    cfg = SequencerConfig(synthesis=(SynthesisConfig(chi=0.5), SynthesisConfig(chi=0.25)))
    assert cfg.task_synthesis(0, 2).chi == 0.5
    assert cfg.task_synthesis(1, 2).chi == 0.25
    with pytest.raises(ValueError):
        SequencerConfig(synthesis=(SynthesisConfig(), SynthesisConfig())).task_synthesis(0, 3)


def test_randomized_sequences_jump_inside_windows(rng):
    # Randomized feasible two/three task instances on a fast integrator:
    # drive rho into the band, step the clock, and check every recorded
    # jump time lies inside the task's shifted window.
    for trial in range(20):
        n_tasks = int(rng.integers(2, 4))
        windows = []
        lo = 0.0
        for _ in range(n_tasks):
            a = lo + float(rng.uniform(0.5, 1.0))
            b = a + float(rng.uniform(1.0, 2.0))
            windows.append((a, b))
            lo = b
        text = " and ".join(
            f"F[{a},{b}](ball(0;{3 * i};2))" for i, (a, b) in enumerate(windows)
        )
        f = parse_formula(text)
        cfg = _cfg(chi=0.2)
        # Start near the first hold point so rho sits inside the jump band
        # (r, rho_max) from the outset; the entry-time gate does the waiting.
        x = np.array([-0.7 + float(rng.uniform(-0.1, 0.1))])
        z = init_sequencer(f, x, cfg)
        t = 0.0
        dt = 0.05
        guard = 0
        while not z.terminal and guard < 10_000:
            guard += 1
            # Hold at an offset from the active center: rho settles at 1.3,
            # inside the band, instead of overshooting rho_max at the center.
            hold = 3 * (z.q - 1) - 0.7
            x = x + np.clip(hold - x, -3.0, 3.0) * dt
            t += dt
            z.t_local += dt
            z_next = jump_if_due(z, x, cfg)
            if z_next is not None:
                z = z_next
        assert z.terminal, text
        assert len(z.jump_times) == n_tasks
        for q, jt in enumerate(z.jump_times):
            a, b = windows[q]
            assert a - dt - 1e-9 <= jt <= b + 1e-9, (text, q, jt)
        # Bookkeeping identity: Delta equals the last jump's global time.
        assert z.Delta == pytest.approx(z.jump_times[-1])


@pytest.mark.parametrize("text", ["F[1,3](ball(0;0;4))", "G[1,3](ball(0;0;4))"])
def test_jump_rows_match_jump_if_due(rng, text):
    # The episode tests a block of rows with jump_rows and calls
    # jump_if_due only at a row it found due or overdue, where that call
    # must jump or raise; both are one condition.  Rows straddle the
    # band's edges r and rho_max and the window's ends, including the
    # tolerance at each.
    z = init_sequencer(parse_formula(text), np.array([2.0]), _cfg(chi=0.5))
    lo, hi = z.jump_window
    edges = np.array([z.fp.r, z.fp.rho_max])
    rho = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                          rng.uniform(0.0, 5.0, 20)])
    t = np.concatenate([[lo, hi, lo - 1e-9, hi + 1e-9, lo - 2e-9, hi + 2e-9], rng.uniform(0.0, 4.0, 20)])
    R, T = (a.ravel() for a in np.meshgrid(rho, t))
    due, overdue = jump_rows(z, R, T)
    assert due.any() and overdue.any() and (~due & ~overdue).any()
    for r, s, d, o in zip(R.tolist(), T.tolist(), due.tolist(), overdue.tolist()):
        z.t_local = s
        if o:
            with pytest.raises(DeadlineError):
                jump_if_due(z, np.array([2.0]), _cfg(chi=0.5), rho=r)
        else:
            assert (jump_if_due(z, np.array([2.0]), _cfg(chi=0.5), rho=r) is not None) == d
    # The terminal mode never jumps.
    z.t_local = hi
    end = jump_if_due(z, np.array([2.0]), _cfg(chi=0.5), rho=float(edges.mean()))
    assert end.terminal and jump_rows(end, R, T) == (False, False)

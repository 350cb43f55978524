"""Performance funnel evaluation, synthesis branches, and audits."""

import math

import numpy as np
import pytest

from stlfunnel.errors import SynthesisError
from stlfunnel.formulas import AtomicTask
from stlfunnel.funnel import (
    FunnelParams,
    PerformanceFunction,
    SynthesisConfig,
    audit_funnel,
    gamma_at,
    synthesize_funnel,
)
from stlfunnel.parsing import parse_psi


def _task(psi_text, window, m=0, p=1):
    return AtomicTask(
        psi=parse_psi(psi_text), window=window, local_window=window, m=m, p=p
    )


def test_gamma_evaluation():
    pf = PerformanceFunction(gamma0=2.0, gamma_inf=0.5, l=1.0)
    assert gamma_at(pf, 0.0) == pytest.approx(2.0)
    assert gamma_at(pf, 1.0) == pytest.approx(1.5 * math.exp(-1.0) + 0.5)
    assert gamma_at(pf, 1e9) == pytest.approx(0.5)


def test_gamma_validation():
    with pytest.raises(ValueError):
        PerformanceFunction(gamma0=1.0, gamma_inf=2.0, l=0.0)
    with pytest.raises(ValueError):
        PerformanceFunction(gamma0=1.0, gamma_inf=0.0, l=0.0)
    with pytest.raises(ValueError):
        PerformanceFunction(gamma0=1.0, gamma_inf=0.5, l=-0.1)


def test_synthesis_first_branch_constant_width():
    # Start close to the target: the initial gap fits under rho_max - r,
    # so the funnel keeps a constant width (l = 0).
    task = _task("ball(0;0;10)", (0.0, 5.0))
    fp = synthesize_funnel(task, np.array([2.0]), SynthesisConfig(chi=1.0))
    pf = fp.perf
    assert pf.l == 0.0
    assert pf.gamma0 == pf.gamma_inf
    assert gamma_at(pf, fp.t_star) <= fp.rho_max - fp.r + 1e-12


def test_synthesis_second_branch_hits_deadline_width():
    # Start far away: gamma must shrink to rho_max - r exactly at t_star.
    task = _task("ball(0;0;10)", (0.0, 5.0))
    fp = synthesize_funnel(task, np.array([25.0]), SynthesisConfig(chi=1.0))
    pf = fp.perf
    assert pf.l > 0.0
    lhs = gamma_at(pf, fp.t_star)
    rhs = fp.rho_max - fp.r
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_synthesis_always_uses_window_start():
    task = _task("ball(0;0;10)", (2.0, 5.0), m=1)
    fp = synthesize_funnel(task, np.array([3.0]), SynthesisConfig(chi=1.0))
    assert fp.t_star == 2.0


def test_synthesis_eventually_uses_window_end():
    task = _task("ball(0;0;10)", (2.0, 5.0), m=0)
    fp = synthesize_funnel(task, np.array([3.0]), SynthesisConfig(chi=1.0))
    assert fp.t_star == 5.0


def test_synthesis_rejects_unreachable_rho_max():
    task = _task("ball(0;0;2)", (0.0, 5.0))
    with pytest.raises(SynthesisError):
        synthesize_funnel(task, np.array([1.0]), SynthesisConfig(rho_max=5.0, chi=0.1))


def test_synthesis_rejects_bad_chi():
    task = _task("ball(0;0;2)", (0.0, 5.0))
    with pytest.raises(SynthesisError):
        synthesize_funnel(task, np.array([1.0]), SynthesisConfig(chi=10.0))


def test_synthesis_immediate_deadline_needs_satisfaction():
    task = _task("ball(0;0;2)", (0.0, 0.0))
    # Already inside with margin: allowed.
    fp = synthesize_funnel(task, np.array([0.1]), SynthesisConfig(chi=0.05))
    assert fp.t_star == 0.0
    # Not yet above r at an immediate deadline: rejected.
    with pytest.raises(SynthesisError):
        synthesize_funnel(task, np.array([1.9]), SynthesisConfig(chi=0.05))


def test_synthesis_window_already_passed():
    task = _task("ball(0;0;2)", (-3.0, -1.0))
    with pytest.raises(SynthesisError):
        synthesize_funnel(task, np.array([0.1]))


def test_audit_catches_inconsistent_overrides():
    task = _task("ball(0;0;10)", (0.0, 5.0))
    with pytest.raises(SynthesisError):
        # Forced wide forever: gamma(t_star) cannot reach rho_max - r.
        synthesize_funnel(
            task,
            np.array([1.0]),
            SynthesisConfig(chi=1.0, gamma0=50.0, gamma_inf=40.0, l=0.01),
        )


def test_audit_direct():
    fp = FunnelParams(
        t_star=1.0, r=1.0, rho_max=2.0,
        perf=PerformanceFunction(gamma0=3.0, gamma_inf=0.9, l=4.0),
    )
    audit_funnel(fp, rho0=0.0, rho_opt=3.0, chi=0.5)
    with pytest.raises(SynthesisError):
        audit_funnel(fp, rho0=0.0, rho_opt=2.0, chi=0.5)  # rho_max too high
    with pytest.raises(SynthesisError):
        audit_funnel(fp, rho0=-2.0, rho_opt=3.0, chi=0.5)  # gamma0 below gap

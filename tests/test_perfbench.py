"""The episode benchmark's tracer still finds every function it wraps, and an
episode still calls each one it binds on ``sim``."""

import importlib.util
import sys
from pathlib import Path

import stlfunnel.kernels

EPISODE = Path(__file__).resolve().parents[1] / "perfbench" / "episode.py"


class _LookupTracer:
    """Stands in for the tracer: looks each wrapped name up, wraps nothing."""

    def __init__(self):
        self.names = []

    def install(self, modules, attr, name, count=None):
        getattr(modules[0], attr)
        # The wrapper is bound in every listed module; a module without
        # the name would gain a binding that no caller reads.
        for module in modules:
            assert hasattr(module, attr), f"{module.__name__} has no {attr}"
        self.names.append(name)


def test_trace_install_finds_every_wrapped_function(monkeypatch):
    # Loading the script must leave no bytecode cache in the benchmark tree.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_episode", EPISODE)
    episode = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(episode)
    tracer = _LookupTracer()
    episode._install(tracer, full=True)
    assert "controller.probe_points" in tracer.names
    assert "controller.compute_trigger_radius" in tracer.names
    assert "kernels.u_xi_batch" in tracer.names
    assert len(tracer.names) == len(set(tracer.names))
    # Plain runs (episode.run) and baseline._environment record this flag.
    assert stlfunnel.kernels.USING_NUMBA is False


def test_traced_sim_names_run_on_the_episode_path(monkeypatch):
    # Each name the tracer binds on sim must be called by an episode, so
    # that a name kept only for the tracer fails here instead of reading
    # 0 in the per-layer split.
    import numpy as np

    from stlfunnel import sim
    from stlfunnel.parsing import parse_formula
    from stlfunnel.plants import single_integrator

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_episode", EPISODE)
    episode = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(episode)
    names = []

    class _SimNames(_LookupTracer):
        def install(self, modules, attr, name, count=None):
            if sim in modules:
                names.append(attr)

    episode._install(_SimNames(), full=True)
    assert sorted(names) == sorted(["make_event", "run_episode", "step_rk4", "init_sequencer", "jump_if_due",
                                    "should_trigger", "monitor_robustness"])
    calls = dict.fromkeys(names, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in names:
        monkeypatch.setattr(sim, attr, counted(attr, getattr(sim, attr)))
    two_phase = sim.EpisodeSpec(
        plant=single_integrator(1), theta=parse_formula("F[0,3](ball(0;2;1.5)) and F[3,6](ball(0;-1;1.5))"),
        x0=np.array([0.0]), seed=3,
    )
    traj, metrics, events = sim.run_episode(two_phase)
    assert metrics.satisfied
    assert all(count >= 1 for count in calls.values()), calls

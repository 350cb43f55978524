"""The episode benchmark's tracer still finds every function it wraps."""

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

"""Plant models: control-affine dynamics with bounded additive noise.

The controller side only ever sees the actuation matrix g(x); the drift
f stays opaque behind the Plant interface, which is what justifies a
feedback law built purely from g and the robustness gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Plant", "single_integrator", "omni_robot_team"]

_DEG = math.pi / 180.0

# Wheel geometry of the three-wheel omni robot: wheel headings 120
# degrees apart, body radius L, wheel radius R.
OMNI_L = 0.2
OMNI_R = 0.02
_COS30 = math.cos(math.pi / 6.0)
OMNI_B = np.array(
    [
        [0.0, _COS30, -_COS30],
        [-1.0, 0.5, 0.5],
        [OMNI_L, OMNI_L, OMNI_L],
    ]
)


@dataclass(frozen=True)
class Plant:
    """Control-affine plant dx/dt = f(x) + g(x) u + w.

    ``kernel_kind``/``kernel_gain``/``kernel_gbase`` mirror g(x) in the
    form the numeric kernels consume: kind 0 is gain * identity, kind 1
    is the omni team with per-agent base matrix ``kernel_gbase``
    rotated by the agent's orientation state (held in degrees).
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    w_max: float
    kernel_kind: int
    kernel_gain: float = 1.0
    kernel_gbase: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))


def single_integrator(dim: int, gain: float = 1.0, w_max: float = 0.0) -> Plant:
    """Fully actuated integrator: f = 0, g = gain * identity."""
    if dim < 1 or gain <= 0.0:
        raise ValueError("need dim >= 1 and positive gain")
    eye = gain * np.eye(dim)
    return Plant(
        n=dim,
        m=dim,
        f=lambda x: np.zeros(dim),
        g=lambda x: eye,
        w_max=float(w_max),
        kernel_kind=0,
        kernel_gain=float(gain),
    )


def omni_robot_team(
    n_agents: int = 3, input_gain: float = 1.0, w_max: float = 0.0
) -> Plant:
    """Team of three-wheel omni-directional robots.

    Per-agent state is (x, y, orientation-in-degrees); inputs are the
    three wheel speeds.  The actuation is rot(theta) @ inv(B^T) * R
    scaled by ``input_gain``, stacked block-diagonally.  The default
    gain 1 commands wheel angular velocity through the bare geometry;
    scenario files may raise it to model a wheel-speed servo gain.
    """
    if n_agents < 1 or input_gain <= 0.0:
        raise ValueError("need n_agents >= 1 and positive input_gain")
    gbase = np.linalg.inv(OMNI_B.T) * OMNI_R * float(input_gain)
    dim = 3 * n_agents

    def g(x: np.ndarray) -> np.ndarray:
        out = np.zeros((dim, dim))
        for a in range(n_agents):
            th = x[3 * a + 2] * _DEG
            c, s = math.cos(th), math.sin(th)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            out[3 * a : 3 * a + 3, 3 * a : 3 * a + 3] = rot @ gbase
        return out

    return Plant(
        n=dim,
        m=dim,
        f=lambda x: np.zeros(dim),
        g=g,
        w_max=float(w_max),
        kernel_kind=1,
        kernel_gbase=gbase,
    )

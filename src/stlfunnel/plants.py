"""Plant models as plain data: drift-free control-affine dynamics, bounded additive noise."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["Plant", "single_integrator", "omni_robot_team"]

# Orientation states are held in degrees.
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


def is_int(value: object) -> bool:
    """True for an integer (a numpy one too), False for a float or a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# eq=False: identity equality and hashing, as an ndarray field cannot compare.
@dataclass(frozen=True, eq=False)
class Plant:
    """Control-affine plant dx/dt = g(x) u + w with |w_i| <= w_max, as plain data.

    There is no drift.  ``gain`` and ``gbase`` are the one description of
    g: the law, its Jacobian and the trigger radius read them in
    ``kernels``, ``sim.step_rk4`` moves the state by the exact held flow,
    and ``g`` builds the dense matrix the tests compare against.

    * ``gbase`` None: the fully actuated integrator, g = gain * identity.
    * ``gbase`` a 3x3 matrix: a team of n / 3 omni robots with per-agent
      state (x, y, heading in degrees) and three inputs each; g is
      block-diagonal with blocks gain * rot(theta_a) @ gbase.
    """

    n: int
    m: int
    w_max: float = 0.0
    gain: float = 1.0
    gbase: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (is_int(self.n) and is_int(self.m)) or self.n < 1 or self.m != self.n:
            raise ValueError(f"need integers n = m >= 1, got n={self.n!r}, m={self.m!r}")
        if not self.gain > 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if not self.w_max >= 0.0:
            raise ValueError(f"w_max must be non-negative, got {self.w_max}")
        if self.gbase is not None and (np.shape(self.gbase) != (3, 3) or self.n % 3 != 0):
            raise ValueError(
                f"an omni team needs a 3x3 gbase and n divisible by 3, got {np.shape(self.gbase)} and {self.n}"
            )

    @functools.cached_property
    def gbody(self) -> np.ndarray | None:
        """An omni agent's body actuation gain * gbase, once per plant (None otherwise)."""
        return None if self.gbase is None else self.gain * self.gbase

    @functools.cached_property
    def gbody_rows(self) -> tuple[tuple[float, ...], ...] | None:
        """``gbody`` as rows of plain floats, for the pointwise law and the held flow."""
        return None if self.gbase is None else tuple(map(tuple, self.gbody.tolist()))

    def g(self, x: np.ndarray) -> np.ndarray:
        """The dense actuation matrix g(x) (n, m): the reference form."""
        if self.gbase is None:
            return self.gain * np.eye(self.n)
        gb = self.gbody
        out = np.zeros((self.n, self.m))
        for a in range(0, self.n, 3):
            th = x[a + 2] * _DEG
            c, s = math.cos(th), math.sin(th)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            out[a : a + 3, a : a + 3] = rot @ gb
        return out


def single_integrator(dim: int, gain: float = 1.0, w_max: float = 0.0) -> Plant:
    """Fully actuated integrator: g = gain * identity."""
    return Plant(n=dim, m=dim, w_max=float(w_max), gain=float(gain))


def omni_robot_team(n_agents: int = 3, input_gain: float = 1.0, w_max: float = 0.0) -> Plant:
    """Team of three-wheel omni-directional robots.

    Per-agent state is (x, y, orientation-in-degrees); inputs are the
    three wheel speeds.  The actuation is rot(theta) @ inv(B^T) * R
    scaled by ``input_gain``, stacked block-diagonally.  The default
    gain 1 commands wheel angular velocity through the bare geometry;
    scenario files may raise it to model a wheel-speed servo gain.
    """
    return Plant(
        n=3 * n_agents,
        m=3 * n_agents,
        w_max=float(w_max),
        gain=float(input_gain),
        gbase=np.linalg.inv(OMNI_B.T) * OMNI_R,
    )

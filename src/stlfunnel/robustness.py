"""Exact and smoothed robustness of predicate conjunctions.

The smoothed value is the soft minimum

    rho = -(1/eta) * ln sum_i exp(-eta * h_i(x))

which under-approximates the exact minimum by at most ln(m)/eta for m
leaves.  Every function here is a thin front over ``kernels``: the
per-state ones over its plain-float pointwise loop, ``exact_psi_batch``
and ``smooth_psi_hessian`` over its batch read-out.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .formulas import NonTemporalFormula, SmoothingConfig

__all__ = [
    "leaf_values",
    "exact_psi_value",
    "exact_psi_batch",
    "smooth_psi_value",
    "smooth_psi_value_and_grad",
    "smooth_psi_hessian",
]

exact_psi_batch = kernels.exact_psi_batch


def leaf_values(psi: NonTemporalFormula, x: np.ndarray) -> np.ndarray:
    """Signed value of every leaf at x, in leaf order."""
    xs = np.asarray(x, dtype=float).tolist()
    return np.array(kernels.leaf_pass(kernels.compile_leaf_table(psi), xs)[0])


def exact_psi_value(psi: NonTemporalFormula, x: np.ndarray) -> float:
    """Exact conjunction robustness: the minimum signed leaf value."""
    return float(leaf_values(psi, x).min())


def smooth_psi_value_and_grad(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> tuple[float, np.ndarray]:
    """Soft minimum of the leaf values and its gradient.

    The gradient is the softmin-weighted combination of leaf gradients;
    weights are nonnegative and sum to one.  A single leaf reduces to
    the exact value and gradient.
    """
    xs = np.asarray(x, dtype=float).tolist()
    rho, grad = kernels.smooth_rho_grad(kernels.compile_leaf_table(psi), xs, cfg.eta)
    return rho, np.array(grad)


def smooth_psi_value(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> float:
    return smooth_psi_value_and_grad(psi, x, cfg)[0]


def smooth_psi_hessian(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> np.ndarray:
    """Hessian of the soft minimum.

    Combines weighted leaf Hessians with the curvature of the weights:

        H = sum_i w_i H_i - eta * (sum_i w_i g_i g_i^T - g g^T)

    where g is the softmin gradient.  Concave leaves make the first
    term negative semidefinite and the weight term is always negative
    semidefinite, so the soft minimum stays concave.
    """
    X = np.asarray(x, dtype=float)[None, :]
    return kernels.softmin_hessian(psi, X, cfg.eta)[0]

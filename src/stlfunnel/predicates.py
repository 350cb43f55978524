"""Concave predicate primitives over selected state components.

Three leaf kinds cover the supported fragment:

* ``ball``:   h(x) = radius - ||x[sel] - center||_2
* ``join``:   h(x) = radius - ||x[sel_a] - x[sel_b]||_2
* ``affine``: h(x) = offset - sum(coeffs * x[sel])

A band constraint ``|x_k - c| < w`` is desugared by the parser into two
affine leaves and never reaches this module as its own kind.  Negation
flips the sign of value, gradient, and Hessian.  A selector may repeat
within a leaf; its terms add up.  This module only describes leaves:
``kernels`` is where they are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PredicateSpec", "ball", "join", "affine"]


@dataclass(frozen=True)
class PredicateSpec:
    """One leaf predicate, possibly negated.

    Fields are tuples so specs are hashable and safely shared.
    ``sel_b`` is only used by ``join``; ``coeffs`` only by ``affine``.
    """

    kind: str
    sel: tuple[int, ...]
    sel_b: tuple[int, ...] = ()
    center: tuple[float, ...] = ()
    coeffs: tuple[float, ...] = ()
    radius: float = 0.0
    offset: float = 0.0
    negated: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("ball", "join", "affine"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.kind == "ball" and len(self.sel) != len(self.center):
            raise ValueError("ball selector and center lengths differ")
        if self.kind == "join" and len(self.sel) != len(self.sel_b):
            raise ValueError("join selector lengths differ")
        if self.kind == "affine" and len(self.sel) != len(self.coeffs):
            raise ValueError("affine selector and coefficient lengths differ")
        if not all(map(math.isfinite, (*self.center, *self.coeffs, self.radius, self.offset))):
            raise ValueError("predicate centre, radius, coefficients and offset must be finite")

    @property
    def min_dim(self) -> int:
        """Smallest state dimension this predicate can be evaluated on."""
        return 1 + max(self.sel + self.sel_b, default=-1)

    @property
    def concave(self) -> bool:
        """True when the signed leaf is concave in x."""
        return self.kind == "affine" or not self.negated

    def negate(self) -> "PredicateSpec":
        return PredicateSpec(
            kind=self.kind,
            sel=self.sel,
            sel_b=self.sel_b,
            center=self.center,
            coeffs=self.coeffs,
            radius=self.radius,
            offset=self.offset,
            negated=not self.negated,
        )


def ball(sel: tuple[int, ...], center: tuple[float, ...], radius: float) -> PredicateSpec:
    return PredicateSpec(kind="ball", sel=tuple(sel), center=tuple(center), radius=float(radius))


def join(sel_a: tuple[int, ...], sel_b: tuple[int, ...], radius: float) -> PredicateSpec:
    return PredicateSpec(kind="join", sel=tuple(sel_a), sel_b=tuple(sel_b), radius=float(radius))


def affine(sel: tuple[int, ...], coeffs: tuple[float, ...], offset: float) -> PredicateSpec:
    return PredicateSpec(
        kind="affine", sel=tuple(sel), coeffs=tuple(float(c) for c in coeffs), offset=float(offset)
    )

"""Formula AST for the supported temporal-logic fragment.

The fragment is conjunctive: a non-temporal formula is a conjunction of
concave predicate leaves; a temporal atom wraps one such conjunction in
a single Always or Eventually operator with a bounded window; a
sequential formula is either a conjunction of temporal atoms with
non-overlapping, ordered windows (kind "s1") or a nested chain of
Eventually operators (kind "s2").  Disjunction and until are out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FormulaError
from .predicates import PredicateSpec

__all__ = [
    "NonTemporalFormula",
    "TemporalFormula",
    "SequentialFormula",
    "AtomicTask",
    "SmoothingConfig",
    "normalize_sequential",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing sharpness for the soft minimum; larger eta is tighter."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class NonTemporalFormula:
    """Conjunction of predicate leaves.

    Equal leaves compare equal, as for any dataclass.  The hash, which
    the kernels' per-formula caches look up on every call, is computed
    once from the leaves and kept on the instance; it stays out of
    pickles, since string hashes differ between interpreters.
    """

    leaves: tuple[PredicateSpec, ...]

    def __post_init__(self) -> None:
        if not self.leaves:
            raise FormulaError("empty conjunction")

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.leaves)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def min_dim(self) -> int:
        return max(leaf.min_dim for leaf in self.leaves)

    def validate(self) -> None:
        """Reject conjunctions without a bounded superlevel set.

        Every leaf is concave; well-posedness here means some state
        component has a bounded superlevel set, for which a ball or join
        suffices, as does a two-sided band (a pair of single-variable
        affine bounds in opposite directions).  This is sufficient but not
        necessary; other bounded polytopes are conservatively rejected.
        """
        if any(leaf.kind in ("ball", "join") for leaf in self.leaves):
            return
        # Band desugaring leaves two opposing single-variable affine
        # bounds; accept any index bounded from both sides.
        upper: set[int] = set()
        lower: set[int] = set()
        for leaf in self.leaves:
            if leaf.kind != "affine" or len(leaf.sel) != 1 or leaf.coeffs[0] == 0.0:
                continue
            (upper if leaf.coeffs[0] > 0.0 else lower).add(leaf.sel[0])
        if upper & lower:
            return
        raise FormulaError("conjunction needs a ball/join leaf or a two-sided band")


@dataclass(frozen=True)
class TemporalFormula:
    """One temporal atom: op in {"G", "F"} applied over window [a, b]."""

    op: str
    a: float
    b: float
    psi: NonTemporalFormula

    def __post_init__(self) -> None:
        if self.op not in ("G", "F"):
            raise FormulaError(f"unsupported temporal operator {self.op!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise FormulaError(f"window bounds must be finite, got [{self.a}, {self.b}]")
        if self.a < 0.0 or self.b < self.a:
            raise FormulaError(f"bad window [{self.a}, {self.b}]")


@dataclass(frozen=True)
class SequentialFormula:
    """Either an ordered conjunction of atoms (s1) or a nested chain (s2).

    For s2, ``atoms[i]`` holds the i-th chain step: the operator is
    Eventually and the window is the step's own offset interval, nested
    relative to the satisfaction time of step i-1.
    """

    kind: str
    atoms: tuple[TemporalFormula, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("s1", "s2"):
            raise FormulaError(f"unknown sequential kind {self.kind!r}")
        if not self.atoms:
            raise FormulaError("sequential formula with no atoms")
        if self.kind == "s1":
            for prev, nxt in zip(self.atoms, self.atoms[1:]):
                if prev.b > nxt.a:
                    raise FormulaError(
                        f"windows overlap: [{prev.a},{prev.b}] then [{nxt.a},{nxt.b}]"
                    )
        else:
            for atom in self.atoms:
                if atom.op != "F":
                    raise FormulaError("chain steps must use Eventually")

    @property
    def min_dim(self) -> int:
        return max(atom.psi.min_dim for atom in self.atoms)


@dataclass(frozen=True)
class AtomicTask:
    """One sequencer-ready task.

    ``window`` is the satisfaction window on the global clock (for s2
    chains this is the cumulative-sum window).  ``local_window`` is the
    window on the clock that restarts when the previous task completes:
    equal to ``window`` for s1, and the step's own interval for s2.
    ``m`` is 1 for Always and 0 for Eventually; ``p`` is 1 for s1 and 0
    for s2.
    """

    psi: NonTemporalFormula
    window: tuple[float, float]
    local_window: tuple[float, float]
    m: int
    p: int


def normalize_sequential(theta: SequentialFormula) -> list[AtomicTask]:
    """Flatten a sequential formula into ordered atomic tasks.

    s1 atoms pass through with their own windows.  s2 chain steps get
    cumulative global windows: a_i is the sum of the first i lower
    offsets and b_i the sum of the first i upper offsets.
    """
    tasks: list[AtomicTask] = []
    if theta.kind == "s1":
        for atom in theta.atoms:
            window = (atom.a, atom.b)
            tasks.append(
                AtomicTask(
                    psi=atom.psi,
                    window=window,
                    local_window=window,
                    m=1 if atom.op == "G" else 0,
                    p=1,
                )
            )
        return tasks
    lo = 0.0
    hi = 0.0
    for atom in theta.atoms:
        lo += atom.a
        hi += atom.b
        tasks.append(
            AtomicTask(
                psi=atom.psi,
                window=(lo, hi),
                local_window=(atom.a, atom.b),
                m=0,
                p=0,
            )
        )
    return tasks

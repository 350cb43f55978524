"""Leaf evaluation: the one module that evaluates leaves, their soft minimum and the law.

The smoothed robustness of a conjunction is the soft minimum
rho = -(1/eta) * ln sum_i exp(-eta * h_i(x)), which under-approximates
the exact minimum by at most ln(m)/eta for m leaves.  A conjunction
compiles once per formula into one record per leaf in plain Python
numbers (``compile_leaf_table``) and, once per formula and state size,
into linear read-outs r_i = A_i x - c_i (``_leaf_maps``).  There are two
entry points over that form:

* The pointwise loop over plain Python floats (``leaf_pass``,
  ``smooth_rho_grad``, ``u_xi_eval`` and ``smooth_psi_value_and_grad``):
  the per-step law of the episode loop and the value and gradient used
  by the funnel, the optimizer and the sequencer.  On one state it is
  several times faster than a one-row numpy pass, whose fixed per-call
  overhead dominates at that size (README, "Leaf evaluation").
* The batch read-out: leaf values, gradients and Hessians at every row
  of a state array in a few numpy passes.  Leaf values are summed
  without BLAS, so they round as the pointwise loop does.  It serves the
  trigger radius (``guarded_readout``, ``law_row_sums`` and its cheaper
  upper bound ``law_row_bound``), ``u_xi_batch``,
  ``law_jacobian_batch``, ``exact_psi_batch`` and ``smooth_psi_hessian``;
  the batch law and its Jacobian share one front, ``_law_front``.

The law u = -eps * g(x)^T grad rho reads g from ``Plant.gain`` and
``Plant.gbody``, the plant's one description of its actuation.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .formulas import NonTemporalFormula, SmoothingConfig
from .plants import _DEG

__all__ = [
    "USING_NUMBA",
    "compile_leaf_table",
    "leaf_pass",
    "smooth_rho_grad",
    "u_xi_eval",
    "smooth_psi_value_and_grad",
    "u_xi_batch",
    "law_jacobian_batch",
    "guarded_readout",
    "law_row_sums",
    "law_row_bound",
    "exact_psi_batch",
    "smooth_psi_hessian",
]

# There is no compiled path; perfbench/episode.py and perfbench/baseline.py
# record this flag with every benchmark result.
USING_NUMBA = False

_KIND_CODE = {"affine": 0, "ball": 1, "join": 2}
# rot(theta)^T = cos(theta) * _ROT_C + sin(theta) * _ROT_S + _ROT_Z.
_ROT_C = np.diag([1.0, 1.0, 0.0])
_ROT_S = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_ROT_Z = np.diag([0.0, 0.0, 1.0])


@functools.lru_cache(maxsize=None)
def compile_leaf_table(psi: NonTemporalFormula) -> tuple[tuple, ...]:
    """Per leaf (kind, sign, sel, sel_b, pars, cst) in plain Python numbers.

    kind is 0 affine, 1 ball, 2 join; sign is -1.0 for a negated leaf;
    pars holds the affine coefficients or the ball centre, cst the
    offset or the radius.  Cached per formula.
    """
    table = []
    for leaf in psi.leaves:
        kind = _KIND_CODE[leaf.kind]
        pars = leaf.coeffs if kind == 0 else leaf.center
        cst = leaf.offset if kind == 0 else leaf.radius
        table.append((
            kind, -1.0 if leaf.negated else 1.0, leaf.sel, leaf.sel_b,
            tuple(float(p) for p in pars), float(cst),
        ))
    return tuple(table)


# ---------------------------------------------------------------------------
# pointwise loop over plain floats


def leaf_pass(table: tuple[tuple, ...], xs: list[float]) -> tuple[list, list]:
    """Leaf values h_i at the state ``xs`` (a list of floats).

    Also returns, per leaf, the norm's difference vector and length for
    ball and join leaves (None for affine ones), which the gradient
    reuses.
    """
    h = []
    diffs = []
    for kind, sign, sel, sel_b, pars, cst in table:
        if kind == 0:
            acc = 0.0
            for j, p in zip(sel, pars):
                acc += p * xs[j]
            h.append(sign * (cst - acc))
            diffs.append(None)
            continue
        if kind == 1:
            d = [xs[j] - c for j, c in zip(sel, pars)]
        else:
            d = [xs[j] - xs[k] for j, k in zip(sel, sel_b)]
        acc = 0.0
        for v in d:
            acc += v * v
        nd = math.sqrt(acc)
        h.append(sign * (cst - nd))
        diffs.append((d, nd))
    return h, diffs


def smooth_rho_grad(table: tuple[tuple, ...], xs: list[float], eta: float) -> tuple[float, list]:
    """Soft minimum of the leaf values at ``xs`` and its gradient (a list).

    The gradient accumulates w_i * grad h_i leaf by leaf, so a selector
    that repeats within a leaf adds up.  The gradient of a norm at its
    own centre is taken as zero; any subgradient is admissible there and
    zero keeps the law continuous through the centre.  A non-finite
    smallest leaf value (an overflowing norm) is rho, with a NaN gradient.
    """
    h, diffs = leaf_pass(table, xs)
    m = min(h)
    if not math.isfinite(m):
        return m, [math.nan] * len(xs)
    w = np.exp(-eta * (np.array(h) - m))
    z = w.sum()
    rho = m - math.log(z) / eta
    grad = [0.0] * len(xs)
    for (kind, sign, sel, sel_b, pars, _), wi, diff in zip(table, w.tolist(), diffs):
        ws = wi / z * sign
        if kind == 0:
            for j, p in zip(sel, pars):
                grad[j] -= ws * p
            continue
        d, nd = diff
        if nd > 0.0:
            if kind == 1:
                for j, dj in zip(sel, d):
                    grad[j] -= ws * dj / nd
            else:
                for j, k, dj in zip(sel, sel_b, d):
                    v = ws * dj / nd
                    grad[j] -= v
                    grad[k] += v
    return float(rho), grad


def u_xi_eval(table: tuple[tuple, ...], x: np.ndarray, t: float, eta: float, fp, plant):
    """Funnel error xi and law u = -eps * g(x)^T grad rho at (x, t).

    ``fp`` is the phase's FunnelParams and ``t`` its funnel clock.
    Returns (xi, u); u is NaN when xi leaves (-1, 0).
    """
    xs = x.tolist()
    rho, grad = smooth_rho_grad(table, xs, eta)
    pf = fp.perf
    gamma = (pf.gamma0 - pf.gamma_inf) * math.exp(-pf.l * t) + pf.gamma_inf
    xi = (rho - fp.rho_max) / gamma
    if xi <= -1.0 or xi >= 0.0:
        return xi, np.full(plant.m, np.nan)
    scale = -math.log(-(xi + 1.0) / xi)
    if plant.gbase is None:
        return xi, np.array([plant.gain * g * scale for g in grad])
    gb = plant.gbody_rows
    u = []
    for a in range(0, len(xs), 3):
        th = xs[a + 2] * _DEG
        c = math.cos(th)
        s = math.sin(th)
        gx, gy, gw = grad[a : a + 3]
        # rot(th)^T applied to the state-space gradient block
        v0 = c * gx + s * gy
        v1 = -s * gx + c * gy
        for j in range(3):
            u.append((gb[0][j] * v0 + gb[1][j] * v1 + gb[2][j] * gw) * scale)
    return xi, np.array(u)


def smooth_psi_value_and_grad(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> tuple[float, np.ndarray]:
    """Soft minimum of the leaf values and its gradient.

    The gradient is the softmin-weighted combination of leaf gradients;
    weights are nonnegative and sum to one.  A single leaf reduces to
    the exact value and gradient.
    """
    xs = np.asarray(x, dtype=float).tolist()
    rho, grad = smooth_rho_grad(compile_leaf_table(psi), xs, cfg.eta)
    return rho, np.array(grad)


# ---------------------------------------------------------------------------
# batch read-out


class _LeafMaps(NamedTuple):
    """Batch form of a conjunction over an n-dimensional state (L leaves, W slots)."""

    ia: np.ndarray  # (L, W) state index read with weight a
    a: np.ndarray  # (L, W)
    ib: np.ndarray  # (L, W) state index read with weight -b (join partners)
    b: np.ndarray  # (L, W)
    c: np.ndarray  # (L, W) ball centres
    lin: np.ndarray  # (L, W) derivative of an affine read-out w.r.t. r_i
    grad_map: np.ndarray  # (L * W, L * n) read-out derivatives -> leaf gradients
    slot_grad: np.ndarray  # (L * W, n) row j of -sign_i A_i, per slot
    slot_l1: np.ndarray  # (L * W, L) |row j of A_i|_1 in leaf i's column
    ata: np.ndarray  # (L, n * n) A_i^T A_i
    ata_rows: np.ndarray  # (L, n) |A_i^T A_i| 1
    norm: np.ndarray  # (L,) ball or join
    signs: np.ndarray  # (L,)
    csts: np.ndarray  # (L,)


@functools.lru_cache(maxsize=None)
def _leaf_maps(psi: NonTemporalFormula, n: int) -> _LeafMaps:
    """The leaf table as linear read-outs of an n-dimensional state.

    Slot j of leaf i reads r_ij = a_ij x[ia_ij] - b_ij x[ib_ij] - c_ij:
    x[sel_j] - centre_j for a ball, x[sel_j] - x[sel_b_j] for a join and
    coeff_j x[sel_j] for an affine leaf; unused slots read zero.  Ball
    and join leaves take the norm of r_i, affine leaves the sum of its
    slots, so h_i = sign_i * (cst_i - read-out).  Row j of A_i is
    a_ij e_ia - b_ij e_ib; ``grad_map`` is block-diagonal and takes the
    read-out derivatives to the leaf gradients -sign_i A_i^T.  Repeated
    selectors add up in A_i.  Cached per formula and state size.
    """
    table = compile_leaf_table(psi)
    L, W = len(table), max(len(leaf[2]) for leaf in table)
    ia = np.zeros((L, W), dtype=np.intp)
    ib = np.zeros((L, W), dtype=np.intp)
    a, b, c, lin = (np.zeros((L, W)) for _ in range(4))
    A = np.zeros((L, W, n))
    grad_map = np.zeros((L, W, L, n))
    rows = np.arange(W)
    for i, (kind, sign, sel, sel_b, pars, _) in enumerate(table):
        k = len(sel)
        ia[i, :k] = sel
        if kind == 0:
            a[i, :k] = pars
            lin[i, :k] = 1.0
        else:
            a[i, :k] = 1.0
        if kind == 1:
            c[i, :k] = pars
        if kind == 2:
            ib[i, :k] = sel_b
            b[i, :k] = 1.0
        np.add.at(A[i], (rows, ia[i]), a[i])
        np.add.at(A[i], (rows, ib[i]), -b[i])
        grad_map[i, :, i, :] = -sign * A[i]
    ata = A.transpose(0, 2, 1) @ A
    maps = _LeafMaps(
        ia=ia, a=a, ib=ib, b=b, c=c, lin=lin,
        grad_map=grad_map.reshape(L * W, L * n),
        slot_grad=grad_map.sum(axis=2).reshape(L * W, n),
        slot_l1=np.repeat(np.eye(L), W, axis=0) * np.abs(A).sum(axis=2).reshape(L * W, 1),
        ata=ata.reshape(L, n * n), ata_rows=np.abs(ata).sum(axis=2),
        norm=np.array([leaf[0] != 0 for leaf in table]),
        signs=np.array([leaf[1] for leaf in table]),
        csts=np.array([leaf[5] for leaf in table]),
    )
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _leaf_readout(X: np.ndarray, psi: NonTemporalFormula) -> tuple[np.ndarray, ...]:
    """Leaf read-outs at every row of X: r (P, L, W), |r| (P, L) and h (P, L).

    r_i = A_i x - c_i over ``_leaf_maps``; ball and join leaves take
    h_i = sign_i * (cst_i - |r_i|), affine leaves sign_i * (cst_i - sum_j r_ij).
    """
    mp = _leaf_maps(psi, X.shape[1])
    r = X[:, mp.ia] * mp.a
    r -= X[:, mp.ib] * mp.b
    r -= mp.c
    nd = np.sqrt((r * r).sum(axis=2))
    return r, nd, mp.signs * (mp.csts - np.where(mp.norm, nd, r.sum(axis=2)))


def _softmin(h: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft minimum of the leaf values of every row and its normalized weights."""
    h_min = h.min(axis=1, keepdims=True)
    w = np.exp(-eta * (h - h_min))
    z = w.sum(axis=1, keepdims=True)
    return h_min[:, 0] - np.log(z[:, 0]) / eta, w / z


class _Readout(NamedTuple):
    """Leaf read-out and funnel error of rows (x, t); every field is row-wise,
    so blocks concatenated field by field equal one read-out of all their rows."""

    r: np.ndarray  # (P, L, W) leaf read-outs
    nd: np.ndarray  # (P, L) their norms
    xi: np.ndarray  # (P,) funnel error of the soft minimum
    w: np.ndarray  # (P, L) normalized softmin weights
    gamma: np.ndarray  # (P,) funnel width gamma(T)
    decay: np.ndarray  # (P,) its decaying part (gamma0 - gamma_inf) * exp(-l * T)


def _readout(X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, eta: float) -> _Readout:
    """Leaf read-out, softmin weights and funnel error at every row of X at times T."""
    r, nd, h = _leaf_readout(X, psi)
    rho, w = _softmin(h, eta)
    pf = fp.perf
    decay = (pf.gamma0 - pf.gamma_inf) * np.exp(-pf.l * T)
    gamma = decay + pf.gamma_inf
    return _Readout(r, nd, (rho - fp.rho_max) / gamma, w, gamma, decay)


def _unit_readout(r: np.ndarray, nd: np.ndarray, mp: _LeafMaps) -> tuple[np.ndarray, np.ndarray]:
    """Derivative of each leaf's read-out w.r.t. r_i (P, L, W), and 1/|r_i| (P, L).

    It is r_i / |r_i| for ball and join leaves (zero, and 1/|r_i| zero,
    at a norm centre) and ones on an affine leaf's slots, so that
    q_i = -sign_i A_i^T unit_i.
    """
    with np.errstate(divide="ignore"):
        inv_nd = np.where(mp.norm & (nd > 0.0), 1.0 / nd, 0.0)
    return r * inv_nd[:, :, None] + mp.lin, inv_nd


def _softmin_grad(
    r: np.ndarray, nd: np.ndarray, w: np.ndarray, psi: NonTemporalFormula, n: int
) -> tuple[np.ndarray, ...]:
    """Leaf gradients q_i (P, L, n), softmin gradient q (P, n) and curv (P, L).

    curv_i = w_i * sign_i / |r_i| for ball and join leaves and zero for
    affine ones; at a norm centre the leaf's gradient and curv are zero.
    A ball or join leaf has the Hessian
    sign_i * A_i^T (-(I - u u^T) / |r_i|) A_i with u = r_i / |r_i|,
    so w_i H_i = curv_i * (q_i q_i^T - A_i^T A_i).
    """
    mp = _leaf_maps(psi, n)
    P = r.shape[0]
    unit, inv_nd = _unit_readout(r, nd, mp)
    leaf_grads = (unit.reshape(P, -1) @ mp.grad_map).reshape(P, -1, n)
    grad = (w[:, None, :] @ leaf_grads)[:, 0, :]
    return leaf_grads, grad, w * mp.signs * inv_nd


def _hessian_form(
    leaf_grads: np.ndarray, grad: np.ndarray, leaf_coef: np.ndarray, grad_coef: np.ndarray,
    ata_coef: np.ndarray, psi: NonTemporalFormula,
) -> np.ndarray:
    """sum_i leaf_coef_i q_i q_i^T + grad_coef q q^T + sum_i ata_coef_i A_i^T A_i: (P, n, n).

    The softmin gradient q (P, n) is appended to the leaf gradients q_i
    (P, L, n), so every outer product goes into one batched matmul.
    """
    P, _, n = leaf_grads.shape
    grads = np.concatenate([leaf_grads, grad[:, None, :]], axis=1)
    coef = np.concatenate([leaf_coef, grad_coef[:, None]], axis=1)
    out = (grads.transpose(0, 2, 1) * coef[:, None, :]) @ grads
    out += (ata_coef @ _leaf_maps(psi, n).ata).reshape(P, n, n)
    return out


def _omni_gT(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, gbody: np.ndarray) -> np.ndarray:
    """Per-agent 3x3 blocks gbody^T (c0 * _ROT_C + c1 * _ROT_S + c2 * _ROT_Z).

    With (c0, c1, c2) = (cos, sin, 1) of each agent's heading this is
    the omni team's g^T; with (-sin, cos, 0) its heading derivative per
    radian.  Inputs are (P, agents); the result is (P, agents, 3, 3).
    """
    basis = np.stack([(gbody.T @ rot).ravel() for rot in (_ROT_C, _ROT_S, _ROT_Z)])
    return (np.stack([c0, c1, c2], axis=2) @ basis).reshape(*c0.shape, 3, 3)


def _law_front(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float,
    ro: _Readout | None = None,
) -> tuple:
    """What the batch law and its Jacobian share at every row, in this order:
    the read-out (``ro`` if the caller has it), ``_softmin_grad``, eps (NaN
    where xi leaves (-1, 0)) and the omni headings' cos, sin and g^T blocks."""
    ro = _readout(X, T, psi, fp, eta) if ro is None else ro
    leaf_grads, grad, curv = _softmin_grad(ro.r, ro.nd, ro.w, psi, X.shape[1])
    xi = ro.xi
    with np.errstate(invalid="ignore", divide="ignore"):
        eps = np.where((xi > -1.0) & (xi < 0.0), np.log(-(xi + 1.0) / xi), np.nan)
    if plant.gbase is None:
        return ro, leaf_grads, grad, curv, eps, None
    th = X[:, 2::3] * _DEG
    cos, sin = np.cos(th), np.sin(th)
    gT = _omni_gT(cos, sin, np.ones_like(cos), plant.gbody)
    return ro, leaf_grads, grad, curv, eps, (cos, sin, gT)


def u_xi_batch(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The law u = -eps * g(x)^T grad rho and xi at every row of X at times T.

    Returns U (P, m) and xi (P,); rows whose xi leaves (-1, 0) are NaN in U.
    """
    X = np.asarray(X, dtype=float)
    P, n = X.shape
    ro, _, grad, _, eps, omni = _law_front(X, np.asarray(T, dtype=float), psi, fp, plant, eta)
    if omni is None:
        U = plant.gain * grad
    else:
        U = (omni[2] @ grad.reshape(P, -1, 3, 1)).reshape(P, n)
    return -eps[:, None] * U, ro.xi


def law_jacobian_batch(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float,
    readout: _Readout | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic law Jacobian at every row: (du/dx (P, m, n), du/dt (P, m), xi (P,)).

    With q = grad rho, u = -eps * g(x)^T q differentiates into g^T M_x
    and g^T m_t, where

        M_x = -eps * hess - (slope / gamma) * q q^T,
        m_t = -(d eps/dt) * q,   d eps/dt = slope * xi * l * decay / gamma,

    slope = dS/dxi, and hess is the softmin Hessian over the leaf
    gradients q_i,

        sum_i w_i H_i - eta * (sum_i w_i q_i q_i^T - q q^T).

    With w_i H_i = curv_i * (q_i q_i^T - A_i^T A_i), all outer products
    collect into one batched matmul over the leaf gradients with q
    appended.  The omni team applies g^T per agent as 3x3 blocks and adds
    the heading column d rot/d theta (degrees).  Rows whose xi leaves
    (-1, 0) are not finite.  ``readout`` is the read-out of the rows when
    the caller already has it.
    """
    P, n = X.shape
    ro, leaf_grads, grad, curv, eps, omni = _law_front(X, T, psi, fp, plant, eta, readout)
    xi = ro.xi
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = 1.0 / (1.0 + xi) - 1.0 / xi

    M_x = _hessian_form(
        leaf_grads, grad, -eps[:, None] * (curv - eta * ro.w), -(eps * eta + slope / ro.gamma),
        eps[:, None] * curv, psi,
    )
    m_t = -(slope * xi * fp.perf.l * ro.decay / ro.gamma)[:, None] * grad

    if omni is None:
        return plant.gain * M_x, plant.gain * m_t, xi
    # Per agent g^T and its heading derivative are (cos, sin, 1) and
    # (-sin, cos, 0) times a fixed basis; theta is in degrees.
    n_agents = n // 3
    cos, sin, gT = omni
    dgT = _omni_gT(-sin, cos, np.zeros_like(cos), plant.gbody) * _DEG
    du_dx = (gT @ M_x.reshape(P, n_agents, 3, n)).reshape(P, n, n)
    du_dt = np.einsum("pajk,pak->paj", gT, m_t.reshape(P, n_agents, 3)).reshape(P, n)
    dgT_grad = np.einsum("pajk,pak->paj", dgT, grad.reshape(P, n_agents, 3)).reshape(P, n)
    rows = np.arange(n)
    du_dx[:, rows, 3 * (rows // 3) + 2] -= eps[:, None] * dgT_grad
    return du_dx, du_dt, xi


def guarded_readout(pts: np.ndarray, psi: NonTemporalFormula, fp, eta: float) -> _Readout | None:
    """Read-out of the probe rows (x, t), or None if a row's xi leaves
    (-1 + 1e-3, -1e-3), the band where the law Jacobian stays finite."""
    ro = _readout(pts[:, :-1], pts[:, -1], psi, fp, eta)
    if np.all((ro.xi > -1.0 + 1e-3) & (ro.xi < -1e-3)):
        return ro
    return None


def law_row_sums(
    pts: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float,
    blocks: tuple[_Readout, ...] | None = None,
) -> np.ndarray:
    """Per probe row (x, t) and input j, sum_k |du_j/dz_k| over z = (x, t).

    ``blocks`` are the ``guarded_readout`` results of consecutive row
    blocks of ``pts``, in order, when the caller has them; the Jacobian
    then reuses their read-out, weights and funnel error.
    """
    readout = None if blocks is None else _Readout(*(np.concatenate(f) for f in zip(*blocks)))
    du_dx, du_dt, _ = law_jacobian_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, eta, readout)
    # A matrix-vector product sums the short last axis faster than .sum().
    return np.abs(du_dx, out=du_dx) @ np.ones(du_dx.shape[2]) + np.abs(du_dt)


def law_row_bound(
    pts: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float,
    blocks: tuple[_Readout, ...],
) -> float:
    """An upper bound on ``law_row_sums(pts, ...).max()`` from the read-outs alone.

    ``blocks`` are the ``guarded_readout`` results of consecutive row
    blocks of ``pts``, in order.  No Jacobian and no (P, n, n) or
    (P, L, n) array is formed; each term of ``law_jacobian_batch`` is
    bounded row by row:

    * leaf gradients: b_i = |A_i|^T |unit_i| >= |q_i|, and q = sum_i w_i q_i;
    * the weights' curvature sum_i w_i q_i q_i^T - q q^T is the covariance
      sum_i w_i (q_i - q)(q_i - q)^T, and
      |q_i - q| <= e_i = (1 - 2 w_i) b_i + s with s = sum_k w_k b_k
      (zero for one leaf);
    * |M_x| 1 <= |eps| sum_i |curv_i| (b_i |b_i|_1 + |A_i^T A_i| 1)
      + |eps| eta sum_i w_i e_i |e_i|_1 + (slope / gamma) |q| |q|_1,
      and |m_t| is exact;
    * the input map: |gain| for the integrator; for the omni team the
      entrywise |g^T| per agent, plus the heading column's exact
      |eps| |dg^T/dtheta q|.

    Every b_i and e_i is nonnegative, so |e_i|_1 = (1 - 2 w_i) |b_i|_1 + |s|_1
    and |s|_1 = sum_k w_k |b_k|_1; the sums over leaves then collect into
    one coefficient per leaf on b_i, which is linear in |unit_i|, so a
    single matrix product over the read-out slots gives them.  The result
    is the largest entry over rows and inputs; it is NaN or inf only
    where a row's read-out is.
    """
    ro = _Readout(*(np.concatenate(f) for f in zip(*blocks)))
    P, n = pts.shape[0], pts.shape[1] - 1
    mp = _leaf_maps(psi, n)
    # Rows run along the last axis from here on: the read-out is stored
    # row-fastest, and the arrays are only a few entries wide per row.
    unit, inv_nd = _unit_readout(ro.r, ro.nd, mp)
    L, W = mp.a.shape
    unit = unit.transpose(1, 2, 0)
    w, inv_nd = ro.w.T, inv_nd.T
    grad = mp.slot_grad.T @ (unit * w[:, None, :]).reshape(L * W, P)
    abs_unit = np.abs(unit)
    b_l1 = mp.slot_l1.T @ abs_unit.reshape(L * W, P)
    curv = w * inv_nd
    spread = 1.0 - 2.0 * w
    e_w = w * (spread * b_l1 + (w * b_l1).sum(axis=0))
    coef = curv * b_l1 + eta * (e_w * spread + e_w.sum(axis=0) * w)
    v = np.abs(mp.slot_grad.T) @ (abs_unit * coef[:, None, :]).reshape(L * W, P)
    v += mp.ata_rows.T @ curv
    xi = ro.xi
    eps = np.abs(np.log(-(xi + 1.0) / xi))
    v *= eps
    slope = 1.0 / (1.0 + xi) - 1.0 / xi
    abs_grad = np.abs(grad)
    v += slope / ro.gamma * (abs_grad.sum(axis=0) + np.abs(xi * fp.perf.l * ro.decay)) * abs_grad
    if plant.gbase is None:
        return float(v.max()) * plant.gain
    # Per agent g^T has the columns c0 = cos G0 - sin G1, c1 = sin G0 + cos G1
    # and G2, with G_k row k of gbody; its heading derivative per degree
    # has the columns -c1 and c0 (and zero) times pi / 180.
    th = pts[:, 2:-1:3].T[:, None, :] * _DEG
    cos, sin = np.cos(th), np.sin(th)
    g0, g1, g2 = plant.gbody[:, :, None]
    c0 = cos * g0 - sin * g1
    c1 = sin * g0 + cos * g1
    v = v.reshape(-1, 3, P)
    q = grad.reshape(-1, 3, P)
    rows = np.abs(c0) * v[:, :1] + np.abs(c1) * v[:, 1:2] + np.abs(g2) * v[:, 2:]
    rows += eps * _DEG * np.abs(c0 * q[:, 1:2] - c1 * q[:, :1])
    return float(rows.max())


def exact_psi_batch(psi: NonTemporalFormula, X: np.ndarray) -> np.ndarray:
    """Exact robustness, the minimum leaf value, at every row of X."""
    return _leaf_readout(np.asarray(X, dtype=float), psi)[2].min(axis=1)


def smooth_psi_hessian(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> np.ndarray:
    """Hessian of the soft minimum at x.

    Combines weighted leaf Hessians with the curvature of the weights:

        H = sum_i w_i H_i - eta * (sum_i w_i q_i q_i^T - q q^T)

    where q is the softmin gradient, through the same leaf Hessian as
    the law Jacobian.  Concave leaves make the first term negative
    semidefinite and the weight term is always negative semidefinite, so
    the soft minimum stays concave.
    """
    X = np.asarray(x, dtype=float)[None, :]
    eta = cfg.eta
    r, nd, h = _leaf_readout(X, psi)
    w = _softmin(h, eta)[1]
    leaf_grads, grad, curv = _softmin_grad(r, nd, w, psi, X.shape[1])
    return _hessian_form(leaf_grads, grad, curv - eta * w, np.full(1, eta), -curv, psi)[0]

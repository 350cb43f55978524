"""Leaf evaluation: the one module that evaluates leaves, their soft minimum and the law.

The smoothed robustness of a conjunction is the soft minimum
rho = -(1/eta) * ln sum_i exp(-eta * h_i(x)), which under-approximates
the exact minimum by at most ln(m)/eta for m leaves.  A conjunction
compiles once per formula into one record per leaf in plain Python
numbers (``compile_leaf_table``) and, once per formula and state size,
into linear read-outs r_i = A_i x - c_i (``_leaf_maps``).  There are two
entry points over that form:

* The pointwise loop over plain Python floats (``leaf_pass``,
  ``smooth_rho``, ``smooth_rho_grad``, ``shortest_supergradient``,
  ``u_xi_eval`` and ``smooth_psi_value_and_grad``): the episode loop's
  per-sample value (``smooth_rho``, bitwise the value of
  ``smooth_rho_grad``) and its law at events (``u_xi_eval``), the value
  and gradient used by the funnel and the sequencer, and the optimizer's
  ascent direction.  On one state it is
  several times faster than a one-row numpy pass, whose fixed per-call
  overhead dominates at that size (README, "Leaf evaluation").
* The batch read-out: leaf values, gradients and Hessians at every row
  of a state array in a few numpy passes.  Leaf values are summed
  without BLAS, so they round as the pointwise loop does.  It serves the
  trigger radius (``guarded_readout``, ``law_row_sums`` and its cheaper
  upper bound ``law_row_bound``), the episode's held-input audit after
  the loop (``u_xi_batch``, batched per phase), ``law_jacobian_batch``,
  ``exact_psi_batch`` and ``smooth_psi_hessian``.

The batch read-out has one layout: rows run along the last axis of every
array.  The read-out r is (L, W, P) for L leaves of W slots at P rows,
leaf values and softmin weights are (L, P), and ``_leaf_maps``'s fields
broadcast against them.  Blocks join along that axis (``joined_rows``),
and one gradient step (``_leaf_grads``) serves the batch law, its
Jacobian, the row bound and the Hessian; a trigger radius that needs both
the row bound and the Jacobian joins and differentiates its rows once.

The law u = -eps * g(x)^T grad rho reads g from ``Plant.gain`` and
``Plant.gbody``, the plant's one description of its actuation; the omni
team's g^T is written once, as per-agent columns (``_omni_columns``).
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
    "smooth_rho",
    "smooth_rho_grad",
    "shortest_supergradient",
    "u_xi_eval",
    "smooth_psi_value_and_grad",
    "u_xi_batch",
    "law_jacobian_batch",
    "guarded_readout",
    "law_row_sums",
    "law_row_bound",
    "joined_rows",
    "exact_psi_batch",
    "smooth_psi_hessian",
]

# There is no compiled path; perfbench/episode.py and perfbench/baseline.py
# record this flag with every benchmark result.
USING_NUMBA = False

_KIND_CODE = {"affine": 0, "ball": 1, "join": 2}
# Cap on the block-coordinate sweeps of ``shortest_supergradient``.
_SWEEPS = 100


@functools.lru_cache(maxsize=None)
def compile_leaf_table(psi: NonTemporalFormula) -> tuple[tuple, ...]:
    """Per leaf (kind, sel, sel_b, pars, cst) in plain Python numbers.

    kind is 0 affine, 1 ball, 2 join; pars holds the affine coefficients
    or the ball centre, cst the offset or the radius.  Cached per formula.
    """
    table = []
    for leaf in psi.leaves:
        kind = _KIND_CODE[leaf.kind]
        pars = leaf.coeffs if kind == 0 else leaf.center
        cst = leaf.offset if kind == 0 else leaf.radius
        table.append((kind, leaf.sel, leaf.sel_b, tuple(float(p) for p in pars), float(cst)))
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
    for kind, sel, sel_b, pars, cst in table:
        if kind == 0:
            acc = 0.0
            for j, p in zip(sel, pars):
                acc += p * xs[j]
            h.append(cst - acc)
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
        h.append(cst - nd)
        diffs.append((d, nd))
    return h, diffs


def _softmin_point(h: list, eta: float) -> tuple[float, np.ndarray | None, float]:
    """Soft minimum of the leaf values ``h`` (a list), the unnormalized
    weights exp(-eta * (h_i - min h)) and their sum.  A non-finite smallest
    value (an overflowing norm) is the soft minimum, with no weights."""
    m = min(h)
    if not math.isfinite(m):
        return m, None, 0.0
    w = np.exp(-eta * (np.array(h) - m))
    z = float(w.sum())
    return m - math.log(z) / eta, w, z


def smooth_rho(table: tuple[tuple, ...], xs: list[float], eta: float) -> float:
    """Soft minimum of the leaf values at ``xs``: bitwise the value of
    ``smooth_rho_grad``, without the gradient."""
    return _softmin_point(leaf_pass(table, xs)[0], eta)[0]


def _softmin_terms(
    table: tuple[tuple, ...], xs: list[float], eta: float, kink: float
) -> tuple[float, list | None, list]:
    """Soft minimum rho at ``xs``, the sum of w_i * grad h_i over the leaves
    off their kink, and those within ``kink`` of it.

    A ball or join leaf whose difference vector has length at most
    ``kink`` is left out of the sum and listed as (kind, sel, sel_b, w_i);
    every other leaf adds its gradient leaf by leaf, so a selector that
    repeats within a leaf adds up.  With a non-finite smallest leaf value
    (an overflowing norm) the sum is None.
    """
    h, diffs = leaf_pass(table, xs)
    rho, w, z = _softmin_point(h, eta)
    if w is None:
        return rho, None, []
    grad = [0.0] * len(xs)
    kinks = []
    for (kind, sel, sel_b, pars, _), wi, diff in zip(table, w.tolist(), diffs):
        ws = wi / z
        if kind == 0:
            for j, p in zip(sel, pars):
                grad[j] -= ws * p
            continue
        d, nd = diff
        if nd <= kink:
            kinks.append((kind, sel, sel_b, ws))
        elif kind == 1:
            for j, dj in zip(sel, d):
                grad[j] -= ws * dj / nd
        else:
            for j, k, dj in zip(sel, sel_b, d):
                v = ws * dj / nd
                grad[j] -= v
                grad[k] += v
    return rho, grad, kinks


def smooth_rho_grad(table: tuple[tuple, ...], xs: list[float], eta: float) -> tuple[float, list]:
    """Soft minimum of the leaf values at ``xs`` and its gradient (a list).

    The gradient accumulates w_i * grad h_i leaf by leaf.  The gradient
    of a norm at its own centre is taken as zero; any subgradient is
    admissible there and zero keeps the law continuous through the
    centre.  A non-finite smallest leaf value (an overflowing norm) is
    rho, with a NaN gradient.
    """
    rho, grad, _ = _softmin_terms(table, xs, eta, 0.0)
    return rho, [math.nan] * len(xs) if grad is None else grad


def shortest_supergradient(
    table: tuple[tuple, ...], xs: list[float], eta: float, kink: float
) -> tuple[float, list]:
    """Soft minimum at ``xs`` and the shortest element of its
    ``kink``-superdifferential (a list).

    A ball or join leaf within ``kink`` of its kink counts as sitting on
    it and contributes its whole superdifferential
    {-w_i A_i^T s_i : |s_i| <= 1}, where row j of A_i reads x[sel_j], or
    x[sel_j] - x[sel_b_j] for a join; every other leaf contributes
    w_i grad h_i, as in ``smooth_rho_grad``.  The shortest element of the
    sum comes from block-coordinate sweeps over the kink leaves: each
    block is solved by least squares, s_i = A_i b / (w_i |row|^2) with b
    the sum without leaf i, then scaled into the unit ball.  That solve is
    exact when a leaf's selectors do not repeat, so A_i A_i^T is 1 or 2
    times the identity; otherwise s_i is still admissible.  The sweeps stop
    when one no longer shortens the sum.  So the result is zero when the
    leaves within ``kink`` of their kink cancel the others' gradient, as
    at a kink optimum, and wherever the smooth gradient is zero.
    """
    rho, g, kinks = _softmin_terms(table, xs, eta, kink)
    if g is None:
        return rho, [math.nan] * len(xs)
    blocks = [(sel, sel_b if kind == 2 else (), ws, [0.0] * len(sel))
              for kind, sel, sel_b, ws in kinks if ws > 0.0]
    # Blocks over disjoint coordinates are solved exactly by one sweep.
    read = [j for sel, sel_b, _, _ in blocks for j in sel + sel_b]
    coupled = len(set(read)) < len(read)
    gg = math.inf
    for _ in range(_SWEEPS if coupled else 1):
        for sel, sel_b, ws, s in blocks:
            # Take leaf i's term out of g, solve its block, put it back.
            if any(s):
                _add_block(g, sel, sel_b, s, ws)
            if sel_b:
                s[:] = [(g[j] - g[k]) / (2.0 * ws) for j, k in zip(sel, sel_b)]
            else:
                s[:] = [g[j] / ws for j in sel]
            ns = math.hypot(*s)
            if ns > 1.0:
                s[:] = [v / ns for v in s]
            if ns > 0.0:
                _add_block(g, sel, sel_b, s, -ws)
        if not coupled:
            break
        before, gg = gg, math.fsum(v * v for v in g)
        if gg >= before * (1.0 - 1e-12):
            break
    return rho, g


def _add_block(g: list, sel: tuple, sel_b: tuple, s: list, c: float) -> None:
    """g += c A^T s for the rows of a ball (``sel_b`` empty) or a join."""
    for j, sj in zip(sel, s):
        g[j] += c * sj
    for k, sj in zip(sel_b, s):
        g[k] -= c * sj


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
# batch read-out; every array keeps its rows along the last axis


class _LeafMaps(NamedTuple):
    """Batch form of a conjunction over an n-dimensional state (L leaves, W slots)."""

    ia: np.ndarray  # (L, W) state index read with weight a
    ib: np.ndarray  # (L, W) state index read with weight -b (join partners)
    a: np.ndarray  # (L, W, 1)
    b: np.ndarray  # (L, W, 1)
    c: np.ndarray  # (L, W, 1) ball centres
    lin: np.ndarray  # (L, W, 1) derivative of an affine read-out w.r.t. r_i
    l1: np.ndarray  # (L, 1, W) |row j of A_i|_1
    grad: np.ndarray  # (n, L * W) -A_i^T side by side
    ata: np.ndarray  # (n * n, L) A_i^T A_i, one column per leaf
    ata_rows: np.ndarray  # (n, L) |A_i^T A_i| 1
    norm: np.ndarray  # (L, 1) ball or join
    csts: np.ndarray  # (L, 1)


@functools.lru_cache(maxsize=None)
def _leaf_maps(psi: NonTemporalFormula, n: int) -> _LeafMaps:
    """The leaf table as linear read-outs of an n-dimensional state.

    Slot j of leaf i reads r_ij = a_ij x[ia_ij] - b_ij x[ib_ij] - c_ij:
    x[sel_j] - centre_j for a ball, x[sel_j] - x[sel_b_j] for a join and
    coeff_j x[sel_j] for an affine leaf; unused slots read zero.  Ball
    and join leaves take the norm of r_i, affine leaves the sum of its
    slots, so h_i = cst_i - read-out.  Row j of A_i is a_ij e_ia - b_ij e_ib;
    ``grad`` holds the -A_i^T side by side, which take the read-out
    derivatives to the leaf gradients.  Repeated selectors add up in A_i.
    Cached per formula and state size.
    """
    table = compile_leaf_table(psi)
    L, W = len(table), max(len(leaf[1]) for leaf in table)
    ia = np.zeros((L, W), dtype=np.intp)
    ib = np.zeros((L, W), dtype=np.intp)
    a, b, c, lin = (np.zeros((L, W)) for _ in range(4))
    A = np.zeros((L, W, n))
    rows = np.arange(W)
    for i, (kind, sel, sel_b, pars, _) in enumerate(table):
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
    A *= -1.0  # -A_i from here on
    ata = A.transpose(0, 2, 1) @ A
    maps = _LeafMaps(
        ia=ia, ib=ib, a=a[:, :, None], b=b[:, :, None], c=c[:, :, None], lin=lin[:, :, None],
        l1=np.abs(A).sum(axis=2)[:, None, :],
        grad=A.reshape(L * W, n).T.copy(),
        ata=ata.reshape(L, n * n).T.copy(), ata_rows=np.abs(ata).sum(axis=2).T.copy(),
        norm=np.array([[leaf[0] != 0] for leaf in table]),
        csts=np.array([[leaf[4]] for leaf in table]),
    )
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _leaf_readout(X: np.ndarray, psi: NonTemporalFormula) -> tuple[np.ndarray, ...]:
    """Leaf read-outs at every row of X (P, n): r (L, W, P), |r| (L, P) and h (L, P).

    r_i = A_i x - c_i over ``_leaf_maps``; ball and join leaves take
    h_i = cst_i - |r_i|, affine leaves cst_i - sum_j r_ij.
    """
    mp = _leaf_maps(psi, X.shape[1])
    XT = X.T
    r = XT[mp.ia] * mp.a
    r -= XT[mp.ib] * mp.b
    r -= mp.c
    nd = np.sqrt((r * r).sum(axis=1))
    return r, nd, mp.csts - np.where(mp.norm, nd, r.sum(axis=1))


def _softmin(h: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft minimum of the leaf values h (L, P) of every row and its normalized weights."""
    h_min = h.min(axis=0)
    w = np.exp(-eta * (h - h_min))
    z = w.sum(axis=0)
    return h_min - np.log(z) / eta, w / z


class _Readout(NamedTuple):
    """Leaf read-out and funnel error of rows (x, t); rows run along every
    field's last axis, so blocks joined field by field (``joined_rows``) equal
    one read-out of all their rows."""

    r: np.ndarray  # (L, W, P) leaf read-outs
    nd: np.ndarray  # (L, P) their norms
    xi: np.ndarray  # (P,) funnel error of the soft minimum
    w: np.ndarray  # (L, P) normalized softmin weights
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


def _leaf_grads(r: np.ndarray, nd: np.ndarray, w: np.ndarray, mp: _LeafMaps) -> tuple[np.ndarray, ...]:
    """unit (L, W, P), curv (L, P) and the softmin gradient q (n, P).

    unit_i is the derivative of leaf i's read-out w.r.t. r_i: r_i / |r_i|
    for ball and join leaves and ones on an affine leaf's slots, so the
    leaf gradient is q_i = -A_i^T unit_i and q = sum_i w_i q_i.
    curv_i = w_i / |r_i| for ball and join leaves and zero for affine
    ones.  At a norm centre unit_i and curv_i are zero.  A ball or join
    leaf has the Hessian A_i^T (-(I - u u^T) / |r_i|) A_i with
    u = r_i / |r_i|, so w_i H_i = curv_i (q_i q_i^T - A_i^T A_i).
    """
    inv_nd = np.divide(1.0, nd, out=np.zeros_like(nd), where=mp.norm & (nd > 0.0))
    unit = r * inv_nd[:, None, :]
    unit += mp.lin
    L, W, P = unit.shape
    q = mp.grad @ (unit * w[:, None, :]).reshape(L * W, P)
    return unit, w * inv_nd, q


class _Rows(NamedTuple):
    """A read-out of probe rows and its leaf gradients (``_leaf_grads``)."""

    ro: _Readout
    unit: np.ndarray
    curv: np.ndarray  # w_i / |r_i|
    q: np.ndarray


def joined_rows(blocks: tuple[_Readout, ...], psi: NonTemporalFormula, n: int) -> _Rows:
    """One read-out of the rows of consecutive ``guarded_readout`` blocks
    of an n-dimensional state, joined field by field, and its leaf
    gradients: what ``law_row_bound`` and ``law_row_sums`` read, so a
    radius that needs both joins and differentiates its rows once."""
    ro = _Readout(*(np.concatenate(f, axis=-1) for f in zip(*blocks)))
    return _Rows(ro, *_leaf_grads(ro.r, ro.nd, ro.w, _leaf_maps(psi, n)))


def _hessian_form(
    unit: np.ndarray, q: np.ndarray, leaf_coef: np.ndarray, grad_coef: np.ndarray,
    ata_coef: np.ndarray, mp: _LeafMaps,
) -> np.ndarray:
    """sum_i leaf_coef_i q_i q_i^T + grad_coef q q^T + sum_i ata_coef_i A_i^T A_i: (n, n, P).

    The leaf gradients q_i = -A_i^T unit_i and the softmin
    gradient q stack into one (L + 1, n, P) array, so all outer products
    form in one contraction; the A_i^T A_i term is one matrix product.
    """
    L, W, P = unit.shape
    n = q.shape[0]
    grads = np.empty((L + 1, n, P))
    np.matmul(mp.grad.reshape(n, L, W).transpose(1, 0, 2), unit, out=grads[:L])
    grads[L] = q
    coef = np.concatenate([leaf_coef, grad_coef[None]])
    out = np.einsum("kap,kbp->abp", grads * coef[:, None, :], grads)
    out += (mp.ata @ ata_coef).reshape(n, n, P)
    return out


def _eps_slope(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eps = ln(-(xi + 1) / xi), NaN where xi leaves (-1, 0), and slope = d eps / d xi."""
    with np.errstate(invalid="ignore", divide="ignore"):
        eps = np.log(-(xi + 1.0) / xi)
        slope = 1.0 / (1.0 + xi) - 1.0 / xi
    # The log is NaN outside [-1, 0] and infinite where its argument is 0 or
    # overflows, as at xi = -1 and -0.0.
    eps[np.isinf(eps)] = np.nan
    return eps, slope


def _omni_columns(X: np.ndarray, gbody: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns of the omni team's g^T per agent at every row of X (P, n).

    With G_k row k of gbody and theta an agent's heading, they are
    c0 = cos G0 - sin G1, c1 = sin G0 + cos G1 (both (agents, 3, P)) and
    G2 ((1, 3, 1)).
    """
    # Stored rows-last like every operand they meet.
    th = np.multiply(X[:, 2::3].T[:, None, :], _DEG, order="C")
    cos, sin = np.cos(th), np.sin(th)
    g0, g1, g2 = gbody[:, None, :, None]
    return cos * g0 - sin * g1, sin * g0 + cos * g1, g2


def _omni_apply(cols: tuple[np.ndarray, ...], v: np.ndarray) -> np.ndarray:
    """The per-agent 3x3 blocks with columns ``cols`` (``_omni_columns``, g^T,
    or their absolute values) applied to v (n, ..., P)."""
    blocks = v.reshape(v.shape[0] // 3, 3, -1, v.shape[-1])
    c0, c1, g2 = (c[:, :, None] for c in cols)
    out = c0 * blocks[:, :1]
    out += c1 * blocks[:, 1:2]
    out += g2 * blocks[:, 2:]
    return out.reshape(v.shape)


def _omni_heading(cols: tuple[np.ndarray, ...], q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale * (d g^T / d theta) q at every row (n, P): per agent the
    columns -c1 and c0 of ``_omni_columns`` applied to q, times pi / 180
    per degree of heading."""
    qa = q.reshape(-1, 3, q.shape[-1])
    return ((scale * _DEG) * (cols[0] * qa[:, 1:2] - cols[1] * qa[:, :1])).reshape(q.shape)


def u_xi_batch(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The law u = -eps * g(x)^T grad rho and xi at every row of X at times T.

    Returns U (P, m) and xi (P,); rows whose xi leaves (-1, 0) are NaN in U.
    """
    X = np.asarray(X, dtype=float)
    ro = _readout(X, np.asarray(T, dtype=float), psi, fp, eta)
    q = _leaf_grads(ro.r, ro.nd, ro.w, _leaf_maps(psi, X.shape[1]))[2]
    U = plant.gain * q if plant.gbase is None else _omni_apply(_omni_columns(X, plant.gbody), q)
    return (-_eps_slope(ro.xi)[0] * U).T, ro.xi


def law_jacobian_batch(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float,
    rows: _Rows | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic law Jacobian at every row: (du/dx (P, m, n), du/dt (P, m), xi (P,)).

    With q = grad rho, u = -eps * g(x)^T q differentiates into g^T M_x
    and g^T m_t, where

        M_x = -eps * hess - (slope / gamma) * q q^T,
        m_t = -(d eps/dt) * q,   d eps/dt = slope * xi * l * decay / gamma,

    slope = dS/dxi, and hess is the softmin Hessian over the leaf
    gradients q_i,

        sum_i w_i H_i - eta * (sum_i w_i q_i q_i^T - q q^T).

    With w_i H_i = curv_i (q_i q_i^T - A_i^T A_i), all outer products
    collect into one contraction over the leaf gradients with q
    appended.  The omni team applies g^T per agent as 3x3 blocks and adds
    the heading column d g^T/d theta q (degrees).  Rows whose xi leaves
    (-1, 0) are not finite.  ``rows`` is the read-out of the rows and its
    leaf gradients (``joined_rows``) when the caller already has them.  The
    results are views of arrays stored rows-last.
    """
    n = X.shape[1]
    mp = _leaf_maps(psi, n)
    if rows is None:
        ro = _readout(X, T, psi, fp, eta)
        unit, curv, q = _leaf_grads(ro.r, ro.nd, ro.w, mp)
    else:
        ro, unit, curv, q = rows
    xi = ro.xi
    eps, slope = _eps_slope(xi)
    M_x = _hessian_form(
        unit, q, -eps * (curv - eta * ro.w), -(eps * eta + slope / ro.gamma), eps * curv, mp
    )
    m_t = -(slope * xi * fp.perf.l * ro.decay / ro.gamma) * q
    if plant.gbase is None:
        du_dx, du_dt = plant.gain * M_x, plant.gain * m_t
    else:
        cols = _omni_columns(X, plant.gbody)
        du_dx, du_dt = _omni_apply(cols, M_x), _omni_apply(cols, m_t)
        rows = np.arange(n)
        du_dx[rows, 3 * (rows // 3) + 2] -= _omni_heading(cols, q, eps)
    return du_dx.transpose(2, 0, 1), du_dt.T, xi


def guarded_readout(pts: np.ndarray, psi: NonTemporalFormula, fp, eta: float) -> _Readout | None:
    """Read-out of the probe rows (x, t), or None if a row's xi leaves
    (-1 + 1e-3, -1e-3), the band where the law Jacobian stays finite."""
    ro = _readout(pts[:, :-1], pts[:, -1], psi, fp, eta)
    if np.all((ro.xi > -1.0 + 1e-3) & (ro.xi < -1e-3)):
        return ro
    return None


def law_row_sums(
    pts: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float, rows: _Rows | None = None,
) -> np.ndarray:
    """Per probe row (x, t) and input j, sum_k |du_j/dz_k| over z = (x, t).

    ``rows`` is the ``joined_rows`` of the ``guarded_readout`` results of
    consecutive row blocks of ``pts``, in order, when the caller has them;
    the Jacobian then reuses their read-out, weights, funnel error and
    leaf gradients.
    """
    du_dx, du_dt, _ = law_jacobian_batch(pts[:, :-1], pts[:, -1], psi, fp, plant, eta, rows)
    return np.abs(du_dx, out=du_dx).sum(axis=2) + np.abs(du_dt)


def law_row_bound(
    pts: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float, rows: _Rows,
) -> float:
    """An upper bound on ``law_row_sums(pts, ...).max()`` from the read-outs alone.

    ``rows`` is the ``joined_rows`` of the ``guarded_readout`` results of
    consecutive row blocks of ``pts``, in order.  No Jacobian and no
    (n, n, P) or (L, n, P) array is formed; each term of
    ``law_jacobian_batch`` is bounded row by row:

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
    X = pts[:, :-1]
    mp = _leaf_maps(psi, X.shape[1])
    ro, unit, curv, q = rows
    L, W, P = unit.shape
    w = ro.w
    abs_unit = np.abs(unit)
    b_l1 = (mp.l1 @ abs_unit)[:, 0]
    spread = 1.0 - 2.0 * w
    e_w = w * (spread * b_l1 + (w * b_l1).sum(axis=0))
    coef = curv * b_l1 + eta * (e_w * spread + e_w.sum(axis=0) * w)
    v = np.abs(mp.grad) @ (abs_unit * coef[:, None, :]).reshape(L * W, P)
    v += mp.ata_rows @ curv
    xi = ro.xi
    eps, slope = _eps_slope(xi)
    v *= np.abs(eps)
    abs_q = np.abs(q)
    v += slope / ro.gamma * (abs_q.sum(axis=0) + np.abs(xi * fp.perf.l * ro.decay)) * abs_q
    if plant.gbase is None:
        return float(v.max()) * plant.gain
    c0, c1, g2 = _omni_columns(X, plant.gbody)
    heading = np.abs(_omni_heading((c0, c1, g2), q, eps))
    rows = _omni_apply((np.abs(c0, out=c0), np.abs(c1, out=c1), np.abs(g2)), v)
    rows += heading
    return float(rows.max())


def exact_psi_batch(psi: NonTemporalFormula, X: np.ndarray) -> np.ndarray:
    """Exact robustness, the minimum leaf value, at every row of X."""
    return _leaf_readout(np.asarray(X, dtype=float), psi)[2].min(axis=0)


def smooth_psi_hessian(
    psi: NonTemporalFormula, x: np.ndarray, cfg: SmoothingConfig = SmoothingConfig()
) -> np.ndarray:
    """Hessian of the soft minimum at x.

    Combines weighted leaf Hessians with the curvature of the weights:

        H = sum_i w_i H_i - eta * (sum_i w_i q_i q_i^T - q q^T)

    where q is the softmin gradient, through the same leaf Hessian as
    the law Jacobian.  Every leaf is concave, so the first term is negative
    semidefinite, and the weight term always is, so the soft minimum is
    concave.
    """
    X = np.asarray(x, dtype=float)[None, :]
    eta = cfg.eta
    mp = _leaf_maps(psi, X.shape[1])
    r, nd, h = _leaf_readout(X, psi)
    w = _softmin(h, eta)[1]
    unit, curv, q = _leaf_grads(r, nd, w, mp)
    return _hessian_form(unit, q, curv - eta * w, np.full(1, eta), -curv, mp)[:, :, 0]

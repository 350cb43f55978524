"""Leaf evaluation: the one module that evaluates leaves, their soft minimum and the law.

The smoothed robustness of a conjunction is the soft minimum
rho = -(1/eta) * ln sum_i exp(-eta * h_i(x)), which under-approximates
the exact minimum by at most ln(m)/eta for m leaves.  A conjunction
compiles once per formula into one record per leaf in plain Python
numbers (``compile_leaf_table``) and, once per formula and state size,
into linear read-outs r_i = A_i x - c_i (``_leaf_maps``).  There are two
entry points over that form:

* The pointwise loop over plain Python floats (``leaf_pass``,
  ``smooth_rho_grad``, ``shortest_supergradient``, ``u_xi_eval`` and
  ``smooth_psi_value_and_grad``): the episode's law at events
  (``u_xi_eval``), the value and gradient used by the funnel and the
  sequencer, and the optimizer's ascent direction.  On one state it is
  several times faster than a one-row numpy pass, whose fixed per-call
  overhead dominates at that size (README, "Leaf evaluation").
* The batch read-out: leaf values, gradients and Hessians at every row
  of a state array in a few numpy passes.  It serves the episode's
  segment of held rows (the value-only ``rho_rows``, bitwise the value
  of ``smooth_rho_grad`` at each row), the trigger radius (the
  value-only vertex check ``band_holds``, then ``law_row_sums`` over the
  probe rows), the held-input audit after the loop (``u_xi_batch``,
  batched per phase), ``law_jacobian_batch`` and ``exact_psi_batch``.

The trigger radius's two passes work leaf by leaf, since a leaf reads
only its support S_i, the few coordinates it selects.  ``band_holds``
reads each leaf at the 2^|S_i| corners of its own support and gathers
those values to every late vertex of the box (``_vertex_plan``), and
the law Jacobian builds the leaf curvature in slot space, one W x W
block per leaf, mapped to (n, n) by the cached nonzero terms of one
linear map (``_slot_map``).  ``law_row_sums`` checks the band on the
read-out before it builds any Jacobian term, and both it and
``law_jacobian_batch`` build the body-frame terms in one place
(``_body_frame``).  For an omni team the pass first bounds every row
sum from that read-out alone (``_omni_readout_bound``, one product of
per-formula constants with per-leaf coefficients), and builds the
body-frame terms and applies g^T (``_actuate``) only where the caller's
test says that bound could still let L_z set the radius.

Both paths add in one order and round alike.  Leaf slots and softmin
weights are summed one term after another, without BLAS: the pointwise
loop in plain floats, the read-out one slice after another (``_add_up``):
numpy's reduce does so over several rows, and a single row, which numpy
would sum pairwise from eight terms on, is added slice by slice.  The
exponentials and logarithms of the soft minimum, the funnel width and the
law's transform are numpy's on both paths, which round a Python float as
they round the same element of any array.

The batch read-out has one layout: rows run along the last axis of every
array.  The read-out r is (L, W, P) for L leaves of W slots at P rows,
leaf values and softmin weights are (L, P), and ``_leaf_maps``'s fields
broadcast against them.  One gradient step (``_leaf_grads``) serves the
batch law and its Jacobian.

The law u = -eps * g(x)^T grad rho reads g from ``Plant.gain`` and
``Plant.gbody``, the plant's one description of its actuation; the omni
team's g^T is written once, as per-agent columns (``_omni_columns``).
"""

from __future__ import annotations

import functools
import itertools
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
    "shortest_supergradient",
    "u_xi_eval",
    "smooth_psi_value_and_grad",
    "funnel_width",
    "u_xi_batch",
    "law_jacobian_batch",
    "rho_rows",
    "vertex_signs",
    "band_holds",
    "law_row_sums",
    "exact_psi_batch",
]

# There is no compiled path; perfbench/episode.py and perfbench/baseline.py
# record this flag with every benchmark result.
USING_NUMBA = False

_KIND_CODE = {"affine": 0, "ball": 1, "join": 2}
# Cap on the block-coordinate sweeps of ``shortest_supergradient``.
_SWEEPS = 100
# Relative margin on ``_omni_readout_bound``, far above the rounding of the
# exact row sums it must dominate.
_BOUND_MARGIN = 1e-9
# ``_omni_readout_bound``'s bound on the rounding of a single-slot leaf's
# curvature term, zero but computed as the difference of two terms, in
# units of those terms.
_CANCEL_ULPS = 8.0 * 2.0**-52


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
    z = 0.0
    for wi in w.tolist():
        z += wi
    return m - float(np.log(z)) / eta, w, z


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
    xi = (rho - fp.rho_max) / float(funnel_width(fp.perf, t)[0])
    if xi <= -1.0 or xi >= 0.0:
        return xi, np.full(plant.m, np.nan)
    scale = -float(np.log(-(xi + 1.0) / xi))
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
    grad: np.ndarray  # (n, L * W) -A_i^T side by side
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
    maps = _LeafMaps(
        ia=ia, ib=ib, a=a[:, :, None], b=b[:, :, None], c=c[:, :, None], lin=lin[:, :, None],
        grad=A.reshape(L * W, n).T.copy(),
        norm=np.array([[leaf[0] != 0] for leaf in table]),
        csts=np.array([[leaf[4]] for leaf in table]),
    )
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _add_up(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis``, one slice after another, as the pointwise loop adds.

    numpy's reduce over an axis before the last adds slice after slice
    when the last axis (the rows) is longer than one; a single row it sums
    pairwise from eight terms on, so there the slices are added here.
    """
    if a.shape[-1] > 1:
        return a.sum(axis=axis)
    parts = np.moveaxis(a, axis, 0)
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


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
    nd = np.sqrt(_add_up(r * r, 1))
    return r, nd, mp.csts - np.where(mp.norm, nd, _add_up(r, 1))


def _softmin(h: np.ndarray, eta: float) -> tuple[np.ndarray, ...]:
    """Soft minimum of the leaf values h (L, P) of every row, the
    unnormalized weights exp(-eta * (h - min h)) (L, P) and their sum.

    A non-finite smallest leaf value (an overflowing norm) is the row's
    soft minimum, as on the pointwise path.
    """
    h_min = h.min(axis=0)
    w = np.exp(-eta * (h - h_min))
    z = _add_up(w, 0)
    # z >= 1, so the soft minimum is at most h_min; where h_min is -inf,
    # z is NaN and fmin keeps h_min.
    return np.fmin(h_min - np.log(z) / eta, h_min), w, z


def rho_rows(X: np.ndarray, psi: NonTemporalFormula, eta: float) -> np.ndarray:
    """Soft minimum of the leaf values at every row of X (K, n), bitwise the
    value ``smooth_rho_grad`` gives at each row."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _softmin(_leaf_readout(X, psi)[2], eta)[0]


class _Readout(NamedTuple):
    """Leaf read-out and funnel error of rows (x, t), rows along every field's last axis."""

    r: np.ndarray  # (L, W, P) leaf read-outs
    nd: np.ndarray  # (L, P) their norms
    xi: np.ndarray  # (P,) funnel error of the soft minimum
    w: np.ndarray  # (L, P) normalized softmin weights
    gamma: np.ndarray  # (P,) funnel width gamma(T)
    decay: np.ndarray  # (P,) its decaying part (gamma0 - gamma_inf) * exp(-l * T)


def funnel_width(pf, T) -> tuple:
    """gamma(T) = (gamma0 - gamma_inf) * exp(-l * T) + gamma_inf of the
    performance function ``pf`` and its decaying part, at times T.  The one
    form of the width, which ``funnel.gamma_at`` and ``sim`` read too."""
    decay = (pf.gamma0 - pf.gamma_inf) * np.exp(-pf.l * T)
    return decay + pf.gamma_inf, decay


def _readout(X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, eta: float) -> _Readout:
    """Leaf read-out, softmin weights and funnel error at every row of X at times T."""
    r, nd, h = _leaf_readout(X, psi)
    rho, w, z = _softmin(h, eta)
    gamma, decay = funnel_width(fp.perf, T)
    return _Readout(r, nd, (rho - fp.rho_max) / gamma, w / z, gamma, decay)


def _inv_norms(nd: np.ndarray, mp: _LeafMaps) -> np.ndarray:
    """1 / |r_i| (L, P) for ball and join leaves off their centre, zero elsewhere."""
    return np.divide(1.0, nd, out=np.zeros_like(nd), where=mp.norm & (nd > 0.0))


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
    inv_nd = _inv_norms(nd, mp)
    unit = r * inv_nd[:, None, :]
    unit += mp.lin
    L, W, P = unit.shape
    q = mp.grad @ (unit * w[:, None, :]).reshape(L * W, P)
    return unit, w * inv_nd, q


class _SlotMap(NamedTuple):
    """The map from per-leaf slot blocks to the (n, n) curvature, kept as its nonzero terms."""

    cols: np.ndarray  # (D, R) flat (i, k, l) block entry of each entry's d-th term
    coef: np.ndarray  # (D, R, 1) its weight A_i[k, a] * A_i[l, b]; 0 past an entry's last term
    rows: np.ndarray  # (R,) flat (a, b) entries that receive terms


@functools.lru_cache(maxsize=None)
def _slot_map(psi: NonTemporalFormula, n: int) -> _SlotMap:
    """The map that takes per-leaf slot blocks B_i (W, W) to
    sum_i A_i^T B_i A_i (n, n): entry (a, b) adds A_i[k, a] * A_i[l, b]
    * B_i[k, l] over i, k and l.

    Row k of A_i reads one state, or two for a join, so almost every
    weight is zero (31 of 2268 on the bundled phase 1, at most two per
    entry).  Only the R entries with a nonzero weight are kept, each with
    its terms stacked in D layers.  Cached per formula and state size,
    apart from ``_leaf_maps`` because only the Jacobian needs it.
    """
    mp = _leaf_maps(psi, n)
    G = mp.grad.reshape(n, *mp.ia.shape)  # G[:, i, k] = -(row k of A_i)
    dense = np.einsum("aik,bil->abikl", G, G).reshape(n * n, -1)
    entry, block = np.nonzero(dense)
    rows, first, count = np.unique(entry, return_index=True, return_counts=True)
    layer = np.arange(len(entry)) - np.repeat(first, count)
    at = (layer, np.repeat(np.arange(len(rows)), count))
    cols = np.zeros((count.max(initial=0), len(rows)), dtype=np.intp)
    coef = np.zeros(cols.shape + (1,))
    cols[at] = block
    coef[at + (0,)] = dense[entry, block]
    sm = _SlotMap(cols, coef, rows)
    for arr in sm:
        arr.setflags(write=False)
    return sm


def _hessian_form(
    unit: np.ndarray, q: np.ndarray, leaf_coef: np.ndarray, grad_coef: np.ndarray,
    ata_coef: np.ndarray, sm: _SlotMap,
) -> np.ndarray:
    """sum_i leaf_coef_i q_i q_i^T + grad_coef q q^T + sum_i ata_coef_i A_i^T A_i: (n, n, P).

    With q_i = -A_i^T unit_i, the leaf terms are sum_i A_i^T B_i A_i for
    the slot-space blocks B_i = leaf_coef_i unit_i unit_i^T + ata_coef_i I
    (W, W per row), which ``_slot_map``'s terms add into the dense q q^T
    term.  The map is applied by gathering its nonzero terms, not as one
    dense matrix product: at its 1-2 % fill a BLAS product of the whole
    map measured slower inside an episode and slowed the held-row code
    run after it.
    """
    L, W, P = unit.shape
    n = q.shape[0]
    blocks = unit[:, :, None, :] * (unit * leaf_coef[:, None, :])[:, None, :, :]
    blocks.reshape(L, W * W, P)[:, :: W + 1] += ata_coef[:, None, :]  # the diagonals
    terms = blocks.reshape(L * W * W, P)[sm.cols]
    terms *= sm.coef
    out = (grad_coef * q)[:, None, :] * q
    out.reshape(n * n, P)[sm.rows] += terms.sum(axis=0)
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


def _body_frame(ro: _Readout, psi: NonTemporalFormula, n: int, fp, eta: float) -> tuple[np.ndarray, ...]:
    """The law Jacobian before g^T from the read-out ``ro`` of n-dimensional
    rows: M_x (n, n, P), m_t (n, P), the softmin gradient q (n, P) and eps (P,).

    With q = grad rho, u = -eps * g(x)^T q differentiates into g^T M_x
    and g^T m_t, where

        M_x = -eps * hess - (slope / gamma) * q q^T,
        m_t = -(d eps/dt) * q,   d eps/dt = slope * xi * l * decay / gamma,

    slope = dS/dxi, and hess is the softmin Hessian over the leaf
    gradients q_i,

        sum_i w_i H_i - eta * (sum_i w_i q_i q_i^T - q q^T).

    With w_i H_i = curv_i (q_i q_i^T - A_i^T A_i), the leaf terms are
    built in slot space (``_hessian_form``) and the q q^T terms added
    densely.
    """
    unit, curv, q = _leaf_grads(ro.r, ro.nd, ro.w, _leaf_maps(psi, n))
    xi = ro.xi
    eps, slope = _eps_slope(xi)
    M_x = _hessian_form(
        unit, q, -eps * (curv - eta * ro.w), -(eps * eta + slope / ro.gamma), eps * curv,
        _slot_map(psi, n),
    )
    m_t = -(slope * xi * fp.perf.l * ro.decay / ro.gamma) * q
    return M_x, m_t, q, eps


def _actuate(X: np.ndarray, plant, M_x: np.ndarray, m_t: np.ndarray, q: np.ndarray,
             eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g^T applied to ``_body_frame``'s terms at the rows of X (P, n): du/dx
    (m, n, P) and du/dt (m, P).  The omni team applies g^T per agent as 3x3
    blocks and adds the heading column d g^T/d theta q (degrees)."""
    if plant.gbase is None:
        return plant.gain * M_x, plant.gain * m_t
    cols = _omni_columns(X, plant.gbody)
    du_dx, du_dt = _omni_apply(cols, M_x), _omni_apply(cols, m_t)
    rows = np.arange(X.shape[1])
    du_dx[rows, 3 * (rows // 3) + 2] -= _omni_heading(cols, q, eps)
    return du_dx, du_dt


def law_jacobian_batch(
    X: np.ndarray, T: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic law Jacobian at every row: (du/dx (P, m, n), du/dt (P, m), xi (P,)).

    g^T (``_actuate``) applied to the body-frame terms of ``_body_frame``.
    Rows whose xi leaves (-1, 0) are not finite.  The results are views of
    arrays stored rows-last.
    """
    ro = _readout(X, T, psi, fp, eta)
    du_dx, du_dt = _actuate(X, plant, *_body_frame(ro, psi, X.shape[1], fp, eta))
    return du_dx.transpose(2, 0, 1), du_dt.T, ro.xi


def _in_band(xi: np.ndarray) -> bool:
    """Whether every xi lies in (-1 + 1e-3, -1e-3), the band where the law Jacobian stays finite."""
    # A NaN xi fails both comparisons.
    return bool(-1.0 + 1e-3 < xi.min() and xi.max() < -1e-3)


@functools.lru_cache(maxsize=None)
def vertex_signs(n: int) -> np.ndarray:
    """All 2^n sign patterns of an n-dimensional box's vertices, in
    ``itertools.product`` order: coordinate j is +1 in row v when bit
    n - 1 - j of v is set."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    signs.setflags(write=False)
    return signs


class _VertexPlan(NamedTuple):
    """Which sign rows the vertex guard reads, and where each leaf's value
    at every vertex comes from."""

    pick: np.ndarray  # (R,) sign rows read: each leaf's corners, leaf after leaf
    gather: np.ndarray  # (L, V) flat index of leaf i's value at vertex v in the (L, R) leaf values


@functools.lru_cache(maxsize=None)
def _vertex_plan(psi: NonTemporalFormula, n: int, count: int) -> _VertexPlan:
    """The guard's plan for ``count`` sign rows of an n-dimensional box.

    Leaf i reads only its support S_i, the coordinates it selects (join
    partners included), so its value at a vertex depends only on the
    vertex's signs there: it takes 2^|S_i| values, one per corner of its
    own support.  With all 2^n patterns in ``vertex_signs`` order, leaf
    i's corner c is the vertex with signs c on S_i and -1 elsewhere, and
    vertex v takes leaf i's value at the corner that matches v's signs
    on S_i.  Where those corners would number ``count`` or more, or the
    rows are a sample (``count`` < 2^n), every row is read and each leaf
    gathers its own values unchanged.  Cached per formula, n and count.
    """
    table = compile_leaf_table(psi)
    supports = [sorted(set(sel + sel_b)) for _, sel, sel_b, _, _ in table]
    reads = sum(2 ** len(s) for s in supports)
    if count < 2**n or reads >= count:
        pick = np.arange(count)
        gather = np.arange(len(table) * count).reshape(len(table), count)
    else:
        positive = vertex_signs(n) > 0.0
        picks, gather = [], []
        for i, support in enumerate(supports):
            code = positive[:, support] @ (1 << np.arange(len(support)))
            base = ~np.delete(positive, support, axis=1).any(axis=1)
            corner = np.empty(2 ** len(support), dtype=np.intp)
            corner[code[base]] = np.flatnonzero(base)
            gather.append(i * reads + len(picks) + code)
            picks.extend(corner)
        pick, gather = np.array(picks, dtype=np.intp), np.array(gather)
    pick.setflags(write=False)
    gather.setflags(write=False)
    return _VertexPlan(pick, gather)


def band_holds(
    x: np.ndarray, bx: float, t: float, signs: np.ndarray, psi: NonTemporalFormula, fp, eta: float
) -> bool:
    """Whether xi stays in the band of ``_in_band`` at every late vertex
    (x + s * bx, t) for the rows s of ``signs`` (V, n), from leaf values
    and the soft minimum alone (no gradients).

    ``signs`` holds all 2^n patterns in ``vertex_signs`` order or a
    sample of them.  Each leaf is read at the corners of its own support
    (``_vertex_plan``) and its values gathered to every vertex; those are
    the same x +- bx floats and read-out arithmetic as a read-out of every
    vertex, so the leaf values and the verdict are bitwise that read-out's.
    """
    plan = _vertex_plan(psi, x.shape[0], signs.shape[0])
    h = np.take(_leaf_readout(x + signs[plan.pick] * bx, psi)[2], plan.gather)
    return _in_band((_softmin(h, eta)[0] - fp.rho_max) / funnel_width(fp.perf, t)[0])


class _BoundMaps(NamedTuple):
    """Constants of ``_omni_readout_bound`` per formula and omni team."""

    rows: np.ndarray  # (m, 4L) the bound rows' map from the stacked per-leaf coefficients
    n1: np.ndarray  # (L,) N_i, at least the 1-norm of q_i


@functools.lru_cache(maxsize=None)
def _bound_maps(psi: NonTemporalFormula, n: int, gbody_rows: tuple) -> _BoundMaps:
    """``_omni_readout_bound``'s constants for a team of n / 3 omni robots
    with body actuation ``gbody_rows`` (``Plant.gbody_rows``).

    From |A_i|, per leaf i (columns of (n, L) arrays):

    * Q_i = sum_k |A_i[k, :]|, at least |q_i| entrywise, as
      q_i = -A_i^T unit_i with every |unit_ik| <= 1;
    * N_i, at least the 1-norm of q_i: with c_ik = sum_a |A_i[k, a]|, the
      2-norm of c_i for a ball or join (|unit_i| <= 1) and sum_k c_ik for
      an affine leaf;
    * R1_i = |A_i|^T Bbar |A_i| 1, at least every row sum of
      |A_i^T (I - u u^T) A_i|: Bbar is 1 on the diagonal and 1/2 off it,
      as 1 - u_k^2 <= 1 and |u_k u_l| <= (u_k^2 + u_l^2) / 2.  A
      single-slot leaf's I - u u^T is zero but computed as the difference
      of two terms, so there Bbar is ``_CANCEL_ULPS``;
    * R2_i = (Q_i + max_l Q_l) (N_i + max_l N_l).

    Per agent and input j, with rho_j = |(gbody[0, j], gbody[1, j])| and
    g_j = |gbody[2, j]|, G maps bounds v on the body-frame rows to
    rho_j (v_x + v_y) + g_j v_theta, and G_xy to rho_j (v_x + v_y):
    rot(theta) keeps the 2-norm, so the columns c0_j, c1_j of
    ``_omni_columns`` give |c0_j a + c1_j b| <= rho_j (|a| + |b|).
    ``rows`` is (1 + ``_BOUND_MARGIN``) [G R1, G R2, G Q, G_xy Q], so that
    the bound dominates the exact sums as rounded too.  Cached per
    formula, n and team.
    """
    mp = _leaf_maps(psi, n)
    L, W = mp.ia.shape
    absA = np.abs(mp.grad).reshape(n, L, W)  # absA[a, i, k] = |A_i[k, a]|
    Q = absA.sum(axis=2)
    c = absA.sum(axis=0)
    n1 = np.where(mp.norm[:, 0], np.sqrt((c * c).sum(axis=1)), c.sum(axis=1))
    single = np.array([len(leaf[1]) == 1 for leaf in compile_leaf_table(psi)])
    bbar_c = np.where(single[:, None], _CANCEL_ULPS * c, 0.5 * (c + c.sum(axis=1, keepdims=True)))
    r1 = (absA * bbar_c).sum(axis=2)
    r2 = (Q + Q.max(axis=1, keepdims=True)) * (n1 + n1.max())
    gb = np.array(gbody_rows)
    planar = np.hypot(gb[0], gb[1])
    block = np.column_stack([planar, planar, np.abs(gb[2])])
    agents = np.eye(n // 3)
    G, G_xy = np.kron(agents, block), np.kron(agents, block * [1.0, 1.0, 0.0])
    maps = _BoundMaps((1.0 + _BOUND_MARGIN) * np.hstack([G @ r1, G @ r2, G @ Q, G_xy @ Q]), n1)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _omni_readout_bound(ro: _Readout, psi: NonTemporalFormula, fp, eta: float, plant) -> np.ndarray:
    """An upper bound on every row sum sum_k |du_j/dz_k| of an omni team from
    the read-out ``ro`` alone, with no leaf gradient or Hessian: (m, P),
    rows-last.

    With curv = w / |r| as in ``_leaf_grads`` and ``_bound_maps``'s
    constants, row a of ``_body_frame``'s M_x has sum_k |M_x[a, k]| at most

        R1 @ (|eps| curv) + R2 @ (|eps| eta w (1 - w)^2)
            + |slope / gamma| (N @ w) (Q @ w):

    the first term bounds the leaf Hessians' sum_i curv_i A_i^T (I - u u^T)
    A_i; the second the softmin term eta (sum_i w_i q_i q_i^T - q q^T) =
    eta sum_i w_i (q_i - q)(q_i - q)^T, as q_i - q = sum_l w_l (q_i - q_l)
    is at most (1 - w_i)(Q_i + max Q) entrywise and (1 - w_i)(N_i + max N)
    in 1-norm; the third the (slope / gamma) q q^T term.  Also
    |m_t| <= |slope xi l decay / gamma| (Q @ w), and the omni heading column
    eps (pi / 180) (d g^T / d theta) q, which reads q_x and q_y, adds at
    most rho_j |eps| (pi / 180) (|q_x| + |q_y|).  Each term is a constant
    matrix applied to an (L, P) array of per-leaf, per-row factors, so the
    whole bound is ``rows`` applied to the four arrays, stacked.
    """
    bm = _bound_maps(psi, plant.n, plant.gbody_rows)
    eps, slope = _eps_slope(ro.xi)
    abs_eps = np.abs(eps)
    w = ro.w
    L, P = w.shape
    coef = np.empty((4, L, P))
    np.multiply(abs_eps * w, _inv_norms(ro.nd, _leaf_maps(psi, plant.n)), out=coef[0])
    np.multiply((abs_eps * eta) * w, (1.0 - w) ** 2, out=coef[1])
    slope_g = np.abs(slope / ro.gamma)
    scale = slope_g * (bm.n1 @ w)
    scale += slope_g * np.abs(ro.xi * ro.decay) * fp.perf.l
    np.multiply(scale, w, out=coef[2])
    np.multiply(abs_eps * _DEG, w, out=coef[3])
    return bm.rows @ coef.reshape(4 * L, P)


def law_row_sums(
    pts: np.ndarray, psi: NonTemporalFormula, fp, plant, eta: float, settles=None
) -> np.ndarray | None:
    """Per probe row (x, t) and input j, sum_k |du_j/dz_k| over z = (x, t), (P, m),
    from the law Jacobian; None if a row's xi leaves the band of ``_in_band``.

    The band is checked on the read-out, before any Jacobian term.  For an
    omni team, ``settles`` (a predicate on a float) is asked first about
    the largest row of ``_omni_readout_bound``, computed from that read-out
    alone; where it holds, those bound rows are returned in place of the
    exact sums, and neither the body-frame terms (leaf gradients, Hessian)
    nor the g^T transform is formed.  Otherwise, and for the integrator,
    the rows are the exact ones.
    """
    X = pts[:, :-1]
    # The read-out of a row with an infinite coordinate meets inf * 0 and
    # inf - inf; the band check refuses that row.  A refused row reaches
    # nothing after it.
    with np.errstate(invalid="ignore"):
        ro = _readout(X, pts[:, -1], psi, fp, eta)
    if not _in_band(ro.xi):
        return None
    if settles is not None and plant.gbase is not None:
        bound = _omni_readout_bound(ro, psi, fp, eta, plant)
        if settles(float(bound.max())):
            return bound.T
    du_dx, du_dt = _actuate(X, plant, *_body_frame(ro, psi, X.shape[1], fp, eta))
    return np.abs(du_dx, out=du_dx).sum(axis=1).T + np.abs(du_dt.T)


def exact_psi_batch(psi: NonTemporalFormula, X: np.ndarray) -> np.ndarray:
    """Exact robustness, the minimum leaf value, at every row of X."""
    return _leaf_readout(np.asarray(X, dtype=float), psi)[2].min(axis=0)

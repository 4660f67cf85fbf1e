"""Discounted variational rate function and its numerical minimization.

For an occupation-dependent field the cost of observing (gamma, varsigma) at
long times is the infimum, over control paths, of a discounted running cost.
A control path assigns to each time s >= 0 a probability vector rho_s and a
rate matrix H_s (the controlled jump rates).  Writing

    M_s = e^s * integral over (s, infinity) of e^-u rho_u du

for the induced occupation profile (M solves M' = M - rho), the cost is

    jtilde(rho, H) = integral e^-s sum_x rho_s(x) sum_y
                         scaled_ell(Q_xy(M_s), H_s(x, y)) ds

minimized subject to
    (a) marginal:      integral e^-s rho_s ds = gamma   (equals M_0),
    (b) support:       H_s(x, y) = 0 wherever Q_xy(M_s) = 0,
    (c) stationarity:  rho_s H_s = 0 for a.e. s (as a row-vector product),
    (d) flux:          integral e^-s rho_s(x) H_s(x, y) ds = varsigma^{xy}.

Discretization: rho and H are piecewise constant on K cells covering
[0, T_h] plus one constant tail pair on [T_h, infinity); the discount gives
each cell the weight e^-s_k - e^-s_{k+1} and the tail e^-T_h, and M has a
closed form.  Constraints are enforced by escalating quadratic penalties
around a quasi-Newton inner minimizer, from several deterministic starts.

For a constant field the minimizer is the constant path rho = gamma,
H = varsigma / gamma, and the value collapses to the level-2.5 rate; that
identity is the primary cross-check of the solver.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import errors
from .core import as_simplex, edge_pairs, renormalize_simplex, uniform_simplex
from .ldp import as_flux, ell, flux_balanced, scaled_ell, stationary_distribution, \
    fixed_point_pi_star

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Nodes 0 = s_0 < .. < s_K = T_h; cell k is [s_k, s_{k+1}), plus a tail.

    Block weights are the discounted lengths e^-s_k - e^-s_{k+1}, and the
    tail block carries the rest of the discount, e^-T_h; together they sum
    to one.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least two cells")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must increase strictly from 0")
        if nodes[-1] < 1.0:
            raise ValueError(f"horizon {nodes[-1]} too small (need >= 1)")

    @classmethod
    def uniform(cls, horizon=8.0, cells=64):
        return cls(np.linspace(0.0, float(horizon), int(cells) + 1))

    @property
    def n_cells(self):
        return self.nodes.size - 1

    @property
    def horizon(self):
        return float(self.nodes[-1])

    @property
    def cell_weights(self):
        e = np.exp(-self.nodes)
        return e[:-1] - e[1:]

    @property
    def tail_weight(self):
        return float(np.exp(-self.horizon))

    @property
    def block_weights(self):
        """Cell weights followed by the tail weight; sums to 1."""
        return np.concatenate([self.cell_weights, [self.tail_weight]])


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant (rho, H) on a grid's blocks; block K is the tail.

    rho has shape (K+1, d) with simplex rows; H has shape (K+1, d, d) with
    zero-row-sum rate matrices supported on the field's edge set.
    """

    grid: TimeGrid
    rho: np.ndarray
    H: np.ndarray


def make_control_path(grid, rho, H, support=None):
    """Validate and assemble a ControlPath.

    Rows of rho within 1e-9 of the simplex are renormalized; H may be given
    through its off-diagonal entries (diagonals are recomputed).  When a
    support mask is given, off-support entries must vanish.
    """
    rho = np.asarray(rho, dtype=float)
    H = np.asarray(H, dtype=float)
    n_blocks = grid.n_cells + 1
    if rho.ndim != 2 or rho.shape[0] != n_blocks:
        raise ValueError(f"rho must have shape ({n_blocks}, d), got {rho.shape}")
    d = rho.shape[1]
    if H.shape != (n_blocks, d, d):
        raise ValueError(f"H must have shape ({n_blocks}, {d}, {d}), got {H.shape}")
    rho = np.vstack([renormalize_simplex(row) for row in rho])
    H = H.copy()
    for c in range(n_blocks):
        np.fill_diagonal(H[c], 0.0)
    if np.any(H < 0):
        raise errors.NegativeOffDiagonal("H entries must be nonnegative")
    if support is not None:
        offmask = ~support & ~np.eye(d, dtype=bool)
        if np.any(H[:, offmask] > SUPPORT_TOL):
            raise errors.SupportMismatch("H charges an edge off the support")
        H[:, offmask] = 0.0
    for c in range(n_blocks):
        np.fill_diagonal(H[c], -H[c].sum(axis=1))
    return ControlPath(grid, rho, H)


def m_from_rho(path):
    """Occupation profile M at the grid nodes, exactly integrated.

    Returns an array of shape (K+1, d): M(s_k) for k = 0..K, with
    M(s_K) = rho_tail (M is constant on the tail) and M(s_0) equal to the
    discount-weighted average of all blocks.
    """
    grid = path.grid
    w = grid.block_weights
    contrib = w[:, None] * path.rho
    suffix = np.cumsum(contrib[::-1], axis=0)[::-1]
    out = np.empty_like(path.rho)
    out[:-1] = np.exp(grid.nodes[:-1])[:, None] * suffix[:-1]
    out[-1] = path.rho[-1]
    return out


def m_evolution_defect(path):
    """Max defect of the discrete evolution identity M' = M - rho.

    On each cell the exactly integrated M satisfies
    M(s_{k+1}) - M(s_k) = integral of (M - rho_k) over the cell; this
    returns the largest componentwise violation across cells (pure float
    noise for any path, of order 1e-12 or below).
    """
    m = m_from_rho(path)
    nodes = path.grid.nodes
    delta = np.diff(nodes)[:, None]
    decay = np.exp(-delta)
    m_next = m[1:]
    rho = path.rho[:-1]
    cell_integral = m_next * (1.0 - decay) + rho * (delta - (1.0 - decay))
    defect = m_next - m[:-1] - cell_integral + delta * rho
    return float(np.max(np.abs(defect)))


def _block_m(path, m_eval):
    """M evaluated per block: left node (default) or cell midpoint; tail is exact."""
    m = m_from_rho(path)
    if m_eval == "left":
        return m
    if m_eval != "midpoint":
        raise ValueError(f"m_eval must be 'left' or 'midpoint', got {m_eval!r}")
    nodes = path.grid.nodes
    alpha = np.exp(-0.5 * np.diff(nodes))[:, None]
    out = m.copy()
    out[:-1] = alpha * m[1:] + (1.0 - alpha) * path.rho[:-1]
    return out


def _block_rates(field, m_blocks):
    """Rate matrices Q(M) for each block, zero off the field's support."""
    q = np.einsum("cz,zij->cij", m_blocks, field.vertices)
    q = np.clip(q, 0.0, None)
    q[:, ~field.support] = 0.0
    return q


def jtilde(path, field, m_eval="left"):
    """Discretized control cost of a path under the field.

    Sum over blocks of weight * sum over supported edges of
    rho(x) * scaled_ell(Q_xy(M), H(x, y)), with the block M from the chosen
    evaluation rule.  Infinite when H charges an edge whose rate vanishes.
    """
    mask = field.support
    off = ~mask & ~np.eye(field.d, dtype=bool)
    if np.any(path.H[:, off] > SUPPORT_TOL):
        return float("inf")
    q = _block_rates(field, _block_m(path, m_eval))
    xs, ys = np.nonzero(mask)
    qe = q[:, xs, ys]
    he = path.H[:, xs, ys]
    re = path.rho[:, xs]
    if np.any(he[qe <= 0.0] > 0.0):
        return float("inf")
    terms = np.where(re > 0.0, re * scaled_ell(qe, np.clip(he, 0.0, None)), 0.0)
    return float(path.grid.block_weights @ terms.sum(axis=1))


def path_flux(path):
    """Discount-weighted edge flux of a path: sum of w * rho(x) * H(x, y)."""
    w = path.grid.block_weights
    h_off = path.H.copy()
    for c in range(h_off.shape[0]):
        np.fill_diagonal(h_off[c], 0.0)
    return np.einsum("c,cx,cxy->xy", w, path.rho, h_off)


def residuals(path, field, gamma=None, flux=None, current=None):
    """Constraint residuals of a path.

    marginal: l1 gap between M(0) and gamma (0 when gamma is None).
    stationarity: max over blocks of the sup norm of rho_c H_c.
    flux: max per-edge gap to the target flux, or to the target current when
    ``current`` is given (0 when neither is given).
    support: number of (block, edge) pairs where H charges a vanished rate.
    """
    m = m_from_rho(path)
    out = {}
    if gamma is None:
        out["marginal"] = 0.0
    else:
        out["marginal"] = float(np.abs(m[0] - as_simplex(gamma)).sum())
    stat = np.einsum("cx,cxy->cy", path.rho, path.H)
    out["stationarity"] = float(np.max(np.abs(stat)))
    f = path_flux(path)
    if flux is not None:
        gap = np.abs(f - as_flux(flux))
        np.fill_diagonal(gap, 0.0)
        out["flux"] = float(gap.max())
    elif current is not None:
        gap = np.abs((f - f.T) - np.asarray(current, dtype=float))
        np.fill_diagonal(gap, 0.0)
        out["flux"] = float(gap.max())
    else:
        out["flux"] = 0.0
    q = _block_rates(field, _block_m(path, "left"))
    h_off = path.H.copy()
    for c in range(h_off.shape[0]):
        np.fill_diagonal(h_off[c], 0.0)
    out["support"] = int(np.sum((h_off > SUPPORT_TOL) & (q <= 0.0)))
    return out


@dataclass(frozen=True)
class ThetaPath:
    """Product-form reweighting measure equivalent to a control path.

    Per block: the marginal rho, a point mass at the per-edge multiplier
    matrix v, and the uniform coordinate on [0, rate_upper].  v equals
    H / Q(M) on edges with positive rate and 1 elsewhere, so the reweighting
    cost coincides with the control cost term by term.
    """

    grid: TimeGrid
    rho: np.ndarray
    v: np.ndarray


def convert_to_theta(path, field, m_eval="left"):
    """Dirac-form reweighting of a feasible path (H = 0 wherever Q(M) = 0)."""
    q = _block_rates(field, _block_m(path, m_eval))
    h_off = path.H.copy()
    for c in range(h_off.shape[0]):
        np.fill_diagonal(h_off[c], 0.0)
    if np.any(h_off[q <= 0.0] > SUPPORT_TOL):
        raise ValueError("path charges an edge with zero rate; no Dirac form")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(q > 0.0, h_off / np.where(q > 0.0, q, 1.0), 1.0)
    for c in range(v.shape[0]):
        np.fill_diagonal(v[c], 0.0)
    return ThetaPath(path.grid, path.rho.copy(), v)


def jtheta(theta, field, m_eval="left"):
    """Reweighting cost: sum of w * rho(x) * Q_xy(M) * ell(v_xy) over blocks.

    Uses the same block M rule as jtilde, so for theta obtained from
    convert_to_theta the two values agree to float precision.
    """
    carrier = ControlPath(theta.grid, theta.rho, np.zeros_like(theta.v))
    q = _block_rates(field, _block_m(carrier, m_eval))
    cost = q * ell(np.clip(theta.v, 0.0, None))
    for c in range(cost.shape[0]):
        np.fill_diagonal(cost[c], 0.0)
    per_block = np.einsum("cx,cxy->c", theta.rho, cost)
    return float(theta.grid.block_weights @ per_block)


def random_feasible_path(field, grid, seed=0):
    """Random path satisfying stationarity exactly on every block.

    H is lognormal on the support and rho is the stationary distribution of
    each block's H, so the path is feasible for its own read-off
    (gamma, varsigma) = (M(0), path_flux).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    d = field.d
    n_blocks = grid.n_cells + 1
    rho = np.empty((n_blocks, d))
    H = np.zeros((n_blocks, d, d))
    for c in range(n_blocks):
        h = np.zeros((d, d))
        h[field.support] = np.exp(0.5 * rng.standard_normal(int(field.support.sum())))
        np.fill_diagonal(h, -h.sum(axis=1))
        H[c] = h
        rho[c] = stationary_distribution(h)
    return ControlPath(grid, rho, H)


# -- penalized minimization ------------------------------------------------


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the penalized multistart solver.

    The solver always evaluates M at cell left nodes (the m_eval choice in
    jtilde/jtheta is for reporting); tolerances govern the converged status.
    """

    grid_horizon: float = 8.0
    grid_cells: int = 64
    n_starts: int = 8
    seed: int = 0
    penalty_init: float = 10.0
    penalty_factor: float = 10.0
    penalty_rounds: int = 6
    inner_maxiter: int = 300
    tol_marginal: float = 1e-5
    tol_stationarity: float = 1e-5
    tol_flux: float = 1e-5
    balance_tol: float = 1e-10
    rho_floor: float = 1e-6
    h_floor: float = 1e-8
    early_stop_value: float = 1e-8

    def grid(self):
        return TimeGrid.uniform(self.grid_horizon, self.grid_cells)


@dataclass
class RateResult:
    """Outcome of a rate minimization.

    value is jtilde of the returned path (infinite for analytic
    infeasibility, where path is None).  status is one of converged,
    infeasible, max_iter, boundary; detail explains infeasibility.
    """

    value: float
    path: ControlPath | None
    residuals: dict
    status: str
    detail: str = ""
    best_start: int = -1


class _Objective:
    """Penalized smooth objective over logit parameters, with gradient.

    rho rows are floored softmaxes, H entries floored exponentials, so the
    cost is finite and differentiable everywhere; the floors also keep every
    supported rate Q(M) strictly positive.
    """

    def __init__(self, field, grid, mode, gamma=None, flux=None, current=None,
                 rho_floor=1e-6, h_floor=1e-8):
        self.field = field
        self.grid = grid
        self.mode = mode
        self.d = field.d
        self.k_cells = grid.n_cells
        self.n_blocks = grid.n_cells + 1
        xs, ys = np.nonzero(field.support)
        self.xs, self.ys = xs, ys
        self.n_e = xs.size
        self.w = grid.block_weights
        self.es = np.exp(grid.nodes[:-1])
        self.vxy = field.vertices[:, xs, ys]  # (d, n_e)
        self.ox = np.zeros((self.n_e, self.d))
        self.ox[np.arange(self.n_e), xs] = 1.0
        self.oy = np.zeros((self.n_e, self.d))
        self.oy[np.arange(self.n_e), ys] = 1.0
        self.gamma = None if gamma is None else np.asarray(gamma, dtype=float)
        self.flux_e = None if flux is None else np.asarray(flux, dtype=float)[xs, ys]
        self.current = None if current is None else np.asarray(current, dtype=float)
        if current is not None:
            active = field.support | field.support.T
            self.cur_mask = active
        self.eps_r = rho_floor
        self.eps_h = h_floor
        self.beta = 1.0 - self.d * rho_floor
        self.n_par = self.n_blocks * (self.d + self.n_e)

    # parameter layout: all rho logits, then all H logits
    def _unpack(self, z):
        nb, d = self.n_blocks, self.d
        zr = z[:nb * d].reshape(nb, d)
        zh = z[nb * d:].reshape(nb, self.n_e)
        return zr, zh

    def _rho(self, zr):
        m = zr - zr.max(axis=1, keepdims=True)
        e = np.exp(m)
        sm = e / e.sum(axis=1, keepdims=True)
        return self.eps_r + self.beta * sm, sm

    def pack(self, rho, h):
        """Logits for block profiles rho (n_blocks, d) and full H (n_blocks, d, d)."""
        rho = np.broadcast_to(rho, (self.n_blocks, self.d))
        zr = np.log(np.clip(rho - self.eps_r, 1e-300, None))
        hv = np.broadcast_to(h, (self.n_blocks, self.d, self.d))[:, self.xs, self.ys]
        zh = np.log(np.clip(hv - self.eps_h, 1e-300, None))
        return np.concatenate([zr.ravel(), zh.ravel()])

    def path_from(self, z):
        zr, zh = self._unpack(z)
        rho, _ = self._rho(zr)
        hv = self.eps_h + np.exp(zh)
        H = np.zeros((self.n_blocks, self.d, self.d))
        H[:, self.xs, self.ys] = hv
        for c in range(self.n_blocks):
            np.fill_diagonal(H[c], -H[c].sum(axis=1))
        return ControlPath(self.grid, rho, H)

    def value_and_grad(self, z, mu):
        zr, zh = self._unpack(z)
        rho, sm = self._rho(zr)
        hv = self.eps_h + np.exp(zh)
        w = self.w
        k = self.k_cells

        contrib = w[:, None] * rho
        suffix = np.cumsum(contrib[::-1], axis=0)[::-1]
        mh = np.empty_like(rho)
        mh[:k] = self.es[:, None] * suffix[:k]
        mh[k] = rho[k]

        qe = mh @ self.vxy
        rx = rho[:, self.xs]
        lg_h = np.log(hv)
        lg_q = np.log(qe)
        sle = hv * (lg_h - lg_q) + qe - hv
        jt = float(w @ (rx * sle).sum(axis=1))

        g_rho = w[:, None] * (sle @ self.ox)
        g_hv = w[:, None] * rx * (lg_h - lg_q)
        gq = w[:, None] * rx * (1.0 - hv / qe)
        gm = gq @ self.vxy.T
        cums = np.cumsum(self.es[:, None] * gm[:k], axis=0)
        g_rho[:k] += w[:k, None] * cums
        g_rho[k] += w[k] * cums[k - 1] + gm[k]

        pen = 0.0
        p_rho = np.zeros_like(rho)
        p_hv = np.zeros_like(hv)

        if self.gamma is not None:
            m0 = suffix[0]
            dm = m0 - self.gamma
            pen += float(dm @ dm)
            p_rho += 2.0 * w[:, None] * dm[None, :]

        rxh = rx * hv
        outflow = hv @ self.ox
        stat = rxh @ self.oy - rho * outflow
        pen += float((stat * stat).sum())
        p_rho += 2.0 * ((stat[:, self.ys] * hv) @ self.ox - stat * outflow)
        p_hv += 2.0 * rx * (stat[:, self.ys] - stat[:, self.xs])

        if self.mode == "rate":
            fe = w @ rxh
            df = fe - self.flux_e
            pen += float(df @ df)
            gf = 2.0 * df
            p_rho += w[:, None] * ((hv * gf[None, :]) @ self.ox)
            p_hv += w[:, None] * rx * gf[None, :]
        elif self.mode == "current":
            fe = w @ rxh
            f = np.zeros((self.d, self.d))
            f[self.xs, self.ys] = fe
            dmat = (f - f.T - self.current) * self.cur_mask
            pen += 0.5 * float((dmat * dmat).sum())
            gfe = 2.0 * dmat[self.xs, self.ys]
            p_rho += w[:, None] * ((hv * gfe[None, :]) @ self.ox)
            p_hv += w[:, None] * rx * gfe[None, :]

        g_rho += mu * p_rho
        g_hv += mu * p_hv

        gz_h = g_hv * (hv - self.eps_h)
        inner = (sm * g_rho).sum(axis=1, keepdims=True)
        gz_r = self.beta * sm * (g_rho - inner)
        grad = np.concatenate([gz_r.ravel(), gz_h.ravel()])
        return jt + mu * pen, grad


def _start_logits(obj, field, mode, gamma, flux, opts):
    """Deterministic multistart: equilibrium pair, informed pair, then random."""
    starts = []
    try:
        fp = fixed_point_pi_star(field, tol=1e-11, max_iter=400)
        pi = fp.pi
    except errors.Reducible:
        pi = uniform_simplex(field.d)
    starts.append(obj.pack(pi, field.evaluate(pi)))
    if gamma is not None:
        interior = np.clip(gamma, 2.0 * opts.rho_floor, None)
        interior = interior / interior.sum()
        if mode == "rate":
            h = np.zeros((field.d, field.d))
            h[obj.xs, obj.ys] = np.asarray(flux)[obj.xs, obj.ys] / interior[obj.xs]
            starts.append(obj.pack(interior, h))
        else:
            starts.append(obj.pack(interior, field.evaluate(interior)))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(opts.seed)))
    live = field.vertices[:, field.support]
    scale = max(float(live.mean()) if live.size else 1.0, 1e-3)
    while len(starts) < opts.n_starts:
        zr = 0.5 * rng.standard_normal(obj.n_blocks * field.d)
        zh = np.log(scale) + 0.7 * rng.standard_normal(obj.n_blocks * obj.n_e)
        starts.append(np.concatenate([zr, zh]))
    return starts[: opts.n_starts]


def _feasible(rd, opts):
    return (rd["marginal"] <= opts.tol_marginal
            and rd["stationarity"] <= opts.tol_stationarity
            and rd["flux"] <= opts.tol_flux
            and rd["support"] == 0)


def _violation(rd, opts):
    return max(rd["marginal"] / opts.tol_marginal,
               rd["stationarity"] / opts.tol_stationarity,
               rd["flux"] / opts.tol_flux,
               float(rd["support"]))


def _minimize(field, mode, gamma, flux, current, opts):
    grid = opts.grid()
    obj = _Objective(field, grid, mode, gamma=gamma, flux=flux, current=current,
                     rho_floor=opts.rho_floor, h_floor=opts.h_floor)

    def fun(z, mu):
        return obj.value_and_grad(z, mu)

    # Penalty iterates drift off the constraint set before the escalating mu
    # pulls them back, so the final iterate of the last round need not be the
    # best point seen.  Every start and every round end is scored as a
    # candidate: feasible ones by value, infeasible ones by scaled violation.
    best = None

    def consider(z, si):
        nonlocal best
        path = obj.path_from(z)
        rd = residuals(path, field, gamma=gamma, flux=flux, current=current)
        value = jtilde(path, field)
        feas = _feasible(rd, opts)
        key = (not feas, value if feas else _violation(rd, opts), si)
        if best is None or key < best[0]:
            best = (key, si, value, path, rd)
        return feas, value, rd

    for si, z0 in enumerate(_start_logits(obj, field, mode, gamma, flux, opts)):
        z = z0
        feas, value, _ = consider(z, si)
        if feas and value <= opts.early_stop_value:
            break
        mu = opts.penalty_init
        done = False
        for rnd in range(opts.penalty_rounds):
            res = minimize(fun, z, args=(mu,), jac=True, method="L-BFGS-B",
                           options={"maxiter": opts.inner_maxiter, "maxcor": 25,
                                    "ftol": 1e-14, "gtol": 1e-9})
            z = res.x
            mu *= opts.penalty_factor
            feas, value, rd = consider(z, si)
            if feas and value <= opts.early_stop_value:
                done = True
                break
            if rnd >= 1 and feas and _violation(rd, opts) <= 0.1:
                break
        if done:
            break
    _, si, value, path, rd = best
    status = "converged" if _feasible(rd, opts) else "max_iter"
    return RateResult(value, path, rd, status, best_start=si)


def _boundary_target(gamma, opts):
    gamma = as_simplex(gamma)
    if float(gamma.min()) >= opts.rho_floor:
        return gamma, False
    floored = np.clip(gamma, opts.rho_floor, None)
    return floored / floored.sum(), True


def solve_rate(gamma, flux, field, opts=None):
    """Minimize the control cost at fixed occupation gamma and flux varsigma.

    Analytic gates first: an imbalanced flux, or flux on edges the field
    cannot charge, is infeasible with value +infinity.  A gamma with a
    component below the rho floor is solved against the floored interior
    target and flagged status=boundary.
    """
    opts = opts or SolveOptions()
    gamma = as_simplex(gamma)
    flux = as_flux(flux)
    if gamma.size != field.d or flux.shape != (field.d, field.d):
        raise ValueError("dimension mismatch with the field")
    if not flux_balanced(flux, opts.balance_tol):
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="flux balance violated")
    off_support = ~field.support & ~np.eye(field.d, dtype=bool)
    if np.any(flux[off_support] > SUPPORT_TOL):
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="flux charges edges off the support")
    target, boundary = _boundary_target(gamma, opts)
    result = _minimize(field, "rate", target, flux, None, opts)
    if boundary:
        result.status = "boundary"
    return result


def occupation_rate(gamma, field, opts=None):
    """Minimize the control cost at fixed occupation gamma, flux free."""
    opts = opts or SolveOptions()
    gamma = as_simplex(gamma)
    if gamma.size != field.d:
        raise ValueError("dimension mismatch with the field")
    target, boundary = _boundary_target(gamma, opts)
    result = _minimize(field, "occupation", target, None, None, opts)
    if boundary:
        result.status = "boundary"
    return result


def current_rate(current, field, opts=None):
    """Minimize the control cost over paths whose net flux matches the current.

    The current must be antisymmetric; currents with nonzero divergence, or
    charging pairs without any supported direction, are infeasible (every
    achievable flux is balanced, so its current is divergence-free).  For two
    states this forces the zero current.
    """
    opts = opts or SolveOptions()
    current = np.asarray(current, dtype=float)
    if current.shape != (field.d, field.d):
        raise ValueError("dimension mismatch with the field")
    if np.max(np.abs(current + current.T)) > 1e-12:
        raise ValueError("current must be antisymmetric")
    if np.max(np.abs(current.sum(axis=1))) > opts.balance_tol:
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="current is not divergence-free")
    pair_support = field.support | field.support.T
    if np.any((np.abs(current) > SUPPORT_TOL) & ~pair_support):
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="current charges edges off the support")
    return _minimize(field, "current", None, None, current, opts)


# -- export ------------------------------------------------------------------


def rate_result_to_dict(result):
    """JSON-ready summary: value, status, residuals, and the full grid."""
    out = {
        "value": result.value,
        "status": result.status,
        "detail": result.detail,
        "residuals": result.residuals,
        "best_start": result.best_start,
    }
    if result.path is not None:
        out["grid_nodes"] = result.path.grid.nodes.tolist()
        out["rho"] = result.path.rho.tolist()
        out["H"] = result.path.H.tolist()
    return out


def write_control_path_csv(path, fh):
    """Rows s_left,s_right,rho_1..rho_d,H_edge1..H_edgea (tail row ends at inf)."""
    d = path.rho.shape[1]
    pairs = edge_pairs(d)
    w = csv.writer(fh)
    w.writerow(["s_left", "s_right"] + [f"rho_{k + 1}" for k in range(d)]
               + [f"H_edge{e + 1}" for e in range(len(pairs))])
    nodes = path.grid.nodes
    lefts = list(nodes[:-1]) + [nodes[-1]]
    rights = list(nodes[1:]) + [float("inf")]
    for c, (lo, hi) in enumerate(zip(lefts, rights)):
        w.writerow([repr(float(lo)), repr(float(hi))]
                   + [repr(float(v)) for v in path.rho[c]]
                   + [repr(float(path.H[c, i, j])) for i, j in pairs])

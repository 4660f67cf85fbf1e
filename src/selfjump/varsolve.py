"""Discounted variational rate function and its numerical minimization.

For an occupation-dependent field the cost of observing (gamma, varsigma) at
long times is the infimum, over control paths, of a discounted running cost.
A control path assigns to each time s >= 0 a probability vector rho_s and a
rate matrix H_s (the controlled jump rates).  Writing

    M_s = e^s * integral over (s, infinity) of e^-u rho_u du

for the induced occupation profile (M solves M' = M - rho), the cost is

    J(rho, H) = integral e^-s sum_x rho_s(x) sum_y
                    scaled_ell(Q_xy(M_s), H_s(x, y)) ds

minimized subject to
    (a) marginal:      integral e^-s rho_s ds = gamma   (equals M_0),
    (b) support:       H_s(x, y) = 0 wherever Q_xy(M_s) = 0,
    (c) stationarity:  rho_s H_s = 0 for a.e. s (as a row-vector product),
    (d) flux:          integral e^-s rho_s(x) H_s(x, y) ds = varsigma^{xy}.

Discretization: rho and H are piecewise constant on K cells covering
[0, T_h] plus one constant tail pair on [T_h, infinity); the discount gives
each cell the weight e^-s_k - e^-s_{k+1} and the tail e^-T_h.  Each block's
cost reads M at its left node, M_k = (1 - e^-Delta_k) rho_k + e^-Delta_k
M_{k+1} with M_K = rho_K.

The solver works in (rho, M, j) with the flux j = rho * H per edge, where
the block cost is the level-2.5 perspective form j log(j / p) - j + p with
p = rho(x) Q_xy(M) (Bertini, Faggionato and Gabrielli, AIHP 2015) and every
constraint is a linear row, set by the targets each solve passes to
_minimize.  The cost is not convex, and +infinity where j charges an edge
whose p is 0; a primal-dual interior-point Newton method (in the line of
IPOPT, Waechter and Biegler, Math. Program. 106, 2006) keeps rho, M and j
strictly positive, where the cost and its exact Hessian are finite.  Each
of at most two deterministic starts is one solve, judged by its flux cost
and the largest gap of each constraint group; the winner becomes a control
path (rho, H = j / rho).  Empty states are pinned to zero.  On a constant
field the minimizer is the constant path rho = gamma, j = varsigma at the
level-2.5 rate (in ldp, with the flux gate and SUPPORT_TOL), the primary
cross-check.  scipy.sparse loads when a solve runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import numpy as np

from . import errors
from .core import as_simplex, check_count, uniform_simplex
from .ldp import (BALANCE_TOL, SUPPORT_TOL, as_flux, fixed_point_pi_star,
                  flux_infeasibility, reachability)


@dataclass(frozen=True)
class SolveOptions:
    """The control grid and the number of solver starts.

    grid_cells >= 2 equal cells [s_k, s_{k+1}) on [0, grid_horizon], plus a
    tail.  Block weights are the discounted lengths e^-s_k - e^-s_{k+1}, and
    the tail block carries the rest of the discount, e^-grid_horizon;
    together they sum to one.  grid_horizon lies in [1, about 708.4], where
    e^-grid_horizon is a normal float.  n_starts, 1 or 2 (two deterministic
    starts exist), is how many starts are tried.  The fields are checked on
    construction.
    """

    grid_horizon: float = 8.0
    grid_cells: int = 64
    n_starts: int = 2

    def __post_init__(self):
        horizon = float(self.grid_horizon)
        object.__setattr__(self, "grid_horizon", horizon)
        if not horizon >= 1.0:
            raise errors.InvalidInput(f"horizon {horizon} too small (need >= 1)")
        if np.exp(-horizon) < np.finfo(float).tiny:
            # at a zero tail weight the tail's cost and flux terms vanish, and
            # a subnormal one has already lost precision
            raise errors.InvalidInput(f"horizon {horizon} too large: its tail weight "
                                      "e^-horizon underflows (need about <= 708.4)")
        object.__setattr__(self, "grid_cells", check_count("grid_cells", self.grid_cells, 2))
        object.__setattr__(self, "n_starts", check_count("n_starts", self.n_starts))
        if self.n_starts > 2:
            raise errors.InvalidInput(f"n_starts must be 1 or 2, got {self.n_starts}")

    @property
    def nodes(self):
        return np.linspace(0.0, self.grid_horizon, self.grid_cells + 1)

    @property
    def block_weights(self):
        """Cell weights followed by the tail weight e^-grid_horizon; sums to 1."""
        e = np.exp(-self.nodes)
        return np.append(e[:-1] - e[1:], e[-1])


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant (rho, H) on a grid's blocks; block K is the tail.

    grid is the SolveOptions the path was solved on.  rho has shape (K+1, d)
    with simplex rows; H has shape (K+1, d, d) with zero-row-sum rate
    matrices supported on the field's edge set.
    """

    grid: SolveOptions
    rho: np.ndarray
    H: np.ndarray


@dataclass
class RateResult:
    """Outcome of a rate minimization.

    value is the flux cost of the returned (rho, j), +infinity when j charges
    an edge whose p = rho(x) Q(M) vanishes (and for analytic infeasibility,
    where path is None).  residuals holds the largest simplex, stationarity,
    marginal and flux gap in natural units and the support count (see
    _FluxProblem.judge).  status is one of converged, infeasible, max_iter;
    detail explains infeasibility.
    """

    value: float
    path: ControlPath | None
    residuals: dict
    status: str
    detail: str = ""
    best_start: int = -1


# Bound on every residual but the support count for status=converged.
_TOL = 1e-5
# A feasible start at or below this value ends the search.
_EARLY_STOP = 1e-8
# Newton iterations per start.
_MAX_ITER = 200


class _FluxProblem:
    """The problem in x, the free entries of (rho_c, M_c, j_c) block by block.

    The cost sum_c w_c sum_e [j log(j / p) - j + p], p = rho_c(x_e) Q_e(M_c),
    is the control cost of H = j / rho.  A x = b holds, per block, the simplex,
    div j_c = 0 and the recursion of M; then the targets given decide the
    rest: M_0 = gamma, and the weighted sums of j that meet a flux or a
    current, which imply one block's divergence rows (left out).  Pinned to
    zero, and not in x: rho and M of a state gamma leaves empty, and j on
    every edge that no feasible flux charges (at such a state, of vanishing
    rate, off all cycles, or with no target to carry)."""

    def __init__(self, field, opts, gamma=None, flux=None, current=None):
        from scipy import sparse

        d, (xs, ys), nb = field.d, np.nonzero(field.support), opts.grid_cells + 1
        n_e, nv = xs.size, 2 * d + xs.size
        self.opts, self.d, self.xs, self.ys, self.nb, self.gamma = opts, d, xs, ys, nb, gamma
        self.w, self.decay = opts.block_weights, np.exp(-np.diff(opts.nodes))
        self.vxy = field.vertices[:, xs, ys]  # (d, n_e): Q_e(M) = M @ vxy
        self.ox = np.eye(d)[xs]  # (n_e, d): each edge's source state
        self.div = (np.eye(d)[ys] - self.ox).T  # inflow minus outflow per state
        empty = np.zeros(d, dtype=bool) if gamma is None else gamma == 0.0
        dead = empty[xs] | empty[ys] | ~np.any(self.vxy[~empty] > 0.0, axis=0)
        # the weighted sums of j that meet a target: flux, net current or none
        self.sums, self.target = np.zeros((0, n_e)), np.zeros(0)
        if flux is not None:
            self.sums, self.target = np.eye(n_e), flux[xs, ys]
            dead |= self.target <= SUPPORT_TOL
        elif current is not None:
            pairs = sorted({(min(x, y), max(x, y)) for x, y in zip(xs, ys)})
            self.sums = np.array([((xs == x) & (ys == y)) * 1.0 - ((xs == y) & (ys == x))
                                  for x, y in pairs]).reshape(len(pairs), n_e)
            self.target = np.array([current[x, y] for x, y in pairs])
            dead |= ~field.support[ys, xs] & (current[xs, ys] <= SUPPORT_TOL)
        reach = np.zeros((d, d), dtype=bool)  # a divergence-free j lives on cycles only
        reach[xs[~dead], ys[~dead]] = True
        reach = reachability(reach)
        dead |= ~reach[ys, xs]
        self.free = ~np.concatenate([empty, empty, dead])
        self.nf = nf = int(self.free.sum())

        # rows on the full variables, their right-hand sides and the block
        # each belongs to (nb for the weighted sums)
        kron, diags, eye = sparse.kron, sparse.diags, sparse.identity(nb)
        e_rho, e_m, e_j = np.split(np.eye(nv), [d, 2 * d])
        # blocks with divergence rows: with a flux or current the weighted sums
        # imply one block's, left out at the last block of weight >= 1e-3 max w,
        # whose implied rows are then held to about the solver's precision
        rowed = np.arange(nb)
        if self.target.size:
            rowed = np.delete(rowed, np.flatnonzero(self.w >= 1e-3 * self.w.max())[-1])
        # each strongly connected set of states has one dependent divergence row
        live = [x for x in np.unique(xs[~dead]) if (reach[x, :x] & reach[:x, x]).any()]
        states = [x for x in np.flatnonzero(~empty) if gamma is not None
                  and x != np.argmax(gamma)]
        groups = [(kron(eye, e_rho.sum(axis=0)), np.ones(nb), np.arange(nb)),
                  (kron(eye.tocsr()[rowed], self.div[live] @ e_j),
                   np.zeros(rowed.size * len(live)), np.repeat(rowed, len(live))),
                  (kron(eye - diags(self.decay, 1), e_m)
                   + kron(diags(np.append(self.decay, 0.0) - 1.0), e_rho),
                   np.zeros(nb * d), np.repeat(np.arange(nb), d)),
                  (kron(np.eye(1, nb), e_m[states]), gamma[states] if states else np.zeros(0),
                   np.zeros(len(states))),
                  (kron(self.w, self.sums @ e_j), self.target, np.full(self.target.size, nb))]
        a = sparse.vstack([g[0] for g in groups], format="csc")[:, np.tile(self.free, nb)].tocsr()
        a.eliminate_zeros()
        keep = np.diff(a.indptr) > 0  # rows that pinning leaves empty go
        self.A, self.b = a[keep], np.concatenate([g[1] for g in groups])[keep]
        # the Newton matrix is factorized block by block: each block's
        # variables, then its rows, and the weighted sums last
        home = np.concatenate([np.repeat(np.arange(nb), nf),
                               np.concatenate([g[2] for g in groups])[keep]])
        self.order = np.argsort(2 * home + (np.arange(home.size) >= nb * nf), kind="stable")
        # the matrix's sparsity, in that order, as slots for the values of the
        # dense Hessian blocks and of A and A^T
        n, a, pos = nb * nf, self.A.tocoo(), np.argsort(self.order)
        hess_rows = np.repeat(np.arange(n), nf)
        hess_cols = np.tile(np.arange(nf), n) + np.repeat(np.arange(nb) * nf, nf * nf)
        rows = pos[np.concatenate([hess_rows, n + a.row, a.col])]
        cols = pos[np.concatenate([hess_cols, a.col, n + a.row])]
        k = sparse.csc_matrix((np.arange(1.0, rows.size + 1), (rows, cols)),
                              shape=(home.size,) * 2)
        self.slots, self.pattern = k.data.astype(int) - 1, (k.indices, k.indptr)
        self.a_data = a.data
        self.diag_at = (np.arange(nb)[:, None] * nf * nf + np.arange(nf) * (nf + 1)).ravel()

    def newton_solver(self, hess, diag):
        """solve(r1, r2) -> (dx, dy) of [[H + diag, A^T], [A, 0]] (dx, dy) = (r1, r2)."""
        from scipy import sparse
        from scipy.sparse.linalg import splu

        vals = np.concatenate([hess.ravel(), self.a_data, self.a_data])
        vals[self.diag_at] += diag
        size, n = self.order.size, self.A.shape[1]
        lu = splu(sparse.csc_matrix((vals[self.slots], *self.pattern), shape=(size, size)),
                  permc_spec="NATURAL")

        def solve(r1, r2):
            out = np.empty(size)
            out[self.order] = lu.solve(np.concatenate([r1, r2])[self.order])
            return out[:n], out[n:]
        return solve

    def pack(self, rho, j_full):
        """x of the constant path rho (d,), M = rho, with flux matrix j_full (d, d)."""
        z = np.concatenate([rho, rho, np.asarray(j_full, dtype=float)[self.xs, self.ys]])
        return np.tile(z[self.free], self.nb)

    def _unpack(self, x):
        z = np.zeros((self.nb, self.free.size))
        z[:, self.free] = x.reshape(self.nb, self.nf)
        return np.split(z, [self.d, 2 * self.d], axis=1)

    def occupation(self, rho):
        """M at each block's left node, by the recursion from the tail."""
        m = rho.copy()
        for c in range(self.nb - 2, -1, -1):
            m[c] = (1.0 - self.decay[c]) * rho[c] + self.decay[c] * m[c + 1]
        return m

    def _terms(self, rho, m, j):
        """Cost, r = rho(x_e), q = Q_e(M), the ratio j / p and its log (0 where j = 0)."""
        q, r = m @ self.vxy, rho[:, self.xs]
        ratio = np.divide(j, r * q, out=np.zeros_like(j), where=j > 0.0)
        log_ratio = np.log(ratio, out=np.zeros_like(j), where=j > 0.0)
        return float(self.w @ (j * log_ratio - j + r * q).sum(axis=1)), r, q, ratio, log_ratio

    def objective(self, x, order=2):
        """The cost at x (order 0), else the cost, its gradient and its block
        Hessians.  Per edge the Hessian of the perspective is (1 / j) s s^T with
        s = e_j - (j / r) e_rho(x) - (j / q) v, and p = r q adds (1 - j / p) v at
        (rho(x), M)."""
        rho, m, j = self._unpack(x)
        value, r, q, ratio, log_ratio = self._terms(rho, m, j)
        if order == 0:
            return value
        d, w, on = self.d, self.w[:, None], j > 0.0
        c = w * (1.0 - ratio)
        grad = np.concatenate([(c * q) @ self.ox, (c * r) @ self.vxy.T, w * log_ratio], axis=1)
        root, edges = np.sqrt(j), np.arange(self.xs.size)
        s = np.zeros(j.shape + self.free.shape)  # per block and edge, s / sqrt(j)
        s[:, edges, self.xs] = -np.divide(root, r, out=np.zeros_like(r), where=on)
        s[:, :, d:2 * d] = -np.divide(root, q, out=np.zeros_like(q), where=on)[:, :, None] \
            * self.vxy.T
        s[:, edges, 2 * d + edges] = np.divide(1.0, root, out=np.zeros_like(r), where=on)
        s *= np.sqrt(w)[:, :, None]
        hess = np.swapaxes(s, 1, 2) @ s
        cross = np.einsum("ce,ex,ey->cxy", c, self.ox, self.vxy.T)
        hess[:, :d, d:2 * d] += cross
        hess[:, d:2 * d, :d] += np.swapaxes(cross, 1, 2)
        return value, grad[:, self.free].ravel(), hess[:, self.free][:, :, self.free]

    def judge(self, x):
        """Value and residuals of x, M recomputed from rho: each group's largest
        gap in natural units (0 if the problem lacks it), and the support count of
        (block, edge) pairs where j > SUPPORT_TOL charges p <= 0 (value inf)."""
        rho, _, j = self._unpack(x)
        value, r, q, _, _ = self._terms(rho, self.occupation(rho), j)
        gaps = {"marginal": 0.0 if self.gamma is None else self.w @ rho - self.gamma,
                "stationarity": j @ self.div.T, "flux": self.sums @ (self.w @ j) - self.target,
                "simplex": rho.sum(axis=1) - 1.0}
        rd = {name: float(np.abs(gap).max(initial=0.0)) for name, gap in gaps.items()}
        rd["support"] = int(np.sum((j > SUPPORT_TOL) & (r * q <= 0.0)))
        return (value if rd["support"] == 0 else float("inf")), rd

    def path_from(self, x):
        rho, _, j = self._unpack(x)
        H = np.zeros((self.nb, self.d, self.d))
        r = rho[:, self.xs]
        H[:, self.xs, self.ys] = np.divide(j, r, out=np.zeros_like(j), where=r > 0.0)
        return ControlPath(self.opts, rho, H - H.sum(axis=2)[:, :, None] * np.eye(self.d))


def minimize(fun, x0, prob):
    """Minimize fun over {x >= 0, prob.A x = prob.b} from x0 by a primal-dual
    interior-point Newton method; return x, nfev, nit and success.

    fun(x, 0) is the cost, and fun(x, 2) the cost, its gradient and its block
    Hessians.  Each iteration factorizes one Newton matrix for a Mehrotra
    predictor-corrector step, cut back to keep x and the bound multipliers z
    positive and to decrease the merit f - mu sum log x + nu |A x - b|_1.
    delta I joins the Hessian while the factorization fails or the step is
    not finite or does not descend.  It stops when the rows hold and the dual
    residual and the gap, both weighted by x, sum to at most 1e-10 (1 + |f|)."""
    A, b, n = prob.A, prob.b, x0.size
    x, y, nu, nfev = np.maximum(x0, 1e-4), np.zeros(b.size), 1.0, 0
    for it in range(_MAX_ITER):
        f, g, hess = fun(x, 2)
        nfev += 1
        z = np.maximum(g, 1e-3) if it == 0 else z
        rp, aty = A @ x - b, A.T @ y
        rd, gap = g + aty - z, x @ z
        if np.all(np.abs(rp) <= 1e-10 * (abs(A) @ x + np.abs(b)) + 1e-15) \
                and np.abs(rd) @ x + gap <= 1e-10 * (1.0 + abs(f)):
            return SimpleNamespace(x=x, nfev=nfev, nit=it, success=True)
        mu = gap / n
        for delta in np.append(0.0, np.logspace(-8, 8, 17)):  # delta I joins the Hessian
            try:
                solve = prob.newton_solver(hess, z / x + delta)
            except RuntimeError:  # the factorization failed
                continue
            dx, _ = solve(-g - aty, -rp)  # predictor: the affine step to mu = 0
            dz = -z - z * dx / x
            mu_aff = (x + _to_boundary(x, dx, 1.0) * dx) @ (z + _to_boundary(z, dz, 1.0) * dz) / n
            target = mu * min(1.0, mu_aff / mu) ** 3 if mu > 0.0 else 0.0
            for corr in ((dx * dz - target) / x, -target / x):  # Mehrotra's, else plain
                dx, dy = solve(-g - aty - corr, -rp)
                dz = -z - corr - z * dx / x
                nu = max(nu, 2.0 * np.abs(y + dy).max(initial=0.0))
                slope = g @ dx - target * np.sum(dx / x) - nu * np.abs(rp).sum()
                if np.isfinite(dz).all() and (slope <= 0.0 or np.all(np.abs(dx) <= 1e-12 * x)):
                    break
            else:
                continue
            break
        else:  # no step descends
            return SimpleNamespace(x=x, nfev=nfev, nit=it, success=False)
        step, dual = _to_boundary(x, dx, 0.995), _to_boundary(z, dz, 0.995)
        merit = f - target * np.log(x).sum() + nu * np.abs(rp).sum()
        for _ in range(30):
            trial = x + step * dx
            nfev += 1
            if fun(trial, 0) - target * np.log(trial).sum() + (1.0 - step) * nu \
                    * np.abs(rp).sum() <= merit + 1e-4 * step * slope + 1e-14 * abs(merit):
                break
            step *= 0.5
        x, y, z = trial, y + step * dy, z + dual * dz
    return SimpleNamespace(x=x, nfev=nfev, nit=_MAX_ITER, success=False)


def _to_boundary(v, dv, tau):
    """The largest step in (0, 1] that keeps v + step * dv >= (1 - tau) v."""
    neg = dv < 0.0
    with np.errstate(over="ignore"):  # a ratio past the float range bounds nothing
        ratio = -v[neg] / dv[neg]
    return min(1.0, tau * float(np.min(ratio, initial=np.inf)))


def _starts(prob, field, gamma, flux):
    """Deterministic starts, built on demand: the informed constant path at
    rho = gamma, then the self-consistent equilibrium.  The informed flux is
    the target flux when one is given, else sqrt(gamma_x Q_xy(gamma) gamma_y
    Q_yx(gamma)), which is symmetric, so the start is exactly feasible."""
    if gamma is not None:
        p = gamma[:, None] * field.evaluate(gamma)
        yield prob.pack(gamma, np.sqrt(np.clip(p * p.T, 0.0, None)) if flux is None else flux)
    try:
        pi = fixed_point_pi_star(field, tol=1e-11, max_iter=400).pi
    except errors.Reducible:
        pi = uniform_simplex(field.d)
    yield prob.pack(pi, pi[:, None] * field.evaluate(pi))


def _violation(rd):
    """The largest residual in units of _TOL or the support count; NaN is unbounded."""
    gaps = [v for name, v in rd.items() if name != "support"]
    return max(max(gaps) / _TOL, rd["support"]) if np.isfinite(gaps).all() else float("inf")


def _minimize(field, opts, gamma=None, flux=None, current=None):
    """Every solve's front door, on the validated targets given: their size
    check, the flux or current gates (infeasible, value +infinity), then the
    best of the starts, each one solve: converged ones (optimal, violation
    <= 1, support count 0) by value, the others by violation."""
    opts = opts or SolveOptions()
    if any(v is not None and v.shape != (field.d,) * n
           for v, n in ((gamma, 1), (flux, 2), (current, 2))):
        raise errors.InvalidInput("dimension mismatch with the field")
    reason = None if flux is None else flux_infeasibility(field.support, flux, gamma)
    if current is not None and np.max(np.abs(current.sum(axis=1))) > BALANCE_TOL:
        reason = "current is not divergence-free"
    elif current is not None and np.any((current > SUPPORT_TOL) & ~field.support):
        reason = "current charges edges off the support"
    if reason is not None:
        return RateResult(float("inf"), None, {}, "infeasible", detail=reason)
    prob = _FluxProblem(field, opts, gamma=gamma, flux=flux, current=current)
    best = None
    starts = islice(_starts(prob, field, gamma, flux), opts.n_starts)
    for si, x in enumerate(starts):
        res = minimize(prob.objective, x, prob)
        value, rd = prob.judge(res.x)
        ok = res.success and _violation(rd) <= 1.0 and rd["support"] == 0
        key = (not ok, value if ok else _violation(rd), si)
        if best is None or key < best[0]:
            best = (key, value, res.x, rd)
        if ok and value <= _EARLY_STOP:
            break
    (failed, _, si), value, x, rd = best
    return RateResult(value, prob.path_from(x), rd, "max_iter" if failed else "converged",
                      best_start=si)


def solve_rate(gamma, flux, field, opts=None):
    """Minimize the control cost at fixed occupation gamma and flux varsigma.

    ldp.flux_infeasibility's gates first, as in dv-rate: an imbalanced flux,
    flux on edges the field cannot charge, or flux out of a state gamma does
    not occupy is infeasible with value +infinity.  A gamma on a face of the
    simplex is solved exactly, with its empty states pinned (see _minimize).
    """
    return _minimize(field, opts, gamma=as_simplex(gamma), flux=as_flux(flux))


def occupation_rate(gamma, field, opts=None):
    """Minimize the control cost at fixed occupation gamma, flux free."""
    return _minimize(field, opts, gamma=as_simplex(gamma))


def as_current(current):
    """Validate a net current: a square antisymmetric matrix, as a float array."""
    current = np.asarray(current, dtype=float)
    if current.ndim != 2 or current.shape != current.T.shape \
            or not np.max(np.abs(current + current.T)) <= 1e-12:
        raise errors.InvalidInput("current must be an antisymmetric square matrix")
    return current


def current_rate(current, field, opts=None):
    """Minimize the control cost over paths whose net flux matches the current.

    The current must be antisymmetric; currents with nonzero divergence, or
    flowing along an edge the field cannot charge, are infeasible (every
    achievable flux is balanced, so its current is divergence-free, and a
    positive current on x -> y needs flux on x -> y).  For two states this
    forces the zero current.
    """
    return _minimize(field, opts, current=as_current(current))


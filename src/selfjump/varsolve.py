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
each cell the weight e^-s_k - e^-s_{k+1} and the tail e^-T_h, M has a
closed form, and each block's cost reads M at the block's left node.

The solver works in flux variables j = rho * H (per edge, j_xy =
rho(x) H(x, y)), and only there.  The block cost is the perspective form
j log(j / p) - j + p with p = rho(x) Q_xy(M), the level-2.5 cost of
Bertini, Faggionato and Gabrielli (AIHP 2015), and every constraint above
is linear: (a) and (d) are weighted sums over blocks, (c) says each block's
j is divergence-free, and the simplex rows of rho are sums.  With rho, j >= 0
as L-BFGS-B bounds, one augmented Lagrangian enforces the linear system,
from at most two deterministic starts.  Every round is judged in the same
variables: the value is the flux cost, and feasibility is the residual of
the linear system, row group by row group.  The winner alone is turned into
a control path (rho, H = j / rho).  A state that gamma leaves empty has its
rho and the flux on its edges bounded to zero, so targets on the faces of
the simplex are the same problem.

For a constant field the cost is jointly convex in (rho, j) and the
minimizer is the constant path rho = gamma, j = varsigma, whose value is the
level-2.5 rate; that identity is the primary cross-check of the solver.
The flux gate both apply, ldp.flux_infeasibility, and SUPPORT_TOL live in ldp.

scipy's optimize and sparse modules are imported inside the functions that
solve, so importing this module (and the CLI) does not load them.  The one
name that forwards to scipy is ``minimize`` (scipy.optimize.minimize); the
solver calls L-BFGS-B only through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import errors
from .core import as_simplex, check_count, uniform_simplex
from .ldp import (BALANCE_TOL, SUPPORT_TOL, as_flux, fixed_point_pi_star,
                  flux_infeasibility)


@dataclass(frozen=True)
class SolveOptions:
    """The control grid and the number of solver starts.

    grid_cells >= 2 equal cells [s_k, s_{k+1}) on [0, grid_horizon], plus a
    tail.  Block weights are the discounted lengths e^-s_k - e^-s_{k+1}, and
    the tail block carries the rest of the discount, e^-grid_horizon;
    together they sum to one.  grid_horizon lies in [1, about 708.4], where
    e^-grid_horizon is a normal float.  n_starts (at most two deterministic
    starts exist) bounds how many starts are tried.  The augmented-Lagrangian
    schedule and the tolerances behind status=converged are fixed module
    constants.  The fields are checked on construction.
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
            # a zero tail weight makes its 1/sqrt(w) scale infinite and the
            # residuals NaN; a subnormal one has already lost precision
            raise errors.InvalidInput(f"horizon {horizon} too large: its tail weight "
                                      "e^-horizon underflows (need about <= 708.4)")
        object.__setattr__(self, "grid_cells", check_count("grid_cells", self.grid_cells, 2))
        object.__setattr__(self, "n_starts", check_count("n_starts", self.n_starts))

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


# -- flux-variable minimization ----------------------------------------------


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


_LOG_GUARD = 1e-300

# Augmented-Lagrangian schedule: initial penalty weight, its growth per
# multiplier round, rounds per start and L-BFGS-B iterations per round.
_PENALTY_INIT = 100.0
_PENALTY_FACTOR = 10.0
_PENALTY_ROUNDS = 6
_INNER_MAXITER = 300
# Bound on every residual but the support count for status=converged.
_TOL = 1e-5
# A feasible start at or below this value ends the search.
_EARLY_STOP = 1e-8


class _FluxProblem:
    """The discretized rate problem in flux variables z = (rho, j).

    Per block c the variables are rho_c (d entries) and the edge flux
    j_c = rho_c * H_c on the field's support edges, all nonnegative.  The
    cost sum_c w_c sum_e [j log(j / p) - j + p] with p = rho_c(x_e) Q_e(M_c)
    is the control cost of the path H = j / rho, and every constraint is
    linear.

    The block cost scales with the weight w_c, so the solver works in
    u_c = sqrt(w_c) z_c, which evens out the curvature across blocks.  In u
    the per-block rows (simplex, divergence-free j_c) have unit coefficients
    and the weighted sums over blocks (marginal, flux, current) have
    sqrt(w_c); ``A`` and ``b`` hold them all: A u = b.  ``judge`` reads
    r = A u - b back in natural units: a per-block row divided by sqrt(w_c)
    is that block's simplex or divergence gap, and a weighted-sum row is
    already the gap of its target.
    """

    def __init__(self, field, opts, mode, gamma=None, flux=None, current=None):
        from scipy import sparse

        d = field.d
        xs, ys = np.nonzero(field.support)
        self.opts, self.d = opts, d
        self.xs, self.ys, self.n_e = xs, ys, xs.size
        self.nb = opts.grid_cells + 1
        self.w = opts.block_weights
        self.es = np.exp(opts.nodes[:-1])
        self.vxy = field.vertices[:, xs, ys]  # (d, n_e)
        self.ox = np.zeros((self.n_e, d))
        self.ox[np.arange(self.n_e), xs] = 1.0
        self.n_rho = self.nb * d
        self.scale = np.concatenate([np.repeat(self.w ** -0.5, d),
                                     np.repeat(self.w ** -0.5, self.n_e)])

        edges = np.arange(self.n_e)
        div = np.zeros((d, self.n_e))  # inflow minus outflow per state
        div[ys, edges] += 1.0
        div[xs, edges] -= 1.0
        root_w = np.sqrt(self.w)[None, :]
        eye = sparse.identity(self.nb)
        rows = [("simplex", sparse.kron(eye, np.ones((1, d))), None, root_w[0]),
                ("stationarity", None, sparse.kron(eye, div), np.zeros(self.nb * d))]
        if gamma is not None:
            rows.append(("marginal", sparse.kron(root_w, np.eye(d)), None, gamma))
        if mode == "rate":
            rows.append(("flux", None, sparse.kron(root_w, np.eye(self.n_e)),
                         flux[xs, ys]))
        elif mode == "current":
            pairs = sorted({(min(x, y), max(x, y)) for x, y in zip(xs, ys)})
            net = np.array([((xs == x) & (ys == y)) * 1.0 - ((xs == y) & (ys == x))
                            for x, y in pairs]).reshape(len(pairs), self.n_e)
            rows.append(("flux", None, sparse.kron(root_w, net),
                         np.array([current[x, y] for x, y in pairs])))
        self.A = sparse.bmat([[a, c] for _, a, c, _ in rows], format="csr")
        self.AT = self.A.T.tocsr()
        self.b = np.concatenate([b for *_, b in rows])
        ends = np.cumsum([b.size for *_, b in rows])
        self.groups = {name: slice(end - b.size, end)
                       for (name, *_, b), end in zip(rows, ends)}
        per_block = self.w ** -0.5
        self.row_scale = np.concatenate([per_block, np.repeat(per_block, d),
                                         np.ones(self.b.size - ends[1])])

    def pack(self, rho, j_full):
        """u for a constant path: rho (d,) and full flux matrix j (d, d) per block."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (self.nb, self.d))
        je = np.broadcast_to(np.asarray(j_full, dtype=float)[self.xs, self.ys],
                             (self.nb, self.n_e))
        return np.concatenate([rho.ravel(), je.ravel()]) / self.scale

    def _unpack(self, z):
        return (z[:self.n_rho].reshape(self.nb, self.d),
                z[self.n_rho:].reshape(self.nb, self.n_e))

    def _rates(self, rho):
        """Q(M) on the support edges, M at each block's left node, and p = rho(x) Q."""
        w, k = self.w, self.nb - 1
        suffix = np.cumsum((w[:, None] * rho)[::-1], axis=0)[::-1]
        mh = np.empty_like(rho)
        mh[:k] = self.es[:, None] * suffix[:k]
        mh[k] = rho[k]
        q = mh @ self.vxy
        return q, rho[:, self.xs] * q

    def cost(self, z):
        """Cost and its gradient in z; the log guard only acts where j or p is 0."""
        rho, j = self._unpack(z)
        w, k = self.w, self.nb - 1
        q, p = self._rates(rho)
        p_safe = np.maximum(p, _LOG_GUARD)
        log_ratio = np.log(np.maximum(j, _LOG_GUARD)) - np.log(p_safe)
        value = float(w @ (j * log_ratio - j + p).sum(axis=1))

        g_j = w[:, None] * log_ratio
        g_p = w[:, None] * (1.0 - j / p_safe)
        g_rho = (g_p * q) @ self.ox
        gm = (g_p * rho[:, self.xs]) @ self.vxy.T
        cums = np.cumsum(self.es[:, None] * gm[:k], axis=0)
        g_rho[:k] += w[:k, None] * cums
        g_rho[k] += w[k] * cums[k - 1] + gm[k]
        return value, np.concatenate([g_rho.ravel(), g_j.ravel()])

    def cost_u(self, u):
        value, grad = self.cost(self.scale * u)
        return value, self.scale * grad

    def lagrangian(self, u, lam, mu):
        """Augmented Lagrangian f + lam.r + mu/2 |r|^2 with r = A u - b."""
        value, grad = self.cost_u(u)
        r = self.A @ u - self.b
        y = lam + mu * r
        return value + float(lam @ r) + 0.5 * mu * float(r @ r), grad + self.AT @ y

    def judge(self, u):
        """Value, residuals and r = A u - b of the candidate u.

        support counts the (block, edge) pairs where j > SUPPORT_TOL charges
        p <= 0; the value is the cost, or +infinity when that count is not 0.
        Every other residual is the largest |row| of its group of r, in
        natural units, and 0 for a group the mode does not have.
        """
        z = self.scale * u
        rho, j = self._unpack(z)
        support = int(np.sum((j > SUPPORT_TOL) & (self._rates(rho)[1] <= 0.0)))
        r = self.A @ u - self.b
        gap = np.abs(r) * self.row_scale
        rd = dict.fromkeys(("marginal", "stationarity", "flux", "simplex"), 0.0)
        rd.update((name, float(gap[rows].max(initial=0.0)))
                  for name, rows in self.groups.items())
        rd["support"] = support
        value = self.cost(z)[0] if support == 0 else float("inf")
        return value, rd, r

    def path_from(self, u):
        rho, j = self._unpack(self.scale * u)
        rx = rho[:, self.xs]
        H = np.zeros((self.nb, self.d, self.d))
        H[:, self.xs, self.ys] = np.where(rx > 0.0, j / np.where(rx > 0.0, rx, 1.0), 0.0)
        diag = np.arange(self.d)
        H[:, diag, diag] = -H.sum(axis=2)
        return ControlPath(self.opts, rho.copy(), H)


def minimize(fun, x0, *args, **kwargs):
    """scipy.optimize.minimize, imported on the first solve.

    _minimize calls L-BFGS-B through this module-level name, so a caller can
    wrap or replace ``varsolve.minimize`` to observe every inner solve.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, *args, **kwargs)


def _starts(prob, field, mode, gamma, flux):
    """Deterministic starts, built on demand: the informed constant path at
    rho = gamma, then the self-consistent equilibrium.

    The informed flux is the target flux in rate mode and otherwise the
    balanced flux j_xy = sqrt(gamma_x Q_xy(gamma) gamma_y Q_yx(gamma)): it is
    symmetric, hence divergence-free, and zero on every edge at an empty
    state, so the informed start is exactly feasible in both modes.
    """
    if gamma is not None:
        if mode == "rate":
            j = flux
        else:
            p = gamma[:, None] * field.evaluate(gamma)
            j = np.sqrt(np.clip(p * p.T, 0.0, None))
        yield prob.pack(gamma, j)
    try:
        pi = fixed_point_pi_star(field, tol=1e-11, max_iter=400).pi
    except errors.Reducible:
        pi = uniform_simplex(field.d)
    yield prob.pack(pi, pi[:, None] * field.evaluate(pi))


def _violation(rd):
    """The largest residual in units of _TOL, or the support count if larger.

    A residual that is not finite (NaN, which Python's max would skip, or
    infinity) is an unbounded violation.
    """
    gaps = [v for name, v in rd.items() if name != "support"]
    if not np.isfinite(gaps).all():
        return float("inf")
    return max(max(gaps) / _TOL, float(rd["support"]))


def _feasible(rd):
    return _violation(rd) <= 1.0 and rd["support"] == 0


def _minimize(field, mode, gamma, flux, current, opts):
    """Best of the starts.

    A state with gamma_x = 0 is pinned: its rho_c(x) and the flux on every
    edge at x get the bounds (0, 0), so an edge from an occupied y into x
    costs exactly its killing term rho_y Q_yx(M).  Faces and vertices of the
    simplex are solved as they stand, by the same path as interior targets.
    In current mode a one-way edge x -> y carries its pair's whole current
    as a weighted sum of nonnegative fluxes, so a zero current there pins
    its flux to zero in every block.  The first multipliers are fitted to
    the start's gradient over the free variables only.
    """
    from scipy.sparse.linalg import lsqr

    prob = _FluxProblem(field, opts, mode, gamma=gamma, flux=flux, current=current)
    xs, ys = prob.xs, prob.ys
    empty = np.zeros(field.d, dtype=bool) if gamma is None else gamma == 0.0
    pinned_edges = empty[xs] | empty[ys]
    if mode == "current":
        pinned_edges |= ~field.support[ys, xs] & (current[xs, ys] <= SUPPORT_TOL)
    pinned = np.concatenate([np.tile(empty, prob.nb), np.tile(pinned_edges, prob.nb)])
    bounds = [(0.0, 0.0) if p else (0.0, None) for p in pinned]
    free = ~pinned
    free_rows = prob.AT[free]

    # Each start ends in one candidate.  Feasible ones are ranked by
    # value + y.r, the first-order cost at the nearest feasible point (y, the
    # next round's multipliers, prices the slack r left in the rows), and
    # infeasible ones by scaled violation.  Multiplier rounds only tighten
    # feasibility, so a start's last round is its most accurate point.  A
    # start whose first inner solve fails before one iteration (the log
    # guard's slope can break the line search) counts as infeasible.
    best = None
    starts = islice(_starts(prob, field, mode, gamma, flux), min(opts.n_starts, 2))
    for si, u in enumerate(starts):
        lam = lsqr(free_rows, -prob.cost_u(u)[1][free], atol=1e-14, btol=1e-14)[0]
        mu = _PENALTY_INIT
        for k in range(_PENALTY_ROUNDS):
            res = minimize(prob.lagrangian, u, args=(lam, mu), jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": _INNER_MAXITER, "maxcor": 25,
                                    "ftol": 1e-14, "gtol": 1e-9})
            if k == 0:
                stuck = res.nit == 0 and not res.success
            u = res.x
            del res  # it holds L-BFGS-B's history; free that before the next solve
            value, rd, r = prob.judge(u)
            y = lam + mu * r
            if _violation(rd) <= 0.01:
                break
            lam = y
            mu *= _PENALTY_FACTOR
        feas = _feasible(rd) and not stuck
        key = (not feas, value + float(y @ r) if feas else _violation(rd), si)
        if best is None or key < best[0]:
            best = (key, si, value, u, rd)
        if feas and value <= _EARLY_STOP:
            break
    key, si, value, u, rd = best
    status = "max_iter" if key[0] else "converged"
    return RateResult(value, prob.path_from(u), rd, status, best_start=si)


def solve_rate(gamma, flux, field, opts=None):
    """Minimize the control cost at fixed occupation gamma and flux varsigma.

    ldp.flux_infeasibility's gates first, as in dv-rate: an imbalanced flux,
    flux on edges the field cannot charge, or flux out of a state gamma does
    not occupy is infeasible with value +infinity.  A gamma on a face of the
    simplex is solved exactly, with its empty states pinned (see _minimize).
    """
    opts = opts or SolveOptions()
    gamma = as_simplex(gamma)
    flux = as_flux(flux)
    if gamma.shape != (field.d,) or flux.shape != (field.d, field.d):
        raise errors.InvalidInput("dimension mismatch with the field")
    reason = flux_infeasibility(field.support, flux, gamma)
    if reason is not None:
        return RateResult(float("inf"), None, {}, "infeasible", detail=reason)
    return _minimize(field, "rate", gamma, flux, None, opts)


def occupation_rate(gamma, field, opts=None):
    """Minimize the control cost at fixed occupation gamma, flux free."""
    opts = opts or SolveOptions()
    gamma = as_simplex(gamma)
    if gamma.shape != (field.d,):
        raise errors.InvalidInput("dimension mismatch with the field")
    return _minimize(field, "occupation", gamma, None, None, opts)


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
    opts = opts or SolveOptions()
    current = as_current(current)
    if current.shape != (field.d, field.d):
        raise errors.InvalidInput("dimension mismatch with the field")
    if np.max(np.abs(current.sum(axis=1))) > BALANCE_TOL:
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="current is not divergence-free")
    if np.any((current > SUPPORT_TOL) & ~field.support):
        return RateResult(float("inf"), None, {}, "infeasible",
                          detail="current charges edges off the support")
    return _minimize(field, "current", None, None, current, opts)


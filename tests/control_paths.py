"""Control paths built for tests, and the control cost in H-space.

The solver works in flux variables (rho, j) only.  The functions here read
a ControlPath (rho, H) directly: the occupation profile M (``m_from_rho``),
the control cost (``jtilde``), the path flux and the constraint residuals.
They share no code with ``varsolve._FluxProblem``, so they check its cost
and residuals independently.  Two further formulas, the evolution identity
of M and the paper's reweighting form of the cost, check these in turn.
"""

import numpy as np

from selfjump import errors, ldp
from selfjump.core import as_simplex
from selfjump.varsolve import SUPPORT_TOL, ControlPath


def ell(x):
    """Poisson cost ell(x) = x log x - x + 1 with ell(0) = 1; scalar or array."""
    from scipy.special import xlogy

    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise errors.InvalidInput(f"ell needs x >= 0, got {x}")
    out = xlogy(arr, arr) - arr + 1.0
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def control_path(grid, rho, H):
    """ControlPath with H's diagonals recomputed from its off-diagonal entries."""
    H = np.array(H, dtype=float)
    for h in H:
        np.fill_diagonal(h, 0.0)
        np.fill_diagonal(h, -h.sum(axis=1))
    return ControlPath(grid, np.array(rho, dtype=float), H)


def constant_path(grid, rho_row, h_full):
    nb = grid.grid_cells + 1
    return control_path(grid, np.tile(np.asarray(rho_row, dtype=float), (nb, 1)),
                        np.tile(np.asarray(h_full, dtype=float), (nb, 1, 1)))


def random_feasible_path(field, grid, seed=0):
    """Random path satisfying stationarity exactly on every block.

    H is lognormal on the support and rho is the stationary distribution of
    each block's H, so the path is feasible for its own read-off
    (gamma, varsigma) = (M(0), path_flux).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    n_blocks = grid.grid_cells + 1
    H = np.zeros((n_blocks, field.d, field.d))
    for h in H:
        h[field.support] = np.exp(0.5 * rng.standard_normal(int(field.support.sum())))
    path = control_path(grid, np.zeros((n_blocks, field.d)), H)
    rho = np.vstack([ldp.stationary_distribution(h) for h in path.H])
    return ControlPath(grid, rho, path.H)


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


def block_rates(field, m_blocks):
    """Rate matrices Q(M) for each block, zero off the field's support."""
    q = np.einsum("cz,zij->cij", m_blocks, field.vertices)
    q = np.clip(q, 0.0, None)
    q[:, ~field.support] = 0.0
    return q


def jtilde(path, field):
    """Discretized control cost of a path under the field.

    Sum over blocks of weight * sum over supported edges of
    rho(x) * scaled_ell(Q_xy(M), H(x, y)), with M at each block's left node.
    Infinite when H charges an edge whose rate vanishes.
    """
    mask = field.support
    off = ~mask & ~np.eye(field.d, dtype=bool)
    if np.any(path.H[:, off] > SUPPORT_TOL):
        return float("inf")
    q = block_rates(field, m_from_rho(path))
    xs, ys = np.nonzero(mask)
    qe = q[:, xs, ys]
    he = path.H[:, xs, ys]
    re = path.rho[:, xs]
    if np.any(he[qe <= 0.0] > 0.0):
        return float("inf")
    terms = np.where(re > 0.0, re * ldp.scaled_ell(qe, np.clip(he, 0.0, None)), 0.0)
    return float(path.grid.block_weights @ terms.sum(axis=1))


def path_flux(path):
    """Discount-weighted edge flux of a path: sum of w * rho(x) * H(x, y)."""
    flux = np.einsum("c,cx,cxy->xy", path.grid.block_weights, path.rho, path.H)
    np.fill_diagonal(flux, 0.0)
    return flux


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
        gap = np.abs(f - ldp.as_flux(flux))
        np.fill_diagonal(gap, 0.0)
        out["flux"] = float(gap.max())
    elif current is not None:
        gap = np.abs((f - f.T) - np.asarray(current, dtype=float))
        np.fill_diagonal(gap, 0.0)
        out["flux"] = float(gap.max())
    else:
        out["flux"] = 0.0
    q = block_rates(field, m)
    off = ~np.eye(field.d, dtype=bool)
    out["support"] = int(np.sum((path.H > SUPPORT_TOL) & (q <= 0.0) & off))
    return out


def m_evolution_defect(path):
    """Max defect of the discrete evolution identity M' = M - rho.

    On each cell the exactly integrated M satisfies
    M(s_{k+1}) - M(s_k) = integral of (M - rho_k) over the cell; this
    returns the largest componentwise violation across cells.
    """
    m = m_from_rho(path)
    delta = np.diff(path.grid.nodes)[:, None]
    decay = np.exp(-delta)
    m_next, rho = m[1:], path.rho[:-1]
    cell_integral = m_next * (1.0 - decay) + rho * (delta - (1.0 - decay))
    defect = m_next - m[:-1] - cell_integral + delta * rho
    return float(np.max(np.abs(defect)))


def reweighting_cost(path, field):
    """The paper's reweighting form of the control cost.

    Sum over blocks of w * rho(x) * Q_xy(M) * ell(v_xy) with the multiplier
    v = H / Q(M) on edges with positive rate; edges with zero rate carry
    no cost.  M is each block's left-node occupation, as in jtilde.
    """
    q = np.clip(np.einsum("cz,zij->cij", m_from_rho(path), field.vertices), 0.0, None)
    q[:, ~field.support] = 0.0
    h = np.clip(path.H, 0.0, None)
    live = q > 0.0
    v = np.where(live, h / np.where(live, q, 1.0), 1.0)
    cost = np.where(live, q * ell(v), 0.0)
    for c in cost:
        np.fill_diagonal(c, 0.0)
    return float(path.grid.block_weights @ np.einsum("cx,cxy->c", path.rho, cost))

"""Control paths built for tests: constant and random stationary paths, and
two independent formulas checked against varsolve.jtilde and m_from_rho."""

import numpy as np

from selfjump import ldp
from selfjump.varsolve import ControlPath, m_from_rho


def control_path(grid, rho, H):
    """ControlPath with H's diagonals recomputed from its off-diagonal entries."""
    H = np.array(H, dtype=float)
    for h in H:
        np.fill_diagonal(h, 0.0)
        np.fill_diagonal(h, -h.sum(axis=1))
    return ControlPath(grid, np.array(rho, dtype=float), H)


def constant_path(grid, rho_row, h_full):
    nb = grid.n_cells + 1
    return control_path(grid, np.tile(np.asarray(rho_row, dtype=float), (nb, 1)),
                        np.tile(np.asarray(h_full, dtype=float), (nb, 1, 1)))


def random_feasible_path(field, grid, seed=0):
    """Random path satisfying stationarity exactly on every block.

    H is lognormal on the support and rho is the stationary distribution of
    each block's H, so the path is feasible for its own read-off
    (gamma, varsigma) = (M(0), path_flux).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    n_blocks = grid.n_cells + 1
    H = np.zeros((n_blocks, field.d, field.d))
    for h in H:
        h[field.support] = np.exp(0.5 * rng.standard_normal(int(field.support.sum())))
    path = control_path(grid, np.zeros((n_blocks, field.d)), H)
    rho = np.vstack([ldp.stationary_distribution(h) for h in path.H])
    return ControlPath(grid, rho, path.H)


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
    cost = np.where(live, q * ldp.ell(v), 0.0)
    for c in cost:
        np.fill_diagonal(c, 0.0)
    return float(path.grid.block_weights @ np.einsum("cx,cxy->c", path.rho, cost))

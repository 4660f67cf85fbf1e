"""An exact oracle for two-state occupation rates on the solver's grid.

At d = 2 stationarity forces j_12 = j_21 in every block, and the cheapest
such flux leaves the block cost c(m, r) = (sqrt(r q_12(m)) -
sqrt((1 - r) q_21(m)))^2, where r and m are the first components of rho and
M.  On the grid M follows the local recursion M_k = (1 - e^-Delta) rho_k +
e^-Delta M_{k+1} with M_K = rho_K, so the discretised rate is a backward
induction on one variable m in [0, 1]:

    V_K(m) = c(m, m),
    V_k(m) = min over r of (1 - e^-Delta) c(m, r) + e^-Delta V_{k+1}(m'),
             m' = (m - (1 - e^-Delta) r) / e^-Delta in [0, 1],

and the rate is V_0(gamma_1).  Here m and m' both run over an even grid of
n points, which picks r; the value converges as the grid refines.
"""

import numpy as np


def block_cost(field, m, r):
    """c(m, r): the cheapest balanced flux of one block at d = 2."""
    q = m[..., None, None] * field.vertices[0] + (1.0 - m[..., None, None]) * field.vertices[1]
    return (np.sqrt(r * q[..., 0, 1]) - np.sqrt((1.0 - r) * q[..., 1, 0])) ** 2


def dp_occupation_rate(field, gamma_1, opts, n):
    """V_0(gamma_1) by backward induction over an n-point grid of m.

    gamma_1 must be a grid point i / (n - 1).  The cost of every (m, m')
    move is built once per distinct cell length.
    """
    m = np.linspace(0.0, 1.0, n)
    value = block_cost(field, m, m)
    moves = {}
    for decay in np.exp(-np.diff(opts.nodes))[::-1]:
        if decay not in moves:
            r = (m[:, None] - decay * m[None, :]) / (1.0 - decay)
            cost = block_cost(field, np.broadcast_to(m[:, None], r.shape), np.clip(r, 0.0, 1.0))
            moves[decay] = np.where((r >= 0.0) & (r <= 1.0), (1.0 - decay) * cost, np.inf)
        value = (moves[decay] + decay * value[None, :]).min(axis=1)
    i = round(gamma_1 * (n - 1))
    assert abs(m[i] - gamma_1) < 1e-12, "gamma_1 is not a grid point"
    return float(value[i])

"""Static large-deviation quantities for occupation measures and fluxes.

The central object is the level-2.5 rate for a constant rate matrix Q0: the
cost of seeing empirical occupation gamma together with empirical edge flux
varsigma is

    sum over edges (x, y) of  scaled_ell(gamma_x * Q0_xy, varsigma^{xy})

whenever varsigma is flux balanced (per-state inflow equals outflow), and
+infinity otherwise.  scaled_ell is the per-edge Poisson cost q * ell(h / q)
with ell(r) = r log r - r + 1.

flux_infeasibility, the one feasibility gate of a target flux (balance,
support, occupation), lives here with its tolerances BALANCE_TOL and
SUPPORT_TOL, and reachability, the graph closure of is_irreducible and of
the solver's cycle test; varsolve's front door imports them.

Also here: stationary distributions of rate matrices, the self-consistent
equilibrium of an occupation-dependent field (pi with pi Q(pi) = 0), its
equilibrium flux, and the closed-form two-state occupation rate.

scaled_ell imports scipy.special's xlogy when called, so sampling commands
that never evaluate a cost do not load scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import errors
from .core import as_simplex, check_count, uniform_simplex, validate_generator

BALANCE_TOL = 1e-10
# flux up to this size on an edge no path can charge counts as zero
SUPPORT_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10


def scaled_ell(q, h):
    """Scaled Poisson cost q * ell(h / q).

    Conventions: 0 * ell(h / 0) = +infinity for h > 0 and 0 for h = 0, the
    limits of the cost as the reference rate vanishes.  Vectorized.
    """
    from scipy.special import xlogy

    qa = np.asarray(q, dtype=float)
    ha = np.asarray(h, dtype=float)
    if np.any(qa < 0) or np.any(ha < 0):
        raise errors.InvalidInput("scaled_ell needs q >= 0 and h >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xlogy(ha, ha) - xlogy(ha, qa) + qa - ha
    scalar = np.isscalar(q) and np.isscalar(h)
    if scalar:
        return float(out)
    return out


def as_flux(flux):
    """Validate a per-edge flux matrix: square, nonnegative off the diagonal.

    Returns a copy with a zeroed diagonal (diagonal entries carry no flux).
    """
    flux = np.asarray(flux, dtype=float)
    if flux.ndim != 2 or flux.shape[0] != flux.shape[1]:
        raise errors.InvalidInput(f"flux must be a square matrix, got shape {flux.shape}")
    off = flux.copy()
    np.fill_diagonal(off, 0.0)
    if not np.all(off >= 0):
        raise errors.InvalidInput("flux entries must be nonnegative")
    return off


def reachability(edges):
    """Reflexive-transitive closure of a boolean (d, d) edge mask: entry
    (x, y) is True when a path of edges, possibly empty, leads from x to y."""
    reach = np.asarray(edges, dtype=bool) | np.eye(len(edges), dtype=bool)
    for _ in range(len(edges).bit_length()):  # squarings double the lengths covered
        reach = reach @ reach
    return reach


def is_irreducible(matrix):
    """Structural irreducibility of a rate matrix: its positive off-diagonal
    entries form a strongly connected graph."""
    return bool(reachability(np.asarray(matrix, dtype=float) > 0).all())


def _irreducible(q):
    """q certified as an irreducible rate matrix, as a float array."""
    q = validate_generator(q)
    if not is_irreducible(q):
        raise errors.Reducible("rate matrix is not irreducible")
    return q


def flux_infeasibility(support, flux, gamma):
    """Why no path realises this edge flux at occupation gamma, or None.

    support is the boolean (d, d) mask of the edges the rates can charge.
    Every path flux is balanced, charges only support edges, and leaves a
    state only at the rate that state is occupied; flux of at most
    SUPPORT_TOL on an edge those rules close counts as zero.
    """
    flux = as_flux(flux)
    if not np.max(np.abs(flux.sum(axis=1) - flux.sum(axis=0))) <= BALANCE_TOL:
        return "flux balance violated"
    if np.any(flux[~np.asarray(support)] > SUPPORT_TOL):
        return "flux charges edges off the support"
    if np.any(flux[np.asarray(gamma) == 0.0] > SUPPORT_TOL):
        return "flux leaves a state with zero occupation"
    return None


def dv_rate(q0, gamma, flux):
    """Level-2.5 rate of (gamma, flux) for the constant rate matrix q0.

    +infinity exactly when flux_infeasibility gives a reason; otherwise the
    cost over the edges where gamma_x q0_xy > 0, and InvalidInput when that
    cost overflows a float.  q0 must be irreducible.
    """
    q0 = _irreducible(q0)
    gamma = as_simplex(gamma)
    flux = as_flux(flux)
    d = q0.shape[0]
    if gamma.shape != (d,) or flux.shape != (d, d):
        raise errors.InvalidInput("dimension mismatch between q0, gamma, flux")
    off = q0.copy()
    np.fill_diagonal(off, 0.0)
    if flux_infeasibility(off > 0, flux, gamma) is not None:
        return float("inf")
    ref = gamma[:, None] * off
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(scaled_ell(ref, np.where(ref > 0, flux, 0.0)).sum())
    if not np.isfinite(value):  # inf, or inf - inf where both log terms overflow
        raise errors.InvalidInput("the rate of this flux overflows a float")
    return value


def stationary_distribution(q):
    """Stationary distribution pi of an irreducible rate matrix: pi q = 0.

    Solved through the augmented linear system (q transposed with one row
    replaced by the normalization row); the residual max |(pi q)_y| must come
    out below 1e-10 and the solution strictly positive.
    """
    q = _irreducible(q)
    d = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(d)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    if np.any(pi <= 0):
        raise errors.Reducible(f"stationary solve produced nonpositive mass: {pi}")
    residual = float(np.max(np.abs(pi @ q)))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise errors.Reducible(f"stationary residual {residual:g} too large")
    return pi / pi.sum()


@dataclass
class FixedPointResult:
    """Self-consistent equilibrium search outcome; pi is the best iterate."""

    pi: np.ndarray
    converged: bool
    iterations: int
    gap: float  # l1 distance between pi and its stationary update
    residual: float  # max |(pi Q(pi))_y|


def check_tol(tol):
    """A fixed-point tolerance as a float, positive and finite."""
    if not 0.0 < tol < np.inf:
        raise errors.InvalidInput(f"tol must be positive and finite, got {tol!r}")
    return float(tol)


def fixed_point_pi_star(field, tol=1e-10, max_iter=500, start=None):
    """Find pi with pi Q(pi) = 0 by damped Picard iteration.

    Iterates m <- stationary_distribution(Q(m)); when successive increments
    reverse direction the update is damped by 0.5.  tol must pass check_tol
    and max_iter check_count.  Non-convergence within max_iter is reported
    through ``converged=False`` on the result, never by raising; Reducible
    propagates.
    """
    tol, max_iter = check_tol(tol), check_count("max_iter", max_iter)
    m = uniform_simplex(field.d) if start is None else as_simplex(start)
    damping = 1.0
    prev_inc = None
    best = None
    for it in range(1, max_iter + 1):
        q_m = field.evaluate(m)
        g = stationary_distribution(q_m)
        gap = float(np.abs(g - m).sum())
        residual = float(np.max(np.abs(m @ q_m)))
        if best is None or gap < best.gap:
            best = FixedPointResult(m.copy(), False, it, gap, residual)
        if gap <= tol and residual <= 10.0 * tol:
            return FixedPointResult(m, True, it, gap, residual)
        inc = g - m
        if prev_inc is not None and float(inc @ prev_inc) < 0.0:
            damping = 0.5
        m = m + damping * inc
        m = np.clip(m, 0.0, None)
        m /= m.sum()
        prev_inc = inc
    return best


def fixed_point_multistart(field, n_starts=1, seed=0, tol=1e-10, max_iter=500):
    """Run the equilibrium search from several starts; distinct limits are kept.

    The first start is uniform and the others are drawn as their runs
    begin, so n_starts = 1 is ``fixed_point_pi_star`` from the uniform
    start.  Returns the list of converged results whose fixed points differ
    by more than 100 * tol in l1; exposes starting-point sensitivity when
    the field admits several self-consistent equilibria.  When no start
    converges, the list holds the best iterate (lowest gap) of all starts,
    with ``converged=False``.  n_starts and seed (at least 0) must pass
    check_count; each run checks tol and max_iter.
    """
    n_starts = check_count("n_starts", n_starts)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    starts = chain([uniform_simplex(field.d)],
                   (rng.dirichlet(np.ones(field.d)) for _ in range(n_starts - 1)))
    found, best = [], None
    for s in starts:
        res = fixed_point_pi_star(field, tol=tol, max_iter=max_iter, start=s)
        if not res.converged:
            if best is None or res.gap < best.gap:
                best = res
        elif all(float(np.abs(res.pi - f.pi).sum()) > 100.0 * tol for f in found):
            found.append(res)
    return found or [best]


def equilibrium_flux(field, pi):
    """Edge flux of the stationary regime at occupation pi.

    Uses the exact stationary law of Q(pi) as the left factor, so the flux
    is balanced to float precision even when pi carries a small fixed-point
    residual.  For the exact fixed point the two factors coincide.
    """
    pi = as_simplex(pi)
    q = field.evaluate(pi)
    sd = stationary_distribution(q)
    flux = sd[:, None] * q
    np.fill_diagonal(flux, 0.0)
    return flux


def dv_occupation_rate_2state(q0, gamma):
    """Closed-form occupation rate for d = 2 constant fields.

    Minimizing the level-2.5 rate over balanced fluxes (a single scalar for
    two states) gives (sqrt(gamma_1 q_12) - sqrt(gamma_2 q_21))^2.
    """
    q0 = _irreducible(q0)
    gamma = as_simplex(gamma)
    if q0.shape != (2, 2) or gamma.shape != (2,):
        raise errors.InvalidInput(
            f"defined for d = 2 only, got shapes {q0.shape} and {gamma.shape}")
    a = gamma[0] * q0[0, 1]
    b = gamma[1] * q0[1, 0]
    return float((np.sqrt(a) - np.sqrt(b)) ** 2)

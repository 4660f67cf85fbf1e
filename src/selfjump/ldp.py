"""Static large-deviation quantities for occupation measures and fluxes.

The central object is the level-2.5 rate for a constant rate matrix Q0: the
cost of seeing empirical occupation gamma together with empirical edge flux
varsigma is

    sum over edges (x, y) of  scaled_ell(gamma_x * Q0_xy, varsigma^{xy})

whenever varsigma is flux balanced (per-state inflow equals outflow), and
+infinity otherwise.  scaled_ell is the per-edge Poisson cost q * ell(h / q)
with ell(r) = r log r - r + 1.

Also here: stationary distributions of rate matrices, the self-consistent
equilibrium of an occupation-dependent field (pi with pi Q(pi) = 0), its
equilibrium flux, and the closed-form two-state occupation rate.

scaled_ell imports scipy.special's xlogy when called, so sampling commands
that never evaluate a cost do not load scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .core import as_simplex, uniform_simplex, validate_generator

BALANCE_TOL = 1e-10
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
        raise errors.NegativeInput("scaled_ell needs q >= 0 and h >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xlogy(ha, ha) - xlogy(ha, qa) + qa - ha
    scalar = np.isscalar(q) and np.isscalar(h)
    if scalar:
        return float(out)
    return out


def flux_balanced(flux, tol=BALANCE_TOL):
    """True when per-state outflow matches inflow within tol."""
    flux = as_flux(flux)
    gap = flux.sum(axis=1) - flux.sum(axis=0)
    return bool(np.max(np.abs(gap)) <= tol)


def as_flux(flux):
    """Validate a per-edge flux matrix: square, nonnegative off the diagonal.

    Returns a copy with a zeroed diagonal (diagonal entries carry no flux).
    """
    flux = np.asarray(flux, dtype=float)
    if flux.ndim != 2 or flux.shape[0] != flux.shape[1]:
        raise ValueError(f"flux must be a square matrix, got shape {flux.shape}")
    off = flux.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise errors.NegativeInput("flux entries must be nonnegative")
    return off


def is_irreducible(matrix):
    """Structural irreducibility of a rate matrix: its positive off-diagonal
    entries form a strongly connected graph."""
    reach = np.asarray(matrix, dtype=float) > 0
    np.fill_diagonal(reach, False)
    d = reach.shape[0]
    closure = reach | np.eye(d, dtype=bool)
    for _ in range(d):  # boolean closure; d squarings are more than enough
        nxt = closure @ closure
        if np.array_equal(nxt, closure):
            break
        closure = nxt
    return bool(closure.all())


def dv_rate(q0, gamma, flux, balance_tol=BALANCE_TOL):
    """Level-2.5 rate of (gamma, flux) for the constant rate matrix q0.

    Returns +infinity when the flux is imbalanced or charges an edge where
    q0 vanishes.  q0 must be irreducible.
    """
    q0 = validate_generator(q0)
    if not is_irreducible(q0):
        raise errors.Reducible("q0 is not irreducible")
    gamma = as_simplex(gamma)
    flux = as_flux(flux)
    d = q0.shape[0]
    if gamma.size != d or flux.shape != (d, d):
        raise ValueError("dimension mismatch between q0, gamma, flux")
    if not flux_balanced(flux, balance_tol):
        return float("inf")
    off = q0.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(flux[off == 0] > 0):
        return float("inf")
    ref = gamma[:, None] * off
    terms = scaled_ell(ref, flux)
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum())


def stationary_distribution(q):
    """Stationary distribution pi of an irreducible rate matrix: pi q = 0.

    Solved through the augmented linear system (q transposed with one row
    replaced by the normalization row); the residual max |(pi q)_y| must come
    out below 1e-10 and the solution strictly positive.
    """
    q = validate_generator(q)
    if not is_irreducible(q):
        raise errors.Reducible("rate matrix is not irreducible")
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


def fixed_point_pi_star(field, tol=1e-10, max_iter=500, start=None):
    """Find pi with pi Q(pi) = 0 by damped Picard iteration.

    Iterates m <- stationary_distribution(Q(m)); when successive increments
    reverse direction the update is damped by 0.5.  Non-convergence within
    max_iter is reported through ``converged=False`` on the result, never by
    raising; Reducible propagates.
    """
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


def fixed_point_multistart(field, n_starts=8, seed=0, tol=1e-10, max_iter=500):
    """Run the equilibrium search from several starts; distinct limits are kept.

    Returns the list of converged results whose fixed points differ by more
    than 100 * tol in l1; exposes starting-point sensitivity when the field
    admits several self-consistent equilibria.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    starts = [uniform_simplex(field.d)]
    starts += [rng.dirichlet(np.ones(field.d)) for _ in range(n_starts - 1)]
    found = []
    for s in starts:
        res = fixed_point_pi_star(field, tol=tol, max_iter=max_iter, start=s)
        if not res.converged:
            continue
        if all(float(np.abs(res.pi - f.pi).sum()) > 100.0 * tol for f in found):
            found.append(res)
    return found


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
    q0 = validate_generator(q0)
    if q0.shape != (2, 2):
        raise errors.WrongDimension(f"defined for d = 2 only, got shape {q0.shape}")
    if not is_irreducible(q0):
        raise errors.Reducible("q0 is not irreducible")
    gamma = as_simplex(gamma)
    a = gamma[0] * q0[0, 1]
    b = gamma[1] * q0[1, 0]
    return float((np.sqrt(a) - np.sqrt(b)) ** 2)

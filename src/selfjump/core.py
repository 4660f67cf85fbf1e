"""State space, probability vectors, rate matrices, and rate-field families.

States carry labels 1..d in every record and file format.  Probability
vectors and rate matrices are plain numpy arrays whose index i corresponds
to the label i+1; that boundary is the only place the two conventions meet.

A rate field maps an occupation measure gamma (a point in the probability
simplex) to a d x d rate matrix Q(gamma).  Every family is affine in gamma
and is stored through its vertex matrices Q(delta_x), so affine
structure (exact rate bounds, exact interpolation between anchors) is
available to the simulator and the variational solver.
"""

from __future__ import annotations

import numpy as np

from . import errors

SIMPLEX_TOL = 1e-12
GENERATOR_TOL = 1e-12

# each family's RateField classmethod and its parameters, in call order; the
# run file's field section names the same keys
FAMILIES = {
    "constant": ("q0",),
    "affine": ("vertices",),
    "autochemotaxis": ("q0", "strength"),
    "congestion": ("q0", "alpha", "beta"),
    "catalytic": ("generators",),
}


def edge_pairs(d):
    """Directed edges (i, j), i != j, 0-based, in row-major order.

    This ordering is the canonical one used by every per-edge file column.
    """
    return [(i, j) for i in range(d) for j in range(d) if i != j]


def as_simplex(w):
    """Validate w as a probability vector, or each row of a stack of them
    (last axis); returns it as a float array.

    Components must be nonnegative and sum to 1 within SIMPLEX_TOL, which
    NaN fails.  An error names the first bad row.  Callers that need
    exactly one vector check the shape themselves.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.shape[-1] < 2:
        raise errors.InvalidInput(f"expected a 1-d vector with d >= 2, got shape {w.shape}")
    rows = w.reshape(-1, w.shape[-1])
    sums = rows.sum(axis=1)
    bad = (rows < 0).any(axis=1) | ~(np.abs(sums - 1.0) <= SIMPLEX_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        where = "probability vector" if w.ndim == 1 else f"row {i + 1}"
        if np.any(rows[i] < 0):
            raise errors.InvalidInput(f"negative component in {where}: {rows[i]}")
        where = "components sum" if w.ndim == 1 else where + " sums"
        raise errors.InvalidInput(
            f"{where} to {float(sums[i])!r}, not 1 within {SIMPLEX_TOL:g}")
    return w


def is_integer(value):
    """Whether value is a Python or numpy int; a bool or a float never is."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name, value, low=1):
    """An integer such as n_paths, n_starts or max_iter as an int, at least low."""
    if not is_integer(value):
        raise errors.InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise errors.InvalidInput(f"{name} must be >= {low}, got {value}")
    return int(value)


def uniform_simplex(d):
    return np.full(d, 1.0 / d)


def validate_generator(m):
    """Certify m as a rate matrix: finite, off-diagonals >= 0, rows sum to zero.

    Both hold within GENERATOR_TOL.  Returns the matrix as a float array,
    with off-diagonal entries in [-GENERATOR_TOL, 0) set to 0; raises
    InvalidInput otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise errors.InvalidInput(
            f"expected a square matrix with d >= 2, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise errors.InvalidInput(f"entry ({i + 1},{j + 1}) = {m[i, j]} is not finite")
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -GENERATOR_TOL):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise errors.InvalidInput(
            f"entry ({i + 1},{j + 1}) = {m[i, j]!r} is negative"
        )
    rows = m.sum(axis=1)
    if np.any(np.abs(rows) > GENERATOR_TOL):
        i = int(np.argmax(np.abs(rows)))
        raise errors.InvalidInput(f"row {i + 1} sums to {rows[i]!r}, not 0")
    return np.where(off < 0.0, 0.0, m)


class RateField:
    """Occupation-dependent rate field gamma -> Q(gamma).

    Given by its vertex matrices ``vertices[z] = Q(delta_{z+1})``, each
    stored as ``validate_generator`` returns it, so its off-diagonal
    entries are >= 0; the family classmethods below build them.
    ``support`` is the set of edges some vertex charges; rates vanish
    identically off it.  ``rate_upper``, the largest vertex rate, bounds
    every rate over the simplex and ``rate_lower_coeff`` k satisfies
    Q_xy(gamma) >= k * min_z gamma(z) on the support.  The vertices and
    (d - 1) * rate_upper, thinning's candidate rate, must be finite.
    """

    def __init__(self, family, vertices):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 3 or vertices.shape[0] != vertices.shape[1] or \
                vertices.shape[1] != vertices.shape[2]:
            raise errors.InvalidInput(
                f"expected d matrices of shape (d, d), got {vertices.shape}")
        vertices = np.array([validate_generator(q) for q in vertices])
        support = np.any(vertices > 0.0, axis=0)
        np.fill_diagonal(support, False)
        self.family = family
        self.d = vertices.shape[0]
        self.vertices = vertices
        self.support = support  # boolean (d, d) mask, False on the diagonal
        self.rate_upper = float(np.max(vertices[:, support], initial=0.0))
        if not np.isfinite((self.d - 1) * self.rate_upper):
            raise errors.InvalidInput(f"(d - 1) * rate_upper overflows at rate_upper = "
                                      f"{self.rate_upper!r}, d = {self.d}")
        self.rate_lower_coeff = \
            float(vertices.sum(axis=0)[support].min()) if support.any() else 0.0

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, q0):
        """Occupation-independent field Q(gamma) = Q0."""
        q0 = validate_generator(q0)
        d = q0.shape[0]
        return cls("constant", np.repeat(q0[None, :, :], d, axis=0))

    @classmethod
    def affine(cls, vertices):
        """Generic affine field given its vertex matrices Q(delta_x), x = 1..d."""
        return cls("affine", vertices)

    @classmethod
    def autochemotaxis(cls, q0, strength):
        """Attraction to visited states: Q_ij(gamma) = Q0_ij * (gamma(j) * strength + 1)."""
        q0 = validate_generator(q0)
        if strength < 0:
            raise errors.InvalidInput(f"strength must be >= 0, got {strength}")
        d = q0.shape[0]
        vertices = np.empty((d, d, d))
        for z in range(d):
            q = q0.copy()
            q[:, z] *= strength + 1.0
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            vertices[z] = q
        return cls("autochemotaxis", vertices)

    @classmethod
    def congestion(cls, q0, alpha, beta):
        """Crowding slowdown: Q_ij(gamma) = (1 - alpha_i gamma(i) - beta_j gamma(j)) Q0_ij.

        Requires alpha_i + beta_j < 1 on the support so rates stay positive
        everywhere on the simplex.
        """
        q0 = validate_generator(q0)
        d = q0.shape[0]
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.shape != (d,) or beta.shape != (d,):
            raise errors.InvalidInput("alpha and beta must be length-d vectors")
        if np.any(alpha < 0) or np.any(beta < 0):
            raise errors.InvalidInput("alpha and beta must be nonnegative")
        off = q0.copy()
        np.fill_diagonal(off, 0.0)
        live = off > 0
        margin = 1.0 - (alpha[:, None] + beta[None, :])
        if np.any(margin[live] <= 0):
            i, j = np.argwhere(live & (margin <= 0))[0]
            raise errors.InvalidInput(
                f"alpha[{i + 1}] + beta[{j + 1}] >= 1 leaves no positive margin on edge "
                f"({i + 1},{j + 1})"
            )
        vertices = np.empty((d, d, d))
        for z in range(d):
            scale = np.ones((d, d))
            scale[z, :] -= alpha[z]
            scale[:, z] -= beta[z]
            q = off * scale
            np.fill_diagonal(q, -q.sum(axis=1))
            vertices[z] = q
        return cls("congestion", vertices)

    @classmethod
    def catalytic(cls, generators):
        """Mixture of generators Q(gamma) = sum_k gamma(k) * Q^(k); diagonals are rebuilt."""
        vertices = np.array(generators, dtype=float)  # a copy: diagonals are rewritten
        if vertices.ndim == 3 and vertices.shape[1] == vertices.shape[2]:
            for q in vertices:
                np.fill_diagonal(q, 0.0)
                np.fill_diagonal(q, -q.sum(axis=1))
        return cls("catalytic", vertices)  # which checks the shape and the signs

    # -- evaluation --------------------------------------------------------

    def evaluate(self, gamma):
        """Rate matrix Q(gamma); gamma must lie on the simplex.

        Q(gamma) mixes the validated vertices, whose off-diagonal entries
        are >= 0, with weights gamma >= 0, so its off-diagonal entries are
        >= 0 and vanish off the support; the diagonal is rebuilt from them.
        """
        gamma = as_simplex(gamma)
        if gamma.shape != (self.d,):
            raise errors.InvalidInput(
                f"gamma has shape {gamma.shape}, field has d={self.d}")
        q = np.einsum("z,zij->ij", gamma, self.vertices)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def __repr__(self):
        return (f"RateField(family={self.family!r}, d={self.d}, "
                f"rate_upper={self.rate_upper:g})")

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


def as_simplex(w, tol=SIMPLEX_TOL):
    """Validate w as a probability vector; returns it as a float array.

    Components must be nonnegative and sum to 1 within ``tol``.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError(f"expected a 1-d vector with d >= 2, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError(f"negative component in probability vector: {w}")
    s = float(w.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"components sum to {s!r}, not 1 within {tol:g}")
    return w


def uniform_simplex(d):
    return np.full(d, 1.0 / d)


def validate_generator(m, tol=GENERATOR_TOL):
    """Certify m as a rate matrix: off-diagonals >= 0, rows sum to zero.

    Returns the matrix as a float array; raises NegativeOffDiagonal or
    RowSumNonzero otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"expected a square matrix with d >= 2, got shape {m.shape}")
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -tol):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise errors.NegativeOffDiagonal(
            f"entry ({i + 1},{j + 1}) = {m[i, j]!r} is negative"
        )
    rows = m.sum(axis=1)
    bad = np.abs(rows) > tol
    if np.any(bad):
        i = int(np.argmax(np.abs(rows)))
        raise errors.RowSumNonzero(f"row {i + 1} sums to {rows[i]!r}, not 0")
    return m


class RateField:
    """Occupation-dependent rate field gamma -> Q(gamma).

    Given by its vertex matrices ``vertices[z] = Q(delta_{z+1})``, each
    validated as a rate matrix; the family classmethods below build them.
    ``support`` is the set of edges some vertex charges; rates vanish
    identically off it.  ``rate_upper``, the largest vertex rate, bounds
    every rate over the simplex and ``rate_lower_coeff`` k satisfies
    Q_xy(gamma) >= k * min_z gamma(z) on the support.
    """

    def __init__(self, family, vertices):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 3 or vertices.shape[0] != vertices.shape[1] or \
                vertices.shape[1] != vertices.shape[2]:
            raise ValueError(f"expected d matrices of shape (d, d), got {vertices.shape}")
        for q in vertices:
            validate_generator(q)
        support = np.any(vertices > 0.0, axis=0)
        np.fill_diagonal(support, False)
        self.family = family
        self.d = vertices.shape[0]
        self.vertices = vertices
        self.support = support  # boolean (d, d) mask, False on the diagonal
        if support.any():
            self.rate_upper = float(np.max(vertices[:, support]))
            self.rate_lower_coeff = float(vertices.sum(axis=0)[support].min())
        else:
            self.rate_upper = 0.0
            self.rate_lower_coeff = 0.0

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
            raise ValueError(f"strength must be >= 0, got {strength}")
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
            raise ValueError("alpha and beta must be length-d vectors")
        if np.any(alpha < 0) or np.any(beta < 0):
            raise ValueError("alpha and beta must be nonnegative")
        off = q0.copy()
        np.fill_diagonal(off, 0.0)
        live = off > 0
        margin = 1.0 - (alpha[:, None] + beta[None, :])
        if np.any(margin[live] <= 0):
            i, j = np.argwhere(live & (margin <= 0))[0]
            raise errors.NegativeRate(
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
        if vertices.ndim != 3 or vertices.shape[0] != vertices.shape[1] or \
                vertices.shape[1] != vertices.shape[2]:
            raise ValueError(f"expected d generator matrices of shape (d, d), "
                             f"got {vertices.shape}")
        for z, q in enumerate(vertices):
            np.fill_diagonal(q, 0.0)
            if np.any(q < 0):
                raise errors.NegativeOffDiagonal(f"generator {z + 1} has a negative rate")
            np.fill_diagonal(q, -q.sum(axis=1))
        return cls("catalytic", vertices)

    # -- evaluation --------------------------------------------------------

    def support_edges(self):
        """Support as 0-based (i, j) pairs in canonical edge order."""
        return [(i, j) for i, j in edge_pairs(self.d) if self.support[i, j]]

    def evaluate(self, gamma):
        """Rate matrix Q(gamma); gamma must lie on the simplex.

        Q(gamma) mixes validated vertices with weights gamma, so up to
        rounding its off-diagonal entries lie in [-GENERATOR_TOL, rate_upper]
        and are <= 0 off the support; clipped at 0, they give a rate matrix
        that vanishes off the support.
        """
        gamma = as_simplex(gamma)
        if gamma.size != self.d:
            raise ValueError(f"gamma has dimension {gamma.size}, field has d={self.d}")
        q = np.einsum("z,zij->ij", gamma, self.vertices)
        np.fill_diagonal(q, 0.0)
        off = np.clip(q, 0.0, None)
        off[~self.support] = 0.0
        np.fill_diagonal(off, -off.sum(axis=1))
        return off

    def __repr__(self):
        return (f"RateField(family={self.family!r}, d={self.d}, "
                f"rate_upper={self.rate_upper:g})")

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

from dataclasses import dataclass

import numpy as np

from . import errors

SIMPLEX_TOL = 1e-12
GENERATOR_TOL = 1e-12

FAMILIES = ("constant", "affine", "autochemotaxis", "congestion", "catalytic")


def edge_pairs(d):
    """Directed edges (i, j), i != j, 0-based, in row-major order.

    This ordering is the canonical one used by every per-edge file column.
    """
    return [(i, j) for i in range(d) for j in range(d) if i != j]


@dataclass(frozen=True)
class StateSpace:
    """Finite state space {1, .., d} with its full directed edge set."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"need at least two states, got d={self.d}")

    @property
    def n_edges(self):
        return self.d * (self.d - 1)

    @property
    def edges(self):
        return edge_pairs(self.d)

    def edge_labels(self):
        """Edges as 1-based (from, to) label pairs, canonical order."""
        return [(i + 1, j + 1) for i, j in edge_pairs(self.d)]


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


def renormalize_simplex(w, slack=1e-9):
    """Repair a vector that is within ``slack`` of the simplex.

    Components at least -slack are clipped to zero and the result is divided
    by its sum.  Inputs further away are rejected.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < -slack):
        raise ValueError(f"component below -{slack:g}: {w}")
    s = float(w.sum())
    if abs(s - 1.0) > slack:
        raise ValueError(f"components sum to {s!r}, not 1 within {slack:g}")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def uniform_simplex(d):
    return np.full(d, 1.0 / d)


def dirac(d, label):
    """Point mass at the state with the given 1-based label."""
    if not 1 <= label <= d:
        raise errors.InvalidState(f"state label {label} outside 1..{d}")
    w = np.zeros(d)
    w[label - 1] = 1.0
    return w


def l1_distance(g1, g2):
    """l1 distance between two probability vectors (at most 2)."""
    g1 = as_simplex(g1)
    g2 = as_simplex(g2)
    if g1.size != g2.size:
        raise ValueError("dimension mismatch")
    return float(np.abs(g1 - g2).sum())


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


def _support_from_vertices(vertices, tol=0.0):
    # an edge is structurally live when some vertex matrix charges it
    mask = np.any(vertices > tol, axis=0)
    np.fill_diagonal(mask, False)
    return mask


def _mask_from_edges(d, edges):
    mask = np.zeros((d, d), dtype=bool)
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= d and 1 <= j <= d) or i == j:
            raise ValueError(f"bad edge label pair ({i},{j}) for d={d}")
        mask[i - 1, j - 1] = True
    return mask


class RateField:
    """Occupation-dependent rate field gamma -> Q(gamma).

    Built through the family classmethods below.  ``support`` is the set of
    edges on which rates may be positive; rates vanish identically off it.
    ``rate_upper`` bounds every rate over the whole simplex and ``rate_lower_coeff``
    k satisfies Q_xy(gamma) >= k * min_z gamma(z) on the support.
    """

    def __init__(self, family, d, vertices, support, rate_upper, rate_lower_coeff,
                 params):
        self.family = family
        self.d = int(d)
        self.vertices = vertices  # (d, d, d) array, vertices[z] = Q(delta_{z+1})
        self.support = support  # boolean (d, d) mask, False on the diagonal
        self.rate_upper = float(rate_upper)
        self.rate_lower_coeff = rate_lower_coeff
        self.params = params

    # -- construction -----------------------------------------------------

    @staticmethod
    def _finish_affine(family, vertices, support, params):
        d = vertices.shape[0]
        for z in range(d):
            validate_generator(vertices[z])
        derived = _support_from_vertices(vertices)
        if support is None:
            mask = derived
        else:
            mask = support if isinstance(support, np.ndarray) else _mask_from_edges(d, support)
            extra = derived & ~mask
            if np.any(extra):
                i, j = np.argwhere(extra)[0]
                raise errors.SupportMismatch(
                    f"field produces a positive rate on undeclared edge ({i + 1},{j + 1})"
                )
            dead = mask & ~derived
            if np.any(dead):
                i, j = np.argwhere(dead)[0]
                raise errors.SupportMismatch(
                    f"declared edge ({i + 1},{j + 1}) carries no rate at any vertex"
                )
        if not mask.any():
            k_lower = 0.0
            c_upper = 0.0
        else:
            vertex_sums = vertices.sum(axis=0)
            k_lower = float(vertex_sums[mask].min())
            c_upper = float(np.max(vertices[:, mask]))
        return RateField(family, d, vertices, mask, c_upper, k_lower, params)

    @classmethod
    def constant(cls, q0, support=None):
        """Occupation-independent field Q(gamma) = Q0."""
        q0 = validate_generator(q0)
        d = q0.shape[0]
        vertices = np.repeat(q0[None, :, :], d, axis=0)
        return cls._finish_affine("constant", vertices, support,
                                  {"q0": q0.tolist()})

    @classmethod
    def affine(cls, vertices, support=None):
        """Generic affine field given its vertex matrices Q(delta_x), x = 1..d."""
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 3 or vertices.shape[0] != vertices.shape[1] or \
                vertices.shape[1] != vertices.shape[2]:
            raise ValueError(f"expected d matrices of shape (d, d), got {vertices.shape}")
        return cls._finish_affine("affine", vertices, support,
                                  {"vertices": vertices.tolist()})

    @classmethod
    def autochemotaxis(cls, q0, strength, support=None):
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
        fld = cls._finish_affine("autochemotaxis", vertices, support,
                                 {"q0": q0.tolist(), "strength": float(strength)})
        # closed form for the bound: the attraction is maximal at delta_target
        off = q0.copy()
        np.fill_diagonal(off, 0.0)
        fld.rate_upper = float(off.max() * (strength + 1.0))
        return fld

    @classmethod
    def congestion(cls, q0, alpha, beta, support=None):
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
        return cls._finish_affine("congestion", vertices, support,
                                  {"q0": q0.tolist(), "alpha": alpha.tolist(),
                                   "beta": beta.tolist()})

    @classmethod
    def catalytic(cls, channels, support=None):
        """Mixture of channel matrices: Q(gamma) = sum_k gamma(k) * Q^(k)."""
        channels = np.asarray(channels, dtype=float)
        if channels.ndim != 3 or channels.shape[0] != channels.shape[1] or \
                channels.shape[1] != channels.shape[2]:
            raise ValueError(f"expected d channel matrices of shape (d, d), got {channels.shape}")
        d = channels.shape[0]
        vertices = np.empty((d, d, d))
        for z in range(d):
            q = channels[z].copy()
            np.fill_diagonal(q, 0.0)
            if np.any(q < 0):
                raise errors.NegativeOffDiagonal(f"channel {z + 1} has a negative rate")
            np.fill_diagonal(q, -q.sum(axis=1))
            vertices[z] = q
        return cls._finish_affine("catalytic", vertices, support,
                                  {"channels": channels.tolist()})

    # -- evaluation --------------------------------------------------------

    def support_edges(self):
        """Support as 0-based (i, j) pairs in canonical edge order."""
        return [(i, j) for i, j in edge_pairs(self.d) if self.support[i, j]]

    def evaluate(self, gamma):
        """Rate matrix Q(gamma); gamma must lie on the simplex.

        The result is a valid rate matrix with zeros off the support and
        off-diagonal entries in [0, rate_upper].
        """
        gamma = as_simplex(gamma)
        if gamma.size != self.d:
            raise ValueError(f"gamma has dimension {gamma.size}, field has d={self.d}")
        q = np.einsum("z,zij->ij", gamma, self.vertices)
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < -GENERATOR_TOL):
            i, j = np.unravel_index(np.argmin(off), off.shape)
            raise errors.NegativeRate(
                f"rate ({i + 1},{j + 1}) = {off[i, j]!r} at gamma={gamma.tolist()}"
            )
        off = np.clip(off, 0.0, None)
        if np.any(off[~self.support] > GENERATOR_TOL):
            i, j = np.argwhere((off > GENERATOR_TOL) & ~self.support)[0]
            raise errors.SupportMismatch(
                f"rate ({i + 1},{j + 1}) = {off[i, j]!r} off the declared support"
            )
        off[~self.support] = 0.0
        if np.any(off > self.rate_upper * (1.0 + 1e-12) + 1e-300):
            i, j = np.unravel_index(np.argmax(off), off.shape)
            raise errors.RateBoundExceeded(
                f"rate ({i + 1},{j + 1}) = {off[i, j]!r} exceeds declared bound "
                f"{self.rate_upper!r}"
            )
        np.fill_diagonal(off, -off.sum(axis=1))
        return off

    def __repr__(self):
        return (f"RateField(family={self.family!r}, d={self.d}, "
                f"rate_upper={self.rate_upper:g})")

"""Reference samplers the tests check ``sim.simulate_thinning`` against.

``simulate_thinning`` runs its accept loop in a kernel generated per state
count.  ``ReferenceThinning`` does the same float operations without code
generation: the anchor is a list, zero anchor entries are skipped, and
each row sum starts at 0.0.  Skipping a term drops a +-0.0 summand and
starting at 0.0 can change only the sign of a zero, which no acceptance
test reads, so both must give bit-identical paths.

``simulate_exact_affine`` is the independent oracle for thinning's law.
It draws no candidates: it uses the closed form of the exit hazard between
jumps, rate_at_dirac + (s / t) * (rate_at_anchor - rate_at_dirac), whose
integral is inverted to machine precision.  Every field is affine in the
occupation measure, so it works for any field.
"""

import math

import numpy as np

from selfjump import sim


class ReferenceThinning:
    """State of one thinning path between candidates: anchor, row, state."""

    def __init__(self, field, x0):
        d = field.d
        self.x = x0 - 1
        self.s_anchor = 0.0
        self.anchor = [0.0] * d
        self.anchor[self.x] = 1.0
        self.vlist = field.vertices.tolist()
        self.row_anchor = self.vlist[self.x][self.x][:]
        self.row_dirac = self.vlist[self.x][self.x]
        self.dest = [[k if k < y else k + 1 for k in range(d - 1)] for y in range(d)]
        self.times, self.dsts = [], []

    def bound(self, t, k):
        """(destination, acceptance bound Q_xj(L_t-)) of candidate pick k at t."""
        j = self.dest[self.x][k]
        a = self.s_anchor / t
        return j, a * self.row_anchor[j] + (1.0 - a) * self.row_dirac[j]

    def jump(self, t, j):
        a = self.s_anchor / t
        b = 1.0 - a
        states = range(len(self.anchor))
        for z in states:
            self.anchor[z] *= a
        self.anchor[self.x] += b
        self.s_anchor = t
        self.times.append(t)
        self.dsts.append(j)
        self.x = x = j
        arow = [0.0] * len(self.anchor)
        for z in states:
            az = self.anchor[z]
            if az != 0.0:
                vz = self.vlist[z][x]
                for jj in states:
                    arow[jj] += az * vz[jj]
        self.row_anchor = arow
        self.row_dirac = self.vlist[x][x]


def simulate_thinning_reference(field, x0, horizon, seed, path_index=0):
    """(times, targets, candidates) of ``sim.simulate_thinning``'s path.

    Candidates come from the same ``sim._candidates`` stream.
    """
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    path = ReferenceThinning(field, x0)
    n_cand = 0
    if lam > 0.0:
        for cand, thresholds, picks in sim._candidates(
                sim.path_stream(seed, path_index), d - 1, lam, c, float(horizon)):
            n_cand += len(cand)
            for t, uc, k in zip(cand, thresholds, picks):
                j, q = path.bound(t, k)
                if uc <= q:
                    path.jump(t, j)
    return (np.asarray(path.times, dtype=float),
            np.asarray(path.dsts, dtype=np.int64) + 1, n_cand)


_NEWTON_MAX = 64
_ROOT_TOL = 1e-12


def _rate_rows(field, measure, x_idx):
    """Rows Q(measure)[x, :] and Q(delta_x)[x, :] as plain lists."""
    v = field.vertices
    row_anchor = (measure @ v[:, x_idx, :]).tolist()
    row_dirac = v[x_idx, x_idx, :].tolist()
    row_anchor[x_idx] = 0.0
    row_dirac[x_idx] = 0.0
    return row_anchor, row_dirac


def _integrated_hazard(b, a, s, t):
    # integral over (s, t] of b + (s/tau)(a - b) dtau
    if s == 0.0:
        return b * t
    return b * (t - s) + s * (a - b) * math.log(t / s)


def _invert_hazard(a, b, s, target, horizon):
    """Smallest t in (s, horizon] with integrated hazard = target, else None.

    a is the exit rate at the anchor measure, b at the current-state point
    mass; the hazard b + (s/t)(a - b) is nonnegative and its integral is
    strictly increasing wherever positive.  Newton from the constant-rate
    guess, safeguarded by bisection after 64 iterations.
    """
    if _integrated_hazard(b, a, s, horizon) < target:
        return None
    if s == 0.0:
        return target / b  # b > 0 here, else the horizon test failed
    if b == 0.0:
        return s * math.exp(target / (s * a))
    lo, hi = s, horizon
    t = min(max(s + target / max(a, b), lo), hi)
    for _ in range(_NEWTON_MAX):
        g = _integrated_hazard(b, a, s, t) - target
        if g > 0.0:
            hi = t
        else:
            lo = t
        lam = b + (s / t) * (a - b)
        if lam > 0.0:
            step = g / lam
            t_new = t - step
            if abs(step) <= _ROOT_TOL * max(1.0, t):
                return t_new
        else:
            t_new = 0.5 * (lo + hi)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    while hi - lo > _ROOT_TOL * max(1.0, hi):
        t = 0.5 * (lo + hi)
        if _integrated_hazard(b, a, s, t) >= target:
            hi = t
        else:
            lo = t
    return 0.5 * (lo + hi)


def simulate_exact_affine(field, x0, horizon, seed, path_index=0):
    """Exact trajectory by closed-form inversion of the affine exit hazard.

    It reads the stream ``sim.path_stream(seed, path_index)`` and gates x0
    and the horizon as ``sim.simulate_thinning`` does.  Its ``candidates``
    is 0, as it draws no thinning candidates.
    """
    x0 = sim.check_x0(x0, field.d)
    horizon = sim.check_horizon(horizon)
    d = field.d
    rng = sim.path_stream(seed, path_index)
    times, srcs, dsts = [], [], []
    x = x0 - 1
    s_anchor = 0.0
    anchor = np.zeros(d)
    anchor[x] = 1.0
    row_anchor, row_dirac = _rate_rows(field, anchor, x)
    a_tot = sum(row_anchor)
    b_tot = sum(row_dirac)
    while True:
        if a_tot <= 0.0 and b_tot <= 0.0:
            break
        target = rng.standard_exponential()
        t = _invert_hazard(a_tot, b_tot, s_anchor, target, horizon)
        if t is None:
            break
        frac = s_anchor / t
        rates = [b + frac * (ra - b) for ra, b in zip(row_anchor, row_dirac)]
        rates[x] = 0.0
        total = sum(rates)
        v = rng.random() * total
        j = -1
        acc = 0.0
        for jj in range(d):
            if rates[jj] > 0.0:
                acc += rates[jj]
                j = jj
                if v <= acc:
                    break
        anchor *= frac
        anchor[x] += 1.0 - frac
        s_anchor = t
        times.append(t)
        srcs.append(x + 1)
        dsts.append(j + 1)
        x = j
        row_anchor, row_dirac = _rate_rows(field, anchor, x)
        a_tot = sum(row_anchor)
        b_tot = sum(row_dirac)
    return sim.Trajectory(x0, horizon, np.asarray(times, dtype=float),
                          np.asarray(srcs, dtype=np.int64),
                          np.asarray(dsts, dtype=np.int64), d, candidates=0)

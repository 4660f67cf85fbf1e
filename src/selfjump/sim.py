"""Exact pathwise simulation of self-interacting jump processes.

The process jumps between states 1..d with rates Q_xy(L_t-) read off the
running occupation measure L_t (time average of the visited states, started
at the point mass on the initial state).  Between jumps L_t evolves
deterministically, so the pair (last jump time, occupation there, current
state) is a sufficient anchor:

    L_t = (s * L_s + (t - s) * delta_x) / t        for t in (s, next jump].

Two exact samplers are provided.  ``simulate_thinning`` superposes all d-1
candidate channels out of the current state into one Poisson stream of rate
(d - 1) * rate_upper and accepts a candidate x -> j at time t with
probability Q_xj(L_t-) / rate_upper.  ``simulate_exact_affine`` uses the
closed form of the exit hazard between jumps,
rate_at_dirac + (s / t) * (rate_at_anchor - rate_at_dirac), whose integral is
inverted to machine precision; it is the independent oracle for thinning.
Every field is affine in the occupation measure, so both work for any field.

``lockstep_thinning`` runs the thinning sampler on many paths at once, one
candidate step per numpy operation over a block of paths, and reads their
occupations (and fluxes) off at a list of times.  It repeats the scalar
sampler's float operations in the same order, so its values are
bit-identical to ``simulate_thinning`` followed by ``occupation_at`` /
``flux_at``.

Per-path randomness comes from counter-based streams keyed by
(seed, path_index), so batches are reproducible in any execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import errors

_NEWTON_MAX = 64
_ROOT_TOL = 1e-12


def path_stream(seed, path_index):
    """Independent generator for one path, a pure function of (seed, path_index)."""
    entropy = int(seed) & 0xFFFFFFFFFFFFFFFF
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class OccupationAnchor:
    """Sufficient state between jumps: occupation at the last jump time."""

    time: float
    measure: np.ndarray
    state: int  # 1-based label of the currently occupied state

    def occupation(self, t):
        """Occupation measure at t >= time, exact between jumps."""
        if t < self.time:
            raise errors.OutOfRange(f"t={t} before anchor time {self.time}")
        if t == 0.0:
            out = np.zeros_like(self.measure)
            out[self.state - 1] = 1.0
            return out
        out = (self.time / t) * self.measure
        out[self.state - 1] += (t - self.time) / t
        return out


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: initial state, horizon, and the jump events.

    ``times`` is increasing; ``sources``/``targets`` hold 1-based labels.
    """

    x0: int
    horizon: float
    times: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    d: int

    @property
    def n_jumps(self):
        return int(self.times.size)

    def _check_t(self, t):
        if not 0.0 < t <= self.horizon:
            raise errors.OutOfRange(f"t={t} outside (0, {self.horizon}]")

    def _states_and_bounds(self, t):
        k = int(np.searchsorted(self.times, t, side="right"))
        states = np.concatenate(([self.x0], self.targets[:k]))
        bounds = np.concatenate(([0.0], self.times[:k], [t]))
        return states, bounds

    def occupation_at(self, t):
        """Time-average of the visited states over (0, t]; sums to 1."""
        self._check_t(t)
        states, bounds = self._states_and_bounds(t)
        occ = np.zeros(self.d)
        np.add.at(occ, states - 1, np.diff(bounds))
        return occ / t

    def flux_at(self, t):
        """Per-edge jump counts over (0, t] divided by t."""
        self._check_t(t)
        k = int(np.searchsorted(self.times, t, side="right"))
        counts = np.zeros((self.d, self.d))
        np.add.at(counts, (self.sources[:k] - 1, self.targets[:k] - 1), 1.0)
        return counts / t

    def current_at(self, t):
        """Antisymmetric net flux R_t - R_t^T."""
        r = self.flux_at(t)
        return r - r.T

    def state_at(self, t):
        """Occupied state (1-based) at time t in [0, horizon]."""
        if not 0.0 <= t <= self.horizon:
            raise errors.OutOfRange(f"t={t} outside [0, {self.horizon}]")
        k = int(np.searchsorted(self.times, t, side="right"))
        return int(self.x0 if k == 0 else self.targets[k - 1])

    def holding_times(self):
        """Completed holding times (the censored final interval is dropped)."""
        return np.diff(np.concatenate(([0.0], self.times)))

    def anchors(self):
        """Occupation anchors after 0 and after each jump, in order."""
        d = self.d
        measure = np.zeros(d)
        measure[self.x0 - 1] = 1.0
        out = [OccupationAnchor(0.0, measure, self.x0)]
        for k in range(self.n_jumps):
            t = float(self.times[k])
            prev = out[-1]
            m = prev.occupation(t)
            out.append(OccupationAnchor(t, m, int(self.targets[k])))
        return out


def _check_x0(field, x0):
    if not isinstance(x0, (int, np.integer)) or not 1 <= int(x0) <= field.d:
        raise errors.InvalidState(f"initial state {x0!r} outside 1..{field.d}")
    return int(x0)


def _rate_rows(field, measure, x_idx):
    """Rows Q(measure)[x, :] and Q(delta_x)[x, :] as plain lists."""
    v = field.vertices
    row_anchor = (measure @ v[:, x_idx, :]).tolist()
    row_dirac = v[x_idx, x_idx, :].tolist()
    row_anchor[x_idx] = 0.0
    row_dirac[x_idx] = 0.0
    return row_anchor, row_dirac


def _chunk_sizes(lam, horizon):
    """Sizes of a thinning path's first and later draw chunks.

    The first chunk covers the mean candidate count lam * horizon plus six
    standard deviations, so a path almost never needs a second one.
    """
    mean_n = lam * horizon
    return (max(64, int(mean_n + 6.0 * math.sqrt(mean_n) + 16.0)),
            max(256, int(0.125 * mean_n)))


def _draw_chunk(rng, n, n_dest):
    """Yield n exponential clocks, then n acceptance uniforms, then n picks.

    One array at a time, so a caller can convert and drop each before the
    next is drawn.
    """
    yield rng.standard_exponential(n)
    yield rng.random(n)
    yield rng.integers(0, n_dest, size=n)


class _Draws:
    """Chunked per-path draws; the consumption order is deterministic."""

    def __init__(self, rng, n_dest, lam, horizon):
        self.rng = rng
        self.n_dest = n_dest
        first, self.refill = _chunk_sizes(lam, horizon)
        self._load(first)

    def _load(self, n):
        draws = _draw_chunk(self.rng, n, self.n_dest)
        self.exp = next(draws).tolist()
        self.uni = next(draws).tolist()
        self.pick = next(draws).tolist()
        self.i = 0
        self.n = n

    def next(self):
        if self.i >= self.n:
            self._load(self.refill)
        i = self.i
        self.i = i + 1
        return self.exp[i], self.pick[i], self.uni[i]


def simulate_thinning(field, x0, horizon, seed, path_index=0):
    """Exact trajectory on (0, horizon] by candidate thinning.

    Candidates out of the current state arrive at rate (d-1) * rate_upper
    with a uniformly assigned destination and are accepted with probability
    Q(L_t-) / rate_upper.  A field with rate_upper = 0 yields the jump-free
    trajectory.
    """
    x0 = _check_x0(field, x0)
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    times, srcs, dsts = [], [], []
    if lam > 0.0:
        draws = _Draws(path_stream(seed, path_index), d - 1, lam, horizon)
        x = x0 - 1
        s_anchor = 0.0
        anchor = [0.0] * d
        anchor[x] = 1.0
        vlist = field.vertices.tolist()
        row_anchor = vlist[x][x][:]  # at time 0 the occupation is delta_x0
        row_dirac = vlist[x][x]
        t = 0.0
        while True:
            e, k, u = draws.next()
            t += e / lam
            if t > horizon:
                break
            j = k if k < x else k + 1
            a = s_anchor / t
            q = a * row_anchor[j] + (1.0 - a) * row_dirac[j]
            if u * c <= q:
                b = 1.0 - a
                for z in range(d):
                    anchor[z] *= a
                anchor[x] += b
                s_anchor = t
                times.append(t)
                srcs.append(x + 1)
                dsts.append(j + 1)
                x = j
                arow = [0.0] * d
                for z in range(d):
                    az = anchor[z]
                    if az != 0.0:
                        vz = vlist[z][x]
                        for jj in range(d):
                            arow[jj] += az * vz[jj]
                row_anchor = arow
                row_dirac = vlist[x][x]
    return Trajectory(x0, horizon, np.asarray(times, dtype=float),
                      np.asarray(srcs, dtype=np.int64),
                      np.asarray(dsts, dtype=np.int64), d)


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
    """Exact trajectory by closed-form inversion of the affine exit hazard."""
    x0 = _check_x0(field, x0)
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    d = field.d
    rng = path_stream(seed, path_index)
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
    return Trajectory(x0, horizon, np.asarray(times, dtype=float),
                      np.asarray(srcs, dtype=np.int64),
                      np.asarray(dsts, dtype=np.int64), d)


_SAMPLERS = {"thinning": simulate_thinning, "exact-affine": simulate_exact_affine}


# Candidate draws one lockstep block holds: about 1.6 MB of draw arrays,
# or 261 paths of the 251 draws each that t = 40 at rate 4 needs.
_BLOCK_DRAWS = 1 << 16
# A lockstep step costs some 40 us of numpy calls whatever the block size,
# so below about 64 paths per block the scalar loop is faster.
_MIN_BLOCK_PATHS = 64


def lockstep_thinning(field, x0, times, n_paths, seed, with_flux=False):
    """Occupations (and fluxes) of thinning paths 0..n_paths-1 at each time.

    Paths run to times[-1] in consecutive blocks; one (occupations, fluxes)
    pair is yielded per block, occupations of shape (len(times), block, d)
    and fluxes of shape (len(times), block, d, d), or None unless
    ``with_flux``.  Entry [k, b] is bit-identical to
    ``simulate_thinning(field, x0, times[-1], seed, i).occupation_at(times[k])``
    (and ``flux_at``) for the block's b-th path i.  Paths too long for
    _MIN_BLOCK_PATHS of them to fit in one block run one at a time.
    """
    x0 = _check_x0(field, x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not times[0] > 0.0 \
            or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be a nonempty nondecreasing list of positive values")
    n_paths = int(n_paths)
    lam = (field.d - 1) * field.rate_upper
    n_draws = _chunk_sizes(lam, float(times[-1]))[0] if lam > 0.0 else 0
    block = _BLOCK_DRAWS // max(1, n_draws)
    lockstep = block >= _MIN_BLOCK_PATHS
    block = max(block, _MIN_BLOCK_PATHS)
    for lo in range(0, n_paths, block):
        paths = range(lo, min(n_paths, lo + block))
        if lockstep:
            yield _lockstep_block(field, x0, times, seed, paths, n_draws, with_flux)
        else:
            yield _scalar_block(field, x0, times, seed, paths, with_flux)


def _scalar_block(field, x0, times, seed, paths, with_flux):
    """lockstep_thinning's output for ``paths``, run one at a time."""
    occ = np.empty((len(times), len(paths), field.d))
    flux = np.empty((len(times), len(paths), field.d, field.d)) if with_flux else None
    for b, i in enumerate(paths):
        traj = simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            occ[k, b] = traj.occupation_at(t)
            if with_flux:
                flux[k, b] = traj.flux_at(t)
    return occ, flux


def _lockstep_block(field, x0, times, seed, paths, n_draws, with_flux):
    """Run ``paths`` in lockstep through their first draw chunks.

    Step k handles every path's k-th candidate with the scalar loop's float
    operations, so values match it bitwise.  A path whose first chunk ends
    before the horizon is re-run whole by ``simulate_thinning``.
    """
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    horizon = float(times[-1])
    n = len(paths)
    rows = np.arange(n)
    # draws are stored step-major, so each step reads contiguous rows
    cand = np.empty((n_draws, n))  # candidate times
    uc = np.empty((n_draws, n))  # acceptance thresholds u * c
    pick = np.empty((n_draws, n), dtype=np.int64)
    for b, i in enumerate(paths):
        cand[:, b], uc[:, b], pick[:, b] = _draw_chunk(path_stream(seed, i), n_draws, d - 1)
    np.divide(cand, lam, out=cand)
    np.cumsum(cand, axis=0, out=cand)  # the scalar loop's t += e / lam
    uc *= c
    exhausted = cand[-1] <= horizon if n_draws else np.zeros(n, dtype=bool)
    cand[:, exhausted] = np.inf
    uc[cand > horizon] = np.inf  # candidates past the horizon are never accepted
    n_steps = int((cand <= horizon).sum(axis=0).max(initial=0))

    # read-out k of path b is taken before step n_before[k, b]: after every
    # candidate at or before times[k], as Trajectory.occupation_at counts them
    n_before = np.array([(cand <= t).sum(axis=0) for t in times])
    order = np.argsort(n_before, axis=1, kind="stable")
    edges = [np.searchsorted(n_before[k, order[k]], np.arange(n_steps + 2))
             for k in range(len(times))]

    vertices = field.vertices
    dirac_rows = vertices[np.arange(d), np.arange(d)]  # Q(delta_x)[x, :]
    x = np.full(n, x0 - 1)
    s = np.zeros(n)  # last jump time
    anchor = np.zeros((n, d))
    anchor[:, x0 - 1] = 1.0
    row_anchor = np.tile(dirac_rows[x0 - 1], (n, 1))  # Q(anchor)[x, :]
    held = np.zeros((n, d))  # completed holding time per state, in jump order
    counts = np.zeros((n, d, d)) if with_flux else None
    occ_out = np.empty((len(times), n, d))
    flux_out = np.empty((len(times), n, d, d)) if with_flux else None

    def read_out(k, sel):
        occ = held[sel]
        occ[np.arange(sel.size), x[sel]] += times[k] - s[sel]
        occ_out[k, sel] = occ / times[k]
        if with_flux:
            flux_out[k, sel] = counts[sel] / times[k]

    for step in range(n_steps + 1):
        for k in range(len(times)):
            sel = order[k, edges[k][step]:edges[k][step + 1]]
            if sel.size:
                read_out(k, sel)
        if step == n_steps:
            break
        t = cand[step]
        pk = pick[step]
        j = pk + (pk >= x)
        a = s / t
        q = a * row_anchor[rows, j] + (1.0 - a) * dirac_rows[x, j]
        acc = np.flatnonzero(uc[step] <= q)
        if not acc.size:
            continue
        xa, ja, ta, aa = x[acc], j[acc], t[acc], a[acc]
        held[acc, xa] += ta - s[acc]
        if with_flux:
            counts[acc, xa, ja] += 1.0
        new_anchor = anchor[acc] * aa[:, None]
        new_anchor[np.arange(acc.size), xa] += 1.0 - aa
        anchor[acc] = new_anchor
        row = np.zeros((acc.size, d))
        for z in range(d):
            row += new_anchor[:, z, None] * vertices[z, ja]
        row_anchor[acc] = row
        s[acc] = ta
        x[acc] = ja

    rerun = np.flatnonzero(exhausted)
    if rerun.size:
        occ, flux = _scalar_block(field, x0, times, seed, [paths[b] for b in rerun],
                                  with_flux)
        occ_out[:, rerun] = occ
        if with_flux:
            flux_out[:, rerun] = flux
    return occ_out, flux_out


@dataclass
class BatchResult:
    """Terminal occupation/flux records for a batch plus order-free summaries.

    Summary moments use ddof=0, so a single path reports its own values with
    zero variance.  ``first_trajectory`` is the batch's first path in full.
    """

    x0: int
    horizon: float
    seed: int
    path_indices: np.ndarray
    occupations: np.ndarray  # (n, d)
    fluxes: np.ndarray  # (n, d, d)
    first_trajectory: Trajectory
    mean_occupation: np.ndarray = dataclass_field(init=False)
    var_occupation: np.ndarray = dataclass_field(init=False)
    mean_flux: np.ndarray = dataclass_field(init=False)
    var_flux: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        self.mean_occupation = self.occupations.mean(axis=0)
        self.var_occupation = self.occupations.var(axis=0)
        self.mean_flux = self.fluxes.mean(axis=0)
        self.var_flux = self.fluxes.var(axis=0)


def batch_simulate(field, x0, horizon, n_paths, seed, sampler="thinning",
                   path_offset=0):
    """Simulate n_paths independent paths and collect terminal (L, R).

    Path i uses the stream keyed by (seed, path_offset + i), so splitting a
    batch across calls cannot change any path's outcome.  Paths run one at
    a time: the samplers are Python loops, so threads only contend for the
    interpreter lock.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    run = _SAMPLERS[sampler]
    d = field.d
    occ = np.empty((n_paths, d))
    flux = np.empty((n_paths, d, d))
    indices = np.arange(path_offset, path_offset + n_paths, dtype=np.int64)
    # the first path runs last, so no trajectory is held while the others run
    for i in reversed(range(n_paths)):
        traj = run(field, x0, horizon, seed, path_index=int(indices[i]))
        occ[i] = traj.occupation_at(horizon)
        flux[i] = traj.flux_at(horizon)
    return BatchResult(int(x0), float(horizon), int(seed), indices, occ, flux, traj)


def write_trajectory_csv(traj, fh):
    """Rows time,from,to with full-precision decimal times."""
    w = csv.writer(fh)
    w.writerow(["time", "from", "to"])
    for t, s, d_ in zip(traj.times, traj.sources, traj.targets):
        w.writerow([repr(float(t)), int(s), int(d_)])


def write_batch_csv(result, fh):
    """Rows path,seed_index,L_1..L_d,R_edge1..R_edgea (canonical edge order)."""
    d = result.occupations.shape[1]
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    w = csv.writer(fh)
    w.writerow(["path", "seed_index"] + [f"L_{k + 1}" for k in range(d)]
               + [f"R_edge{e + 1}" for e in range(len(pairs))])
    for row, (pi, L, R) in enumerate(zip(result.path_indices,
                                         result.occupations, result.fluxes)):
        w.writerow([row, int(pi)] + [repr(float(v)) for v in L]
                   + [repr(float(R[i, j])) for i, j in pairs])

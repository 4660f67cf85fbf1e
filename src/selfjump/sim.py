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

The thinning loop reads its candidates from numpy arrays, one draw chunk at
a time: candidate times are the cumulative sum of the exponential clocks
over lam, continued from the previous chunk's last time, and acceptance
thresholds are the uniforms times rate_upper.  numpy's cumsum adds in
sequence and every elementwise product or quotient is one IEEE operation,
so these are the values a per-candidate ``t += e / lam`` and ``u * c``
would give.  The acceptance test and the anchor update then run in Python
with their float operations in a fixed order, so seeded paths stay
bit-identical.  Chunks hold at most 2**18 draws.

``lockstep_thinning`` runs the thinning sampler on many paths at once, one
candidate step per numpy operation over a block of paths, and reads their
occupations off at a list of times, which is what P(L_t hits target)
needs.  It repeats the scalar sampler's float operations in the same order,
so its values are bit-identical to ``simulate_thinning`` followed by
``occupation_at``.

Per-path randomness comes from counter-based streams keyed by
(seed, path_index), so batches are reproducible in any execution order.
Seeds lie in [0, 2**64).  Path i's stream is Philox under the key numpy's
``SeedSequence(entropy=seed, spawn_key=(i,))`` generates, which is how
``path_stream`` builds it.  For a lockstep block, ``_stream_keys`` computes
those keys for all its paths in one vectorised pass of SeedSequence's hash,
which numpy's stream-compatibility policy keeps fixed: the seed's words are
mixed once per seed, and only the index words per path.  The block then
resets one Philox generator to each path's fresh stream instead of building
a generator per path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from itertools import repeat

import numpy as np

from . import core, errors

_NEWTON_MAX = 64
_ROOT_TOL = 1e-12


_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # the multipliers of SeedSequence's mix


def _hash_consts(init, mult, n):
    """The first n + 1 constants SeedSequence's hashmix steps through."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# hashmix constants of entropy mixing (4 seed words, 12 cross-mixes of the
# pool, then 4 per index word) and of state generation (4 pool words)
_MIXING = _hash_consts(0x43B0D7E5, 0x931E8875, 24)
_GENERATION = _hash_consts(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix on uint32 arrays, whose products wrap mod 2**32."""
    value = (value ^ const) * next_const
    return value ^ value >> 16


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed):
    """SeedSequence's four-word pool after the words of ``seed`` (in [0, 2**64)).

    The seed's two 32-bit words, zero-padded to the pool size, come first
    in every path's entropy, so this pool is shared by all paths of a seed.
    Read-only, as the cache hands it to every caller.
    """
    m = _MIXING
    pool = _hashmix(np.array([seed & _MASK32, seed >> 32, 0, 0], dtype=np.uint32),
                    m[:4], m[1:5])
    for src in range(4):
        # hashmix calls 4 + 3 src .. 6 + 3 src mix pool[src] into the others
        k = 4 + 3 * src
        others = np.arange(4) != src
        pool[others] = _mix(pool[others], _hashmix(pool[src], m[k:k + 3], m[k + 1:k + 4]))
    pool.flags.writeable = False
    return pool


def _check_seed(seed):
    """The seed as an int; raises ValueError outside [0, 2**64)."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _stream_keys(seed, indices):
    """Philox keys of the streams of paths ``indices``, as an (n, 2) uint64 array.

    Row k is ``SeedSequence(entropy=seed, spawn_key=(indices[k],))
    .generate_state(2, np.uint64)``, for indices in [0, 2**64).  The index
    words (the low one, and the high one from 2**32 on) are mixed into
    every path's copy of the seed's pool at once.
    """
    idx = np.asarray(indices).reshape(-1)
    if idx.min(initial=0) < 0:
        raise ValueError("path indices must be nonnegative")
    idx = idx.astype(np.uint64)
    pool = _seed_pool(_check_seed(seed))
    # one row per path and one column per pool word; hashmix calls 16-19
    # mix in the low index word, 20-23 the high one
    m = _MIXING
    low = idx.astype(np.uint32)[:, None]  # the cast keeps the low 32 bits
    pool = _mix(pool, _hashmix(low, m[16:20], m[17:21]))
    if idx.max(initial=0) > _MASK32:
        high = (idx >> 32).astype(np.uint32)[:, None]
        pool = np.where(high != 0, _mix(pool, _hashmix(high, m[20:24], m[21:25])), pool)
    g = _GENERATION
    # numpy's own little-endian pairing of the four state words
    return _hashmix(pool, g[:4], g[1:]).astype("<u4").view("<u8").astype(np.uint64)


def path_stream(seed, path_index):
    """Independent generator for one path, a pure function of (seed, path_index)."""
    seq = np.random.SeedSequence(_check_seed(seed), spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: initial state, horizon, and the jump events.

    ``times`` is increasing; ``sources``/``targets`` hold 1-based labels.
    ``candidates`` counts the thinning candidates at or before the horizon;
    it is None for the exact-affine sampler, which draws none.
    """

    x0: int
    horizon: float
    times: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    d: int
    candidates: int | None = None

    @property
    def n_jumps(self):
        return int(self.times.size)

    def _check_t(self, t):
        if not 0.0 < t <= self.horizon:
            raise errors.OutOfRange(f"t={t} outside (0, {self.horizon}]")

    def occupation_at(self, t):
        """Time-average of the visited states over (0, t]; sums to 1."""
        self._check_t(t)
        k = int(np.searchsorted(self.times, t, side="right"))
        states = np.concatenate(([self.x0], self.targets[:k]))
        bounds = np.concatenate(([0.0], self.times[:k], [t]))
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


# Largest draw chunk: its three arrays (clocks, thresholds, picks) hold
# about 6 MB.
_MAX_CHUNK = 1 << 18
# Candidates, or trajectory.csv rows, turned into Python objects at a time,
# so a draw chunk or a path is never held whole as Python objects (some
# 80 bytes per candidate or row).
_SLICE = 8192


def _chunk_sizes(lam, horizon):
    """Sizes of a thinning path's first and later draw chunks.

    The first chunk covers the mean candidate count lam * horizon plus six
    standard deviations, so a path almost never needs a second one.  Both
    are capped at _MAX_CHUNK draws, which bounds a chunk's memory for any
    horizon.
    """
    mean_n = lam * horizon
    first = min(_MAX_CHUNK, mean_n + 6.0 * math.sqrt(mean_n) + 16.0)
    return max(64, int(first)), max(256, int(min(_MAX_CHUNK, 0.125 * mean_n)))


def _draw_chunk(rng, n, n_dest):
    """Yield n exponential clocks, then n acceptance uniforms, then n picks.

    One array at a time, so a caller can convert and drop each before the
    next is drawn.  With one destination (d = 2) no picks are drawn: every
    pick would be 0, and drawing them consumes no bits of the stream.
    """
    yield rng.standard_exponential(n)
    yield rng.random(n)
    if n_dest > 1:
        yield rng.integers(0, n_dest, size=n)


def _candidates(rng, n_dest, lam, c, horizon):
    """Yield a thinning path's candidates up to the horizon in list slices.

    Each slice is (times, thresholds u * c, destination picks) for at most
    _SLICE consecutive candidates; the picks are all 0 when _draw_chunk
    draws none.  A chunk's times are the cumulative sum of e / lam started
    from the previous chunk's last time: numpy's cumsum adds in sequence, so
    they are the sums t += e / lam would give.
    """
    size, refill = _chunk_sizes(lam, horizon)
    t = 0.0
    while True:
        draws = _draw_chunk(rng, size, n_dest)
        cand = next(draws)
        cand /= lam
        cand[0] += t
        np.cumsum(cand, out=cand)
        uc = next(draws)
        uc *= c
        pick = next(draws, None)
        n = int(np.searchsorted(cand, horizon, side="right"))
        for lo in range(0, n, _SLICE):
            hi = min(lo + _SLICE, n)
            picks = repeat(0) if pick is None else pick[lo:hi].tolist()
            yield cand[lo:hi].tolist(), uc[lo:hi].tolist(), picks
        if n < size:
            return
        t = float(cand[-1])
        size = refill


def simulate_thinning(field, x0, horizon, seed, path_index=0):
    """Exact trajectory on (0, horizon] by candidate thinning.

    Candidates out of the current state arrive at rate (d-1) * rate_upper
    with a uniformly assigned destination and are accepted with probability
    Q(L_t-) / rate_upper.  A field with rate_upper = 0 yields the jump-free
    trajectory.
    """
    x0 = _check_x0(field, x0)
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    times, dsts = [], []
    n_cand = 0
    if lam > 0.0:
        x = x0 - 1
        s_anchor = 0.0
        anchor = [0.0] * d
        anchor[x] = 1.0
        vlist = field.vertices.tolist()
        row_anchor = vlist[x][x][:]  # at time 0 the occupation is delta_x0
        row_dirac = vlist[x][x]
        # dest[x][k]: the k-th destination out of state x
        dest = [[k if k < y else k + 1 for k in range(d - 1)] for y in range(d)]
        dest_x = dest[x]
        states = range(d)
        add_time = times.append
        add_dst = dsts.append
        for cand, thresholds, picks in _candidates(path_stream(seed, path_index),
                                                   d - 1, lam, c, horizon):
            n_cand += len(cand)
            for t, uc, k in zip(cand, thresholds, picks):
                j = dest_x[k]
                a = s_anchor / t
                if uc <= a * row_anchor[j] + (1.0 - a) * row_dirac[j]:
                    b = 1.0 - a
                    for z in states:
                        anchor[z] *= a
                    anchor[x] += b
                    s_anchor = t
                    add_time(t)
                    add_dst(j)
                    x = j
                    arow = [0.0] * d
                    for z in states:
                        az = anchor[z]
                        if az != 0.0:
                            vz = vlist[z][x]
                            for jj in states:
                                arow[jj] += az * vz[jj]
                    row_anchor = arow
                    row_dirac = vlist[x][x]
                    dest_x = dest[x]
    targets = np.asarray(dsts, dtype=np.int64) + 1
    sources = np.concatenate(([x0], targets))[:-1]
    return Trajectory(x0, horizon, np.asarray(times, dtype=float), sources, targets, d,
                      candidates=n_cand)


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
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
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


# Candidate draws one lockstep block holds.  A draw takes 16 bytes (a time
# and a threshold) at d = 2 and 17 with its pick up to d = 256, so the draw
# arrays hold about 1.6 MB: 391 paths of the 251 draws each that t = 40 at
# rate 4 needs.
_BLOCK_DRAWS = 3 << 15
# A lockstep step costs some 40 us of numpy calls whatever the block size,
# so below about 64 paths per block the scalar loop is faster.
_MIN_BLOCK_PATHS = 64


def lockstep_thinning(field, x0, times, n_paths, seed):
    """Occupations of thinning paths 0..n_paths-1 at each time.

    Paths run to times[-1] in consecutive blocks; one occupation array of
    shape (len(times), block, d) is yielded per block.  Entry [k, b] is
    bit-identical to
    ``simulate_thinning(field, x0, times[-1], seed, i).occupation_at(times[k])``
    for the block's b-th path i.  Paths too long for _MIN_BLOCK_PATHS of
    them to fit in one block run one at a time.
    """
    x0 = _check_x0(field, x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not times[0] > 0.0 \
            or not np.isfinite(times).all() or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be a nonempty nondecreasing list of positive "
                         "finite values")
    n_paths = int(n_paths)
    lam = (field.d - 1) * field.rate_upper
    n_draws = _chunk_sizes(lam, float(times[-1]))[0] if lam > 0.0 else 0
    block = _BLOCK_DRAWS // max(1, n_draws)
    lockstep = block >= _MIN_BLOCK_PATHS
    block = max(block, _MIN_BLOCK_PATHS)
    for lo in range(0, n_paths, block):
        paths = range(lo, min(n_paths, lo + block))
        if lockstep:
            yield _lockstep_block(field, x0, times, seed, paths, n_draws)
        else:
            yield _scalar_block(field, x0, times, seed, paths)


def _scalar_block(field, x0, times, seed, paths):
    """lockstep_thinning's output for ``paths``, run one at a time."""
    occ = np.empty((len(times), len(paths), field.d))
    for b, i in enumerate(paths):
        traj = simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            occ[k, b] = traj.occupation_at(t)
    return occ


def _lockstep_block(field, x0, times, seed, paths, n_draws):
    """Run ``paths`` in lockstep through their first draw chunks.

    One Philox generator is reset to each path's fresh stream in turn (keys
    from ``_stream_keys``) to draw the chunks.  ``_draw_chunk`` draws no
    picks at d = 2, where the destination is the other state; otherwise they
    are stored in the narrowest unsigned type that holds d - 1.  Step k
    handles every path's k-th candidate with the scalar loop's float
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
    pick = None if d == 2 else np.empty((n_draws, n), dtype=np.min_scalar_type(d - 1))
    keys = _stream_keys(seed, paths)
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer: the start of a stream
    for b, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        for out, draw in zip((cand, uc, pick), _draw_chunk(rng, n_draws, d - 1)):
            out[:, b] = draw
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
    occ_out = np.empty((len(times), n, d))

    def read_out(k, sel):
        occ = held[sel]
        occ[np.arange(sel.size), x[sel]] += times[k] - s[sel]
        occ_out[k, sel] = occ / times[k]

    for step in range(n_steps + 1):
        for k in range(len(times)):
            sel = order[k, edges[k][step]:edges[k][step + 1]]
            if sel.size:
                read_out(k, sel)
        if step == n_steps:
            break
        t = cand[step]
        if pick is None:
            j = 1 - x
        else:
            pk = pick[step]
            j = pk + (pk >= x)
        a = s / t
        q = a * row_anchor[rows, j] + (1.0 - a) * dirac_rows[x, j]
        acc = np.flatnonzero(uc[step] <= q)
        if not acc.size:
            continue
        xa, ja, ta, aa = x[acc], j[acc], t[acc], a[acc]
        held[acc, xa] += ta - s[acc]
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
        occ_out[:, rerun] = _scalar_block(field, x0, times, seed,
                                          [paths[b] for b in rerun])
    return occ_out


@dataclass
class BatchResult:
    """Terminal occupation/flux records for a batch plus order-free summaries.

    Summary moments use ddof=0, so a single path reports its own values with
    zero variance.  ``first_trajectory`` is the batch's first path in full.
    ``jumps`` and ``candidates`` total the paths' jumps and thinning
    candidates (None for the exact-affine sampler).
    """

    path_indices: np.ndarray
    occupations: np.ndarray  # (n, d)
    fluxes: np.ndarray  # (n, d, d)
    first_trajectory: Trajectory
    jumps: int
    candidates: int | None
    mean_occupation: np.ndarray = dataclass_field(init=False)
    var_occupation: np.ndarray = dataclass_field(init=False)
    mean_flux: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        self.mean_occupation = self.occupations.mean(axis=0)
        self.var_occupation = self.occupations.var(axis=0)
        self.mean_flux = self.fluxes.mean(axis=0)


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
    jumps, candidates = 0, 0
    # the first path runs last, so no trajectory is held while the others run
    for i in reversed(range(n_paths)):
        traj = run(field, x0, horizon, seed, path_index=int(indices[i]))
        occ[i] = traj.occupation_at(horizon)
        flux[i] = traj.flux_at(horizon)
        jumps += traj.n_jumps
        candidates += traj.candidates or 0
    return BatchResult(indices, occ, flux, traj, jumps,
                       None if traj.candidates is None else candidates)


def write_trajectory_csv(traj, fh):
    """Rows time,from,to with full-precision decimal times.

    The bytes are those of ``csv.writer``: nothing needs quoting, and rows
    end in \\r\\n.  Rows are formatted _SLICE at a time.
    """
    fh.write("time,from,to\r\n")
    for lo in range(0, traj.n_jumps, _SLICE):
        part = slice(lo, lo + _SLICE)
        fh.write("".join(f"{t!r},{s},{d_}\r\n" for t, s, d_ in zip(
            traj.times[part].tolist(), traj.sources[part].tolist(),
            traj.targets[part].tolist())))


def write_batch_csv(result, fh):
    """Rows path,seed_index,L_1..L_d,R_edge1..R_edgea (canonical edge order).

    Byte-identical to ``csv.writer`` output, like ``write_trajectory_csv``.
    """
    d = result.occupations.shape[1]
    rows, cols = zip(*core.edge_pairs(d))
    header = (["path", "seed_index"] + [f"L_{k + 1}" for k in range(d)]
              + [f"R_edge{e + 1}" for e in range(len(rows))])
    values = np.concatenate([result.occupations,
                             result.fluxes[:, list(rows), list(cols)]], axis=1)
    fh.write(",".join(header) + "\r\n")
    fh.write("".join(f"{row},{pi}," + ",".join(map(repr, v)) + "\r\n"
                     for row, (pi, v) in enumerate(zip(result.path_indices.tolist(),
                                                       values.tolist()))))

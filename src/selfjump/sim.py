"""Exact pathwise simulation of self-interacting jump processes.

The process jumps between states 1..d with rates Q_xy(L_t-) read off the
running occupation measure L_t (time average of the visited states, started
at the point mass on the initial state).  Between jumps L_t evolves
deterministically, so the pair (last jump time, occupation there, current
state) is a sufficient anchor:

    L_t = (s * L_s + (t - s) * delta_x) / t        for t in (s, next jump].

The sampler is ``simulate_thinning``, exact for every field (Lewis and
Shedler's thinning, Naval Res. Logist. Q. 26, 1979).  It superposes all
d - 1 candidate channels out of the current state into one Poisson stream
of rate (d - 1) * rate_upper and accepts a candidate x -> j at time t with
probability Q_xj(L_t-) / rate_upper; rate_upper bounds every off-diagonal
rate at every occupation measure.

The thinning loop reads its candidates from numpy arrays, one draw chunk at
a time.  One routine, ``_clock``, turns drawn rows into candidates for both
engines: candidate times are the cumulative sum of the exponential clocks
over lam, continued from the previous chunk's last time, and acceptance
thresholds are the uniforms times rate_upper.  numpy's cumsum adds in
sequence and every elementwise product or quotient is one IEEE operation,
so these are the values a per-candidate ``t += e / lam`` and ``u * c``
would give.  Chunks hold at most 2**18 draws.  The acceptance test and the
anchor update run in a loop generated once per state count d
(``_thinning_kernel``): the anchor occupation is d local floats and the new
state's rate row is one written-out expression per entry, so no Python loop
over d runs per jump.  Its float operations are those of a loop over the
states, in a fixed order, so seeded paths stay bit-identical.

``_lockstep_block`` runs the thinning sampler on many paths at once, one
candidate step per numpy operation over a block of paths, and reads their
occupations off at a list of times and their per-edge jump counts at the
last one.  It repeats the scalar sampler's float operations in the same
order, so its values are bit-identical to ``simulate_thinning`` followed by
``occupation_at`` and ``flux_at``.

``sample_paths`` is the one way into both engines.  One rule, ``_blocks``,
splits its paths into work items: short paths run in lockstep blocks, long
ones one at a time (``batch_simulate`` runs path 0 whole in the calling
process, for its trajectory).  Per-path randomness comes from
counter-based streams keyed by (seed, path_index), so batches are
reproducible in any execution order: the items run on every CPU in this
process's affinity mask (``taskset`` limits them), in worker processes
forked for the call, and their results are placed by index, so the values
do not depend on the worker count (only how the paths are split does).
Seeds lie in [0, 2**64).  Path i's stream is Philox under the key numpy's
seed sequence with entropy seed and spawn key (i,) generates, which
``_stream_keys`` computes for a list of paths in one vectorised pass of its
hash (numpy's stream-compatibility policy keeps that hash fixed): numpy's
``SeedSequence(seed)`` supplies the seed's mixed pool, and only the index
words are mixed in by hand, for all the paths at once.  ``_streams`` is
the one start of path streams: it resets one Philox generator to each
path's key in turn, for a lockstep block's paths and for ``path_stream``'s
one path alike.  Either way ``_draw_chunk`` draws the path's candidates.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from itertools import islice, repeat

import numpy as np

from . import core, errors


def _hash_consts(init, mult, n):
    """The first n + 1 constants the seed sequence's hashmix steps through."""
    return np.cumprod(np.array([init] + [mult] * n, dtype=np.uint32), dtype=np.uint32)


# hashmix constants of entropy mixing (4 seed words, 12 cross-mixes of the
# pool, then 4 per index word) and of state generation (4 pool words)
_MIXING = _hash_consts(0x43B0D7E5, 0x931E8875, 24)
_GENERATION = _hash_consts(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value, consts):
    """The seed sequence's hashmix of a uint32 array, whose products wrap mod
    2**32, stepping through the hash constants ``consts``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x, y):
    """The seed sequence's mix of two uint32 arrays."""
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ r >> 16


def check_seed(seed):
    """The seed as an int in [0, 2**64), the range path streams are keyed by."""
    if not core.is_integer(seed):
        raise errors.InvalidInput(f"must be an integer, got {seed!r}")
    if seed < 0:
        raise errors.InvalidInput(f"must be >= 0, got {seed}")
    if seed >= 1 << 64:
        raise errors.InvalidInput(f"must be < 2**64, got {seed}")
    return int(seed)


def _stream_keys(seed, indices):
    """Philox keys of the streams of paths ``indices``, as an (n, 2) uint64 array.

    Row k is the state numpy's seed sequence with entropy ``seed`` and spawn
    key ``(indices[k],)`` generates as two uint64 words, for indices in
    [0, 2**64).  numpy mixes the seed's words, zero-padded to the pool size,
    before the spawn key's, so every path's pool starts as the pool of
    ``SeedSequence(seed)``; the index words (the low one, and the high one
    from 2**32 on) are then mixed into every path's copy of it at once.
    """
    idx = np.asarray(indices).reshape(-1)
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= 1 << 64:
        raise errors.InvalidInput("path indices must lie in [0, 2**64)")
    idx = idx.astype(np.uint64)
    pool = np.random.SeedSequence(check_seed(seed)).pool
    # one row per path and one column per pool word; hashmix calls 16-19
    # mix in the low index word, 20-23 the high one
    low = idx.astype(np.uint32)[:, None]  # the cast keeps the low 32 bits
    pool = _mix(pool, _hashmix(low, _MIXING[16:21]))
    if idx.max(initial=0) > 0xFFFFFFFF:
        high = (idx >> 32).astype(np.uint32)[:, None]
        pool = np.where(high != 0, _mix(pool, _hashmix(high, _MIXING[20:25])), pool)
    # numpy's own little-endian pairing of the four state words
    return _hashmix(pool, _GENERATION).astype("<u4").view("<u8").astype(np.uint64)


def _streams(seed, paths):
    """Yield each path's generator at the start of its stream, in turn.

    One Philox bit generator, built under the first path's key, is reset to
    each later path's key with its counter at 0 and its buffer empty.  The
    paths share it: a path's draws are taken before the next path's are.
    """
    keys = _stream_keys(seed, paths)
    bitgen = np.random.Philox(key=keys[0])
    fresh = bitgen.state  # the start of a stream
    rng = np.random.Generator(bitgen)
    for b, key in enumerate(keys):
        if b:
            fresh["state"]["key"] = key
            bitgen.state = fresh
        yield rng


def path_stream(seed, path_index):
    """Independent generator for one path, a pure function of (seed, path_index)."""
    return next(_streams(seed, [core.check_count("path_index", path_index, 0)]))


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: initial state, horizon, and the jump events.

    ``times`` is increasing; ``sources``/``targets`` hold 1-based labels.
    ``candidates`` counts the thinning candidates at or before the horizon.
    """

    x0: int
    horizon: float
    times: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    d: int
    candidates: int

    @property
    def n_jumps(self):
        return int(self.times.size)

    def _check_t(self, t):
        if not 0.0 < t <= self.horizon:
            raise errors.InvalidInput(f"t={t} outside (0, {self.horizon}]")

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


def check_x0(x0, d):
    """The initial state as an int, a state label in 1..d."""
    if not core.is_integer(x0) or not 1 <= x0 <= d:
        raise errors.InvalidInput(f"x0 must be a state label in 1..{d}, got {x0!r}")
    return int(x0)


def check_horizon(horizon):
    """The horizon as a float, positive and finite."""
    if not 0.0 < float(horizon) < math.inf:
        raise errors.InvalidInput(f"horizon must be positive and finite, got {horizon}")
    return float(horizon)


def check_times(times):
    """Read-out times as a float array: nonempty, nondecreasing, positive, finite."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not times[0] > 0.0 \
            or not np.isfinite(times).all() or np.any(np.diff(times) < 0.0):
        raise errors.InvalidInput("times must be nonempty, sorted, positive and finite")
    return times


# Largest draw chunk: its three arrays (clocks, thresholds, int64 picks)
# hold about 6 MB.  A lockstep block holds as many draws (_LOCKSTEP_DRAWS),
# with one-byte picks, in about 4.5 MB.
_MAX_CHUNK = 1 << 18
# Candidates turned into Python objects at a time, so a draw chunk is never
# held whole as Python objects (some 80 bytes per candidate).
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


def _draw_chunk(rng, cand, uc, pick, n_dest):
    """Fill one path's draw rows from rng: exponential clocks into cand, then
    acceptance uniforms into uc, then destination picks in [0, n_dest) into
    pick.  With one destination (d = 2) pick is None and no picks are drawn:
    every pick would be 0, and drawing them consumes no bits of the stream.
    """
    rng.standard_exponential(out=cand)
    rng.random(out=uc)
    if pick is not None:
        pick[...] = rng.integers(0, n_dest, size=pick.size)


def _clock(cand, uc, lam, c, t=0.0):
    """Turn drawn rows into candidates in place: each row of clocks e in cand
    becomes the times t + cumsum(e / lam), the sums t += e / lam would give,
    and the uniforms u in uc the acceptance thresholds u * c."""
    cand /= lam
    cand[..., :1] += t
    np.cumsum(cand, axis=-1, out=cand)
    uc *= c


def _candidates(rng, n_dest, lam, c, horizon):
    """Yield a thinning path's candidates up to the horizon in list slices.

    Each slice is (times, thresholds u * c, destination picks) for at most
    _SLICE consecutive candidates; the picks are all 0 when _draw_chunk
    draws none.  Each chunk's clock continues from the previous chunk's
    last time.
    """
    size, refill = _chunk_sizes(lam, horizon)
    t = 0.0
    while True:
        cand, uc = np.empty(size), np.empty(size)
        pick = np.empty(size, dtype=np.int64) if n_dest > 1 else None
        _draw_chunk(rng, cand, uc, pick, n_dest)
        _clock(cand, uc, lam, c, t)
        n = int(np.searchsorted(cand, horizon, side="right"))
        for lo in range(0, n, _SLICE):
            hi = min(lo + _SLICE, n)
            picks = repeat(0) if pick is None else pick[lo:hi].tolist()
            yield cand[lo:hi].tolist(), uc[lo:hi].tolist(), picks
        if n < size:
            return
        t = float(cand[-1])
        size = refill


@functools.lru_cache(maxsize=8)
def _thinning_kernel(d):
    """The thinning accept loop for d states, generated as straight-line code.

    The returned ``loop(slices, x, anchor, cols, dest, add_time, add_dst)``
    runs the candidate slices of ``_candidates`` from state x, with the
    anchor occupation in d local floats a0..a{d-1}, and returns the number
    of candidates it read.  ``cols[x][z]`` is the row Q(delta_z)[x, :], so
    ``cols[x][x]`` is the current state's row at its point mass.  An
    accepted jump at time t scales every a_z by a = s / t and adds 1 - a to
    the state being left; the new state's row Q(anchor)[x, :] is then
    written out as ``[a0 * c0[k] + a1 * c1[k] + ... for each k]``.  These
    are the float operations of a loop over the states, in the same order,
    with no interpreted loop over d.  Neither ``sum()`` (compensated on
    some Python versions) nor a comprehension (a function call on others)
    appears.  Only d enters the source.
    """
    states = range(d)
    anchor = "".join(f"a{z}, " for z in states)
    scale = "".join(f"\n                a{z} *= a" for z in states)
    add = "".join(f"\n                {'el' if z else ''}if x == {z}:"
                  f"\n                    a{z} += b" for z in range(d - 1))
    row = ",".join("\n                    "
                   + " + ".join(f"a{z} * c{z}[{k}]" for z in states) for k in states)
    source = f"""\
def loop(slices, x, anchor, cols, dest, add_time, add_dst):
    {anchor}= anchor
    s = 0.0
    row = rd = cols[x][x]
    dx = dest[x]
    n = 0
    for cand, thresholds, picks in slices:
        n += len(cand)
        for t, uc, k in zip(cand, thresholds, picks):
            j = dx[k]
            a = s / t
            b = 1.0 - a
            if uc <= a * row[j] + b * rd[j]:{scale}{add}
                else:
                    a{d - 1} += b
                s = t
                add_time(t)
                add_dst(j)
                x = j
                {"".join(f"c{z}, " for z in states)}= cols[x]
                row = [{row}]
                rd = cols[x][x]
                dx = dest[x]
    return n
"""
    namespace = {}
    exec(compile(source, f"<thinning kernel, d = {d}>", "exec"), namespace)
    return namespace["loop"]


@functools.lru_cache(maxsize=1)
def _thinning_tables(field):
    """The kernel and the tables ``simulate_thinning`` runs it with on field.

    ``cols[x][z]`` is the row Q(delta_z)[x, :] (d**3 floats) and
    ``dest[x][k]`` the k-th destination out of state x.  Cached for the last
    field, so the paths of a batch or a block build them once, and worker
    processes forked after a call share them.  Read-only, as the cache hands
    them to every caller.
    """
    d = field.d
    dest = [[k if k < y else k + 1 for k in range(d - 1)] for y in range(d)]
    return _thinning_kernel(d), field.vertices.transpose(1, 0, 2).tolist(), dest


def simulate_thinning(field, x0, horizon, seed, path_index=0):
    """Exact trajectory on (0, horizon] by candidate thinning.

    Candidates out of the current state arrive at rate (d-1) * rate_upper
    with a uniformly assigned destination and are accepted with probability
    Q(L_t-) / rate_upper.  A field with rate_upper = 0 yields the jump-free
    trajectory.
    """
    x0 = check_x0(x0, field.d)
    horizon = check_horizon(horizon)
    rng = path_stream(seed, path_index)
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    times, dsts = [], []
    n_cand = 0
    if lam > 0.0:
        x = x0 - 1
        anchor = [0.0] * d
        anchor[x] = 1.0  # at time 0 the occupation is delta_x0
        loop, cols, dest = _thinning_tables(field)
        n_cand = loop(_candidates(rng, d - 1, lam, c, horizon),
                      x, anchor, cols, dest, times.append, dsts.append)
    targets = np.asarray(dsts, dtype=np.int64) + 1
    sources = np.concatenate(([x0], targets))[:-1]
    return Trajectory(x0, horizon, np.asarray(times, dtype=float), sources, targets, d,
                      candidates=n_cand)


# looked up per call, so wrappers set here (bench/tracing.py) are seen
_SAMPLERS = {"thinning": simulate_thinning}


def _cpus():
    """CPUs the sampling may use: this process's affinity mask on Linux, else 1."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


_job = None  # the job of a worker process, set as the worker starts


def _adopt(job):
    global _job
    _job = job


def _run_job(item):
    return _job(item)


@contextlib.contextmanager
def _mapped(job, items):
    """An iterator over ``job(item)`` for the items, in order.

    With two or more items and two or more CPUs the items run in
    min(cpus, items) worker processes; otherwise in this process, through
    ``map``.  The workers are forked, so they inherit the job, the field and
    the caches built before the call (``_thinning_tables``, the generated
    kernel) without pickling them, and only the items and the results cross
    a process boundary.  Two items per worker are in flight, sent before the
    iterator is returned so that they run while the caller works, and one
    more goes out as each result is taken; so memory stays bounded for any
    number of items.  A job's exception reaches the caller with its type
    and message, and a worker that dies raises ``BrokenProcessPool`` (where
    ``multiprocessing.Pool`` would wait forever).  Leaving the block cancels
    what has not started and joins every worker.

    Unless BLAS runs on one thread (the CLI's default), numpy's BLAS threads
    make this a threaded process, so Python 3.12 and later emit a
    DeprecationWarning at each fork; it is hidden unless warnings are turned
    on (``-W default``, or pytest's summary).
    """
    workers = min(_cpus(), len(items))
    if workers < 2:
        yield map(job, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(job,))
    try:
        items = iter(items)
        pending = deque(pool.submit(_run_job, item) for item in islice(items, 2 * workers))
        yield _in_order(pool, pending, items)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_order(pool, pending, items):
    """The results of the pending futures in order, sending one more item per result."""
    while pending:
        done = pending.popleft()
        for item in islice(items, 1):
            pending.append(pool.submit(_run_job, item))
        yield done.result()


# Candidate draws of one item of paths run one at a time: some 60 ms of the
# scalar loop, so a batch worth less than two items, for which a worker pool
# (about 15 ms to start) would not pay, runs in the calling process.
_BLOCK_DRAWS = 3 << 15
# Candidate draws one lockstep block holds: as many as one scalar draw chunk.
# A draw takes 16 bytes (a time and a threshold) at d = 2 and 17 with its
# pick up to d = 256, so the draw arrays hold at most about 4.5 MB: 1,044
# paths of the 251 draws each that t = 40 at rate 4 needs.  A path's d * d
# jump counts and d per read-out time take 8 bytes each, charged as draws.
_LOCKSTEP_DRAWS = _MAX_CHUNK
# A lockstep step costs some 40-90 us of numpy calls whatever the block
# size, so with room for fewer than 128 paths per block (paths of more than
# 2,048 draws) the scalar loop is faster.  Timed on full blocks of d = 2
# chemotaxis paths, lockstep over scalar time per path was 0.5-0.7 at 985
# draws (266 paths), 1.0 at 1,980 (132) and 1.2-1.3 at 2,709 (96).
_MIN_BLOCK_PATHS = 128


def _blocks(paths, n_draws, d, n_times):
    """The items of ``paths`` (a range): whether they run in lockstep, and their paths.

    Lockstep blocks hold at most _LOCKSTEP_DRAWS draws, a path counting as
    max(n_draws, d * d, n_times * d) (draws, jump counts or read-outs), and
    there are at least as many as there are CPUs, while each can keep
    _MIN_BLOCK_PATHS paths.  Paths too long for that run one at a time, in
    items of as many paths as _BLOCK_DRAWS draws hold (at least one).  Either
    way the items are consecutive ranges whose sizes differ by at most one.
    """
    per_path = max(1, n_draws, d * d, n_times * d)
    cap = _LOCKSTEP_DRAWS // per_path
    lockstep = cap >= _MIN_BLOCK_PATHS
    n = len(paths)
    if lockstep:
        n_blocks = max(-(-n // cap), min(_cpus(), n // _MIN_BLOCK_PATHS))
    else:
        n_blocks = -(-n // max(1, _BLOCK_DRAWS // per_path))
    bounds = [n * b // max(1, n_blocks) for b in range(n_blocks + 1)]
    return lockstep, [paths[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@contextlib.contextmanager
def sample_paths(field, x0, times, seed, paths):
    """Thinning paths ``paths`` (a range of path indices), run to times[-1].

    Yields an iterator over the items of ``_blocks``, in order, run on every
    CPU (``_mapped``).  An item is three arrays for its paths: their
    occupations at each time, of shape (len(times), item, d), their fluxes at
    times[-1], (item, d, d), and their thinning-candidate counts, (item,).
    For the item's b-th path i, occupation entry [k, b] is bit-identical to
    ``simulate_thinning(field, x0, times[-1], seed, i).occupation_at(times[k])``,
    flux entry b to that trajectory's ``flux_at(times[-1])`` and count b to
    its ``candidates``.  x0, the seed and the times are checked before any
    worker starts, and leaving the block stops the workers.
    """
    x0 = check_x0(x0, field.d)
    seed = check_seed(seed)
    times = check_times(times)
    lam = (field.d - 1) * field.rate_upper
    n_draws = _chunk_sizes(lam, float(times[-1]))[0] if lam > 0.0 else 0
    lockstep, blocks = _blocks(paths, n_draws, field.d, len(times))
    _thinning_tables(field)  # before the workers fork, so they share it
    job = functools.partial(_lockstep_block, n_draws=n_draws) if lockstep else _scalar_block
    with _mapped(functools.partial(job, field, x0, times, seed), blocks) as results:
        yield results


def _scalar_block(field, x0, times, seed, paths):
    """``sample_paths``'s item for ``paths``, run one at a time by the thinning sampler."""
    run, horizon = _SAMPLERS["thinning"], times[-1]
    trajs = [run(field, x0, horizon, seed, path_index=i) for i in paths]
    return (np.array([[traj.occupation_at(t) for traj in trajs] for t in times]),
            np.array([traj.flux_at(horizon) for traj in trajs]),
            np.array([traj.candidates for traj in trajs], dtype=np.int64))


def _lockstep_block(field, x0, times, seed, paths, n_draws):
    """Run ``paths`` in lockstep through their first draw chunks.

    Each path's stream starts in turn (``_streams``), ``_draw_chunk`` draws
    its chunk into its rows, and ``_clock`` turns all the rows into
    candidates at once.  No picks are drawn at d = 2, where the destination
    is the other state; otherwise they are stored in the narrowest unsigned
    type that holds d - 1.  Step k handles every path's k-th candidate with
    the scalar loop's float operations, so values match it bitwise.  A path
    whose first chunk ends before the horizon is re-run whole by
    ``_scalar_block``.  Accepted jumps are counted per (path, edge),
    so the counts over times[-1] are ``Trajectory.flux_at``'s values.

    Read-outs are taken where holding intervals end: a jump at time t
    after the path's last jump at s reads out every times[k] with
    s <= times[k] < t before the jump is applied, and after the last step
    every path reads out the times[k] >= s left.  So a jump exactly at
    times[k] counts before that read-out, as ``Trajectory.occupation_at``
    counts it.  Each path keeps the first times[k] >= s, so only jumps
    that cross it read out.
    """
    d = field.d
    c = field.rate_upper
    lam = (d - 1) * c
    horizon = float(times[-1])
    n = len(paths)
    rows = np.arange(n)
    cand = np.empty((n, n_draws))  # candidate times
    uc = np.empty((n, n_draws))  # acceptance thresholds u * c
    pick = None if d == 2 else np.empty((n, n_draws), dtype=np.min_scalar_type(d - 1))
    for b, rng in enumerate(_streams(seed, paths)):
        _draw_chunk(rng, cand[b], uc[b], None if pick is None else pick[b], d - 1)
    _clock(cand, uc, lam, c)
    exhausted = cand[:, -1] <= horizon if n_draws else np.zeros(n, dtype=bool)
    cand[exhausted] = np.inf
    uc[cand > horizon] = np.inf  # candidates past the horizon are never accepted
    candidates = (cand <= horizon).sum(axis=1)
    n_steps = int(candidates.max(initial=0))

    vertices = field.vertices
    dirac_rows = vertices[np.arange(d), np.arange(d)]  # Q(delta_x)[x, :]
    x = np.full(n, x0 - 1)
    s = np.zeros(n)  # last jump time
    anchor = np.zeros((n, d))
    anchor[:, x0 - 1] = 1.0
    row_anchor = np.tile(dirac_rows[x0 - 1], (n, 1))  # Q(anchor)[x, :]
    held = np.zeros((n, d))  # completed holding time per state, in jump order
    next_times = np.append(times, np.inf)
    t_next = np.full(n, times[0])  # first times[k] >= s, or inf
    occ_out = np.empty((len(times), n, d))
    flux = np.zeros((n, d, d))  # accepted jumps per edge, then over the horizon

    def read_out(sel, end):
        # paths sel read out every times[k] with s <= times[k] < end
        lo = np.searchsorted(times, s[sel])
        n_k = np.searchsorted(times, end) - lo
        b = np.repeat(sel, n_k)
        k = np.arange(b.size) + np.repeat(lo + n_k - np.cumsum(n_k), n_k)
        occ = held[b]
        occ[np.arange(b.size), x[b]] += times[k] - s[b]
        occ_out[k, b] = occ / times[k, None]

    for step in range(n_steps):
        t = cand[:, step]  # step k reads every path's k-th column
        if pick is None:
            j = 1 - x
        else:
            pk = pick[:, step]
            j = pk + (pk >= x)
        a = s / t
        q = a * row_anchor[rows, j] + (1.0 - a) * dirac_rows[x, j]
        acc = np.flatnonzero(uc[:, step] <= q)
        if not acc.size:
            continue
        xa, ja, ta, aa = x[acc], j[acc], t[acc], a[acc]
        cross = acc[t_next[acc] < ta]
        if cross.size:
            read_out(cross, t[cross])
            t_next[cross] = next_times[np.searchsorted(times, t[cross])]
        held[acc, xa] += ta - s[acc]
        flux[acc, xa, ja] += 1.0
        new_anchor = anchor[acc] * aa[:, None]
        new_anchor[np.arange(acc.size), xa] += 1.0 - aa
        anchor[acc] = new_anchor
        row = np.zeros((acc.size, d))
        for z in range(d):
            row += new_anchor[:, z, None] * vertices[z, ja]
        row_anchor[acc] = row
        s[acc] = ta
        x[acc] = ja
    read_out(rows, np.inf)
    flux /= horizon

    rerun = np.flatnonzero(exhausted)
    if rerun.size:
        occ_out[:, rerun], flux[rerun], candidates[rerun] = _scalar_block(
            field, x0, times, seed, [paths[b] for b in rerun])
    return occ_out, flux, candidates


@dataclass
class BatchResult:
    """Terminal occupation/flux records for a batch plus order-free summaries.

    Summary moments use ddof=0, so a single path reports its own values with
    zero variance.  ``first_trajectory`` is the batch's first path in full.
    ``jumps`` and ``candidates`` total the paths' jumps and thinning
    candidates.
    """

    occupations: np.ndarray  # (n, d)
    fluxes: np.ndarray  # (n, d, d)
    first_trajectory: Trajectory
    jumps: int
    candidates: int
    mean_occupation: np.ndarray = dataclass_field(init=False)
    var_occupation: np.ndarray = dataclass_field(init=False)
    mean_flux: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        self.mean_occupation = self.occupations.mean(axis=0)
        self.var_occupation = self.occupations.var(axis=0)
        self.mean_flux = self.fluxes.mean(axis=0)


def batch_simulate(field, x0, horizon, n_paths, seed):
    """Simulate n_paths independent thinning paths and collect terminal (L, R).

    Path i uses the stream keyed by (seed, i), so it is the sampler's path
    ``path_index=i`` whatever the batch size.  Paths 1..n_paths-1 run in the
    items of ``sample_paths`` (short paths in lockstep, long ones one at a
    time) while this process runs path 0 whole, for ``first_trajectory``.
    """
    horizon = check_horizon(horizon)
    n_paths = core.check_count("n_paths", n_paths)
    d = field.d
    occ = np.empty((n_paths, d))
    flux = np.empty((n_paths, d, d))
    candidates = np.empty(n_paths, dtype=np.int64)
    with sample_paths(field, x0, [horizon], seed, range(1, n_paths)) as blocks:
        first = _SAMPLERS["thinning"](field, x0, horizon, seed, path_index=0)
        occ[0], flux[0] = first.occupation_at(horizon), first.flux_at(horizon)
        candidates[0] = first.candidates
        lo = 1
        for occ_b, flux_b, cand_b in blocks:
            hi = lo + cand_b.size
            occ[lo:hi], flux[lo:hi], candidates[lo:hi] = occ_b[0], flux_b, cand_b
            lo = hi
    # flux * horizon is each edge's jump count to within an ulp
    jumps = int(np.rint(flux * horizon).sum())
    return BatchResult(occ, flux, first, jumps, int(candidates.sum()))

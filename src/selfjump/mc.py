"""Monte Carlo estimation of occupation-measure decay rates.

The probability that the occupation measure L_t sits in a fixed ball decays
exponentially, and -(1/t) log P(L_t in ball) should approach the variational
rate minimized over the ball.  This module estimates those probabilities by
simulation, wraps them in Wilson score intervals, and compares the implied
decay rates against a solver value.

Common random numbers: each path is simulated once out to the largest
requested time and its occupation is read off at every earlier time, so the
curve points share paths and differences across times are not resampling
noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import math
import numpy as np

from . import errors
from .core import SIMPLEX_TOL, as_simplex
from .sim import lockstep_thinning

Z_95 = 1.959963984540054


@dataclass(frozen=True)
class BallTarget:
    """An l1 ball of occupation measures: L hits it when |L - center|_1 <= radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_simplex(self.center))
        if not 0.0 < self.radius <= 2.0:
            raise errors.OutOfRange(f"radius must lie in (0, 2], got {self.radius}")

    def hit(self, occupation):
        return bool(self.hits(np.asarray(occupation, dtype=float)[None])[0])

    def hits(self, occupations):
        """``hit`` for each row of occupations (n, d).

        Rows are checked as ``as_simplex`` checks a vector: a negative entry
        or a sum more than SIMPLEX_TOL from 1 raises ValueError.
        """
        occ = np.asarray(occupations, dtype=float)
        d = self.center.size
        if occ.ndim != 2 or occ.shape[1] != d:
            raise ValueError(f"expected occupation rows of length {d}, got shape {occ.shape}")
        if np.any(occ < 0):
            raise ValueError("negative component in an occupation row")
        sums = occ.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            bad = sums[np.argmax(np.abs(sums - 1.0))]
            raise ValueError(f"occupation row sums to {bad!r}, not 1 within {SIMPLEX_TOL:g}")
        return np.abs(occ - self.center).sum(axis=1) <= self.radius


@dataclass(frozen=True)
class DecayPoint:
    """One point of the decay curve.

    neg_log_rate is -(1/t) log p_hat; when no path hit the ball the point is
    censored and neg_log_rate carries the detection floor -(1/t) log (1/n),
    a lower bound on the observable rate.
    """

    t: float
    p_hat: float
    ci_low: float
    ci_high: float
    n: int
    censored: bool
    neg_log_rate: float


def wilson_interval(hits, n, z=Z_95):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise errors.ZeroSamples("need at least one sample")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # center - half is exactly 0 at p = 0 (and center + half exactly 1 at
    # p = 1) on paper; clamp the float dust so lo <= p <= hi always holds
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def _decay_point(t, hits, n):
    lo, hi = wilson_interval(hits, n)
    if hits == 0:
        return DecayPoint(t, 0.0, lo, hi, n, True, -math.log(1.0 / n) / t)
    return DecayPoint(t, hits / n, lo, hi, n, False, -math.log(hits / n) / t)


def _count_hits(field, x0, times, target, seed, n_paths):
    hits = np.zeros(len(times), dtype=np.int64)
    for occ in lockstep_thinning(field, x0, times, n_paths, seed):
        for k in range(len(times)):
            hits[k] += np.count_nonzero(target.hits(occ[k]))
    return hits


def decay_curve(field, x0, target, times, n_paths, seed=0):
    """Estimate P(L_t hits target) for each time, one simulated path set.

    Returns a list of DecayPoint sorted by time.  Paths are independent
    thinning streams keyed by (seed, path index), so results grow
    consistently with n_paths.  Blocks of paths advance in lockstep
    (``sim.lockstep_thinning``) with the same values as path-by-path runs.
    """
    n_paths = int(n_paths)
    if n_paths <= 0:
        raise errors.ZeroSamples("need at least one path")
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0.0 or not all(map(math.isfinite, times)):
        raise errors.OutOfRange("times must be positive and finite")
    hits = _count_hits(field, x0, times, target, seed, n_paths)
    return [_decay_point(t, int(h), n_paths) for t, h in zip(times, hits)]


@dataclass(frozen=True)
class DecayComparison:
    """Decay curve against a variational rate.

    gaps lists neg_log_rate - rate for the uncensored points in time order;
    trend says whether the absolute gap shrinks from first to last of those
    ("toward"), grows ("away"), or neither ("flat").  With fewer than two
    uncensored points the comparison is inconclusive.
    """

    rate: float
    gaps: list
    trend: str
    n_censored: int
    inconclusive: bool


def compare_to_rate(points, rate):
    live = [p for p in points if not p.censored]
    gaps = [p.neg_log_rate - rate for p in live]
    n_cens = sum(1 for p in points if p.censored)
    if len(gaps) < 2:
        return DecayComparison(rate, gaps, "flat", n_cens, True)
    first, last = abs(gaps[0]), abs(gaps[-1])
    if last < first * (1.0 - 1e-9):
        trend = "toward"
    elif last > first * (1.0 + 1e-9):
        trend = "away"
    else:
        trend = "flat"
    return DecayComparison(rate, gaps, trend, n_cens, False)


def write_decay_csv(points, fh):
    """Rows t,p_hat,ci_low,ci_high,n,censored,neg_log_rate."""
    w = csv.writer(fh)
    w.writerow(["t", "p_hat", "ci_low", "ci_high", "n", "censored", "neg_log_rate"])
    for p in points:
        w.writerow([repr(float(p.t)), repr(float(p.p_hat)), repr(float(p.ci_low)),
                    repr(float(p.ci_high)), p.n, int(p.censored),
                    repr(float(p.neg_log_rate))])

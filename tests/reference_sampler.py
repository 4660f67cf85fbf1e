"""The thinning sampler's accept loop written as a plain interpreted loop.

``simulate_thinning`` runs its accept loop in a kernel generated per state
count.  ``ReferenceThinning`` does the same float operations without code
generation: the anchor is a list, zero anchor entries are skipped, and
each row sum starts at 0.0.  Skipping a term drops a +-0.0 summand and
starting at 0.0 can change only the sign of a zero, which no acceptance
test reads, so both must give bit-identical paths.
"""

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

"""
Simulating a self-interacting jump process
==========================================

A two-state walker whose jump rates depend on its own running occupation
measure: the more time it has spent in a state, the more attractive that
state becomes.  We sample exact trajectories with the thinning sampler,
look at one path in detail, and then check the long-run law of large
numbers against the self-consistent fixed point.
"""

import numpy as np

from selfjump import core, ldp, sim

# reinforcement field: base generator modulated by exp(strength * L_t(target))
q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
field = core.RateField.autochemotaxis(q0, strength=1.0)
print(f"field: {field.family}, {field.d} states, "
      f"rate upper bound {field.rate_upper:.3f}")

# one path, inspected event by event
traj = sim.simulate_thinning(field, x0=1, horizon=20.0, seed=7)
print(f"\none path to t=20: {traj.n_jumps} jumps, first five events:")
for t, s, d in list(zip(traj.times, traj.sources, traj.targets))[:5]:
    print(f"  t={t:8.4f}  {s} -> {d}")

# the occupation measure is exact at any query time, not just at jumps
for t in (1.0, 5.0, 20.0):
    occ = traj.occupation_at(t)
    print(f"  L_{t:<4} = [{occ[0]:.4f}, {occ[1]:.4f}]  (sums to {occ.sum():.0f})")

# empirical flux: per-edge jump counts over (0, t] divided by t
r = traj.flux_at(20.0)
print(f"  flux 1->2: {r[0, 1]:.4f}   flux 2->1: {r[1, 0]:.4f}   "
      f"net current: {r[0, 1] - r[1, 0]:+.4f}")

# the long-run occupation concentrates on the self-consistent equilibrium
fp = ldp.fixed_point_pi_star(field)
print(f"\nfixed point pi* = [{fp.pi[0]:.6f}, {fp.pi[1]:.6f}] "
      f"(converged={fp.converged})")

# a batch of independent paths: its mean occupation at t=200 lies near pi*
batch = sim.batch_simulate(field, 1, 200.0, 400, seed=1)
mean = batch.mean_occupation
print(f"mean over 400 paths at t=200: L = [{mean[0]:.4f}, {mean[1]:.4f}], "
      f"l1 distance to pi* = {np.abs(mean - fp.pi).sum():.4f}")
print(f"  {batch.jumps} of {batch.candidates} thinning candidates accepted")

# one much longer path ends closer still
long_run = sim.simulate_thinning(field, 1, 3000.0, seed=3).occupation_at(3000.0)
gap = np.abs(long_run - fp.pi).sum()
print(f"one path at t=3000: L = [{long_run[0]:.4f}, {long_run[1]:.4f}], "
      f"l1 distance to pi* = {gap:.4f}")

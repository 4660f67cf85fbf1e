"""End-to-end acceptance checks, one test per guarantee.

Each test prints the measured numbers next to its tolerance so a failing run
shows how far off it was, and asserts its runtime budget where one applies.
"""

import time

import numpy as np
from scipy import stats

from control_paths import (ell, jtilde, m_evolution_defect, random_feasible_path,
                           reweighting_cost)
from reference_sampler import simulate_exact_affine
from selfjump import core, errors, ldp, mc, sim, varsolve


def random_generator(d, rng, scale=0.5):
    off = np.exp(rng.normal(0.0, scale, (d, d)))
    np.fill_diagonal(off, 0.0)
    q = off.copy()
    np.fill_diagonal(q, -off.sum(axis=1))
    return q


def balanced_pair(d, rng):
    """Interior gamma and a balanced flux charging every edge."""
    h = random_generator(d, rng)
    gamma = ldp.stationary_distribution(h)
    flux = gamma[:, None] * h
    np.fill_diagonal(flux, 0.0)
    return gamma, flux


def constant_field_instances():
    """The 10 seeded (q0, gamma, flux) instances, d alternating 2 and 3."""
    rng = np.random.default_rng(2024)
    for k in range(10):
        d = 2 + k % 2
        q0 = random_generator(d, rng)
        gamma, flux = balanced_pair(d, rng)
        yield q0, gamma, flux


def example_fields():
    auto = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                         strength=1.0)
    cong = core.RateField.congestion(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                     alpha=np.array([0.3, 0.2]),
                                     beta=np.array([0.1, 0.4]))
    cata = core.RateField.catalytic(np.stack([
        np.array([[-1.0, 1.0], [2.0, -2.0]]),
        np.array([[-3.0, 3.0], [0.5, -0.5]])]))
    return [auto, cong, cata]


def test_dynamic_rate_matches_static_rate_on_constant_fields():
    # 10 random balanced targets, d in {2, 3}: the minimized dynamic cost
    # must reproduce the closed-form level-2.5 rate within max(2%, 5e-3)
    t0 = time.monotonic()
    worst = 0.0
    for q0, gamma, flux in constant_field_instances():
        dv = ldp.dv_rate(q0, gamma, flux)
        res = varsolve.solve_rate(gamma, flux, core.RateField.constant(q0))
        assert res.status == "converged"
        gap = abs(res.value - dv)
        rel = gap / abs(dv) if abs(dv) > 0 else 0.0
        worst = max(worst, min(rel, gap / 5e-3 * 0.02))
        assert gap <= max(0.02 * abs(dv), 5e-3)
    elapsed = time.monotonic() - t0
    print(f"dynamic vs static rate on 10 instances: worst scaled gap "
          f"{worst:.2e} (tol 2e-2), {elapsed:.0f}s (budget 300s)")
    assert elapsed <= 300.0


def test_dynamic_rate_matches_static_rate_to_1e6():
    # the same 10 instances: on constant fields the informed start is the
    # exact minimizer, so the solver must land on the closed form
    worst = 0.0
    for q0, gamma, flux in constant_field_instances():
        dv = ldp.dv_rate(q0, gamma, flux)
        res = varsolve.solve_rate(gamma, flux, core.RateField.constant(q0))
        assert res.status == "converged"
        worst = max(worst, abs(res.value - dv))
        assert abs(res.value - dv) <= 1e-6
    print(f"dynamic vs static rate on 10 instances: worst absolute gap "
          f"{worst:.2e} (tol 1e-6)")


def test_rate_vanishes_at_self_consistent_equilibrium():
    # at (pi*, equilibrium flux) the rate must be ~0 for every family
    t0 = time.monotonic()
    values = []
    for field in example_fields():
        fp = ldp.fixed_point_pi_star(field)
        assert fp.converged
        flux = ldp.equilibrium_flux(field, fp.pi)
        res = varsolve.solve_rate(fp.pi, flux, field)
        assert res.status == "converged"
        assert res.value <= 1e-3
        values.append(res.value)
    elapsed = time.monotonic() - t0
    print(f"equilibrium rate per family: "
          f"{', '.join(f'{v:.2e}' for v in values)} (tol 1e-3), "
          f"{elapsed:.0f}s (budget 60s)")
    assert elapsed <= 60.0


def test_reweighting_identity_on_random_paths():
    # the product-form reweighting cost equals the control cost, path by path
    fields = [core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
              core.RateField.constant(np.array([[-1.0, 1.0, 0.0],
                                                [0.0, -1.0, 1.0],
                                                [1.0, 0.0, -1.0]])),
              core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                            strength=1.0),
              core.RateField.catalytic(np.stack([
                  np.array([[-1.0, 1.0], [2.0, -2.0]]),
                  np.array([[-3.0, 3.0], [0.5, -0.5]])]))]
    grid = varsolve.TimeGrid(8.0, 32)
    worst = 0.0
    n_paths = 0
    for fi, field in enumerate(fields):
        for seed in range(25):
            path = random_feasible_path(field, grid, seed=1000 * fi + seed)
            a = jtilde(path, field)
            b = reweighting_cost(path, field)
            worst = max(worst, abs(a - b))
            n_paths += 1
            assert abs(a - b) <= 1e-12
    print(f"reweighting identity on {n_paths} random paths: "
          f"worst gap {worst:.2e} (tol 1e-12)")


def test_occupation_rate_matches_two_state_closed_form():
    # free-flux contraction for d=2 constant fields has a closed form
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        q0 = random_generator(2, rng)
        gamma = rng.dirichlet(np.ones(2))
        gamma = 0.05 + 0.9 * gamma  # keep the target interior
        gamma = gamma / gamma.sum()
        closed = (np.sqrt(gamma[0] * q0[0, 1]) - np.sqrt(gamma[1] * q0[1, 0])) ** 2
        res = varsolve.occupation_rate(gamma, core.RateField.constant(q0))
        assert res.status == "converged"
        gap = abs(res.value - closed)
        assert gap <= max(0.02 * closed, 5e-3)
        worst = max(worst, gap / max(closed, 5e-3))
    print(f"occupation rate vs closed form on 10 instances: "
          f"worst scaled gap {worst:.2e} (tol 2e-2)")


def test_samplers_are_exact():
    # holding times of a unit-rate 2-state chain are Exponential(1)
    field = core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def collect(simulate, seed, n):
        holds = []
        i = 0
        while len(holds) < n:
            traj = simulate(field, 1, 120.0, seed, path_index=i)
            holds.extend(np.diff(traj.times, prepend=0.0).tolist())
            i += 1
        return np.asarray(holds[:n])

    thin = collect(sim.simulate_thinning, 101, 10_000)
    p_exp = stats.kstest(thin, "expon").pvalue
    affine = collect(simulate_exact_affine, 202, 10_000)
    p_two = stats.ks_2samp(thin, affine).pvalue
    print(f"thinning vs Exponential(1): KS p={p_exp:.3f}; "
          f"thinning vs exact-affine: KS p={p_two:.3f} (reject below 0.01)")
    assert p_exp >= 0.01
    assert p_two >= 0.01


def test_occupation_converges_to_fixed_point():
    # long-run occupation concentrates on the self-consistent equilibrium
    field = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    pi = ldp.fixed_point_pi_star(field).pi
    dists = []
    for seed in range(20):
        traj = sim.simulate_thinning(field, 1, 5000.0, seed=seed)
        dists.append(np.abs(traj.occupation_at(5000.0) - pi).sum())
    mean_dist = float(np.mean(dists))
    print(f"mean l1 distance to fixed point over 20 paths at t=5e3: "
          f"{mean_dist:.4f} (tol 0.05)")
    assert mean_dist <= 0.05


def test_structural_invariants_battery():
    rng = np.random.default_rng(11)
    fields = example_fields() + [
        core.RateField.constant(np.array([[-1.0, 1.0, 0.0],
                                          [0.5, -1.0, 0.5],
                                          [1.0, 0.0, -1.0]]))]

    # occupation normalization and flux near-balance on simulated paths
    n_occ = n_flux = 0
    for k in range(40):
        field = fields[k % len(fields)]
        traj = sim.simulate_thinning(field, 1 + k % field.d, 30.0, seed=k)
        for t in rng.uniform(1e-3, 30.0, 25):
            occ = traj.occupation_at(t)
            assert abs(occ.sum() - 1.0) <= 1e-10
            assert occ.min() >= 0.0
            n_occ += 1
            counts = traj.flux_at(t) * t
            gap = np.abs(counts.sum(axis=1) - counts.sum(axis=0)).max()
            assert gap <= 1.0 + 1e-9
            n_flux += 1
    assert n_occ >= 1000 and n_flux >= 1000

    # every recorded event uses a supported edge
    n_events = 0
    dead_field = fields[-1]
    for seed in range(40):
        traj = sim.simulate_thinning(dead_field, 1, 40.0, seed=seed)
        for s, t in zip(traj.sources, traj.targets):
            assert dead_field.support[s - 1, t - 1]
            n_events += 1
    assert n_events >= 1000

    # discrete occupation-profile evolution identity on random paths
    grid = varsolve.TimeGrid(4.0, 8)
    for seed in range(1000):
        field = fields[seed % len(fields)]
        path = random_feasible_path(field, grid, seed=seed)
        assert m_evolution_defect(path) <= 1e-10

    # convexity of the per-jump cost along random chords
    x = rng.uniform(0.0, 5.0, 4000)
    y = rng.uniform(0.0, 5.0, 4000)
    lam = rng.uniform(0.0, 1.0, 4000)
    mid = ell(lam * x + (1 - lam) * y)
    assert np.all(mid <= lam * ell(x) + (1 - lam) * ell(y) + 1e-12)

    # generator validation accepts valid matrices and rejects corruptions
    for seed in range(1000):
        g = np.random.default_rng(seed)
        d = int(g.integers(2, 5))
        q = random_generator(d, g)
        core.validate_generator(q)
        bad = q.copy()
        i, j = g.integers(0, d, 2)
        if i == j:
            bad[i, i] += 0.5  # break the row sum
        else:
            bad[i, j] = -bad[i, j] - 0.1  # negative off-diagonal
        try:
            core.validate_generator(bad)
        except errors.InvalidInput:
            pass
        else:
            raise AssertionError("corrupted generator was accepted")

    print("structural invariants: occupation normalization, flux balance, "
          "support purity, profile evolution, cost convexity, generator "
          "validation all green on >= 1e3 cases each")


def test_monte_carlo_decay_tracks_variational_rate():
    # decay of P(L_t near (0.75, 0.25)) against the grid-contracted ball rate
    t0 = time.monotonic()
    field = core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    target = mc.BallTarget(np.array([0.75, 0.25]), 0.1)
    points = mc.decay_curve(field, 1, target, [25.0, 50.0, 100.0], 100_000,
                            seed=0)
    q0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    grid = np.linspace(0.70, 0.80, 1000)
    ball_rate = min(ldp.dv_occupation_rate_2state(q0, np.array([g, 1.0 - g]))
                    for g in grid)
    for p in points:
        assert np.isfinite(p.neg_log_rate)
        assert not p.censored
    last = points[-1]
    ratio = last.neg_log_rate / ball_rate
    elapsed = time.monotonic() - t0
    print(f"decay at t=100: -log(p)/t = {last.neg_log_rate:.5f}, ball rate "
          f"{ball_rate:.5f}, ratio {ratio:.2f} (tol factor 2), "
          f"{elapsed:.0f}s (budget 600s)")
    assert 0.5 <= ratio <= 2.0
    assert elapsed <= 600.0

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from control_paths import ell
from selfjump import core, errors, ldp


def test_ell_values():
    assert ell(1.0) == 0.0
    assert ell(0.0) == 1.0
    assert ell(2.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)
    with pytest.raises(errors.InvalidInput, match="ell needs"):
        ell(-0.5)


def test_ell_vectorized_and_convex():
    x = np.array([0.0, 0.5, 1.0, 3.0])
    v = ell(x)
    assert v.shape == (4,)
    assert v[2] == 0.0
    # convexity on a fixed probe
    a, b, lam = 0.3, 2.7, 0.4
    assert ell(lam * a + (1 - lam) * b) <= lam * ell(a) + (1 - lam) * ell(b) + 1e-12


def test_scaled_ell_edge_cases():
    # q * ell(h/q) in general
    assert ldp.scaled_ell(2.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert ldp.scaled_ell(0.5, 1.0) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
    # full suppression costs the rate itself
    assert ldp.scaled_ell(1.5, 0.0) == pytest.approx(1.5)
    # zero rate: only zero flux is free
    assert ldp.scaled_ell(0.0, 0.0) == 0.0
    assert ldp.scaled_ell(0.0, 0.3) == math.inf


def test_ell_and_scaled_ell_are_the_xlogy_formula_bitwise():
    # x * log(x) under np.where differs from xlogy in the last bit on some
    # inputs, so any rewrite of the cost would move reported values
    from scipy.special import xlogy

    rng = np.random.default_rng(20260518)
    edges = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                      3e-301, 1.0, 1e300, 5e299])
    x = np.concatenate([edges, rng.uniform(0.0, 1.0, 200_000),
                        rng.lognormal(0.0, 3.0, 20_000),
                        10.0 ** rng.uniform(-300.0, 300.0, 20_000)])
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    assert np.array_equal(bits(ell(x)), bits(xlogy(x, x) - x + 1.0))
    for v in edges:
        assert bits(ell(float(v))) == bits(xlogy(v, v) - v + 1.0)
    q, h = x, rng.permutation(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = xlogy(h, h) - xlogy(h, q) + q - h
    assert np.array_equal(bits(ldp.scaled_ell(q, h)), bits(want))


def test_flux_validation_and_balance():
    f = ldp.as_flux([[5.0, 0.3], [0.3, 0.0]])
    assert f[0, 0] == 0.0  # diagonal carries no flux
    assert ldp.flux_balanced(f)
    assert not ldp.flux_balanced([[0.0, 0.5], [0.1, 0.0]])
    with pytest.raises(errors.InvalidInput, match="nonnegative"):
        ldp.as_flux([[0.0, -0.1], [0.1, 0.0]])


def test_dv_rate_frozen_value():
    # unit-rate 2-state chain, gamma uniform, unit flux both ways: 2 ln 2 - 1
    q0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    gamma = np.array([0.5, 0.5])
    flux = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = ldp.dv_rate(q0, gamma, flux)
    assert v == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-14)


def test_dv_rate_gates():
    q0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    gamma = np.array([0.5, 0.5])
    assert ldp.dv_rate(q0, gamma, [[0.0, 0.5], [0.1, 0.0]]) == math.inf
    q_gap = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    # balanced cyclic flux charging the dead edge 1->3 is infinitely costly
    flux = np.zeros((3, 3))
    flux[0, 2] = 0.2
    flux[2, 0] = 0.2
    assert ldp.dv_rate(q_gap, np.array([0.4, 0.3, 0.3]), flux) == math.inf


def test_dv_rate_zero_at_equilibrium():
    q0 = np.array([[-1.0, 1.0], [2.0, -2.0]])
    pi = ldp.stationary_distribution(q0)
    flux = pi[:, None] * q0
    np.fill_diagonal(flux, 0.0)
    assert ldp.dv_rate(q0, pi, flux) == pytest.approx(0.0, abs=1e-14)


def test_dv_rate_rejects_reducible():
    q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(errors.Reducible):
        ldp.dv_rate(q, np.array([0.5, 0.4, 0.1]), np.zeros((3, 3)))


def test_stationary_distribution_known_chain():
    q = np.array([[-1.0, 1.0], [3.0, -3.0]])
    pi = ldp.stationary_distribution(q)
    assert np.allclose(pi, [0.75, 0.25], atol=1e-12)
    assert abs(pi @ q).max() < 1e-12


def test_is_irreducible():
    assert ldp.is_irreducible(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert not ldp.is_irreducible(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    ring = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    assert ldp.is_irreducible(ring)


def test_fixed_point_closed_form():
    # m = G(m) for this instance solves sqrt: pi* = (2 - sqrt(3), sqrt(3) - 1)
    q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=1.0)
    r = ldp.fixed_point_pi_star(f)
    assert r.converged
    assert r.pi[0] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)
    assert r.residual < 1e-9


def test_fixed_point_symmetric_is_uniform():
    q0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=0.7)
    r = ldp.fixed_point_pi_star(f)
    assert np.allclose(r.pi, [0.5, 0.5], atol=1e-10)


def test_fixed_point_grid_search_oracle():
    q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=1.0)
    r = ldp.fixed_point_pi_star(f)
    # brute force the scalar self-consistency m = G(m) on a 1e-6 grid
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1_000_001)
    best, best_gap = None, np.inf
    # vectorized: pi_1(m) of Q([m, 1-m]) for the 2-state chain
    q12 = q0[0, 1] * ((1.0 - grid) * 1.0 + 1.0)
    q21 = q0[1, 0] * (grid * 1.0 + 1.0)
    g = q21 / (q12 + q21)
    gap = np.abs(g - grid)
    k = int(np.argmin(gap))
    assert gap[k] < 1e-5
    assert abs(grid[k] - r.pi[0]) < 1e-5


def test_fixed_point_multistart_dedupes():
    q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=1.0)
    results = ldp.fixed_point_multistart(f, n_starts=6, seed=3)
    assert len(results) == 1
    assert results[0].converged


def test_fixed_point_multistart_draws_each_start_as_its_run_begins(monkeypatch):
    # n_starts has no upper bound, so starts drawn up front would size memory
    # before any run
    f = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]), strength=1.0)
    draws, draws_before_run = [], []
    default_rng, search = np.random.default_rng, ldp.fixed_point_pi_star

    class SpyRng:
        def __init__(self, *args):
            self.rng = default_rng(*args)

        def dirichlet(self, alpha):
            draws.append(alpha)
            return self.rng.dirichlet(alpha)

    def spy_search(field, **kwargs):
        draws_before_run.append(len(draws))
        return search(field, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", SpyRng)
    monkeypatch.setattr(ldp, "fixed_point_pi_star", spy_search)
    ldp.fixed_point_multistart(f, n_starts=4, seed=3, max_iter=5)
    assert draws_before_run == [0, 1, 2, 3]


def test_fixed_point_multistart_runs_one_search_by_default(monkeypatch):
    f = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]), strength=1.0)
    searches, search = [], ldp.fixed_point_pi_star

    def spy_search(field, **kwargs):
        searches.append(kwargs["start"])
        return search(field, **kwargs)

    monkeypatch.setattr(ldp, "fixed_point_pi_star", spy_search)
    [found] = ldp.fixed_point_multistart(f, seed=0)
    assert len(searches) == 1
    assert np.array_equal(searches[0], [0.5, 0.5])
    assert found.converged


def test_equilibrium_flux_balanced_to_float_precision():
    q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=1.0)
    pi = ldp.fixed_point_pi_star(f).pi
    flux = ldp.equilibrium_flux(f, pi)
    imbalance = np.abs(flux.sum(axis=1) - flux.sum(axis=0)).max()
    assert imbalance < 1e-14


def test_occupation_rate_2state_closed_form():
    q0 = np.array([[-1.3, 1.3], [0.4, -0.4]])
    gamma = np.array([0.35, 0.65])
    v = ldp.dv_occupation_rate_2state(q0, gamma)
    # the closed form minimizes the symmetric-flux scan
    a = gamma[0] * q0[0, 1]
    b = gamma[1] * q0[1, 0]
    js = np.linspace(1e-6, 3.0, 200000)
    scan = ldp.scaled_ell(a, js) + ldp.scaled_ell(b, js)
    assert v == pytest.approx((math.sqrt(a) - math.sqrt(b)) ** 2, abs=1e-14)
    assert v == pytest.approx(scan.min(), abs=1e-8)
    ring = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    with pytest.raises(errors.InvalidInput, match="d = 2 only"):
        ldp.dv_occupation_rate_2state(ring, np.array([0.3, 0.3, 0.4]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dv_rate_nonnegative_and_zero_only_at_equilibrium(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    off = rng.uniform(0.05, 2.0, (d, d))
    np.fill_diagonal(off, 0.0)
    q0 = off.copy()
    np.fill_diagonal(q0, -off.sum(axis=1))
    h = rng.uniform(0.05, 2.0, (d, d))
    np.fill_diagonal(h, 0.0)
    hq = h.copy()
    np.fill_diagonal(hq, -h.sum(axis=1))
    gamma = ldp.stationary_distribution(hq)
    flux = gamma[:, None] * h
    v = ldp.dv_rate(q0, gamma, flux)
    assert v >= -1e-12
    # zero iff the flux is the equilibrium flux of q0 at gamma
    eq = np.allclose(flux, gamma[:, None] * off, atol=1e-12)
    if eq:
        assert v < 1e-10
    if v < 1e-14:
        assert np.allclose(flux, gamma[:, None] * off, atol=1e-6)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 50.0), st.floats(0.0, 50.0))
def test_scaled_ell_matches_q_times_ell(q, h):
    direct = ldp.scaled_ell(q, h)
    via_ell = q * ell(h / q)
    assert direct == pytest.approx(via_ell, rel=1e-12, abs=1e-12)

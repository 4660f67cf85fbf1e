import warnings

import numpy as np
import pytest

from control_paths import (constant_path, jtilde, m_evolution_defect, m_from_rho,
                           path_flux, random_feasible_path, residuals, reweighting_cost)
from selfjump import core, ldp, varsolve
from selfjump.varsolve import ControlPath, SolveOptions, TimeGrid

TWO_LOG_TWO_MINUS_ONE = 2.0 * np.log(2.0) - 1.0

FAST = SolveOptions(n_starts=3, grid_cells=32)


def unit_field():
    return core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def ring_field():
    q0 = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    return core.RateField.constant(q0)


def dv_anchor_path(grid):
    # rho = (1/2, 1/2), H = varsigma / gamma = 2 on both edges
    return constant_path(grid, [0.5, 0.5], [[-2.0, 2.0], [2.0, -2.0]])


def test_time_grid_uniform():
    g = TimeGrid(8.0, 64)
    assert g.n_cells == 64
    assert g.horizon == 8.0
    assert abs(g.block_weights.sum() - 1.0) < 1e-14
    assert g.cell_weights.min() > 0.0
    assert g.tail_weight == pytest.approx(np.exp(-8.0))


def test_time_grid_validation():
    with pytest.raises(ValueError, match="grid_cells must be >= 2"):
        TimeGrid(2.0, 1)
    with pytest.raises(ValueError, match="too small"):
        TimeGrid(0.8, 2)
    with pytest.raises(ValueError, match="too small"):
        TimeGrid(float("nan"), 2)
    # e^-708 is a normal float, e^-709 a subnormal one
    assert TimeGrid(708.0, 8).tail_weight >= np.finfo(float).tiny
    with pytest.raises(ValueError, match="too large"):
        TimeGrid(709.0, 8)
    with pytest.raises(ValueError, match="too large"):
        SolveOptions(grid_horizon=800, grid_cells=8).grid()


def test_m_from_rho_constant_profile():
    g = TimeGrid(6.0, 16)
    gamma = np.array([0.3, 0.7])
    path = constant_path(g, gamma, [[-1.0, 1.0], [1.0, -1.0]])
    m = m_from_rho(path)
    assert np.max(np.abs(m - gamma)) < 1e-12


def test_m_from_rho_two_cell_hand_value():
    g = TimeGrid(2.0, 2)  # nodes 0, 1, 2
    rho = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    h = np.zeros((3, 2, 2))
    path = ControlPath(g, rho, h)
    m = m_from_rho(path)
    e1, e2 = np.exp(-1.0), np.exp(-2.0)
    m0 = (1.0 - e1) * rho[0] + (e1 - e2) * rho[1] + e2 * rho[2]
    m1 = (1.0 - e1) * rho[1] + e1 * rho[2]
    assert np.allclose(m[0], m0, atol=1e-14)
    assert np.allclose(m[1], m1, atol=1e-14)
    assert np.allclose(m[2], rho[2], atol=1e-14)


def test_m_rows_are_probability_vectors():
    f = ring_field()
    path = random_feasible_path(f, TimeGrid(8.0, 24), seed=5)
    m = m_from_rho(path)
    assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12
    assert m.min() >= 0.0


def test_m_evolution_defect_tiny():
    f = ring_field()
    for seed in range(10):
        path = random_feasible_path(f, TimeGrid(8.0, 32), seed=seed)
        assert m_evolution_defect(path) <= 1e-10


def test_jtilde_constant_reduction():
    # constant (rho, H) under a constant field collapses to the static rate
    path = dv_anchor_path(TimeGrid(8.0, 64))
    assert jtilde(path, unit_field()) == pytest.approx(TWO_LOG_TWO_MINUS_ONE,
                                                       abs=1e-13)


def test_jtilde_zero_on_equilibrium_path():
    f = ring_field()
    pi = ldp.stationary_distribution(f.evaluate(np.full(3, 1 / 3)))
    path = constant_path(TimeGrid(8.0, 16), pi, f.evaluate(pi))
    assert jtilde(path, f) == 0.0


def test_jtilde_infinite_when_charging_dead_edge():
    q0 = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    f = core.RateField.constant(q0)
    h = np.array([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    path = constant_path(TimeGrid(4.0, 8), np.full(3, 1 / 3), h)
    assert jtilde(path, f) == np.inf


def test_residuals_on_anchor_path():
    g = TimeGrid(8.0, 32)
    path = dv_anchor_path(g)
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    rd = residuals(path, unit_field(), gamma=[0.5, 0.5], flux=target)
    assert rd["marginal"] < 1e-12
    assert rd["stationarity"] < 1e-12
    assert rd["flux"] < 1e-12
    assert rd["support"] == 0
    rd2 = residuals(path, unit_field(), gamma=[0.5, 0.5], flux=2.0 * target)
    assert rd2["flux"] == pytest.approx(1.0, abs=1e-12)


def test_residuals_stationarity_hand_value():
    h = np.array([[-2.0, 2.0], [1.0, -1.0]])
    path = constant_path(TimeGrid(4.0, 8), [0.5, 0.5], h)
    rd = residuals(path, unit_field(), gamma=None, flux=None)
    # rho H = (-1/2, 1/2)
    assert rd["stationarity"] == pytest.approx(0.5, abs=1e-14)
    assert rd["marginal"] == 0.0
    assert rd["flux"] == 0.0


def test_reweighting_cost_matches_jtilde_on_random_paths():
    f = ring_field()
    g = TimeGrid(8.0, 24)
    for seed in range(20):
        path = random_feasible_path(f, g, seed=seed)
        a = jtilde(path, f)
        b = reweighting_cost(path, f)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_jtilde_hand_values():
    f = unit_field()
    g = TimeGrid(4.0, 8)
    follow = constant_path(g, [0.5, 0.5], f.evaluate([0.5, 0.5]))
    assert jtilde(follow, f) == pytest.approx(0.0, abs=1e-15)
    # H = 0 everywhere costs ell(0) = 1 per unit of rate mass
    suppress = constant_path(g, [0.5, 0.5], np.zeros((2, 2)))
    assert jtilde(suppress, f) == pytest.approx(1.0, abs=1e-13)
    assert reweighting_cost(suppress, f) == pytest.approx(1.0, abs=1e-13)


def test_flux_cost_gradient_finite_difference():
    # the cost in (rho, j) and the augmented Lagrangian in the scaled
    # variables, on an interacting field in every mode
    f = core.RateField.autochemotaxis(ring_field().vertices[0], strength=1.0)
    g = TimeGrid(2.0, 3)
    gamma = np.array([0.2, 0.3, 0.5])
    flux = path_flux(random_feasible_path(f, g, seed=0))
    cur = np.array([[0.0, 0.02, -0.02], [-0.02, 0.0, 0.02], [0.02, -0.02, 0.0]])
    cases = [("rate", dict(gamma=gamma, flux=flux)),
             ("occupation", dict(gamma=gamma)),
             ("current", dict(current=cur))]
    rng = np.random.default_rng(7)
    eps = 1e-6
    for mode, kw in cases:
        prob = varsolve._FluxProblem(f, g, mode, **kw)
        n = prob.A.shape[1]
        lam = rng.standard_normal(prob.A.shape[0])
        for fun in (prob.cost, lambda u: prob.lagrangian(u, lam, 7.0)):
            z = rng.uniform(0.1, 1.0, n)
            _, grad = fun(z)
            for i in rng.choice(n, size=12, replace=False):
                zp, zm = z.copy(), z.copy()
                zp[i] += eps
                zm[i] -= eps
                fd = (fun(zp)[0] - fun(zm)[0]) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8), mode


def test_flux_cost_equals_jtilde():
    # at H = j / rho the flux cost is the control cost of the path
    f = core.RateField.autochemotaxis(ring_field().vertices[0], strength=1.0)
    g = TimeGrid(4.0, 8)
    prob = varsolve._FluxProblem(f, g, "occupation", gamma=np.full(3, 1 / 3))
    u = np.random.default_rng(3).uniform(0.1, 1.0, prob.A.shape[1])
    assert prob.cost_u(u)[0] == pytest.approx(jtilde(prob.path_from(u), f),
                                              rel=1e-12)


def test_solver_rounds_chain_and_every_start_minimizes(monkeypatch):
    # each multiplier round restarts L-BFGS-B from the previous round's
    # result, and every start makes at least one minimize call
    calls = []
    original = varsolve.minimize

    def spy(fun, x0, *args, **kwargs):
        res = original(fun, x0, *args, **kwargs)
        calls.append((np.array(x0, copy=True), np.array(res.x, copy=True)))
        return res

    monkeypatch.setattr(varsolve, "minimize", spy)
    q0 = np.array([[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]])
    h = q0 * 1.3
    gamma = ldp.stationary_distribution(h)
    flux = gamma[:, None] * h
    np.fill_diagonal(flux, 0.0)
    opts = SolveOptions(n_starts=2, grid_cells=16)
    res = varsolve.solve_rate(gamma, flux, core.RateField.constant(q0), opts)
    assert res.status == "converged"
    new_start = [k == 0 or not np.array_equal(x0, calls[k - 1][1])
                 for k, (x0, _) in enumerate(calls)]
    assert sum(new_start) == opts.n_starts
    assert len(calls) > opts.n_starts  # some start ran several rounds


def test_solve_rate_constant_field_matches_static_rate():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = varsolve.solve_rate([0.5, 0.5], target, unit_field(), FAST)
    assert res.status == "converged"
    dv = ldp.dv_rate(np.array([[-1.0, 1.0], [1.0, -1.0]]), [0.5, 0.5], target)
    assert res.value == pytest.approx(dv, abs=1e-4)
    # the reported value is the raw cost of the reported path
    assert res.value == pytest.approx(jtilde(res.path, unit_field()), rel=1e-12)
    rd = res.residuals
    assert max(rd["marginal"], rd["stationarity"], rd["flux"]) <= 1e-5
    assert rd["support"] == 0


def test_default_starts_return_the_level_2_5_rate_on_a_constant_field():
    # the informed start is exact here; the equilibrium start ends a few 1e-8
    # lower through slack left in its marginal rows and must not win
    q0 = np.array([[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7))
    h = q0 * np.exp(0.5 * rng.standard_normal(q0.shape))
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, -h.sum(axis=1))
    gamma = ldp.stationary_distribution(h)
    flux = gamma[:, None] * h
    np.fill_diagonal(flux, 0.0)
    res = varsolve.solve_rate(gamma, flux, core.RateField.constant(q0))
    assert res.status == "converged"
    assert res.value == pytest.approx(ldp.dv_rate(q0, gamma, flux), rel=1e-12)


def test_solve_rate_gates():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    res = varsolve.solve_rate([0.5, 0.5], bad, unit_field(), FAST)
    assert res.status == "infeasible"
    assert res.value == np.inf
    assert res.detail == "flux balance violated"
    q0 = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    f = core.RateField.constant(q0)
    dead = np.zeros((3, 3))
    dead[0, 2] = dead[2, 0] = 1.0
    res2 = varsolve.solve_rate(np.full(3, 1 / 3), dead, f, FAST)
    assert res2.status == "infeasible"
    assert res2.detail == "flux charges edges off the support"
    assert ldp.flux_infeasibility(f.support, dead, np.full(3, 1 / 3)) == res2.detail


def test_solve_rate_boundary_flag():
    # no flux at gamma = delta_1: state 2 is pinned empty, the solve converges
    # and the value is the killing cost of the edge into it, Q_12 = 1
    res = varsolve.solve_rate([1.0, 0.0], np.zeros((2, 2)), unit_field(), FAST)
    assert res.status == "converged"
    dv = ldp.dv_rate(unit_field().vertices[0], [1.0, 0.0], np.zeros((2, 2)))
    assert dv == 1.0
    assert res.value == pytest.approx(dv, abs=1e-6)


@pytest.mark.parametrize("g2", [1e-8, 1e-12])
def test_solve_rate_near_the_boundary_matches_closed_form(g2):
    gamma = np.array([1.0 - g2, g2])
    flux = np.array([[0.0, 0.5], [0.5, 0.0]])
    res = varsolve.solve_rate(gamma, flux, unit_field())
    assert res.status == "converged"
    dv = ldp.dv_rate(unit_field().vertices[0], gamma, flux)
    assert res.value == pytest.approx(dv, abs=1e-6)


@pytest.mark.parametrize("g2", [0.0, 1e-6, 1e-8, 1e-12])
def test_occupation_rate_near_the_boundary_matches_closed_form(g2):
    gamma = np.array([1.0 - g2, g2])
    res = varsolve.occupation_rate(gamma, unit_field())
    assert res.status == "converged"
    closed = ldp.dv_occupation_rate_2state(unit_field().vertices[0], gamma)
    assert res.value == pytest.approx(closed, abs=1e-6)


THREE_STATE_Q0 = np.array([[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]])


def test_occupation_rate_on_a_face_of_the_simplex():
    # state 3 empty: the two-state rate on {1, 2} plus the killing cost of
    # the edges into 3
    q = THREE_STATE_Q0
    g = np.array([0.5, 0.5, 0.0])
    closed = ((np.sqrt(g[0] * q[0, 1]) - np.sqrt(g[1] * q[1, 0])) ** 2
              + g[0] * q[0, 2] + g[1] * q[1, 2])
    res = varsolve.occupation_rate(g, core.RateField.constant(q))
    assert res.status == "converged"
    assert res.value == pytest.approx(closed, abs=1e-6)
    assert np.all(res.path.rho[:, 2] == 0.0)


def test_occupation_rate_at_a_three_state_vertex():
    # at delta_3 every path stays in 3; the cost is the total exit rate
    res = varsolve.occupation_rate([0.0, 0.0, 1.0],
                                   core.RateField.constant(THREE_STATE_Q0))
    assert res.status == "converged"
    assert res.value == pytest.approx(-THREE_STATE_Q0[2, 2], abs=1e-6)


def test_solve_rate_flux_out_of_unoccupied_state_is_infeasible():
    flux = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = varsolve.solve_rate([1.0, 0.0], flux, unit_field(), FAST)
    assert res.status == "infeasible"
    assert res.value == np.inf
    assert res.detail == "flux leaves a state with zero occupation"
    assert ldp.dv_rate(unit_field().vertices[0], [1.0, 0.0], flux) == np.inf


def test_boundary_status_only_for_converged_solves():
    # a target on the boundary reads converged, at its exact value: at
    # delta_1 on the benchmark field the only cost is the killing term
    # Q_12(delta_1) = 2 of the edge into the empty state
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    res = varsolve.occupation_rate([1.0, 0.0], chemo)
    assert res.status == "converged"
    assert res.value == pytest.approx(chemo.evaluate([1.0, 0.0])[0, 1], abs=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("field, exact", [
    (unit_field(), 1.0),
    (core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                   strength=1.0), 2.0),
])
def test_vertex_target_is_not_undercut_by_simplex_slack(field, exact):
    # at delta_1 the informed start is exactly feasible at the killing cost;
    # a start whose simplex rows miss 1 by 1e-7 read 1 - 1.2e-8 and 2 - 2e-7
    # while only the marginal, stationarity and flux rows were checked
    res = varsolve.occupation_rate([1.0, 0.0], field)
    assert res.status == "converged"
    assert res.value == pytest.approx(exact, abs=1e-9)
    assert res.residuals["simplex"] <= 1e-5
    assert np.max(np.abs(res.path.rho.sum(axis=1) - 1.0)) <= 1e-5


def test_first_multipliers_keep_the_exact_informed_start():
    # fitted over the free variables only, the first multipliers leave the
    # exactly feasible informed start at the killing cost Q_12(delta_1) = 2
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    res = varsolve.occupation_rate([1.0, 0.0], chemo, SolveOptions(n_starts=1))
    assert res.status == "converged"
    assert res.value == 2.0


def test_reported_residuals_agree_with_the_path():
    # the solver's residuals, read off A u - b in natural units, against the
    # H-space check of the returned path
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    res = varsolve.occupation_rate([0.6, 0.4], chemo, SolveOptions(grid_cells=16))
    assert res.status == "converged"
    rd = res.residuals
    assert sorted(rd) == ["flux", "marginal", "simplex", "stationarity", "support"]
    h_space = residuals(res.path, chemo, gamma=[0.6, 0.4])
    assert h_space["stationarity"] == pytest.approx(rd["stationarity"], abs=1e-12)
    assert h_space["marginal"] <= 2.0 * rd["marginal"] + 1e-12
    assert h_space["support"] == rd["support"] == 0
    assert rd["simplex"] == pytest.approx(
        np.max(np.abs(res.path.rho.sum(axis=1) - 1.0)), abs=1e-12)


@pytest.mark.parametrize("q0, strength, gamma", [
    ([[-1.0, 1.0], [1.5, -1.5]], 6.0, [0.15, 0.85]),
    ([[-1.0, 1.0], [1.0, -1.0]], 10.0, [0.05, 0.95]),
])
def test_occupation_rate_converges_on_strong_interactions(q0, strength, gamma):
    field = core.RateField.autochemotaxis(np.array(q0), strength=strength)
    res = varsolve.occupation_rate(gamma, field)
    assert res.status == "converged"
    assert res.value == pytest.approx(jtilde(res.path, field), rel=1e-12)


@pytest.mark.parametrize("field, gamma", [
    (core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                   strength=1.0), [0.6, 0.4]),
    (core.RateField.constant(THREE_STATE_Q0), [0.2, 0.3, 0.5]),
    (core.RateField.constant(THREE_STATE_Q0), [0.5, 0.5, 0.0]),
])
def test_occupation_start_is_exactly_feasible(field, gamma):
    gamma = np.array(gamma)
    prob = varsolve._FluxProblem(field, TimeGrid(8.0, 16), "occupation",
                                 gamma=gamma)
    start = next(varsolve._starts(prob, field, "occupation", gamma, None))
    rd = residuals(prob.path_from(start), field, gamma=gamma)
    assert rd["marginal"] <= 1e-12
    assert rd["stationarity"] <= 1e-12
    assert rd["support"] == 0


def test_occupation_rate_two_state_closed_form():
    q0 = np.array([[-1.7, 1.7], [0.6, -0.6]])
    gamma = np.array([0.3, 0.7])
    closed = (np.sqrt(gamma[0] * q0[0, 1]) - np.sqrt(gamma[1] * q0[1, 0])) ** 2
    res = varsolve.occupation_rate(gamma, core.RateField.constant(q0), FAST)
    assert res.status == "converged"
    assert res.value == pytest.approx(closed, rel=0.02)
    assert res.residuals["flux"] == 0.0


def test_n_starts_beyond_the_two_starts_solves_as_two():
    # n_starts has no upper bound; islice refuses a stop above sys.maxsize
    field = core.RateField.constant(np.array([[-1.7, 1.7], [0.6, -0.6]]))
    many, two = (varsolve.occupation_rate([0.3, 0.7], field,
                                          SolveOptions(n_starts=n, grid_cells=8))
                 for n in (10 ** 20, 2))
    assert (many.value, many.best_start) == (two.value, two.best_start)


def test_occupation_rate_refinement_does_not_increase():
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    coarse = varsolve.occupation_rate([0.6, 0.4], chemo,
                                      SolveOptions(n_starts=3, grid_cells=16))
    fine = varsolve.occupation_rate([0.6, 0.4], chemo,
                                    SolveOptions(n_starts=3, grid_cells=32))
    assert coarse.status == "converged" and fine.status == "converged"
    assert fine.value <= coarse.value + 1e-3


def test_current_rate_zero_at_equilibrium_current():
    f = ring_field()
    pi = np.full(3, 1 / 3)
    r = ldp.equilibrium_flux(f, pi)
    res = varsolve.current_rate(r - r.T, f, FAST)
    assert res.status == "converged"
    assert abs(res.value) <= 1e-6


def test_current_rate_static_oracle_value():
    # independent static minimization over constant (gamma, flux) pairs with
    # the requested antisymmetric part gives 0.005622367719573307
    q0 = np.full((3, 3), 1.0)
    np.fill_diagonal(q0, -2.0)
    f = core.RateField.constant(q0)
    a = 0.05
    cur = np.array([[0.0, a, -a], [-a, 0.0, a], [a, -a, 0.0]])
    res = varsolve.current_rate(cur, f, FAST)
    assert res.status == "converged"
    assert res.value == pytest.approx(0.005622367719573307, abs=1e-4)


def test_current_rate_two_state_nonzero_infeasible():
    cur = np.array([[0.0, 0.1], [-0.1, 0.0]])
    res = varsolve.current_rate(cur, unit_field(), FAST)
    assert res.status == "infeasible"
    assert res.value == np.inf
    assert "divergence" in res.detail


def one_way_field():
    # the d = 3 field of the long-paths benchmark: 2 -> 3 and 3 -> 1 are
    # one-way edges, and 1 -> 3 and 3 -> 2 carry no rate
    q0 = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    return core.RateField.autochemotaxis(q0, strength=1.0)


def test_current_rate_against_one_way_edges_infeasible():
    # the cycle 1 -> 3 -> 2 -> 1 needs flux on 1 -> 3 and 3 -> 2
    cycle = np.zeros((3, 3))
    cycle[0, 2] = cycle[2, 1] = cycle[1, 0] = 0.1
    res = varsolve.current_rate(cycle - cycle.T, one_way_field(), FAST)
    assert res.status == "infeasible"
    assert res.value == np.inf
    # the reverse cycle runs along charged edges only
    res = varsolve.current_rate(cycle.T - cycle, one_way_field(), FAST)
    assert res.status == "converged"
    assert 0.0 < res.value < np.inf


def test_current_rate_zero_current_with_one_way_edges_converges():
    # a one-way edge's flux is the whole of its pair's current, so zero
    # current leaves it no flux in any block
    res = varsolve.current_rate(np.zeros((3, 3)), one_way_field(), FAST)
    assert res.status == "converged"
    assert res.residuals["flux"] <= 1e-8


def test_field_without_edges_solves_in_every_mode():
    # no support edge leaves no flux variables, and an empty flux or
    # current row group; the only feasible path costs nothing
    zero = core.RateField.constant(np.zeros((2, 2)))
    for res in (varsolve.occupation_rate([0.6, 0.4], zero, FAST),
                varsolve.solve_rate([0.6, 0.4], np.zeros((2, 2)), zero, FAST),
                varsolve.current_rate(np.zeros((2, 2)), zero, FAST)):
        assert res.status == "converged"
        assert res.value == 0.0
        assert res.residuals["flux"] == 0.0


def test_current_rate_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        varsolve.current_rate(np.array([[0.0, 1.0], [0.0, 0.0]]), unit_field(),
                              FAST)


def test_random_feasible_path_is_stationary():
    f = unit_field()
    path = random_feasible_path(f, TimeGrid(8.0, 16), seed=3)
    rd = residuals(path, f)
    assert rd["stationarity"] <= 1e-12
    assert rd["support"] == 0
    assert np.max(np.abs(path.rho.sum(axis=1) - 1.0)) < 1e-12


def test_occupation_rate_benchmark_field_not_above_penalty_solver():
    # the autochemotaxis field and target of the solve-interacting benchmark;
    # 0.21413896849097602 is the value of the earlier penalty solver
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    res = varsolve.occupation_rate([0.6, 0.4], chemo)
    assert res.status == "converged"
    assert res.value <= 0.21413896849097602
    assert res.value == pytest.approx(jtilde(res.path, chemo), rel=1e-12)


def test_a_start_that_never_moves_is_not_converged():
    # the informed start's flux sqrt(p p^T) is 0 on the one-way edges 2 -> 3
    # and 3 -> 1, where the log guard's slope stops the first line search
    # before one iteration; that start is exactly feasible but not a minimum
    field = core.RateField.autochemotaxis(
        np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]]), strength=1.0)
    gamma = np.full(3, 1 / 3)
    one = varsolve.occupation_rate(gamma, field, SolveOptions(n_starts=1))
    assert one.status == "max_iter"
    two = varsolve.occupation_rate(gamma, field)
    assert (two.status, two.best_start) == ("converged", 1)
    assert two.value < one.value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residuals_are_not_converged(monkeypatch):
    # TimeGrid refuses horizon 800; on a grid built past that check the tail
    # weight e^-800 underflows to 0, its 1/sqrt(w) scale is inf and the
    # simplex and stationarity gaps are NaN
    grid = object.__new__(TimeGrid)
    object.__setattr__(grid, "horizon", 800.0)
    object.__setattr__(grid, "n_cells", 8)
    monkeypatch.setattr(SolveOptions, "grid", lambda opts: grid)
    chemo = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=1.0)
    res = varsolve.occupation_rate([0.6, 0.4], chemo, SolveOptions())
    assert not np.isfinite(res.residuals["simplex"])
    assert res.status == "max_iter"


@pytest.mark.xfail(strict=True, reason="the solver ends inf/max_iter on this strong "
                                       "interaction at the default grid")
def test_occupation_rate_converges_on_strength_10_at_default_grid():
    field = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=10.0)
    res = varsolve.occupation_rate([0.8, 0.2], field)
    assert res.status == "converged"
    assert np.isfinite(res.value)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: rho reaches 0 under flux, the log guard's "
                          "gradient overflows, and L-BFGS-B breaks down")
def test_solve_rate_agrees_across_one_ulp_of_gamma():
    # at the default grid gamma_1 = 0.6 ends inf/max_iter, while one ulp
    # above it converges to 1.4299369735407852 through two RuntimeWarnings
    field = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=6.0)
    flux = np.array([[0.0, 0.65], [0.65, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        low, high = (varsolve.solve_rate([g, 1.0 - g], flux, field)
                     for g in (0.6, np.nextafter(0.6, 1.0)))
    assert (low.status, high.status) == ("converged", "converged")
    assert abs(low.value - high.value) <= 1e-6
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

import io

import numpy as np
import pytest
from scipy import stats

from selfjump import core, errors, sim


def unit_field():
    return core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def chemo_field():
    return core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                         strength=1.0)


def hand_trajectory(times, sources, targets, x0=1, horizon=4.0, d=2):
    return sim.Trajectory(x0=x0, horizon=horizon,
                          times=np.asarray(times, dtype=float),
                          sources=np.asarray(sources, dtype=np.int64),
                          targets=np.asarray(targets, dtype=np.int64), d=d)


def test_occupation_at_hand_cases():
    empty = hand_trajectory([], [], [])
    assert np.allclose(empty.occupation_at(3.0), [1.0, 0.0])
    one = hand_trajectory([1.0], [1], [2])
    assert np.allclose(one.occupation_at(2.0), [0.5, 0.5])
    assert np.allclose(one.occupation_at(1.0), [1.0, 0.0])
    with pytest.raises(errors.OutOfRange):
        one.occupation_at(0.0)
    with pytest.raises(errors.OutOfRange):
        one.occupation_at(5.0)


def test_flux_and_current_hand_cases():
    traj = hand_trajectory([1.0, 2.0], [1, 2], [2, 1])
    r = traj.flux_at(4.0)
    assert r[0, 1] == pytest.approx(0.25)
    assert r[1, 0] == pytest.approx(0.25)
    assert np.allclose(traj.current_at(4.0), 0.0)
    single = hand_trajectory([1.0], [1], [2])
    j = single.current_at(2.0)
    assert j[0, 1] == pytest.approx(0.5)
    assert j[1, 0] == pytest.approx(-0.5)


def test_flux_times_t_is_integer_counts():
    traj = sim.simulate_thinning(unit_field(), 1, 37.0, seed=4)
    r = traj.flux_at(37.0)
    counts = r * 37.0
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_state_at_and_holding_times():
    traj = hand_trajectory([1.0, 2.5], [1, 2], [2, 1])
    assert traj.state_at(0.0) == 1
    assert traj.state_at(1.0) == 2
    assert traj.state_at(3.0) == 1
    holds = traj.holding_times()
    assert np.allclose(holds, [1.0, 1.5])


def test_zero_generator_no_events():
    zero = core.RateField.constant(np.zeros((2, 2)))
    traj = sim.simulate_thinning(zero, 2, 10.0, seed=0)
    assert traj.n_jumps == 0
    assert np.allclose(traj.occupation_at(10.0), [0.0, 1.0])


def test_invalid_x0():
    with pytest.raises(errors.InvalidState):
        sim.simulate_thinning(unit_field(), 0, 1.0, seed=0)
    with pytest.raises(errors.InvalidState):
        sim.simulate_exact_affine(unit_field(), 3, 1.0, seed=0)


def test_exact_affine_runs_on_every_family(family_fields):
    # every field has vertices, so the oracle sampler accepts each family
    for name, f in family_fields.items():
        for i in range(5):
            traj = sim.simulate_exact_affine(f, 1, 20.0, seed=4, path_index=i)
            assert traj.n_jumps > 0, name
            assert 0.0 < traj.times[0] and traj.times[-1] <= 20.0
            assert np.all(np.diff(traj.times) > 0.0)
            assert np.all(f.support[traj.sources - 1, traj.targets - 1])
            assert np.all(traj.sources[1:] == traj.targets[:-1])


def test_anchor_recursion_exact():
    # L_t == (s L_s + (t - s) delta_x) / t at inter-jump times, to 1e-12
    traj = sim.simulate_thinning(chemo_field(), 1, 50.0, seed=9)
    assert traj.n_jumps > 10
    anchors = traj.anchors()
    rng = np.random.default_rng(1)
    bounds = np.concatenate([traj.times, [traj.horizon]])
    for k, anchor in enumerate(anchors):
        lo = anchor.time
        hi = bounds[k]
        if hi <= lo:
            continue
        t = rng.uniform(lo, hi)
        if t <= 0:
            continue
        gap = np.abs(traj.occupation_at(t) - anchor.occupation(t)).max()
        assert gap < 1e-12


def test_occupation_normalization_random_times():
    traj = sim.simulate_thinning(chemo_field(), 2, 80.0, seed=5)
    rng = np.random.default_rng(0)
    for t in rng.uniform(1e-6, 80.0, 100):
        occ = traj.occupation_at(t)
        assert abs(occ.sum() - 1.0) < 1e-10
        assert occ.min() >= 0.0


def test_flux_near_balance_per_state():
    for seed in range(20):
        traj = sim.simulate_thinning(chemo_field(), 1, 30.0, seed=seed)
        counts = traj.flux_at(30.0) * 30.0
        gap = np.abs(counts.sum(axis=1) - counts.sum(axis=0)).max()
        assert gap <= 1.0 + 1e-9


def test_off_support_purity():
    # dead edge 1->3: no event may use it
    q0 = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    f = core.RateField.constant(q0)
    for seed in range(10):
        traj = sim.simulate_thinning(f, 1, 40.0, seed=seed)
        pairs = set(zip(traj.sources.tolist(), traj.targets.tolist()))
        assert (1, 3) not in pairs
        assert (3, 2) not in pairs


def test_holding_times_exponential_constant_field():
    holds = []
    for i in range(100):
        traj = sim.simulate_thinning(unit_field(), 1, 110.0, seed=77, path_index=i)
        holds.extend(traj.holding_times().tolist())
    holds = np.asarray(holds[:10000])
    assert holds.size == 10000
    p = stats.kstest(holds, "expon").pvalue
    assert p >= 0.01


def test_two_samplers_agree_constant_field():
    h1, h2 = [], []
    for i in range(60):
        h1.extend(sim.simulate_thinning(unit_field(), 1, 60.0, seed=3,
                                        path_index=i).holding_times().tolist())
        h2.extend(sim.simulate_exact_affine(unit_field(), 1, 60.0, seed=1003,
                                            path_index=i).holding_times().tolist())
    p = stats.ks_2samp(np.asarray(h1), np.asarray(h2)).pvalue
    assert p >= 0.01


def test_two_samplers_agree_self_interacting():
    # terminal occupation of state 1 under both exact samplers
    f = chemo_field()
    n = 1000
    a = np.array([sim.simulate_thinning(f, 1, 100.0, seed=21, path_index=i)
                  .occupation_at(100.0)[0] for i in range(n)])
    b = np.array([sim.simulate_exact_affine(f, 1, 100.0, seed=22, path_index=i)
                  .occupation_at(100.0)[0] for i in range(n)])
    se = np.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
    assert abs(a.mean() - b.mean()) <= 3.0 * se
    assert stats.ks_2samp(a, b).pvalue >= 0.01


def test_batch_determinism_and_order_independence():
    f = chemo_field()
    b1 = sim.batch_simulate(f, 1, 20.0, 8, seed=13)
    b2 = sim.batch_simulate(f, 1, 20.0, 8, seed=13)
    assert np.array_equal(b1.occupations, b2.occupations)
    assert np.array_equal(b1.fluxes, b2.fluxes)
    # the batch keeps its first path whole
    first0 = sim.simulate_thinning(f, 1, 20.0, seed=13, path_index=0)
    assert np.array_equal(b1.first_trajectory.times, first0.times)
    assert np.array_equal(b1.first_trajectory.targets, first0.targets)
    # splitting the batch with path offsets agrees path-by-path
    first = sim.batch_simulate(f, 1, 20.0, 4, seed=13)
    rest = sim.batch_simulate(f, 1, 20.0, 4, seed=13, path_offset=4)
    assert np.array_equal(np.vstack([first.occupations, rest.occupations]),
                          b1.occupations)
    assert np.array_equal(rest.first_trajectory.times,
                          sim.simulate_thinning(f, 1, 20.0, seed=13, path_index=4).times)


def test_batch_single_path_summary():
    b = sim.batch_simulate(unit_field(), 1, 10.0, 1, seed=2)
    assert np.allclose(b.mean_occupation, b.occupations[0])
    assert np.allclose(b.var_occupation, 0.0)


def test_batch_lln_uniform_stationary():
    b = sim.batch_simulate(unit_field(), 1, 500.0, 2000, seed=8)
    assert 0.48 <= b.mean_occupation[0] <= 0.52


def test_trajectory_csv_schema():
    traj = hand_trajectory([1.0, 2.5], [1, 2], [2, 1])
    buf = io.StringIO()
    sim.write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,from,to"
    assert lines[1] == "1.0,1,2"
    assert len(lines) == 3


def test_batch_csv_schema():
    b = sim.batch_simulate(unit_field(), 1, 5.0, 2, seed=0)
    buf = io.StringIO()
    sim.write_batch_csv(b, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "path,seed_index,L_1,L_2,R_edge1,R_edge2"


def lockstep_arrays(field, x0, times, n_paths, seed):
    blocks = list(sim.lockstep_thinning(field, x0, times, n_paths, seed, with_flux=True))
    return (np.concatenate([occ for occ, _ in blocks], axis=1),
            np.concatenate([flux for _, flux in blocks], axis=1))


def assert_lockstep_matches_scalar(field, x0, times, n_paths, seed):
    occ, flux = lockstep_arrays(field, x0, times, n_paths, seed)
    assert occ.shape == (len(times), n_paths, field.d)
    for i in range(n_paths):
        traj = sim.simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            assert np.array_equal(occ[k, i], traj.occupation_at(t)), (i, t)
            assert np.array_equal(flux[k, i], traj.flux_at(t)), (i, t)


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_lockstep_matches_scalar_every_family(family_field, seed):
    assert_lockstep_matches_scalar(family_field, 1, [2.5, 6.0, 6.0, 15.0], 40, seed)


def test_lockstep_blocks_and_x0(monkeypatch):
    # several blocks, a ragged last one, and a start away from state 1
    monkeypatch.setattr(sim, "_BLOCK_DRAWS", 700)
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    assert_lockstep_matches_scalar(chemo_field(), 2, [4.0, 30.0], 23, seed=3)


def test_lockstep_long_paths_run_one_at_a_time(monkeypatch):
    # 1,400 draws per path leave room for fewer than _MIN_BLOCK_PATHS per block
    ran = []
    simulate = sim.simulate_thinning
    monkeypatch.setattr(sim, "simulate_thinning",
                        lambda *a, **k: ran.append(k["path_index"]) or simulate(*a, **k))
    assert_lockstep_matches_scalar(unit_field(), 1, [300.0, 1200.0], 3, seed=2)
    assert ran[:3] == [0, 1, 2]


def test_lockstep_chunk_exhaustion_falls_back(monkeypatch):
    # a 64-draw first chunk runs out before t = 64 on about half the paths
    monkeypatch.setattr(sim, "_chunk_sizes", lambda lam, horizon: (64, 256))
    horizon, n = 64.0, 30
    used_up = [sim.path_stream(1, i).standard_exponential(64).sum() <= horizon
               for i in range(n)]
    assert 0 < sum(used_up) < n
    assert_lockstep_matches_scalar(unit_field(), 1, [20.0, horizon], n, seed=1)


def test_lockstep_zero_rate_field():
    zero = core.RateField.constant(np.zeros((3, 3)))
    assert zero.rate_upper == 0.0
    assert_lockstep_matches_scalar(zero, 2, [1.0, 5.0], 4, seed=0)
    occ, flux = lockstep_arrays(zero, 2, [1.0, 5.0], 4, seed=0)
    assert np.all(occ == [0.0, 1.0, 0.0])
    assert not flux.any()


def test_lockstep_input_gates():
    with pytest.raises(errors.InvalidState):
        next(sim.lockstep_thinning(unit_field(), 3, [1.0], 2, seed=0))
    for times in ([], [0.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            next(sim.lockstep_thinning(unit_field(), 1, times, 2, seed=0))

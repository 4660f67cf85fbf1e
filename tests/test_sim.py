import csv
import hashlib
import io
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
import yaml
from reference_sampler import (ReferenceThinning, simulate_exact_affine,
                               simulate_thinning_reference)
from scipy import stats

from selfjump import cli, core, errors, sim


def unit_field():
    return core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def chemo_field():
    return core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                         strength=1.0)


def holding_times(traj):
    """Completed holding times (the censored final interval is dropped)."""
    return np.diff(traj.times, prepend=0.0)


def hand_trajectory(times, sources, targets, x0=1, horizon=4.0, d=2):
    return sim.Trajectory(x0=x0, horizon=horizon,
                          times=np.asarray(times, dtype=float),
                          sources=np.asarray(sources, dtype=np.int64),
                          targets=np.asarray(targets, dtype=np.int64), d=d,
                          candidates=len(times))


def test_occupation_at_hand_cases():
    empty = hand_trajectory([], [], [])
    assert np.allclose(empty.occupation_at(3.0), [1.0, 0.0])
    one = hand_trajectory([1.0], [1], [2])
    assert np.allclose(one.occupation_at(2.0), [0.5, 0.5])
    assert np.allclose(one.occupation_at(1.0), [1.0, 0.0])
    with pytest.raises(errors.InvalidInput, match="outside"):
        one.occupation_at(0.0)
    with pytest.raises(errors.InvalidInput, match="outside"):
        one.occupation_at(5.0)


def test_flux_and_current_hand_cases():
    traj = hand_trajectory([1.0, 2.0], [1, 2], [2, 1])
    r = traj.flux_at(4.0)
    assert r[0, 1] == pytest.approx(0.25)
    assert r[1, 0] == pytest.approx(0.25)
    assert np.allclose(r - r.T, 0.0)
    single = hand_trajectory([1.0], [1], [2])
    r = single.flux_at(2.0)
    j = r - r.T
    assert j[0, 1] == pytest.approx(0.5)
    assert j[1, 0] == pytest.approx(-0.5)


def test_flux_times_t_is_integer_counts():
    traj = sim.simulate_thinning(unit_field(), 1, 37.0, seed=4)
    r = traj.flux_at(37.0)
    counts = r * 37.0
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_state_at_and_holding_times():
    traj = hand_trajectory([1.0, 2.5], [1, 2], [2, 1])

    def state_at(t):
        k = int(np.searchsorted(traj.times, t, side="right"))
        return int(traj.x0 if k == 0 else traj.targets[k - 1])

    assert [state_at(t) for t in (0.0, 1.0, 3.0)] == [1, 2, 1]
    holds = holding_times(traj)
    assert np.allclose(holds, [1.0, 1.5])


def test_zero_generator_no_events():
    zero = core.RateField.constant(np.zeros((2, 2)))
    traj = sim.simulate_thinning(zero, 2, 10.0, seed=0)
    assert traj.n_jumps == 0
    assert np.allclose(traj.occupation_at(10.0), [0.0, 1.0])


def test_invalid_x0():
    with pytest.raises(errors.InvalidInput, match="state label"):
        sim.simulate_thinning(unit_field(), 0, 1.0, seed=0)
    with pytest.raises(errors.InvalidInput, match="state label"):
        simulate_exact_affine(unit_field(), 3, 1.0, seed=0)


@pytest.mark.parametrize("path_index", [-1, 1.5])
def test_invalid_path_index(path_index):
    with pytest.raises(errors.InvalidInput, match="path_index must be"):
        sim.simulate_thinning(unit_field(), 1, 1.0, seed=0, path_index=path_index)


def test_exact_affine_runs_on_every_family(family_fields):
    # every field has vertices, so the oracle sampler accepts each family
    for name, f in family_fields.items():
        for i in range(5):
            traj = simulate_exact_affine(f, 1, 20.0, seed=4, path_index=i)
            assert traj.n_jumps > 0, name
            assert 0.0 < traj.times[0] and traj.times[-1] <= 20.0
            assert np.all(np.diff(traj.times) > 0.0)
            assert np.all(f.support[traj.sources - 1, traj.targets - 1])
            assert np.all(traj.sources[1:] == traj.targets[:-1])


def test_anchor_recursion_exact():
    # L_t == (s L_s + (t - s) delta_x) / t at inter-jump times, to 1e-12
    traj = sim.simulate_thinning(chemo_field(), 1, 50.0, seed=9)
    assert traj.n_jumps > 10
    rng = np.random.default_rng(1)
    starts = np.concatenate([[0.0], traj.times])
    ends = np.concatenate([traj.times, [traj.horizon]])
    states = np.concatenate([[traj.x0], traj.targets])
    for s, hi, x in zip(starts, ends, states):
        if hi <= s:
            continue
        t = rng.uniform(s, hi)
        if t <= 0:
            continue
        # the occupation at the jump time s, carried to t by the recursion
        expected = np.zeros(traj.d)
        if s > 0:
            expected += (s / t) * traj.occupation_at(s)
        expected[x - 1] += (t - s) / t
        gap = np.abs(traj.occupation_at(t) - expected).max()
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
        holds.extend(holding_times(traj).tolist())
    holds = np.asarray(holds[:10000])
    assert holds.size == 10000
    p = stats.kstest(holds, "expon").pvalue
    assert p >= 0.01


def test_two_samplers_agree_constant_field():
    h1, h2 = [], []
    for i in range(60):
        h1.extend(holding_times(sim.simulate_thinning(
            unit_field(), 1, 60.0, seed=3, path_index=i)).tolist())
        h2.extend(holding_times(simulate_exact_affine(
            unit_field(), 1, 60.0, seed=1003, path_index=i)).tolist())
    p = stats.ks_2samp(np.asarray(h1), np.asarray(h2)).pvalue
    assert p >= 0.01


def test_two_samplers_agree_self_interacting():
    # terminal occupation of state 1 under both exact samplers
    f = chemo_field()
    n = 1000
    a = np.array([sim.simulate_thinning(f, 1, 100.0, seed=21, path_index=i)
                  .occupation_at(100.0)[0] for i in range(n)])
    b = np.array([simulate_exact_affine(f, 1, 100.0, seed=22, path_index=i)
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
    # batch row i is the sampler's path i, whatever the batch size
    for i in range(8):
        traj = sim.simulate_thinning(f, 1, 20.0, seed=13, path_index=i)
        assert np.array_equal(b1.occupations[i], traj.occupation_at(20.0))
        assert np.array_equal(b1.fluxes[i], traj.flux_at(20.0))
    head = sim.batch_simulate(f, 1, 20.0, 4, seed=13)
    assert np.array_equal(head.occupations, b1.occupations[:4])


def test_batch_single_path_summary():
    b = sim.batch_simulate(unit_field(), 1, 10.0, 1, seed=2)
    assert np.allclose(b.mean_occupation, b.occupations[0])
    assert np.allclose(b.var_occupation, 0.0)


def test_batch_lln_uniform_stationary():
    b = sim.batch_simulate(unit_field(), 1, 500.0, 2000, seed=8)
    assert 0.48 <= b.mean_occupation[0] <= 0.52


def simulate_run(tmp_path, field, x0, horizon, n_paths, seed):
    """The run directory the simulate command writes for the field section."""
    doc = {"field": field, "seed": seed,
           "simulate": {"x0": x0, "horizon": horizon, "n_paths": n_paths}}
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = (out / "simulate").iterdir()
    return run_dir


def simulate_csv(tmp_path, q0, x0, horizon, n_paths, seed, name):
    """Bytes of one CSV that the simulate command writes for a constant field."""
    run_dir = simulate_run(tmp_path, {"family": "constant", "q0": q0}, x0, horizon,
                           n_paths, seed)
    return (run_dir / name).read_bytes().decode()


def test_batch_csv_schema(tmp_path):
    text = simulate_csv(tmp_path, [[-1.0, 1.0], [1.0, -1.0]], 1, 5.0, 2, 0, "batch.csv")
    assert text.splitlines()[0] == "path,seed_index,L_1,L_2,R_edge1,R_edge2"


def sampled(field, x0, times, n_paths, seed):
    """The items ``sim.sample_paths`` yields for paths 0..n_paths-1."""
    with sim.sample_paths(field, x0, times, seed, range(n_paths)) as items:
        return list(items)


def lockstep_occupations(field, x0, times, n_paths, seed):
    return np.concatenate([occ for occ, _, _ in sampled(field, x0, times, n_paths, seed)],
                          axis=1)


def assert_lockstep_matches_scalar(field, x0, times, n_paths, seed):
    items = sampled(field, x0, times, n_paths, seed)
    occ = np.concatenate([o for o, _, _ in items], axis=1)
    flux = np.concatenate([f for _, f, _ in items])
    cand = np.concatenate([c for _, _, c in items])
    assert occ.shape == (len(times), n_paths, field.d)
    assert flux.shape == (n_paths, field.d, field.d) and cand.shape == (n_paths,)
    for i in range(n_paths):
        traj = sim.simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            assert np.array_equal(occ[k, i], traj.occupation_at(t)), (i, t)
        assert np.array_equal(flux[i], traj.flux_at(times[-1])), i
        assert cand[i] == traj.candidates, i


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_lockstep_matches_scalar_every_family(family_field, seed):
    assert_lockstep_matches_scalar(family_field, 1, [2.5, 6.0, 6.0, 15.0], 40, seed)


def test_lockstep_reads_out_at_jump_times():
    # read-out times exactly at jumps (one of them twice) and after a path's
    # last jump; the horizon fixes the draw chunks, so the paths are these
    field, horizon, n = chemo_field(), 6.0, 40
    paths = [sim.simulate_thinning(field, 1, horizon, 4, path_index=i) for i in range(n)]
    jumps = [p.times for p in paths if p.n_jumps >= 3]
    last = jumps[2][-1]
    times = sorted([jumps[0][0], jumps[0][2], jumps[1][1], jumps[1][1], last,
                    0.5 * (last + horizon), horizon])
    occ = lockstep_occupations(field, 1, times, n, seed=4)
    for i, traj in enumerate(paths):
        for k, t in enumerate(times):
            assert np.array_equal(occ[k, i], traj.occupation_at(t)), (i, t)


def test_lockstep_blocks_and_x0(monkeypatch):
    # several blocks of unequal size and a start away from state 1
    monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    assert_lockstep_matches_scalar(chemo_field(), 2, [4.0, 30.0], 23, seed=3)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("name", ["autochemotaxis", "congestion"])
def test_lockstep_block_boundaries_at_default_size(family_fields, name, extra):
    # one block short of full, one full block, and a full block plus one path,
    # at d = 2 (no picks drawn) and d = 3 (picks stored as uint8); 160 mean
    # candidates per path keep blocks near the benchmark's 1,044 paths
    field = family_fields[name]
    lam = (field.d - 1) * field.rate_upper
    horizon = 160.0 / lam
    block = sim._LOCKSTEP_DRAWS // sim._chunk_sizes(lam, horizon)[0]
    assert block >= sim._MIN_BLOCK_PATHS
    assert_lockstep_matches_scalar(field, 1, [0.25 * horizon, horizon], block + extra,
                                   seed=5)


def test_lockstep_long_paths_run_one_at_a_time(monkeypatch):
    # 3,344 draws per path leave room for fewer than _MIN_BLOCK_PATHS per block
    ran = []
    simulate = sim._SAMPLERS["thinning"]
    monkeypatch.setitem(sim._SAMPLERS, "thinning",
                        lambda *a, **k: ran.append(k["path_index"]) or simulate(*a, **k))
    assert_lockstep_matches_scalar(unit_field(), 1, [750.0, 3000.0], 3, seed=2)
    assert ran == [0, 1, 2]


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
    occ = lockstep_occupations(zero, 2, [1.0, 5.0], 4, seed=0)
    assert np.all(occ == [0.0, 1.0, 0.0])


def test_sample_paths_input_gates():
    with pytest.raises(errors.InvalidInput, match="state label"):
        sampled(unit_field(), 3, [1.0], 2, seed=0)
    for times in ([], [0.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            sampled(unit_field(), 1, times, 2, seed=0)


def test_samplers_reject_non_finite_horizons():
    # an infinite horizon would never run out of candidates
    for run in (sim.simulate_thinning, simulate_exact_affine):
        for horizon in (np.inf, np.nan):
            with pytest.raises(ValueError):
                run(unit_field(), 1, horizon, seed=0)
    with pytest.raises(ValueError):
        sim.batch_simulate(unit_field(), 1, np.inf, 2, seed=0)
    for times in ([1.0, np.inf], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError):
            sampled(unit_field(), 1, times, 2, seed=0)


def with_workers(monkeypatch, n, fn):
    """fn() with sampling spread over n worker processes (1: in this process)."""
    monkeypatch.setattr(sim, "_cpus", lambda: n)
    try:
        return fn()
    finally:
        assert multiprocessing.active_children() == []


def logged_sampler(monkeypatch, log):
    """Make the thinning sampler and lockstep blocks append 'path_index pid'
    lines to the file log, one per path they run."""
    simulate = sim._SAMPLERS["thinning"]
    block = sim._lockstep_block

    def write(paths):
        with open(log, "a") as fh:
            fh.writelines(f"{i} {os.getpid()}\n" for i in paths)

    def logged(field, x0, horizon, seed, path_index=0):
        write([path_index])
        return simulate(field, x0, horizon, seed, path_index=path_index)

    def logged_block(field, x0, times, seed, paths, n_draws):
        write(paths)
        return block(field, x0, times, seed, paths, n_draws)

    monkeypatch.setitem(sim._SAMPLERS, "thinning", logged)
    monkeypatch.setattr(sim, "_lockstep_block", logged_block)


def split_paths(monkeypatch, how):
    """Split batches of chemo_field paths to t = 20 or 30 into lockstep blocks
    of at most 4 paths, or into scalar items of one path."""
    monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1 if how == "lockstep" else 5)
    monkeypatch.setattr(sim, "_BLOCK_DRAWS", 250)
    n_draws = sim._chunk_sizes(chemo_field().rate_upper, 30.0)[0]
    lockstep, items = sim._blocks(range(1, 12), n_draws, 2, 1)
    assert lockstep == (how == "lockstep") and len(items) >= 4


def assert_batch_matches_scalar(b, field, x0, horizon, seed):
    paths = [sim.simulate_thinning(field, x0, horizon, seed, path_index=i)
             for i in range(len(b.occupations))]
    for i, traj in enumerate(paths):
        assert np.array_equal(b.occupations[i], traj.occupation_at(horizon)), i
        assert np.array_equal(b.fluxes[i], traj.flux_at(horizon)), i
    assert b.jumps == sum(p.n_jumps for p in paths)
    assert b.candidates == sum(p.candidates for p in paths)


def test_batch_is_the_same_on_any_worker_count(monkeypatch):
    f = chemo_field()
    for how in ("lockstep", "scalar", "chunk exhaustion"):
        with monkeypatch.context() as m:
            split_paths(m, "scalar" if how == "scalar" else "lockstep")
            if how == "chunk exhaustion":
                # 128-draw first chunks, 3 per block, run out before t = 30
                # on some paths, which the lockstep blocks re-run whole
                m.setattr(sim, "_chunk_sizes", lambda lam, horizon: (128, 256))
                m.setattr(sim, "_LOCKSTEP_DRAWS", 3 * 128)
                used_up = [sim.path_stream(6, i).standard_exponential(128).sum()
                           <= 30.0 * f.rate_upper for i in range(1, 12)]
                assert 0 < sum(used_up) < 11
            b1, b3 = (with_workers(m, n, lambda: sim.batch_simulate(
                f, 1, 30.0, 12, seed=6)) for n in (1, 3))
            for name in ("occupations", "fluxes"):
                assert getattr(b1, name).tobytes() == getattr(b3, name).tobytes(), how
            assert (b1.jumps, b1.candidates) == (b3.jumps, b3.candidates), how
            for name in ("times", "sources", "targets"):
                assert getattr(b1.first_trajectory, name).tobytes() == \
                    getattr(b3.first_trajectory, name).tobytes(), how
            assert_batch_matches_scalar(b1, f, 1, 30.0, seed=6)


def test_batch_runs_path_0_here_and_the_rest_in_workers(monkeypatch, tmp_path):
    for how in ("lockstep", "scalar"):
        with monkeypatch.context() as m:
            split_paths(m, how)
            logged_sampler(m, tmp_path / how)
            with_workers(m, 3, lambda: sim.batch_simulate(chemo_field(), 1, 20.0, 9, seed=2))
        runs = [line.split() for line in (tmp_path / how).read_text().splitlines()]
        pid = {int(i): int(p) for i, p in runs}
        assert sorted(pid) == list(range(9)) and len(runs) == 9, how
        assert pid[0] == os.getpid()
        workers = {pid[i] for i in range(1, 9)}
        assert os.getpid() not in workers and 1 <= len(workers) <= 3, how


@pytest.mark.parametrize("workers", [1, 3])
def test_one_cpu_or_a_small_batch_runs_every_path_here(monkeypatch, tmp_path, workers):
    # 4 paths of 149 draws to t = 20: path 0, then one lockstep block of 3
    logged_sampler(monkeypatch, tmp_path / "log")
    with_workers(monkeypatch, workers,
                 lambda: sim.batch_simulate(chemo_field(), 1, 20.0, 4, seed=2))
    assert (tmp_path / "log").read_text().split() == \
        [str(v) for i in range(4) for v in (i, os.getpid())]


@pytest.mark.parametrize("case", ["ragged blocks", "scalar fallback", "small scalar fallback",
                                  "chunk exhaustion"])
def test_lockstep_is_the_same_on_any_worker_count(monkeypatch, case):
    field, x0, times, n = chemo_field(), 2, [4.0, 30.0], 23
    if case == "ragged blocks":
        monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
        monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    elif case == "scalar fallback":
        # 419 draws per path fit one path in 700 draws, under the minimum of 4,
        # so blocks of 1 run path by path
        field, x0, times, n = unit_field(), 1, [100.0, 300.0], 10
        monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
        monkeypatch.setattr(sim, "_BLOCK_DRAWS", 700)
        monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 4)
    elif case == "small scalar fallback":
        # 2709 draws per path to t = 600 put 96 paths in a lockstep block,
        # under _MIN_BLOCK_PATHS = 128, so 120 paths run one at a time in
        # 4 items of at most the 36 paths _BLOCK_DRAWS holds
        field, x0, times, n = chemo_field(), 1, [100.0, 600.0], 120
    else:
        # 64-draw first chunks run out before t = 64 on about half the paths,
        # which the workers re-run whole
        field, x0, times, n = unit_field(), 1, [20.0, 64.0], 30
        monkeypatch.setattr(sim, "_chunk_sizes", lambda lam, horizon: (64, 256))
        monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
        monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    blocks = {w: with_workers(monkeypatch, w, lambda: sampled(field, x0, times, n, seed=3))
              for w in (1, 3)}
    assert len(blocks[1]) >= 3
    assert [a.tobytes() for b in blocks[1] for a in b] == \
        [a.tobytes() for b in blocks[3] for a in b]
    assert_lockstep_matches_scalar(field, x0, times, n, seed=3)


def test_lockstep_blocks_are_even_and_fill_every_cpu(monkeypatch):
    lam = chemo_field().rate_upper  # d = 2: one destination per state
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    # the benchmark's mc-decay: 10,000 paths to t = 40
    n_draws = sim._chunk_sizes(lam, 40.0)[0]
    lockstep, blocks = sim._blocks(range(10000), n_draws, 2, 3)
    sizes = [len(b) for b in blocks]
    assert lockstep and max(sizes) - min(sizes) <= 1
    assert max(sizes) * n_draws <= sim._LOCKSTEP_DRAWS
    assert [i for b in blocks for i in b] == list(range(10000))
    # the self-test's 2,000 paths to t = 10 fit in one block, yet use both CPUs
    n_draws = sim._chunk_sizes(lam, 10.0)[0]
    assert 2000 * n_draws <= sim._LOCKSTEP_DRAWS
    lockstep, blocks = sim._blocks(range(2000), n_draws, 2, 3)
    assert lockstep and len(blocks) >= 2
    times = [2.5, 5.0, 10.0]
    occ = {w: with_workers(monkeypatch, w, lambda: lockstep_occupations(
        chemo_field(), 1, times, 2000, seed=7)) for w in (1, 2)}
    assert occ[1].tobytes() == occ[2].tobytes()
    assert_lockstep_matches_scalar(chemo_field(), 1, times, 2000, seed=7)


@pytest.mark.parametrize("name", ["autochemotaxis", "congestion", "constant d = 24",
                                  "2,000 read-out times"])
def test_a_full_lockstep_block_holds_at_most_twice_its_draws(family_fields, monkeypatch,
                                                             name):
    # d = 2 draws take 16 bytes (time, threshold), larger d draws 17 (and a
    # pick); at d = 24 and 64-draw paths the d * d jump counts outweigh the
    # draws, and with 2,000 read-out times the occupations read out do
    if name == "constant d = 24":
        field, horizon = core.RateField.constant(np.ones((24, 24)) - 24.0 * np.eye(24)), 1.0
    else:
        field = family_fields["autochemotaxis" if name == "2,000 read-out times" else name]
        horizon = 160.0 / ((field.d - 1) * field.rate_upper)
    times = np.array([0.25 * horizon, horizon])
    if name == "2,000 read-out times":
        times = horizon * np.arange(1, 2001) / 2000
        monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)  # so these paths run in lockstep
    n_draws = sim._chunk_sizes((field.d - 1) * field.rate_upper, horizon)[0]
    lockstep, (block, *_) = sim._blocks(range(1 << 20), n_draws, field.d, len(times))
    assert lockstep and len(block) <= sim._LOCKSTEP_DRAWS // n_draws
    draw_size = 16 if field.d == 2 else 17
    tracemalloc.start()
    try:
        sim._lockstep_block(field, 1, times, 5, block, n_draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) * n_draws * draw_size <= peak <= 2 * sim._LOCKSTEP_DRAWS * draw_size


def test_sampling_checks_x0_and_seed_before_any_worker_starts(monkeypatch):
    def no_workers(job, items):
        raise AssertionError("workers started before the inputs were checked")

    monkeypatch.setattr(sim, "_mapped", no_workers)
    for x0, seed, message in ((9, 0, "state label"), (1, -1, "must be >= 0"),
                              (1, 2.5, "must be an integer")):
        with pytest.raises(errors.InvalidInput, match=message):
            sim.batch_simulate(unit_field(), x0, 40000.0, 4, seed)
        with pytest.raises(errors.InvalidInput, match=message):
            sampled(unit_field(), x0, [1.0], 100, seed)


def test_workers_run_a_bounded_number_of_items_ahead(monkeypatch):
    pulled = []

    class Items:
        def __len__(self):
            return 200

        def __iter__(self):
            for i in range(200):
                pulled.append(i)
                yield i

    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    with sim._mapped(lambda i: -i, Items()) as results:
        first = next(results)
        ahead = len(pulled)
        rest = list(results)
    assert [first] + rest == [-i for i in range(200)]
    assert ahead <= 5  # two items per worker in flight, one more per result taken
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_the_call_instead_of_hanging(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    parent = os.getpid()

    def job(i):
        if i == 3 and os.getpid() != parent:
            os._exit(1)
        return i

    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        with sim._mapped(job, range(6)) as results:
            list(results)
    assert multiprocessing.active_children() == []


def test_leaving_sample_paths_stops_its_workers(monkeypatch):
    monkeypatch.setattr(sim, "_cpus", lambda: 3)
    monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    with sim.sample_paths(chemo_field(), 1, [4.0, 30.0], 3, range(40)) as blocks:
        next(blocks)
        assert 1 <= len(multiprocessing.active_children()) <= 3
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller_whole(monkeypatch):
    simulate = sim._SAMPLERS["thinning"]

    def failing(field, x0, horizon, seed, path_index=0):
        if path_index == 5:
            raise errors.InvalidInput(f"path {path_index} failed in {os.getpid()}")
        return simulate(field, x0, horizon, seed, path_index=path_index)

    monkeypatch.setitem(sim._SAMPLERS, "thinning", failing)
    split_paths(monkeypatch, "scalar")
    with pytest.raises(errors.InvalidInput, match="path 5 failed in ") as exc:
        with_workers(monkeypatch, 3, lambda: sim.batch_simulate(chemo_field(), 1, 20.0, 9, 2))
    assert str(os.getpid()) not in str(exc.value)

    block = sim._lockstep_block

    def failing_block(field, x0, times, seed, paths, n_draws):
        if paths[0] > 0:
            raise ValueError(f"block at {paths[0]}")
        return block(field, x0, times, seed, paths, n_draws)

    monkeypatch.setattr(sim, "_lockstep_block", failing_block)
    monkeypatch.setattr(sim, "_LOCKSTEP_DRAWS", 700)  # blocks of 3 paths
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    with pytest.raises(ValueError, match="^block at 3$"):
        with_workers(monkeypatch, 3, lambda: sampled(chemo_field(), 1, [4.0, 30.0], 30, seed=3))


KEY_SEEDS = (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
KEY_INDICES = list(range(300)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 63 - 1]


def seed_sequence(seed, path_index):
    return np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))


def test_stream_keys_match_seed_sequence():
    for seed in KEY_SEEDS:
        ref = [seed_sequence(seed, i).generate_state(2, np.uint64) for i in KEY_INDICES]
        keys = sim._stream_keys(seed, KEY_INDICES)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, ref), seed
    # random seeds of every bit length, one and two 32-bit words alike
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 64, 256, dtype=np.uint64)
    seeds = rng.integers(0, 2 ** 64, 256, dtype=np.uint64) >> bits
    indices = KEY_INDICES[:3] + KEY_INDICES[-4:]
    for seed in map(int, seeds):
        ref = [seed_sequence(seed, i).generate_state(2, np.uint64) for i in indices]
        assert np.array_equal(sim._stream_keys(seed, indices), ref), seed


def test_path_stream_draws_match_seed_sequence_stream():
    for seed in (0, 7, 2 ** 64 - 1):
        for i in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1):
            new = sim.path_stream(seed, i)
            old = np.random.Generator(np.random.Philox(seed_sequence(seed, i)))
            for draw in (lambda g: g.standard_exponential(300), lambda g: g.random(300),
                         lambda g: g.integers(0, 2, size=300)):
                assert np.array_equal(draw(new), draw(old)), (seed, i)
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            sim.path_stream(0, bad)
    with pytest.raises(ValueError):
        sim._stream_keys(0, [3, -1])


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
def test_seeds_outside_64_bits_raise(seed):
    # taken mod 2**64, such a seed would rerun another seed's paths
    with pytest.raises(ValueError):
        sim.path_stream(seed, 0)
    with pytest.raises(ValueError):
        sim.simulate_thinning(unit_field(), 1, 1.0, seed)
    # 100 short paths run as one lockstep block
    with pytest.raises(ValueError):
        sampled(unit_field(), 1, [1.0], 100, seed)


# sha256 of times, sources and targets of simulate_thinning(field, x0, t,
# seed) for every conftest family, recorded before the sampler read its
# candidates from numpy arrays: at t = 100 with the default chunks, and at
# t = 700 with chunks of 64 then 256 draws, so that every path refills.
GOLDEN_T100 = {
    ("affine", 0, 1):
        "8510b96312af55104529dd3d9f63e844f07849cc0809ea676d9da81d8746e719",
    ("affine", 0, 2):
        "ec26248b2981d91411bb3082fdb374873d90a6f1b8419eed1d110b8e5135a427",
    ("affine", 7, 1):
        "d7e8f1b3ef2b86717a1da98878f8430b31c771db22e251c7b69da6d40b109f78",
    ("affine", 7, 2):
        "2a6c1d5bec99859b6cd2ee8663c9c07d5f563ffb121540de2f61ea626ac852f0",
    ("autochemotaxis", 0, 1):
        "c83ef98880d371290a1ce28d0bdbec50caa8b25c91dc4cae0e84f49e8db01a7c",
    ("autochemotaxis", 0, 2):
        "5857893aa34ccc22898b20090922a7ae963e1bcc98ec7ac015b5239faf95158b",
    ("autochemotaxis", 7, 1):
        "002c7209b8dd3bcf1a35106216ef817c6020d3de30d43ae1140629423952f468",
    ("autochemotaxis", 7, 2):
        "66051546eada35e8952fe85d44fd734dafcb97f36e6769626efc2329f5c4d79d",
    ("catalytic", 0, 1):
        "83f16155da551e40a53ef8e062011876216c19b96384bd05a5e9385c42e50f47",
    ("catalytic", 0, 2):
        "3c39648ef5cb3e91152f5a7653be359f038a05129f9851bbcd00a457f4bb3d36",
    ("catalytic", 7, 1):
        "b1b64f376a00712434fc72079463378a6aad866f6434a3f195f6cccb5bb53251",
    ("catalytic", 7, 2):
        "793a0959d8b7e5a5345844e9ba0897c7f67d05109cf53fa26b371432a2c89663",
    ("congestion", 0, 1):
        "b07e26f176cffa1fd1f4635ccfa07f1c198515be78110777f2ee08079ba62425",
    ("congestion", 0, 2):
        "e07f2c7603ffc1ebb1f001cbe05534098c43425c3ab5ae4f9946de2ae60665fc",
    ("congestion", 7, 1):
        "cd141aa143241b04894be0a98f87822e24695151323705f0f5be757f6504aa02",
    ("congestion", 7, 2):
        "fefb81513c5becb2766862ff785aea5bf12c7717bfe6471ebe05346b70cd848f",
    ("constant", 0, 1):
        "f8def397e41f8bc7aa8f0b11c86df761a230a7e2e76f70c48c17ea1629f9f537",
    ("constant", 0, 2):
        "77f3af333bad5d46ffd83211d4fd2df5fd2ce870dba0daccf41f0012085af4e2",
    ("constant", 7, 1):
        "2b1c9d5bfdbc3602e403e656f6e4b8ee3642939bcfa136ea3489e97cd1b494e8",
    ("constant", 7, 2):
        "e48f20a9ad2e183a40e7f5e1ecd46b4fc88884e4d454b1b9598aea4337d6a47b",
}
GOLDEN_T700_REFILL = {
    ("affine", 0, 1):
        "fbf5ca1091ea27deb97d877c4bcdfadc3994ce5bef76ae6fadc3d0b46c2cc6be",
    ("affine", 0, 2):
        "82fc8730f6ed353306a32c1967d0bb4d67cf709df50258c39737628e194a3329",
    ("affine", 7, 1):
        "d07074ee58f450ddf5e8ef5b60ce2a47dd15dbead86bc6f90e9a74d5b5d36c5b",
    ("affine", 7, 2):
        "8d0752002011e61ab35bb25a731fe805c6ed1df34567b0012f981e698115c11b",
    ("autochemotaxis", 0, 1):
        "13cb45135c5890e159ebc446af79dd855c479ca79a9ee831282ea3cbeebe5257",
    ("autochemotaxis", 0, 2):
        "4ea460fdacd364e69599cf49a47bccf4fd511aefd72c6b41678e9d4ccaeed220",
    ("autochemotaxis", 7, 1):
        "6eeb1504e0969e4df541797cc3be05b381bd8ebf4dfa61cfa5fb8cc40899799c",
    ("autochemotaxis", 7, 2):
        "c8e33e1e6ca52f15ae1b60e1e9ffc50ea200724f5153cef47ce97479abaf538e",
    ("catalytic", 0, 1):
        "381b3924bee11f804607df8ecc5f2511e98d9cbd96db30295d578a128951f736",
    ("catalytic", 0, 2):
        "b67d718f77577c5d7265f7fe9d8bc44297e5364ac6c8439224e86576809ebd3f",
    ("catalytic", 7, 1):
        "d6c407dd71c5501f592c3c82b75b198db0c9fab218926df0bcaf723ad5293299",
    ("catalytic", 7, 2):
        "ca75b9b7b9e99aaca95a84dc9d00c493da25c7c88e5a1e1b6d4cf1444642c9fb",
    ("congestion", 0, 1):
        "b732fade2e6770b47e19630df657727dee1730e7ef14cda89d88fd65c7e393cc",
    ("congestion", 0, 2):
        "bb4b979565a277b5a681fe266730f8c5c198452f656d1d6ac2f44b170df23246",
    ("congestion", 7, 1):
        "43d90443b1e9aeb8028ba3e024a6ae3c51d883648dd35a1d0042d5627ef082c0",
    ("congestion", 7, 2):
        "77575fa1dee8e33678c929aa44a56541b54a97e2a3157fe3f1eb8d394b1281ca",
    ("constant", 0, 1):
        "8e7c37c900524b6a7c3c87c50693867de1314b22b3816316fe3118496dd97a78",
    ("constant", 0, 2):
        "e2cb3d2459e25d09cd123ab5d8a61f53b1eae71c60ff675ba8dde371c2ec109d",
    ("constant", 7, 1):
        "de1573e7f13667d3ac037cb048881fa41d587f946c69f03d8408a2689cc2ef49",
    ("constant", 7, 2):
        "026b42aee1cd0ab5d9e0b2f41daa629d50921c2a7cd66bbcfa9d634dfc5e52d6",
}


def trajectory_digest(traj):
    return hashlib.sha256(traj.times.tobytes() + traj.sources.tobytes()
                          + traj.targets.tobytes()).hexdigest()


def test_thinning_matches_golden_digests(family_fields):
    for (name, seed, x0), digest in GOLDEN_T100.items():
        traj = sim.simulate_thinning(family_fields[name], x0, 100.0, seed)
        assert trajectory_digest(traj) == digest, (name, seed, x0)


def test_thinning_matches_golden_digests_with_refills(family_fields, monkeypatch):
    monkeypatch.setattr(sim, "_chunk_sizes", lambda lam, horizon: (64, 256))
    for (name, seed, x0), digest in GOLDEN_T700_REFILL.items():
        traj = sim.simulate_thinning(family_fields[name], x0, 700.0, seed)
        assert traj.candidates > 64 + 256, (name, seed, x0)
        assert trajectory_digest(traj) == digest, (name, seed, x0)


# sha256 of batch.csv and results.json of simulate runs whose paths after
# path 0 run in lockstep blocks, recorded while every path ran through the
# scalar kernel: mc-decay's d = 2 field to t = 40, and short paths on a
# d = 3 field, which draws destination picks.
GOLDEN_SIMULATE = {
    (2, 1, 40.0, 3000, 7): (
        "2848a040ccce381216a9117fa54f25d93177b7738df9c1f3667e6a98be883f5f",
        "217867d34cd2d107826efc83c9e434eba265679846a7eeab0598766df60aa3b4"),
    (3, 2, 10.0, 1000, 3): (
        "5aefa15a287eca4a722703129d7b5dc1dc07726f04549d72a282a5b620e668a8",
        "e97224f1af0a9cfaeaa42e2fb27b8f2a7967003c5059860c8f38364783882639"),
}
GOLDEN_SIMULATE_FIELDS = {
    2: {"family": "autochemotaxis", "q0": [[-2.0, 2.0], [1.0, -1.0]], "strength": 1.0},
    3: {"family": "autochemotaxis",
        "q0": [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]], "strength": 1.0},
}


@pytest.mark.parametrize("case", GOLDEN_SIMULATE)
def test_simulate_files_match_golden_digests(tmp_path, case):
    d, x0, horizon, n_paths, seed = case
    run_dir = simulate_run(tmp_path, GOLDEN_SIMULATE_FIELDS[d], x0, horizon, n_paths, seed)
    got = tuple(hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in ("batch.csv", "results.json"))
    assert got == GOLDEN_SIMULATE[case]


def random_vertex_field(d, seed, zero_share=0.0):
    """Affine field with exponential vertex rates, a share of them set to 0.

    Each state's own row Q(delta_x)[x, :] keeps its rates, so no state is
    absorbing from the start.
    """
    rng = np.random.default_rng(seed)
    v = rng.exponential(1.0, (d, d, d))
    own = np.zeros_like(v, dtype=bool)
    own[np.arange(d), np.arange(d)] = True
    v[(rng.random(v.shape) < zero_share) & ~own] = 0.0
    for q in v:
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
    return core.RateField.affine(v)


def assert_matches_reference(field, x0, horizon, seed):
    traj = sim.simulate_thinning(field, x0, horizon, seed)
    times, targets, candidates = simulate_thinning_reference(field, x0, horizon, seed)
    assert traj.times.tobytes() == times.tobytes(), (field.d, x0)
    assert np.array_equal(traj.targets, targets), (field.d, x0)
    assert traj.candidates == candidates, (field.d, x0)
    return traj


@pytest.mark.parametrize("zero_share", [0.0, 0.5])
@pytest.mark.parametrize("d, horizon", [(2, 200.0), (3, 100.0), (4, 60.0), (7, 20.0),
                                        (24, 2.0)])
def test_thinning_kernel_matches_reference_loop(d, horizon, zero_share):
    field = random_vertex_field(d, seed=d + 100, zero_share=zero_share)
    if zero_share:
        assert (field.vertices == 0.0).any()
    jumps = sum(assert_matches_reference(field, x0, horizon, seed=x0).n_jumps
                for x0 in range(1, d + 1))
    assert jumps > 20 * d


def test_thinning_kernel_matches_reference_on_dead_field():
    dead = core.RateField.constant(np.zeros((3, 3)))
    for x0 in (1, 2, 3):
        assert assert_matches_reference(dead, x0, 50.0, seed=x0).n_jumps == 0


def test_thinning_kernel_matches_reference_across_draw_chunks():
    traj = assert_matches_reference(chemo_field(), 2, 70000.0, seed=3)
    assert traj.candidates > sim._chunk_sizes(4.0, 70000.0)[0]


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_thinning_kernel_rounds_like_reference_at_the_threshold(monkeypatch, d):
    # every threshold is the reference loop's own bound or the next float
    # above it, so a last-bit difference in the kernel's rates flips a decision
    field = random_vertex_field(d, seed=d + 100, zero_share=0.5)
    lam = (d - 1) * field.rate_upper
    rng = np.random.default_rng(d)
    ref = ReferenceThinning(field, 1)
    cand = np.cumsum(rng.standard_exponential(4000) / lam).tolist()
    picks = rng.integers(0, d - 1, size=len(cand)).tolist()
    thresholds = []
    for t, k, accept in zip(cand, picks, rng.random(len(cand)) < 0.5):
        j, q = ref.bound(t, k)
        thresholds.append(q if accept else math.nextafter(q, math.inf))
        if accept:
            ref.jump(t, j)
    monkeypatch.setattr(sim, "_candidates", lambda *args: iter([(cand, thresholds, picks)]))
    traj = sim.simulate_thinning(field, 1, cand[-1], seed=0)
    assert len(ref.times) > 1000
    assert traj.times.tolist() == ref.times
    assert (traj.targets - 1).tolist() == ref.dsts


def test_chunk_sizes_are_bounded():
    # the benchmark's seeded first chunks are under the cap and keep their sizes
    assert sim._chunk_sizes(4.0, 40000.0) == (162416, 20000)
    assert sim._chunk_sizes(4.0, 40.0)[0] == 251
    assert sim._chunk_sizes(4.0, 1e12) == (2 ** 18, 2 ** 18)
    # lam * horizon overflows to inf here; int(inf) would raise
    assert sim._chunk_sizes(4.0, 1e308) == (2 ** 18, 2 ** 18)


def candidate_count(field, x0, horizon, seed, path_index, sizes):
    """Candidates at or before the horizon, from the path's raw draws."""
    lam = (field.d - 1) * field.rate_upper
    rng = sim.path_stream(seed, path_index)
    t, count, n = 0.0, 0, sizes[0]
    while True:
        clocks = rng.standard_exponential(n).tolist()
        rng.random(n)
        rng.integers(0, field.d - 1, size=n)
        for e in clocks:
            t += e / lam
            if t > horizon:
                return count
            count += 1
        n = sizes[1]


@pytest.mark.parametrize("sizes", [None, (64, 256)])
def test_candidates_match_count_from_draws(family_fields, monkeypatch, sizes):
    if sizes is not None:
        monkeypatch.setattr(sim, "_chunk_sizes", lambda lam, horizon: sizes)
    for name, f in family_fields.items():
        for i in range(3):
            traj = sim.simulate_thinning(f, 2, 60.0, seed=11, path_index=i)
            lam = (f.d - 1) * f.rate_upper
            expected = candidate_count(f, 2, 60.0, 11, i, sim._chunk_sizes(lam, 60.0))
            assert traj.candidates == expected, (name, i)
            assert 0 < traj.n_jumps <= traj.candidates


def test_batch_totals_jumps_and_candidates():
    f = chemo_field()
    b = sim.batch_simulate(f, 1, 20.0, 5, seed=4)
    paths = [sim.simulate_thinning(f, 1, 20.0, seed=4, path_index=i) for i in range(5)]
    assert b.jumps == sum(p.n_jumps for p in paths)
    assert b.candidates == sum(p.candidates for p in paths)
    zero = sim.simulate_thinning(core.RateField.constant(np.zeros((2, 2))), 1, 5.0, seed=0)
    assert zero.candidates == 0 and zero.sources.size == 0


def test_writers_match_csv_writer_reference(tmp_path):
    q0 = [[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]]
    f = core.RateField.constant(np.array(q0))
    b = sim.batch_simulate(f, 2, 30.0, 5, seed=12)
    traj = b.first_trajectory
    assert traj.n_jumps > 10
    for i in range(5):
        path = sim.simulate_thinning(f, 2, 30.0, seed=12, path_index=i)
        assert np.array_equal(b.occupations[i], path.occupation_at(30.0))

    ref = io.StringIO()
    w = csv.writer(ref)
    w.writerow(["time", "from", "to"])
    for t, s, d_ in zip(traj.times, traj.sources, traj.targets):
        w.writerow([repr(float(t)), int(s), int(d_)])
    got = simulate_csv(tmp_path / "t", q0, 2, 30.0, 5, 12, "trajectory.csv")
    assert got == ref.getvalue()
    assert got.endswith("\r\n")

    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    ref = io.StringIO()
    w = csv.writer(ref)
    w.writerow(["path", "seed_index", "L_1", "L_2", "L_3"]
               + [f"R_edge{e + 1}" for e in range(len(pairs))])
    for row, (L, R) in enumerate(zip(b.occupations, b.fluxes)):
        w.writerow([row, row] + [repr(float(v)) for v in L]
                   + [repr(float(R[i, j])) for i, j in pairs])
    got = simulate_csv(tmp_path / "b", q0, 2, 30.0, 5, 12, "batch.csv")
    assert got == ref.getvalue()


import csv
import hashlib
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


def holding_times(traj):
    """Completed holding times (the censored final interval is dropped)."""
    return np.diff(traj.times, prepend=0.0)


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
        h2.extend(holding_times(sim.simulate_exact_affine(
            unit_field(), 1, 60.0, seed=1003, path_index=i)).tolist())
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


def lockstep_occupations(field, x0, times, n_paths, seed):
    return np.concatenate(list(sim.lockstep_thinning(field, x0, times, n_paths, seed)),
                          axis=1)


def assert_lockstep_matches_scalar(field, x0, times, n_paths, seed):
    occ = lockstep_occupations(field, x0, times, n_paths, seed)
    assert occ.shape == (len(times), n_paths, field.d)
    for i in range(n_paths):
        traj = sim.simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            assert np.array_equal(occ[k, i], traj.occupation_at(t)), (i, t)


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_lockstep_matches_scalar_every_family(family_field, seed):
    assert_lockstep_matches_scalar(family_field, 1, [2.5, 6.0, 6.0, 15.0], 40, seed)


def test_lockstep_blocks_and_x0(monkeypatch):
    # several blocks, a ragged last one, and a start away from state 1
    monkeypatch.setattr(sim, "_BLOCK_DRAWS", 700)
    monkeypatch.setattr(sim, "_MIN_BLOCK_PATHS", 1)
    assert_lockstep_matches_scalar(chemo_field(), 2, [4.0, 30.0], 23, seed=3)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("name", ["autochemotaxis", "congestion"])
def test_lockstep_block_boundaries_at_default_size(family_fields, name, extra):
    # one block short of full, one full block, and a full block plus one path,
    # at d = 2 (no picks drawn) and d = 3 (picks stored as uint8); 160 mean
    # candidates per path keep blocks near the benchmark's 391 paths
    field = family_fields[name]
    lam = (field.d - 1) * field.rate_upper
    horizon = 160.0 / lam
    block = sim._BLOCK_DRAWS // sim._chunk_sizes(lam, horizon)[0]
    assert block >= sim._MIN_BLOCK_PATHS
    assert_lockstep_matches_scalar(field, 1, [0.25 * horizon, horizon], block + extra,
                                   seed=5)


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
    occ = lockstep_occupations(zero, 2, [1.0, 5.0], 4, seed=0)
    assert np.all(occ == [0.0, 1.0, 0.0])


def test_lockstep_input_gates():
    with pytest.raises(errors.InvalidState):
        next(sim.lockstep_thinning(unit_field(), 3, [1.0], 2, seed=0))
    for times in ([], [0.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            next(sim.lockstep_thinning(unit_field(), 1, times, 2, seed=0))


def test_samplers_reject_non_finite_horizons():
    # an infinite horizon would never run out of candidates
    for run in (sim.simulate_thinning, sim.simulate_exact_affine):
        for horizon in (np.inf, np.nan):
            with pytest.raises(ValueError):
                run(unit_field(), 1, horizon, seed=0)
    with pytest.raises(ValueError):
        sim.batch_simulate(unit_field(), 1, np.inf, 2, seed=0)
    for times in ([1.0, np.inf], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError):
            next(sim.lockstep_thinning(unit_field(), 1, times, 2, seed=0))


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


def test_path_stream_draws_match_seed_sequence_stream():
    for seed in (0, 7, 2 ** 64 - 1):
        for i in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1):
            new = sim.path_stream(seed, i)
            old = np.random.Generator(np.random.Philox(seed_sequence(seed, i)))
            for draw in (lambda g: g.standard_exponential(300), lambda g: g.random(300),
                         lambda g: g.integers(0, 2, size=300)):
                assert np.array_equal(draw(new), draw(old)), (seed, i)
    with pytest.raises(ValueError):
        sim.path_stream(0, -1)
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
        next(sim.lockstep_thinning(unit_field(), 1, [1.0], 100, seed))


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
    affine = sim.batch_simulate(f, 1, 20.0, 3, seed=4, sampler="exact-affine")
    assert affine.first_trajectory.candidates is None
    assert affine.candidates is None
    assert affine.jumps == sum(sim.simulate_exact_affine(f, 1, 20.0, seed=4, path_index=i)
                               .n_jumps for i in range(3))
    zero = sim.simulate_thinning(core.RateField.constant(np.zeros((2, 2))), 1, 5.0, seed=0)
    assert zero.candidates == 0 and zero.sources.size == 0


def test_writers_match_csv_writer_reference():
    f = core.RateField.constant(
        np.array([[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]]))
    b = sim.batch_simulate(f, 2, 30.0, 5, seed=12, path_offset=3)
    traj = b.first_trajectory
    assert traj.n_jumps > 10

    ref = io.StringIO()
    w = csv.writer(ref)
    w.writerow(["time", "from", "to"])
    for t, s, d_ in zip(traj.times, traj.sources, traj.targets):
        w.writerow([repr(float(t)), int(s), int(d_)])
    got = io.StringIO()
    sim.write_trajectory_csv(traj, got)
    assert got.getvalue() == ref.getvalue()
    assert got.getvalue().endswith("\r\n")

    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    ref = io.StringIO()
    w = csv.writer(ref)
    w.writerow(["path", "seed_index", "L_1", "L_2", "L_3"]
               + [f"R_edge{e + 1}" for e in range(len(pairs))])
    for row, (pi, L, R) in enumerate(zip(b.path_indices, b.occupations, b.fluxes)):
        w.writerow([row, int(pi)] + [repr(float(v)) for v in L]
                   + [repr(float(R[i, j])) for i, j in pairs])
    got = io.StringIO()
    sim.write_batch_csv(b, got)
    assert got.getvalue() == ref.getvalue()

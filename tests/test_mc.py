import io
import math

import numpy as np
import pytest

from selfjump import core, errors, mc, sim


def unit_field():
    return core.RateField.constant(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_wilson_interval_values():
    from scipy.stats import binomtest
    for hits, n in ((5, 10), (1, 30), (17, 23)):
        lo, hi = mc.wilson_interval(hits, n)
        ref = binomtest(hits, n).proportion_ci(confidence_level=0.95,
                                               method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-9)
        assert hi == pytest.approx(ref.high, abs=1e-9)
    lo0, hi0 = mc.wilson_interval(0, 20)
    assert lo0 == 0.0
    assert hi0 > 0.0
    lon, hin = mc.wilson_interval(20, 20)
    assert hin == 1.0
    assert lon < 1.0


def test_wilson_interval_brackets_p_hat():
    for n in (1, 7, 50, 400):
        for hits in (0, 1, n // 2, n):
            lo, hi = mc.wilson_interval(hits, n)
            assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_wilson_interval_zero_samples():
    with pytest.raises(errors.ZeroSamples):
        mc.wilson_interval(0, 0)


def test_ball_target_validation():
    with pytest.raises(ValueError):
        mc.BallTarget(np.array([0.5, 0.6]), 0.1)
    with pytest.raises(errors.OutOfRange):
        mc.BallTarget(np.array([0.5, 0.5]), 0.0)
    with pytest.raises(errors.OutOfRange):
        mc.BallTarget(np.array([0.5, 0.5]), 2.5)


def test_ball_target_geometry():
    t = mc.BallTarget(np.array([0.75, 0.25]), 0.1)
    assert t.hit(np.array([0.75, 0.25]))
    assert not t.hit(np.array([0.5, 0.5]))
    # l1 ball of radius 0.1 around (0.75, 0.25) is gamma_1 in [0.70, 0.80];
    # probe strictly inside and outside, away from the float boundary
    assert t.hit(np.array([0.79, 0.21]))
    assert t.hit(np.array([0.71, 0.29]))
    assert not t.hit(np.array([0.69, 0.31]))
    assert not t.hit(np.array([0.81, 0.19]))


def test_radius_two_hits_everything():
    t = mc.BallTarget(np.array([1.0, 0.0]), 2.0)
    p = mc.decay_curve(unit_field(), 1, t, [5.0], 50, seed=0)[0]
    assert p.p_hat == 1.0
    assert not p.censored


def test_censoring_iff_zero_hits():
    # a tiny ball at a corner is unreachable from equilibrium at long t
    corner = mc.BallTarget(np.array([1.0, 0.0]), 0.01)
    p = mc.decay_curve(unit_field(), 1, corner, [50.0], 40, seed=1)[0]
    assert p.p_hat == 0.0
    assert p.censored
    assert p.neg_log_rate == pytest.approx(-math.log(1.0 / 40) / 50.0)
    assert p.ci_low == 0.0
    easy = mc.BallTarget(np.array([0.5, 0.5]), 0.5)
    q = mc.decay_curve(unit_field(), 1, easy, [50.0], 40, seed=1)[0]
    assert q.p_hat > 0.0
    assert not q.censored
    assert q.neg_log_rate == pytest.approx(-math.log(q.p_hat) / 50.0)


def test_nested_radii_monotone_on_shared_paths():
    # same seed means same paths, so hits are monotone in the radius
    field = unit_field()
    p_hats = []
    for radius in (0.05, 0.1, 0.2, 0.4):
        t = mc.BallTarget(np.array([0.6, 0.4]), radius)
        p_hats.append(
            mc.decay_curve(field, 1, t, [20.0], 200, seed=3)[0].p_hat)
    assert all(a <= b for a, b in zip(p_hats, p_hats[1:]))


def test_concentration_at_equilibrium():
    t = mc.BallTarget(np.array([0.5, 0.5]), 0.2)
    p = mc.decay_curve(unit_field(), 1, t, [200.0], 500, seed=2)[0]
    assert p.p_hat >= 0.9


def test_decay_curve_shared_paths_and_sorting():
    field = unit_field()
    target = mc.BallTarget(np.array([0.7, 0.3]), 0.1)
    pts = mc.decay_curve(field, 1, target, [30.0, 10.0, 20.0], 300, seed=4)
    assert [p.t for p in pts] == [10.0, 20.0, 30.0]
    for p in pts:
        assert p.n == 300
        assert p.ci_low <= p.p_hat <= p.ci_high
    single = mc.decay_curve(field, 1, target, [30.0], 300, seed=4)[0]
    assert single == pts[-1]


def test_decay_curve_determinism():
    field = unit_field()
    target = mc.BallTarget(np.array([0.6, 0.4]), 0.15)
    a = mc.decay_curve(field, 1, target, [5.0, 15.0], 120, seed=9)
    b = mc.decay_curve(field, 1, target, [5.0, 15.0], 120, seed=9)
    assert a == b


def scalar_hits(field, x0, target, times, n_paths, seed):
    """Hit counts from path-by-path thinning and the scalar BallTarget.hit."""
    hits = [0] * len(times)
    for i in range(n_paths):
        traj = sim.simulate_thinning(field, x0, times[-1], seed, path_index=i)
        for k, t in enumerate(times):
            hits[k] += target.hit(traj.occupation_at(t))
    return hits


def lockstep_hits(field, x0, target, times, n_paths, seed):
    return [round(p.p_hat * p.n) for p in
            mc.decay_curve(field, x0, target, times, n_paths, seed=seed)]


@pytest.mark.parametrize("seed", [0, 7])
def test_decay_curve_hits_match_scalar_every_family(family_field, seed):
    center = np.full(family_field.d, 1.0 / family_field.d)
    center[0] += 0.1
    center[1:] -= 0.1 / (family_field.d - 1)
    target = mc.BallTarget(center, 0.3)
    times = [2.0, 5.0, 10.0]
    expected = scalar_hits(family_field, 1, target, times, 150, seed)
    assert 0 < sum(expected) < 3 * 150
    assert lockstep_hits(family_field, 1, target, times, 150, seed) == expected


def test_ball_target_hits_agree_with_hit_row_by_row():
    rng = np.random.default_rng(3)
    for d in (2, 3, 9):
        rows = rng.dirichlet(np.ones(d), size=300)
        rows[:5] = np.eye(d)[rng.integers(0, d, 5)]
        target = mc.BallTarget(np.full(d, 1.0 / d), 0.6)
        got = target.hits(rows)
        assert got.tolist() == [target.hit(r) for r in rows]
        assert 0 < got.sum() < len(rows)


def test_ball_target_hits_rejects_off_simplex_rows():
    target = mc.BallTarget(np.array([0.5, 0.5]), 0.3)
    good = np.array([[0.5, 0.5], [0.9, 0.1]])
    assert target.hits(good).tolist() == [True, False]
    with pytest.raises(ValueError):
        target.hits(np.vstack([good, [[1.2, -0.2]]]))
    with pytest.raises(ValueError):
        target.hits(np.vstack([good, [[0.5, 0.5 + 1e-9]]]))
    with pytest.raises(ValueError):
        target.hits(np.array([[0.2, 0.3, 0.5]]))


def test_decay_curve_input_gates():
    field = unit_field()
    target = mc.BallTarget(np.array([0.6, 0.4]), 0.15)
    with pytest.raises(errors.ZeroSamples):
        mc.decay_curve(field, 1, target, [1.0], 0)
    with pytest.raises(errors.OutOfRange):
        mc.decay_curve(field, 1, target, [0.0, 1.0], 10)


def test_decay_curve_rejects_non_finite_times():
    # a path simulated to t = inf would never end
    target = mc.BallTarget(np.array([0.6, 0.4]), 0.15)
    for times in ([float("inf")], [1.0, float("nan")]):
        with pytest.raises(errors.OutOfRange):
            mc.decay_curve(unit_field(), 1, target, times, 10)


def test_two_seed_groups_agree_statistically():
    field = unit_field()
    target = mc.BallTarget(np.array([0.6, 0.4]), 0.2)
    a = mc.decay_curve(field, 1, target, [30.0], 400, seed=10)[0]
    b = mc.decay_curve(field, 1, target, [30.0], 400, seed=11)[0]
    se = math.sqrt(a.p_hat * (1 - a.p_hat) / 400 + b.p_hat * (1 - b.p_hat) / 400)
    assert abs(a.p_hat - b.p_hat) <= 4.0 * se + 1e-12


def test_compare_to_rate_trend():
    mk = lambda t, nlr: mc.DecayPoint(t, 0.5, 0.4, 0.6, 10, False, nlr)
    toward = mc.compare_to_rate([mk(1, 0.30), mk(2, 0.25), mk(4, 0.21)], 0.2)
    assert toward.trend == "toward"
    assert not toward.inconclusive
    assert toward.gaps == pytest.approx([0.10, 0.05, 0.01])
    away = mc.compare_to_rate([mk(1, 0.21), mk(2, 0.30)], 0.2)
    assert away.trend == "away"
    flat = mc.compare_to_rate([mk(1, 0.25), mk(2, 0.15)], 0.2)
    assert flat.trend == "flat"


def test_compare_to_rate_inconclusive_with_censoring():
    cens = mc.DecayPoint(10.0, 0.0, 0.0, 0.1, 20, True, 0.3)
    live = mc.DecayPoint(5.0, 0.25, 0.1, 0.4, 20, False, 0.28)
    cmp = mc.compare_to_rate([live, cens], 0.2)
    assert cmp.inconclusive
    assert cmp.n_censored == 1
    assert len(cmp.gaps) == 1


def test_decay_csv_schema():
    pts = [mc.DecayPoint(10.0, 0.25, 0.1, 0.4, 20, False, 0.1386294361)]
    buf = io.StringIO()
    mc.write_decay_csv(pts, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,p_hat,ci_low,ci_high,n,censored,neg_log_rate"
    assert lines[1].startswith("10.0,0.25,0.1,0.4,20,0,")

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfjump import core, errors


def test_edge_pairs_row_major():
    assert core.edge_pairs(2) == [(0, 1), (1, 0)]
    assert core.edge_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_as_simplex_accepts_and_rejects():
    g = core.as_simplex([0.25, 0.75])
    assert g.dtype == float
    with pytest.raises(ValueError):
        core.as_simplex([0.5, 0.6])
    with pytest.raises(ValueError):
        core.as_simplex([-0.1, 1.1])


def test_validate_generator():
    core.validate_generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    with pytest.raises(errors.NegativeOffDiagonal):
        core.validate_generator(np.array([[-1.0, -1.0], [2.0, 0.0]]))
    with pytest.raises(errors.RowSumNonzero):
        core.validate_generator(np.array([[-1.0, 1.0], [2.0, -1.0]]))


# -- frozen family examples --------------------------------------------------


def test_autochemotaxis_frozen_example():
    q0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    f = core.RateField.autochemotaxis(q0, strength=1.0)
    q = f.evaluate(np.array([0.5, 0.5]))
    assert np.allclose(q, [[-1.5, 1.5], [1.5, -1.5]], atol=1e-14)
    assert f.rate_upper == pytest.approx(2.0)
    assert f.rate_lower_coeff == pytest.approx(3.0)


def test_congestion_frozen_example():
    q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])
    f = core.RateField.congestion(q0, alpha=np.array([0.3, 0.2]),
                                  beta=np.array([0.1, 0.4]))
    # rate 1->2 at gamma=(1,0): (1 - 0.3*1 - 0.4*0) * 2 = 1.4
    q = f.evaluate(np.array([1.0, 0.0]))
    assert q[0, 1] == pytest.approx(1.4)
    bad_alpha = np.array([0.9, 0.2])
    with pytest.raises(errors.NegativeRate):
        core.RateField.congestion(q0, alpha=bad_alpha, beta=np.array([0.2, 0.4]))


def test_catalytic_matches_convex_combination():
    qa = np.array([[-1.0, 1.0], [2.0, -2.0]])
    qb = np.array([[-3.0, 3.0], [0.5, -0.5]])
    f = core.RateField.catalytic(np.stack([qa, qb]))
    g = np.array([0.25, 0.75])
    assert np.allclose(f.evaluate(g), 0.25 * qa + 0.75 * qb, atol=1e-14)


def test_constant_field_ignores_measure():
    q0 = np.array([[-1.0, 1.0], [2.0, -2.0]])
    f = core.RateField.constant(q0)
    assert np.allclose(f.evaluate([0.1, 0.9]), q0)
    assert np.allclose(f.evaluate([0.9, 0.1]), q0)


def test_affine_vertex_generators_validated():
    good = np.stack([np.array([[-1.0, 1.0], [2.0, -2.0]]),
                     np.array([[-0.5, 0.5], [1.0, -1.0]])])
    core.RateField.affine(good)
    bad = good.copy()
    bad[0, 0, 1] = -1.0
    with pytest.raises(errors.NegativeOffDiagonal):
        core.RateField.affine(bad)


def test_rate_upper_is_sharp_for_affine():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        verts = np.zeros((d, d, d))
        for z in range(d):
            off = rng.uniform(0.0, 3.0, (d, d))
            np.fill_diagonal(off, 0.0)
            verts[z] = off
            np.fill_diagonal(verts[z], -off.sum(axis=1))
        f = core.RateField.affine(verts)
        # vertex max dominates every simplex point, and is attained at a vertex
        seen = 0.0
        for _ in range(50):
            g = rng.dirichlet(np.ones(d))
            q = f.evaluate(g)
            np.fill_diagonal(q, 0.0)
            assert q.max() <= f.rate_upper + 1e-12
            seen = max(seen, q.max())
        for z in range(d):
            q = f.evaluate(np.eye(d)[z])
            np.fill_diagonal(q, 0.0)
            seen = max(seen, q.max())
        assert seen == pytest.approx(f.rate_upper, abs=1e-12)


def test_evaluate_is_generator_within_bounds_every_family(family_field):
    f = family_field
    rng = np.random.default_rng(11)
    off_diag = ~np.eye(f.d, dtype=bool)
    faces = [np.where(np.arange(f.d) == z, 0.0, 1.0 / (f.d - 1)) for z in range(f.d)]
    gammas = list(rng.dirichlet(np.ones(f.d), 200)) + faces + list(np.eye(f.d))
    seen = 0.0
    for g in gammas:
        q = f.evaluate(g)
        assert np.all(q[off_diag] >= 0.0)
        assert np.all(q[off_diag] <= f.rate_upper + 1e-12)
        assert np.all(q[off_diag & ~f.support] == 0.0)
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)
        seen = max(seen, q[off_diag].max())
    # the bound is sharp: some vertex attains it
    assert seen == pytest.approx(f.rate_upper, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_affine_evaluate_is_generator(d, seed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.1, 2.0, (d, d))
    np.fill_diagonal(off, 0.0)
    q0 = off.copy()
    np.fill_diagonal(q0, -off.sum(axis=1))
    f = core.RateField.autochemotaxis(q0, strength=float(rng.uniform(0.0, 2.0)))
    g = rng.dirichlet(np.ones(d))
    q = f.evaluate(g)
    assert np.all(q[~np.eye(d, dtype=bool)] >= 0.0)
    assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)

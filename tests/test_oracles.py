import numpy as np
import pytest

from control_paths import m_from_rho, random_feasible_path
from oracles import dp_occupation_rate
from selfjump import core, varsolve
from selfjump.varsolve import SolveOptions


def test_the_dp_recursion_is_the_occupation_profile():
    # M_k = (1 - e^-Delta) rho_k + e^-Delta M_{k+1} with M_K = rho_K, the
    # recursion the oracle steps through, read against the H-space profile
    f = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]), strength=6.0)
    opts = SolveOptions(8.0, 16)
    path = random_feasible_path(f, opts, seed=4)
    m = m_from_rho(path)
    decay = np.exp(-np.diff(opts.nodes))[:, None]
    assert np.allclose(m[:-1], (1.0 - decay) * path.rho[:-1] + decay * m[1:], atol=1e-14)
    assert np.array_equal(m[-1], path.rho[-1])


@pytest.mark.parametrize("horizon", [8.0, 16.0])
@pytest.mark.parametrize("strength", [1.0, 6.0])
def test_occupation_rate_matches_the_two_state_dp_oracle(strength, horizon):
    # the DP's value is reached by a path on the solver's grid, so it bounds
    # the solver's from above; the solver must come within the DP's m-grid
    # error, estimated by halving its grid step
    field = core.RateField.autochemotaxis(np.array([[-2.0, 2.0], [1.0, -1.0]]),
                                          strength=strength)
    opts = SolveOptions(grid_horizon=horizon)
    res = varsolve.occupation_rate([0.6, 0.4], field, opts)
    coarse, fine = (dp_occupation_rate(field, 0.6, opts, n) for n in (201, 401))
    assert res.status == "converged"
    assert res.value <= fine + 1e-12
    assert fine - res.value <= abs(coarse - fine)

"""The occupation-rate sweep on the benchmark's autochemotaxis field.

``RECORDED`` holds, per strength, the values that the augmented-Lagrangian
solver of selfjump 0.1.0 returned at gamma_1 = 0.1, ..., 0.9 on the default
grid (H = 8, K = 64, two starts), with None where it did not converge.  A
solver change may lower a value but not raise it by more than 1e-8, and
must converge at every point.

Where that solver ended off its constraints, its value may sit below the
feasible minimum, and ``SLACK`` adds what the miss is worth.  At strength 1,
gamma_1 = 0.9 its path missed the simplex rows by 4.5e-8 and the marginal
by 2.0e-8, and read 8.2e-8 below 0.92190969801, the value the interior-point
solve reaches from both starts and, in two iterations, from that path.

``CONTINUOUS`` holds the continuous-limit value at gamma_1 = 0.6, which the
default grid horizon's values, extrapolated in the cell count, must meet.
"""

import numpy as np
import pytest

from selfjump import core, varsolve

Q0 = np.array([[-2.0, 2.0], [1.0, -1.0]])

RECORDED = {
    1.0: [0.140625991462408, 0.016150826645295196, 0.0026469078231025813,
          0.03721707231868083, 0.1062518225255454, 0.2118912886184724,
          0.363243668705618, 0.5810626295409664, 0.9219096159439546],
    6.0: [0.0032373075779659325, 0.0030666946046768906, 0.015230552802880281,
          0.03824359956579591, 0.07538977540246836, 0.13238938224605662,
          0.2199012306808686, 0.3610857083269693, None],
    10.0: [0.00024595510557106124, 0.003807073086710127, 0.013448177110430656,
           0.030717611705539764, 0.05848848262543724, 0.10179987814072908,
           0.17016482488146265, None, 0.5146539236619474],
}

SLACK = {(1.0, 0.9): 1e-7}


@pytest.mark.parametrize("strength", sorted(RECORDED))
def test_occupation_sweep_converges_and_is_not_above_the_recorded_values(strength):
    field = core.RateField.autochemotaxis(Q0, strength=strength)
    for k, recorded in enumerate(RECORDED[strength], start=1):
        g = k / 10
        res = varsolve.occupation_rate([g, 1.0 - g], field)
        assert res.status == "converged", (strength, g)
        if recorded is not None:
            bound = recorded + 1e-8 + SLACK.get((strength, g), 0.0)
            assert res.value <= bound, (strength, g, res.value, recorded)


# The occupation rate at gamma = (0.6, 0.4) on the benchmark field in the
# continuous limit, per strength, to within 3e-6 at strength 1 and 4e-6 at
# strength 6.  Two discretisations of the control problem at H = 8 agree on
# it to about 2e-6: the Richardson extrapolation 2 V_1024 - V_512 of the
# left-node rule gives 0.2086079 at strength 1 and 0.1210105 at strength 6,
# and a second-order cell rule (Q read at each cell's discount-averaged M,
# not in the package) gives (4 V_1024 - V_512) / 3 = 0.2086071 and
# 0.1210124.  Going from H = 8 to H = 16 or 24 lowers the value by about
# 1.5e-6, and H = 16 and 24 agree to 1e-12.  Here V_K is the value on K
# cells.
CONTINUOUS = {1.0: 0.208606, 6.0: 0.121011}


@pytest.mark.parametrize("strength", sorted(CONTINUOUS))
def test_extrapolated_occupation_rate_matches_the_continuous_limit(strength):
    # the left-node rule's error is first order in the cell width, so
    # 2 V_512 - V_256 cancels its leading term
    field = core.RateField.autochemotaxis(Q0, strength=strength)
    v256, v512 = (varsolve.occupation_rate([0.6, 0.4], field, varsolve.SolveOptions(grid_cells=k))
                  for k in (256, 512))
    assert v256.status == v512.status == "converged"
    extrapolated = 2.0 * v512.value - v256.value
    assert abs(extrapolated - CONTINUOUS[strength]) <= 2e-5, (v256.value, v512.value)

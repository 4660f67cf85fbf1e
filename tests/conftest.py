import copy

import pytest

from selfjump import core

Q3 = [[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]]

# one field per built-in family, self-interacting wherever the family allows,
# by the parameters a run file's field section gives it
FAMILY_PARAMS = {
    "constant": {"q0": Q3},
    "affine": {"vertices": [Q3, [[2.0 * v for v in row] for row in Q3],
                            [[-1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [0.0, 3.0, -3.0]]]},
    "autochemotaxis": {"q0": [[-2.0, 2.0], [1.0, -1.0]], "strength": 1.0},
    "congestion": {"q0": Q3, "alpha": [0.1, 0.3, 0.2], "beta": [0.4, 0.1, 0.3]},
    "catalytic": {"generators": [[[0.0, 2.0], [0.5, 0.0]], [[0.0, 0.2], [3.0, 0.0]]]},
}


def make_field(family):
    return getattr(core.RateField, family)(**FAMILY_PARAMS[family])


@pytest.fixture(params=sorted(FAMILY_PARAMS))
def family_field(request):
    """A field of each built-in family, one test run per family."""
    return make_field(request.param)


@pytest.fixture
def family_fields():
    """A field of each built-in family, by family name."""
    return {name: make_field(name) for name in FAMILY_PARAMS}


@pytest.fixture
def family_params():
    """The parameters of each family_fields field, by family name."""
    return copy.deepcopy(FAMILY_PARAMS)

import numpy as np
import pytest

from selfjump import core

Q3 = np.array([[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]])

# one field per built-in family, self-interacting wherever the family allows
FAMILY_FIELDS = {
    "constant": lambda: core.RateField.constant(Q3),
    "affine": lambda: core.RateField.affine(
        [Q3, 2.0 * Q3, np.array([[-1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [0.0, 3.0, -3.0]])]),
    "autochemotaxis": lambda: core.RateField.autochemotaxis(
        np.array([[-2.0, 2.0], [1.0, -1.0]]), strength=1.0),
    "congestion": lambda: core.RateField.congestion(
        Q3, alpha=[0.1, 0.3, 0.2], beta=[0.4, 0.1, 0.3]),
    "catalytic": lambda: core.RateField.catalytic(
        [np.array([[0.0, 2.0], [0.5, 0.0]]), np.array([[0.0, 0.2], [3.0, 0.0]])]),
}


@pytest.fixture(params=sorted(FAMILY_FIELDS))
def family_field(request):
    """A field of each built-in family, one test run per family."""
    return FAMILY_FIELDS[request.param]()


@pytest.fixture
def family_fields():
    """A field of each built-in family, by family name."""
    return {name: make() for name, make in FAMILY_FIELDS.items()}

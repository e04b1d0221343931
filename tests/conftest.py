import numpy as np
import pytest

from frozen_spectra import GridFunction
# re-exported to the test modules
from frozen_spectra.core_params import coprime_configs  # noqa: F401


def smooth_potential(x):
    """Fixed smooth complex test potential used across the suite."""
    return (2.0 + 1.0j) * x**2 * (1 - x) + 0.5 * np.cos(3.0 * x)


def random_grid(k, m, rng):
    vals = rng.normal(size=k * m) + 1j * rng.normal(size=k * m)
    return GridFunction(k, m, vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)

import numpy as np
import pytest
from hypothesis import settings

from spectra_lab.frequency import FrequencySet, GeneratorBasis, freq

# every @given test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def rational_basis():
    return GeneratorBasis(None)


@pytest.fixture(scope="session")
def surd2_basis():
    return GeneratorBasis(2)


@pytest.fixture(scope="session")
def axes2d(rational_basis):
    """Theta = {0, +-e1, +-e2} in d = 2."""
    e1 = freq([1, 0], rational_basis)
    e2 = freq([0, 1], rational_basis)
    return FrequencySet.build(2, rational_basis, [e1, e2])


@pytest.fixture(scope="session")
def mathieu1d(rational_basis):
    """Theta = {0, +-1} in d = 1."""
    return FrequencySet.build(1, rational_basis, [freq([1], rational_basis)])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def contour_runs():
    """Criterion 08's contour runs: the scalar free family's
    check_contour_identity and, per seed 0-19, the two-level
    refine_contour_identity of random_family(4, 2, seed), both on (1, 4)."""
    from spectra_lab.validation import (check_contour_identity, random_family,
                                        refine_contour_identity,
                                        scalar_free_family)

    scalar = check_contour_identity(scalar_free_family(), (1.0, 4.0))
    refined = [refine_contour_identity(random_family(4, 2, seed), (1.0, 4.0),
                                       levels=2) for seed in range(20)]
    return scalar, refined


@pytest.fixture(scope="session")
def criterion_08_contour():
    """contour_runs() once per session, for criterion 08 and the contour
    value pins."""
    return contour_runs()

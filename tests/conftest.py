"""Fixtures shared by the test modules."""

import functools

import pytest

from weylcs.domains import rectangle_domain
from weylcs.eigen import dense_spectrum
from weylcs.operators import assemble_hyperbolic


@pytest.fixture(scope="session")
def hyperbolic_square_spectrum():
    """dense_spectrum of the hyperbolic operator on the unit square at h = 1/denom,
    computed once per denom in a session: the dense oracle at denom = 70
    (n = 4761) is the slowest computation of the suite."""
    @functools.cache
    def spectrum(denom):
        dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1.0 / denom)
        return dense_spectrum(assemble_hyperbolic(dom))

    return spectrum

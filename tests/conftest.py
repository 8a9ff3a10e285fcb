"""Fixtures shared by the test modules."""

import functools
import os

import numpy as np
import pytest

import weylcs
from weylcs.domains import rectangle_domain
from weylcs.eigen import dense_spectrum
from weylcs.operators import assemble_hyperbolic
from weylcs.weyl import euclidean_leading


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


def window_at(w, z):
    """The window w, g^eps(z) = f(z_1) ... f(z_d), at points z of shape
    (..., d) (or scalar/1-D if d=1): the oracles' product of factor values,
    independent of the frame's per-axis tables."""
    z = np.asarray(z, dtype=float)
    if w.d == 1 and (z.ndim == 0 or z.shape[-1] != 1):
        z = z[..., None]
    out = np.ones(z.shape[:-1], dtype=float)
    for j in range(w.d):
        out = out * w.factor_value(z[..., j])
    return out


def li_yau_bound(vol, d, lam):
    """The Li-Yau bound on the Riesz mean of the Dirichlet Laplacian on a
    domain of volume vol: the Weyl leading term, euclidean_leading."""
    return euclidean_leading(vol, d, lam)


def lattice_measure(dom):
    """The lattice volume of a domain: its number of true nodes times h^d."""
    return int(dom.mask.sum()) * dom.h ** dom.d


def subprocess_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylcs.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

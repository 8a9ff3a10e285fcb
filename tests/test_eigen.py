"""Dense and certified partial spectra against closed-form oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from weylcs.domains import rectangle_domain
from weylcs.eigen import (
    DenseLimitError,
    Spectrum,
    count_below,
    dense_spectrum,
    load_spectrum,
    save_spectrum,
    spectrum_below,
)
from weylcs.operators import assemble_euclidean, assemble_hyperbolic


def interval_op(n, L=1.0):
    h = L / (n + 1)
    return assemble_euclidean(rectangle_domain(((0.0, L),), h)), h


def tridiag_eigs(n, h, L):
    k = np.arange(1, n + 1)
    return (4.0 / h ** 2) * np.sin(k * math.pi * h / (2.0 * L)) ** 2


def test_dense_matches_closed_form():
    op, h = interval_op(100)
    spec = dense_spectrum(op)
    ref = tridiag_eigs(100, h, 1.0)
    assert spec.certified and spec.cutoff is None
    assert np.max(np.abs(spec.values - ref) / ref) < 1e-10


def test_dense_2d_kronecker_oracle():
    h = 1 / 15
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    spec = dense_spectrum(assemble_euclidean(dom))
    axis = tridiag_eigs(14, h, 1.0)
    ref = np.sort((axis[:, None] + axis[None, :]).ravel())
    assert np.max(np.abs(spec.values - ref) / ref) < 1e-9


def test_dense_n1():
    op, h = interval_op(1)
    spec = dense_spectrum(op)
    assert spec.values.shape == (1,)
    assert spec.values[0] == pytest.approx(2.0 / h ** 2)


def test_dense_limit_enforced():
    op, _ = interval_op(60)
    with pytest.raises(DenseLimitError):
        dense_spectrum(op, limit=50)


def test_count_below_gershgorin_extremes():
    op, h = interval_op(50)
    assert count_below(op, -1.0) == 0
    assert count_below(op, 4.0 / h ** 2 + 1.0) == op.n


def test_count_below_matches_closed_form():
    op, h = interval_op(200)
    ref = tridiag_eigs(200, h, 1.0)
    for lam in (100.0, 5000.0, 1e5):
        assert count_below(op, lam) == int(np.sum(ref < lam))


def test_count_below_on_eigenvalue_warns():
    op, h = interval_op(30)
    lam = tridiag_eigs(30, h, 1.0)[4]
    with pytest.warns(UserWarning, match="perturbed"):
        n = count_below(op, lam)
    assert n == 4


@pytest.mark.filterwarnings("ignore:count_below")
def test_count_below_strict_at_every_eigenvalue():
    # lambda equal to the k-th eigenvalue counts the k-1 below it, and the
    # partial spectrum certifies against that count
    op, h = interval_op(10)
    ref = tridiag_eigs(10, h, 1.0)
    for k, lam in enumerate(ref):
        assert count_below(op, lam) == k
        spec = spectrum_below(op, lam)
        assert spec.certified and len(spec.values) == k
        assert np.allclose(spec.values, ref[:k], rtol=1e-12, atol=0.0)


def test_count_below_monotone():
    op, h = interval_op(40)
    grid = np.linspace(0.0, 3.0 / h ** 2, 25)
    counts = [count_below(op, lam) for lam in grid]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_below_domain_monotone():
    h = 1 / 25
    big = assemble_euclidean(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    small = assemble_euclidean(rectangle_domain(((0.0, 0.6), (0.0, 1.0)), h))
    for lam in (100.0, 400.0, 900.0):
        assert count_below(big, lam) >= count_below(small, lam)


def test_spectrum_below_matches_dense_filter():
    op, h = interval_op(2000)
    lam = 400.0
    spec = spectrum_below(op, lam)
    dense = dense_spectrum(op).values
    dense = dense[dense < lam]
    assert spec.certified and spec.cutoff == lam
    assert len(spec.values) == len(dense)
    assert np.max(np.abs(spec.values - dense)) < 1e-8


def test_spectrum_below_zero_is_empty():
    op, _ = interval_op(50)
    spec = spectrum_below(op, 0.0)
    assert spec.certified and len(spec.values) == 0


def test_spectrum_below_hyperbolic_certified():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 40)
    spec = spectrum_below(assemble_hyperbolic(dom), 150.0)
    assert spec.certified
    assert np.all(spec.values < 150.0)
    assert np.all(np.diff(spec.values) >= 0)


def test_spectrum_roundtrip(tmp_path):
    spec = Spectrum(values=np.array([1.0, 4.0, 9.0]), cutoff=10.0, certified=True)
    path = tmp_path / "spec.txt"
    save_spectrum(spec, path, kind="euclidean", h=0.01, extra=["note=test"])
    back = load_spectrum(path)
    assert np.array_equal(back.values, spec.values)
    assert back.cutoff == 10.0
    assert back.certified


def test_spectrum_roundtrip_no_cutoff(tmp_path):
    spec = Spectrum(values=np.array([2.5]), cutoff=None, certified=False)
    path = tmp_path / "spec.txt"
    save_spectrum(spec, path)
    back = load_spectrum(path)
    assert back.cutoff is None
    assert not back.certified

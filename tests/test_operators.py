"""Sparse Dirichlet assembly: stencils, symmetry, quadratic forms, oracles."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcs.cli import main
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.frames import analytic_symbol
from weylcs.operators import (
    assemble_euclidean,
    assemble_hyperbolic,
    export_matrix,
    weighted_axes,
)
from weylcs.weyl import weighted_volume
from weylcs.windows import make_cosine_window


def tridiag_eigs(n, h):
    """Closed-form spectrum (4/h^2) sin^2(k pi h / (2 L)) of the 1-D stencil."""
    L = (n + 1) * h
    k = np.arange(1, n + 1)
    return (4.0 / h ** 2) * np.sin(k * math.pi * h / (2.0 * L)) ** 2


def test_1d_closed_form_spectrum():
    h = 0.01
    dom = rectangle_domain(((0.0, 1.0),), h)
    op = assemble_euclidean(dom)
    vals = scipy.linalg.eigvalsh(op.matrix.toarray())
    ref = tridiag_eigs(op.n, h)
    assert np.max(np.abs(vals - ref) / ref) < 1e-10


def test_1d_smallest_eigenvalue_near_one():
    dom = rectangle_domain(((0.0, math.pi),), math.pi / 200.0)
    op = assemble_euclidean(dom)
    lam = scipy.sparse.linalg.eigsh(op.matrix, k=1, sigma=0.0,
                                    return_eigenvectors=False)[0]
    assert abs(lam - 1.0) < 1e-3


def test_bitwise_symmetry():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 17)
    for op in (assemble_euclidean(dom), assemble_hyperbolic(dom)):
        defect = (op.matrix - op.matrix.T).tocoo()
        assert defect.nnz == 0 or np.all(defect.data == 0.0)
        assert np.all(op.matrix.diagonal() > 0)


def test_hyperbolic_d1_identical_to_euclidean():
    dom = rectangle_domain(((0.0, 2.0),), 0.05)
    a = assemble_euclidean(dom).matrix
    b = assemble_hyperbolic(dom).matrix
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_constant_weight_hook_degenerates_to_euclidean():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 13)
    a = assemble_euclidean(dom).matrix
    b = dataclasses.replace(assemble_hyperbolic(dom), tilde_weight=np.ones(dom.shape[0])).matrix
    assert abs(a - b).max() == 0.0


def test_apply_sine_mode_is_eigenvector():
    h = 0.02
    dom = rectangle_domain(((0.0, 1.0),), h)
    op = assemble_euclidean(dom)
    x = (np.asarray(dom.origin) + h * op.nodes)[:, 0]
    for k in (1, 3, 7):
        v = np.sin(k * math.pi * x)
        lam = (4.0 / h ** 2) * math.sin(k * math.pi * h / 2.0) ** 2
        assert np.max(np.abs(op.matrix @ v - lam * v)) < 1e-12 / h ** 2


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_positive_semidefinite(seed):
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 9)
    op = assemble_hyperbolic(dom)
    v = np.random.default_rng(seed).standard_normal(op.n)
    assert v @ (op.matrix @ v) >= -1e-12 * (v @ v)


def test_hyperbolic_quadratic_form_identity():
    # v^T A v = ||D1 v||^2 + ||e^{x1} D2 v||^2 with forward differences over
    # the zero-extended grid (Dirichlet edges included)
    h = 1 / 12
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    op = assemble_hyperbolic(dom)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(op.n)
    form = v @ (op.matrix @ v)

    m = dom.shape[0]
    V = np.zeros((m + 2, m + 2))
    inner = np.zeros(dom.shape)
    inner[dom.mask] = v
    V[1:-1, 1:-1] = inner
    x1 = np.concatenate(([dom.origin[0] - h], dom.axis_coords(0),
                         [dom.origin[0] + m * h]))
    d1 = (V[1:, :] - V[:-1, :]) / h
    d2 = (V[:, 1:] - V[:, :-1]) / h
    direct = np.sum(d1 ** 2) + np.sum(np.exp(2.0 * x1)[:, None] * d2 ** 2)
    assert form == pytest.approx(direct, rel=1e-12)


def test_hyperbolic_smallest_eigenvalue_rayleigh_oracle():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 40)
    op = assemble_hyperbolic(dom)
    lam = scipy.linalg.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 0])[0]
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((op.n, 1))
    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ray, _ = scipy.sparse.linalg.lobpcg(op.matrix.tocsr(), x0,
                                                largest=False, tol=1e-9,
                                                maxiter=1000)
    assert abs(ray[0] - lam) < 1e-6 * lam


def test_hyperbolic_2d_separates_into_1d_problems():
    # independent oracle: eigenvalues are the union over x2-modes mu_m of the
    # spectra of T1 + mu_m diag(e^{2 x1})
    h = 1 / 20
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    op = assemble_hyperbolic(dom)
    full = scipy.linalg.eigvalsh(op.matrix.toarray())
    x1 = dom.axis_coords(0)[dom.mask.any(axis=1)]
    m = len(x1)
    T = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1)
         - np.diag(np.ones(m - 1), -1)) / h ** 2
    vals = []
    for mu in scipy.linalg.eigvalsh(T):
        vals.append(scipy.linalg.eigvalsh(T + mu * np.diag(np.exp(2.0 * x1))))
    vals = np.sort(np.concatenate(vals))
    assert np.max(np.abs(vals - full) / full) < 1e-10


def test_domain_monotonicity_of_eigenvalues():
    h = 1 / 20
    big = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    small = rectangle_domain(((0.0, 0.7), (0.0, 1.0)), h)
    lam_big = scipy.linalg.eigvalsh(assemble_euclidean(big).matrix.toarray())
    lam_small = scipy.linalg.eigvalsh(assemble_euclidean(small).matrix.toarray())
    k = len(lam_small)
    assert np.all(lam_big[:k] <= lam_small + 1e-9)


def test_export_matrix_roundtrip(tmp_path):
    dom = rectangle_domain(((0.0, 1.0),), 0.2)
    op = assemble_euclidean(dom)
    path = tmp_path / "mat.txt"
    export_matrix(op, path)
    rows, cols, vals = [], [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        i, j, v = line.split()
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(v))
    import scipy.sparse as sp

    back = sp.coo_matrix((vals, (rows, cols)), shape=(op.n, op.n)).tocsr()
    assert abs(back - op.matrix).max() == 0.0


@pytest.mark.parametrize("x1_end", [400.0, 354.0])
def test_hyperbolic_entries_must_be_finite(x1_end):
    # exp(2 x_1) overflows from x_1 = 355 on, and exp(2 x_1)/h^2 at h = 0.25
    # from 353.4; inf edge weights once gave a "certified" count of 0.  In
    # d = 1 there is no tilde weight
    with pytest.raises(ValueError, match="matrix entries not finite"):
        assemble_hyperbolic(rectangle_domain(((0.0, x1_end), (0.0, 1.0)), 0.25))
    assert assemble_hyperbolic(rectangle_domain(((0.0, x1_end),), 0.25)).n > 0


@pytest.mark.parametrize("assemble, box, h, entry", [
    (assemble_euclidean, ((0.0, 4e-155),), 1e-155, "(euclidean: 2/h^2 overflows)"),
    (assemble_euclidean, ((0.0, 4e-155),) * 2, 1e-155, "(euclidean: 4/h^2 overflows)"),
    (assemble_hyperbolic, ((0.0, 4e-155),), 1e-155, "(hyperbolic: 2/h^2 overflows)"),
    (assemble_hyperbolic, ((0.0, 400.0), (0.0, 1.0)), 0.25,
     "(hyperbolic: exp(2 x_1)/h^2 overflows)"),
])
def test_overflow_message_names_the_kinds_own_entry(assemble, box, h, entry):
    # 1/h^2 overflows at h = 1e-155; only the hyperbolic operator in d >= 2
    # has the tilde weight exp(2 x_1), which the message once named for all
    with pytest.raises(ValueError, match="matrix entries not finite") as info:
        assemble(rectangle_domain(box, h))
    assert str(info.value).endswith(entry)


@pytest.mark.parametrize("assemble", [assemble_euclidean, assemble_hyperbolic])
def test_nan_spacing_is_rejected(assemble):
    # h = nan makes every entry nan, and a count's bracket looped forever on it
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 0.1)
    with pytest.raises(ValueError, match="matrix entries not finite"):
        assemble(GridDomain(h=math.nan, origin=dom.origin, mask=dom.mask, box=dom.box))
    # and a mask with no node gives no operator
    with pytest.raises(ValueError, match="empty domain"):
        assemble(GridDomain(h=dom.h, origin=dom.origin, mask=np.zeros_like(dom.mask),
                            box=dom.box))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind, want", [("euclidean", lambda d: 0),
                                        ("hyperbolic", lambda d: d - 1)],
                         ids=["euclidean", "hyperbolic"])
def test_weighted_axes_is_what_every_kind_reader_does(tmp_path, capsys, kind, want, d):
    k = weighted_axes(kind, d)
    assert k == want(d)
    # the assembled edge weights: k axes carry exp(2 x_1)/h^2, x_1 in 0.25..0.75
    h, box = 0.25, ((0.0, 1.0),) * d
    assemble = {"euclidean": assemble_euclidean, "hyperbolic": assemble_hyperbolic}[kind]
    weights = assemble(rectangle_domain(box, h)).axis_weights()
    assert sum(not np.all(w == 1.0 / h ** 2) for w in weights) == k
    # int exp(-k y_1) dy over the unit cube
    assert weighted_volume(kind, rectangle_domain(box, h)) == \
        pytest.approx((1.0 - math.exp(-k)) / k if k else 1.0, rel=1e-14)
    # the continuum symbol depends on y_1 exactly when an axis is weighted
    win, xi = make_cosine_window(d), np.ones(d)
    moved = analytic_symbol(kind, win, xi, np.eye(d)[0]) != analytic_symbol(kind, win, xi)
    assert moved == (k > 0)
    # the CLI has closed-form spectra of the unweighted operator only
    rc = main(["weyl-curve", "--set", f"kind={kind}", "--set", f"dim={d}",
               "--set", "box=" + ";".join(["0,1"] * d), "--set", "h=0.25",
               "--set", "lam_min=50", "--set", "lam_max=100", "--set", "lam_count=5",
               "--out", str(tmp_path / "curve.csv")])
    refused = "exact spectra are euclidean-only" in capsys.readouterr().err
    assert (rc, refused) == ((1, True) if k else (0, False))


def test_weighted_axes_rejects_an_unknown_kind(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown kind 'elliptic'"):
        weighted_axes("elliptic", 2)
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 0.25)
    with pytest.raises(ValueError, match="unknown kind 'elliptic'"):
        weighted_volume("elliptic", dom)
    with pytest.raises(ValueError, match="unknown kind 'elliptic'"):
        analytic_symbol("elliptic", make_cosine_window(2), (0.0, 0.0))
    assert main(["weyl-curve", "--set", "kind=elliptic",
                 "--out", str(tmp_path / "curve.csv")]) == 1
    assert "unknown kind 'elliptic'" in capsys.readouterr().err

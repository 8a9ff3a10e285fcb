"""Dense and certified partial spectra against closed-form oracles."""

import dataclasses
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scipy.sparse
import scipy.sparse.linalg

import weylcs.eigen
from weylcs.domains import EmptyErosionError, GridDomain, dilate, erode, rectangle_domain
from weylcs.eigen import (
    CertificationError,
    DenseLimitError,
    Spectrum,
    _box_inertia,
    _box_modes,
    _box_values,
    _sturm_counts,
    count_below,
    count_certificate,
    dense_spectrum,
    load_spectrum,
    save_spectrum,
    separable_sums,
    spectrum_below,
)
from weylcs.operators import assemble_euclidean, assemble_hyperbolic


def interval_op(n, L=1.0):
    h = L / (n + 1)
    return assemble_euclidean(rectangle_domain(((0.0, L),), h)), h


# operators that take the sparse LDL^T path although their nodes fill a box
SPARSE = weakref.WeakSet()


@pytest.fixture(autouse=True, scope="module")
def sparse_path():
    """_box_modes gives None for the operators in SPARSE, which then take the
    sparse path as a mask does (module scope: no function-scoped fixture in
    the hypothesis tests)."""
    box_modes = weylcs.eigen._box_modes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weylcs.eigen, "_box_modes",
                      lambda op: None if op in SPARSE else box_modes(op))
        yield


def on_sparse_path(op):
    SPARSE.add(op)
    return op


def sparse_interval_op(n, L=1.0):
    """The matrix of interval_op(n) on the sparse LDL^T path."""
    op, h = interval_op(n, L)
    return on_sparse_path(op), h


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


def test_dense_limit_enforced(monkeypatch):
    op, _ = interval_op(60)
    monkeypatch.setattr(weylcs.eigen, "DENSE_LIMIT", 50)
    with pytest.raises(DenseLimitError):
        dense_spectrum(op)


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


def dense_count(op, shift):
    """Oracle: negative eigenvalues of the densified A - shift*I."""
    vals = np.linalg.eigvalsh(op.matrix.toarray() - shift * np.eye(op.n))
    return int(np.count_nonzero(vals < 0.0))


SHIFT_WARNING = "count_below: shift perturbed to "


def certified_with_warnings(op, lam):
    """count_certificate(op, lam) and the messages of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cert = count_certificate(op, lam)
    return cert, [str(w.message) for w in caught]


@pytest.mark.parametrize("n, k", [(40, None), (41, None), (30, 5)])
def test_count_below_brackets_to_the_strict_count(n, k):
    # k=None: lam = 2/h^2 zeroes the diagonal of A - lam*I, so SuperLU pivots
    # off the diagonal (n even) or finds the matrix exactly singular (n odd,
    # lam is then eigenvalue (n+1)/2).  k: lam is the k-th eigenvalue.  The
    # gate fails at lam and a bracket decides; the shift moves below lam,
    # and warns, only where lam is an eigenvalue
    op, h = sparse_interval_op(n)
    lam = 2.0 / h ** 2 if k is None else tridiag_eigs(n, h, 1.0)[k - 1]
    cert, messages = certified_with_warnings(op, lam)
    at_eigenvalue = n % 2 == 1 or k is not None
    assert cert.bracketed and (cert.shift < lam) == at_eigenvalue
    assert [m.startswith(SHIFT_WARNING) for m in messages] == [True] * at_eigenvalue
    assert cert.count == (n // 2 if k is None else k - 1) == dense_count(op, cert.shift)


def test_count_below_on_a_zero_pivot_inside_a_supernode():
    # five nodes in a plus: lam = 4/h^2 is a triple eigenvalue and zeroes the
    # centre's diagonal, so SuperLU fails inside a supernode instead of
    # reporting a singular factor; the count brackets it like any other
    h = 1 / 12
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    mask = np.zeros(box.shape, dtype=bool)
    mask[6, 5:8] = mask[5:8, 6] = True
    op = assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))
    lam = dense_spectrum(op).values[2]
    with pytest.warns(UserWarning, match=re.escape("(lambda too close to an eigenvalue)") + "$"):
        cert = count_certificate(op, lam)
    assert cert.bracketed and cert.shift < lam
    assert cert.count == 1 == dense_count(op, cert.shift)


def test_any_other_superlu_error_propagates(monkeypatch):
    # only a singular factor or a failure inside a supernode leaves the count
    # unresolved; any other SuperLU error is no count of A - lam*I
    def broken(*args, **kwargs):
        raise RuntimeError("not enough memory")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", broken)
    op, _ = sparse_interval_op(20)
    with pytest.raises(RuntimeError, match="not enough memory"):
        count_certificate(op, 100.0)


@pytest.mark.filterwarnings("ignore:count_below")
def test_count_below_at_every_eigenvalue_of_square():
    # the square's spectrum has multiplicity-2 pairs mu_j + mu_k = mu_k + mu_j
    h = 1 / 12
    op = assemble_euclidean(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    axis = tridiag_eigs(11, h, 1.0)
    exact = np.sort((axis[:, None] + axis[None, :]).ravel())
    for lam in dense_spectrum(op).values:
        cert = count_certificate(op, lam)
        assert cert.count == int(np.sum(exact < lam * (1.0 - 1e-9)))
        assert cert.count == dense_count(op, cert.shift)


@st.composite
def disk_unions(draw):
    h = 1.0 / draw(st.sampled_from([12, 15, 20, 25, 30]))
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    x = box.axis_coords(0)[:, None]
    y = box.axis_coords(1)[None, :]
    mask = np.zeros(box.shape, dtype=bool)
    disks = draw(st.lists(st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8),
                                    st.floats(0.1, 0.4)), min_size=1, max_size=3))
    for cx, cy, r in disks:
        mask |= (x - cx) ** 2 + (y - cy) ** 2 < r * r
    mask &= box.mask
    assume(mask.any())
    return GridDomain(h=h, origin=box.origin, mask=mask, box=box.box)


@pytest.mark.filterwarnings("ignore:count_below")
@given(dom=disk_unions(), morph=st.sampled_from(["none", "erode", "dilate"]),
       kind=st.sampled_from(["euclidean", "hyperbolic"]),
       fractions=st.lists(st.floats(0.0, 1.05), min_size=1, max_size=3),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_sparse_count_matches_dense_on_masks(dom, morph, kind, fractions, picks):
    if morph == "erode":
        try:
            dom = erode(dom, 2.0 * dom.h)
        except EmptyErosionError:
            assume(False)
    elif morph == "dilate":
        dom = dilate(dom, 2.0 * dom.h)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    assert op.max_entry == abs(op.matrix).max()  # the count's scale, bit for bit
    vals = dense_spectrum(op).values
    for lam in [f * vals[-1] for f in fractions]:
        cert = count_certificate(op, lam)
        assert cert.count == dense_count(op, cert.shift)
    # lambda on an eigenvalue: the count stays strict
    for lam in [vals[int(p * (len(vals) - 1))] for p in picks]:
        cert = count_certificate(op, lam)
        assert cert.count == dense_count(op, cert.shift)
        assert cert.count == int(np.sum(vals < lam * (1.0 - 1e-9)))


@pytest.mark.filterwarnings("ignore:count_below")
@given(dom=disk_unions(), morph=st.sampled_from(["none", "erode", "dilate"]),
       kind=st.sampled_from(["euclidean", "hyperbolic"]), fraction=st.floats(0.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_sliced_spectrum_matches_dense_on_masks(dom, morph, kind, fraction):
    # lambda up to 6/h^2 puts several slices of _SLICE below it at h = 1/30
    if morph == "erode":
        try:
            dom = erode(dom, 2.0 * dom.h)
        except EmptyErosionError:
            assume(False)
    elif morph == "dilate":
        dom = dilate(dom, 2.0 * dom.h)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    spec = spectrum_below(op, fraction * 6.0 / dom.h ** 2)
    cert = spec.certificate
    want = dense_spectrum(op).values
    want = want[want < cert.shift]
    assert cert.count == len(spec.values) == len(want)
    assert np.allclose(spec.values, want, rtol=1e-10, atol=0.0)


@pytest.mark.filterwarnings("ignore:count_below")
@pytest.mark.parametrize("denom, q", [(20, 4), (24, 5)])
def test_sliced_spectrum_on_the_square(denom, q):
    # the square pairs mu_j + mu_k with mu_k + mu_j.  At h = 1/20 the centre
    # of the slice [2/h^2, 4/h^2) is the eigenvalue 3/h^2; at h = 1/24 the
    # first eigsh of a slice below 5/h^2 misses copies of double eigenvalues
    h = 1.0 / denom
    op = on_sparse_path(assemble_euclidean(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)))
    spec = spectrum_below(op, q / h ** 2)
    want = dense_spectrum(op).values
    want = want[want < spec.certificate.shift]
    assert spec.certificate.value_method == "eigsh"
    assert len(spec.values) == len(want) > weylcs.eigen._SLICE
    assert np.allclose(spec.values, want, rtol=1e-10, atol=0.0)


def disk_op(h):
    """Euclidean operator on the disk of radius 0.45 about (0.5, 0.5)."""
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    x = box.axis_coords(0)[:, None] - 0.5
    y = box.axis_coords(1)[None, :] - 0.5
    mask = box.mask & (x * x + y * y < 0.45 ** 2)
    return assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("denom", [20, 40])
def test_ldl_bound_is_the_largest_row_sum_of_the_factor_product(kind, denom):
    # the gate's rounding level is n*eps times the largest row sum of the
    # dense |L||D||L^T|, which bounds the backward error's 2-norm; its
    # largest diagonal entry, the level before, does not.  The backward
    # error itself, P_r (A - lambda I) P_c - LU in the Frobenius norm (at
    # least the 2-norm), lies below that level
    dom = disk_op(1.0 / denom).grid
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    rows = np.arange(op.n)
    for lam in [10.0, 250.0, 1111.1, 2.7 * denom ** 2]:
        b = weylcs.eigen._shifted(op, lam)
        neg, margin = weylcs.eigen._sparse_inertia(b, 0.0)
        lu = scipy.sparse.linalg.splu(b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                      options={"SymmetricMode": True})
        L, d = np.abs(lu.L.toarray()), lu.U.diagonal()
        bound = op.n * np.finfo(float).eps * ((L * np.abs(d)) @ L.T).sum(axis=1).max()
        pr, pc = np.zeros((op.n, op.n)), np.zeros((op.n, op.n))
        pr[lu.perm_r, rows] = pc[rows, lu.perm_c] = 1.0
        backward = pr @ b.toarray() @ pc - lu.L.toarray() @ lu.U.toarray()
        assert np.linalg.norm(backward, "fro") <= bound
        x = lu.solve(weylcs.eigen._start_vector(op.n))
        dist = np.linalg.norm(x) / np.linalg.norm(lu.solve(x))
        assert neg == np.count_nonzero(d < 0.0)
        assert margin == pytest.approx(min(np.min(np.abs(d)), dist) / bound,
                                       rel=1e-12, abs=0.0)


def test_sliced_spectrum_needs_no_dense_solver(monkeypatch):
    # above n/4 eigenvalues the values used to come from a dense eigvalsh
    op = disk_op(1 / 30)
    lam = 5000.0
    want = dense_spectrum(op).values
    want = want[want < lam]
    assert len(want) > max(op.n // 4, 2 * weylcs.eigen._SLICE)

    def boom(*args, **kwargs):
        raise AssertionError("the sliced path called a dense solver")

    monkeypatch.setattr(scipy.linalg, "eigvalsh", boom)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", boom)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "toarray", boom)
    spec = spectrum_below(op, lam)
    assert spec.certificate.value_method == "eigsh" and spec.certificate.shift == lam
    assert len(spec.values) == len(want)
    assert np.allclose(spec.values, want, rtol=1e-10, atol=0.0)


def test_sliced_spectrum_catches_an_interior_count_one_too_low(monkeypatch):
    # only the counts at the slice cuts inside (0, lambda) are one too low
    resolved = weylcs.eigen._resolved
    lam = 5000.0

    def one_less_inside(op, box, shift):
        (cut, count), hi, margin, tol = resolved(op, box, shift)
        return (cut, count - (shift < lam)), hi, margin, tol

    monkeypatch.setattr(weylcs.eigen, "_resolved", one_less_inside)
    op = disk_op(1 / 30)
    assert count_below(op, lam) > weylcs.eigen._SLICE
    with pytest.raises(CertificationError):
        spectrum_below(op, lam)


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("nodes", [[(2, 2)], [(2, 2), (2, 3)]])
def test_spectrum_below_on_one_or_two_nodes(kind, nodes):
    # k = count + 1 >= n, which eigsh refuses: these values come from eigvalsh
    h = 0.2
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    mask = np.zeros(box.shape, dtype=bool)
    mask[tuple(zip(*nodes))] = True
    dom = GridDomain(h=h, origin=box.origin, mask=mask, box=box.box)
    # the nodes fill their bounding box: the sparse path is forced
    op = on_sparse_path((assemble_hyperbolic if kind == "hyperbolic" else assemble_euclidean)(dom))
    spec = spectrum_below(op, 1e3)
    want = dense_spectrum(op).values
    assert op.n == len(nodes) and np.all(want < 1e3)
    assert spec.certificate.value_method == "eigvalsh"
    assert math.isnan(spec.certificate.value_error)
    assert np.allclose(spec.values, want, rtol=1e-12, atol=0.0)


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


def test_spectrum_below_catches_a_count_one_too_low(monkeypatch):
    sparse_inertia = weylcs.eigen._sparse_inertia

    def one_less(b, tol):
        neg, margin = sparse_inertia(b, tol)
        return neg - 1, margin

    monkeypatch.setattr(weylcs.eigen, "_sparse_inertia", one_less)
    op, _ = sparse_interval_op(200)
    with pytest.raises(CertificationError):
        spectrum_below(op, 5000.0)


@pytest.mark.parametrize("n, lam, value_method", [
    (200, 5000.0, "eigsh"), (20, 1e3, "eigsh"), (50, 1.0, "none")])
def test_spectrum_certificate(n, lam, value_method):
    op, _ = sparse_interval_op(n)
    spec = spectrum_below(op, lam)
    cert = spec.certificate
    assert cert.count_method == "sparse-ldl" and not cert.bracketed
    assert cert.value_method == value_method
    assert (cert.value_error >= 0.0) == (value_method == "eigsh")  # nan for "none"
    assert cert.count == len(spec.values) and cert.shift == lam
    assert cert.pivot_margin > 1.0


def test_certificate_not_written(tmp_path):
    op, _ = interval_op(200)
    spec = spectrum_below(op, 5000.0)
    bare = Spectrum(values=spec.values, cutoff=spec.cutoff, certified=spec.certified)
    save_spectrum(spec, tmp_path / "a.txt", kind="euclidean")
    save_spectrum(bare, tmp_path / "b.txt", kind="euclidean")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.filterwarnings("ignore:count_below")
@pytest.mark.parametrize("make, n", [
    (interval_op, 10), (interval_op, 30), (interval_op, 31),
    (sparse_interval_op, 10), (sparse_interval_op, 30), (sparse_interval_op, 31)])
def test_a_bracket_resolves_an_eigenvalue(make, n):
    # an eigenvalue at lambda leaves the gate unresolved on the box path and
    # on the sparse LDL^T, and the bracket moves the shift just below it.  At
    # n + 1 = 32 the two 15-node half intervals that the ordering eliminates
    # first share every second eigenvalue, so near those the unpivoted LDL^T
    # has a pivot of order tol and a rounding level far above tol: only the
    # bracket, whose ends lie 1e-6 scale away, resolves there
    op, h = make(n)
    for k, lam in enumerate(tridiag_eigs(n, h, 1.0)):
        cert = count_certificate(op, lam)
        assert cert.bracketed and cert.shift < lam and cert.count == k


@pytest.mark.filterwarnings("ignore:count_below")
@pytest.mark.parametrize("offset", [0.0, 6.0, 100.0])
@pytest.mark.parametrize("make", [interval_op, sparse_interval_op])
def test_bracket_decides_when_the_gate_fails_at_lambda(monkeypatch, make, offset):
    # lambda = eigenvalue k + 1 of n = 31 nodes plus offset*tol: the sparse
    # LDL^T leaves it unresolved (see test_a_bracket_resolves_an_eigenvalue);
    # on the box path's gate _box_inertia is made to fail at lambda only.
    # The eigenvalue lies at lambda (offset 0: the shift moves below it), or
    # 6 or 100 tol below it, beyond tol plus its error: the shift stays lambda
    n, k = 31, 5
    op, h = make(n)
    exact = tridiag_eigs(n, h, 1.0)
    tol = 1e-12 * (2.0 / h ** 2 + exact[k])  # 2/h^2 = max |A_ij|
    lam = exact[k] + offset * tol
    shifts = []
    if make is interval_op:
        box_inertia = weylcs.eigen._box_inertia

        def unresolved_at_lam(h, box, shift, tol):
            shifts.append(shift)
            neg, margin = box_inertia(h, box, shift, tol)
            return neg, (1.0 if shift == lam else margin)

        monkeypatch.setattr(weylcs.eigen, "_box_inertia", unresolved_at_lam)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = spectrum_below(op, lam)
    cert = spec.certificate
    assert cert.count_method == ("sturm" if make is interval_op else "sparse-ldl")
    assert cert.bracketed and cert.pivot_margin > 1.0
    count = k + (offset > 0.0)
    assert cert.count == count == dense_count(op, cert.shift) == len(spec.values)
    assert (cert.shift < lam - 0.5 * tol) == (offset == 0.0)
    assert (cert.shift == lam) == (offset > 0.0)
    assert len(caught) == (offset == 0.0)
    assert np.allclose(spec.values, exact[:count], rtol=1e-10, atol=0.0)
    if make is interval_op:
        # the gate at lambda, then the bracket at lambda - delta and
        # lambda + 2*delta: asymmetric, so its values are not sought about a
        # centre at lambda, where an eigenvalue may lie
        delta = 1e-6 * (2.0 / h ** 2 + lam)
        assert len(shifts) == 3 and shifts[0] == lam and shifts[1:] == pytest.approx(
            [lam - delta, lam + 2.0 * delta], rel=0.0, abs=1e-3 * delta)


@pytest.mark.filterwarnings("ignore:count_below")
def test_bracket_over_more_than_a_slice_is_split(monkeypatch):
    # a count bracket on a mask is split at certified midpoints into slices of
    # at most _SLICE eigenvalues, as a spectrum is.  With _SLICE = 1 and the
    # gate unresolved within 0.4 delta of lambda the bracket widens to delta =
    # 1e-4 * scale; its ends and its midpoint lie outside that window, and it
    # holds lambda and the next eigenvalue, one on each side of the midpoint
    op = disk_op(1 / 30)
    exact = dense_spectrum(op).values
    lam = exact[127]
    delta = 1e-4 * (abs(op.matrix).max() + lam)
    inside = exact[(exact >= lam - delta) & (exact < lam + 2.0 * delta)]
    assert len(inside) == 2 and inside[1] > lam + 0.5 * delta
    shifted, sparse_inertia = weylcs.eigen._shifted, weylcs.eigen._sparse_inertia
    slice_values = weylcs.eigen._slice_values
    shifts, asked = [], []

    def remembered(op, shift):
        shifts.append(shift)
        return shifted(op, shift)

    def unresolved_near_lam(b, tol):
        neg, margin = sparse_inertia(b, tol)
        return neg, (1.0 if abs(shifts[-1] - lam) < 0.4 * delta else margin)

    def recording(op, lo, hi, count):
        asked.append(count)
        return slice_values(op, lo, hi, count)

    monkeypatch.setattr(weylcs.eigen, "_SLICE", 1)
    monkeypatch.setattr(weylcs.eigen, "_shifted", remembered)
    monkeypatch.setattr(weylcs.eigen, "_sparse_inertia", unresolved_near_lam)
    monkeypatch.setattr(weylcs.eigen, "_slice_values", recording)
    cert = count_certificate(op, lam)
    assert (cert.count_method, cert.bracketed) == ("sparse-ldl", True) and cert.pivot_margin > 1.0
    assert asked == [1, 1]
    assert cert.count == dense_count(op, cert.shift) == 127


def mask_op(h, keep):
    """Euclidean operator on the nodes of the unit square at h where keep(i, j)
    holds for the lattice indices i, j."""
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    mask = box.mask & keep(*np.indices(box.shape))
    return assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))


def recorded_slices(monkeypatch):
    """The counts of every _slice_values call from now on, in call order."""
    slice_values, asked = weylcs.eigen._slice_values, []

    def recording(op, lo, hi, count):
        asked.append(count)
        return slice_values(op, lo, hi, count)

    monkeypatch.setattr(weylcs.eigen, "_slice_values", recording)
    return asked


def test_an_empty_half_runs_no_eigsh(monkeypatch):
    # the checkerboard of the unit square at h = 1/40: 761 isolated nodes,
    # one eigenvalue 4/h^2 of multiplicity 761.  The midpoints close in on
    # it, and every half beside it has equal counts: it holds no value, and
    # no eigsh runs on it
    h = 1 / 40
    op = mask_op(h, lambda i, j: (i + j) % 2 == 0)
    asked = recorded_slices(monkeypatch)
    spec = spectrum_below(op, 5 / h ** 2)
    assert op.n == len(spec.values) == 761
    assert asked == [761]
    assert np.allclose(spec.values, 4 / h ** 2, rtol=1e-12, atol=0.0)
    assert spec.certificate.value_method == "eigvalsh"


def test_a_cluster_is_not_halved_once_the_span_is_within_a_bracket_delta(monkeypatch):
    # the same checkerboard: the midpoints close in on 4/h^2 until the span
    # is within 1e-6*(max|A_ij| + |hi|), about 0.014, and no nearer, so no
    # midpoint comes within tol of the eigenvalue and none warns
    h = 1 / 40
    op = mask_op(h, lambda i, j: (i + j) % 2 == 0)
    resolve, certified = weylcs.eigen._resolved, []

    def recording(op, box, lam):
        certified.append(lam)
        return resolve(op, box, lam)

    monkeypatch.setattr(weylcs.eigen, "_resolved", recording)
    asked = recorded_slices(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = spectrum_below(op, 5 / h ** 2)
    assert [str(w.message) for w in caught] == []
    assert len(certified) == 21 and asked == [761]
    assert np.array_equal(spec.values, dense_spectrum(op).values)
    assert spec.certificate.value_method == "eigvalsh"


def test_a_cut_on_an_eigenvalue_takes_the_bracket_end_and_does_not_warn(monkeypatch):
    # two 20 x 20 blocks of the h = 1/50 lattice: each block mode
    # 4/h^2 (sin^2(j pi/42) + sin^2(k pi/42)) twice.  lambda is twice the
    # 61st distinct mode, so the first cut, at lambda/2, lands on an
    # eigenvalue: the gate fails there, and the span is cut at the lower end
    # of the bracket that resolves, with no warning and no search of its
    # values: the slices searched hold the 630 values once
    h = 1 / 50
    box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    mask = np.zeros(box.shape, dtype=bool)
    mask[2:22, 2:22] = mask[26:46, 26:46] = True
    op = assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))
    block = 4 / h ** 2 * np.sin(np.arange(1, 21) * np.pi / 42) ** 2
    modes = np.repeat(np.sort((block[:, None] + block[None, :]).ravel()), 2)
    lam = 2 * np.unique(modes)[60]
    asked = recorded_slices(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = spectrum_below(op, lam)
    assert [str(w.message) for w in caught] == []
    assert spec.certificate.shift == lam and len(spec.values) == sum(asked) == 630
    assert np.allclose(spec.values, modes[modes < lam], rtol=1e-10, atol=0.0)


def test_a_split_merges_eigsh_and_eigvalsh(monkeypatch):
    # a plus of five nodes has the eigenvalues (4 - 2, 4, 4, 4, 4 + 2)/h^2.
    # With _SLICE = 4 the span [0, 7/h^2) is split at 3.5/h^2: the lower half
    # holds one value (eigsh), the upper four, count + 1 >= n (eigvalsh)
    h = 0.2
    op = mask_op(h, lambda i, j: abs(i - 2) + abs(j - 2) <= 1)
    asked = recorded_slices(monkeypatch)
    monkeypatch.setattr(weylcs.eigen, "_SLICE", 4)
    spec = spectrum_below(op, 7 / h ** 2)
    assert op.n == 5 and asked == [1, 4]
    assert spec.certificate.value_method == "eigvalsh"
    assert math.isnan(spec.certificate.value_error)
    assert np.allclose(spec.values, dense_spectrum(op).values, rtol=1e-9, atol=0.0)


@pytest.mark.filterwarnings("ignore:count_below")
@pytest.mark.parametrize("q", [5, 6])
def test_bracket_certifies_a_small_pivot_without_a_dense_matrix(monkeypatch, q):
    # lambda = q/h^2 on the disk lies 1.35 (q = 5) and 14.5 (q = 6) from the
    # nearest eigenvalue, but the unpivoted elimination meets a small pivot
    # there; the counts at the bracket ends agree, and the shift stays lambda
    h = 1 / 30
    op = disk_op(h)

    def boom(*args, **kwargs):
        raise AssertionError("the count called a dense solver")

    monkeypatch.setattr(weylcs.eigen, "DENSE_LIMIT", op.n - 1)
    monkeypatch.setattr(scipy.linalg, "ldl", boom)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", boom)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "toarray", boom)
    cert = count_certificate(op, q / h ** 2)
    monkeypatch.undo()
    assert (cert.count_method, cert.bracketed) == ("sparse-ldl", True)
    assert cert.pivot_margin > 1.0 and cert.shift == q / h ** 2
    assert cert.count == dense_count(op, cert.shift) == {5: 402, 6: 475}[q]


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [lambda: interval_op(10)[0], lambda: disk_op(1 / 12)],
                         ids=["box", "mask"])
def test_non_finite_lambda_is_rejected(make, lam):
    op = make()
    for call in (count_certificate, count_below, spectrum_below):
        with pytest.raises(ValueError, match="lam"):
            call(op, lam)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("shape", ["box", "mask"])
def test_non_finite_operator_is_rejected(shape, bad):
    # assembly rejects such weights; substituted, an inf tilde weight (as
    # exp(2 x_1) past the float range) gave a "certified" count of 0 at shift
    # nan, and a nan one (as from h = nan) made the count's bracket loop forever
    h = 1 / 12
    dom = disk_op(h).grid if shape == "mask" else rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    op = assemble_hyperbolic(dom)
    w = op.tilde_weight.copy()
    w[-3:] = bad
    op = dataclasses.replace(op, tilde_weight=w)
    for call in (count_certificate, count_below, spectrum_below):
        with pytest.raises(ValueError, match="must be finite"):
            call(op, 100.0)


# the box path's values: the euclidean tilde weight is constant, so its
# spectrum is a Kronecker sum in closed form; exp(2 x_1) varies in d >= 2
BOX_VALUE_METHOD = {"euclidean": "closed-form", "hyperbolic": "bisection"}


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_eroded_rectangle_takes_the_box_path(kind):
    # erosion leaves a rectangle's nodes filling a smaller box, from x_1 index
    # 3 on: the Kronecker sum holds there though no rectangle_domain built it
    dom = erode(rectangle_domain(((0.0, 1.0), (0.0, 1.2)), 1 / 20), 0.12)
    op = (assemble_hyperbolic if kind == "hyperbolic" else assemble_euclidean)(dom)
    lo, hi = op.nodes.min(axis=0), op.nodes.max(axis=0)
    assert dom.exact_box is None and op.n == np.prod(hi - lo + 1) and lo[0] == 3
    spec = spectrum_below(op, 3000.0)
    cert = spec.certificate
    assert (cert.count_method, cert.value_method) == ("sturm", BOX_VALUE_METHOD[kind])
    want = dense_spectrum(op).values
    want = want[want < cert.shift]
    assert cert.count == len(spec.values) == len(want) > 10
    assert np.allclose(spec.values, want, rtol=1e-10, atol=0.0)


def node_box(mask):
    """Oracle from the node list: the bounding box (lo, hi) of the mask's
    nodes when they fill it, else None."""
    nodes = np.argwhere(mask)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    return (lo, hi) if len(nodes) == np.prod(hi - lo + 1) else None


def laplacian_eigenvalues(sides, h):
    """Sorted eigenvalues of the dense Dirichlet Laplacian of a box with the
    given nodes per axis (a single 0 for no axis)."""
    eigs = np.zeros(1)
    for m in sides:
        axis = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2
        eigs = (eigs[:, None] + np.linalg.eigvalsh(axis)).ravel()
    return np.sort(eigs)


@st.composite
def random_masks(draw):
    """A nonempty mask in d = 1-3: a filled block inside the grid, that block
    with a few nodes flipped, or random bits."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, {1: 12, 2: 8, 3: 5}[d])) for _ in range(d))
    style = draw(st.sampled_from(["block", "flipped", "bits"]))
    if style == "bits":
        mask = draw(arrays(bool, shape))
    else:
        mask = np.zeros(shape, dtype=bool)
        lo = [draw(st.integers(0, m - 1)) for m in shape]
        mask[tuple(slice(a, draw(st.integers(a + 1, m))) for a, m in zip(lo, shape))] = True
        if style == "flipped":
            for _ in range(draw(st.integers(1, 3))):
                mask[tuple(draw(st.integers(0, m - 1)) for m in shape)] ^= True
    assume(mask.any())
    return mask


@given(mask=random_masks(), kind=st.sampled_from(["euclidean", "hyperbolic"]))
@settings(max_examples=200, deadline=None)
def test_box_recognizer_matches_the_node_list(mask, kind):
    h = 0.1
    dom = GridDomain(h=h, origin=(0.25,) * mask.ndim, mask=mask, box=((0.0, 2.0),) * mask.ndim)
    op = (assemble_hyperbolic if kind == "hyperbolic" else assemble_euclidean)(dom)
    assert op.max_entry == abs(op.matrix).max()  # the count's scale, bit for bit
    nodes = np.argwhere(mask)
    assert op.n == len(nodes)
    axes, filled = dom.occupancy
    assert all(np.array_equal(i, np.unique(nodes[:, a])) for a, i in enumerate(axes))
    want, box = node_box(mask), _box_modes(op)
    assert filled == (want is not None) == (box is not None)
    if box is not None:
        lo, hi = want
        assert np.array_equal(box.w, op.tilde_weight[lo[0]:hi[0] + 1])
        assert np.allclose(box.mu, laplacian_eigenvalues(hi[1:] - lo[1:] + 1, h),
                           rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("d, axis", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_two_blocks_across_an_empty_band_are_no_box(d, axis):
    # indices 0-2 and 5-7 of the axis full, 3-4 empty: the product of the
    # occupied counts per axis is n, but the bounding box holds the band too
    mask = np.ones((8,) + (4,) * (d - 1), dtype=bool)
    mask = np.moveaxis(mask, 0, axis)
    band = (slice(None),) * axis + (slice(3, 5),)
    mask[band] = False
    dom = GridDomain(h=0.1, origin=(0.1,) * d, mask=mask, box=((0.0, 1.0),) * d)
    op = assemble_hyperbolic(dom)
    axes, filled = dom.occupancy
    assert math.prod(len(i) for i in axes) == op.n and not filled
    assert node_box(mask) is None and _box_modes(op) is None
    vals = dense_spectrum(op).values
    # the two blocks share every eigenvalue
    cert = count_certificate(op, 0.5 * (vals[1] + vals[2]))
    assert cert.count_method == "sparse-ldl" and cert.count == 2


def test_box_count_and_spectrum_build_no_node_list():
    # h = 5e-4: n = 1999^2, about 4e6 nodes, whose (n, 2) int64 node list
    # would take 64 MB; the box path reads the mask alone
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 5e-4)
    tracemalloc.start()
    try:
        op = assemble_hyperbolic(dom)
        cert = count_certificate(op, 250.0)
        spec = spectrum_below(op, 250.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.count_method == "sturm" and cert.count == len(spec.values) > 0
    assert peak < dom.mask.nbytes
    assert "nodes" not in op.__dict__


EIGENVALUE = "(lambda too close to an eigenvalue)"
PIVOT = "(zero or small pivot in the unpivoted factorization)"


@pytest.mark.parametrize("make, n, k, cause", [
    (sparse_interval_op, 40, None, PIVOT),  # lam = 1/h^2 is no eigenvalue
    (sparse_interval_op, 30, 5, EIGENVALUE),
    (interval_op, 30, 5, EIGENVALUE)])
def test_shift_warning_names_its_cause(make, n, k, cause):
    # the gate fails at lambda for the cause given, but the warning fires
    # only where the shift moves below lambda, and so always names an
    # eigenvalue: at an eigenvalue, not at the small pivot of 1/h^2, which
    # the bracket certifies at lambda itself
    op, h = make(n)
    lam = 1.0 / h ** 2 if k is None else tridiag_eigs(n, h, 1.0)[k - 1]
    cert, messages = certified_with_warnings(op, lam)
    assert cert.bracketed and (cert.shift < lam) == (cause == EIGENVALUE)
    if cause == PIVOT:
        assert messages == [] and cert.shift == lam
    else:
        [message] = messages
        assert message.startswith(SHIFT_WARNING) and message.endswith(cause)
        assert PIVOT not in message


def mask_domain(mask):
    """A GridDomain at h = 0.1 on a boolean array of random_masks."""
    return GridDomain(h=0.1, origin=(0.25,) * mask.ndim, mask=mask, box=((0.0, 2.0),) * mask.ndim)


@given(dom=st.one_of(random_masks().map(mask_domain), disk_unions()),
       kind=st.sampled_from(["euclidean", "hyperbolic"]),
       where=st.sampled_from(["eigenvalue", "near", "two-over-h2", "diagonal", "uniform"]),
       pick=st.floats(0.0, 1.0), k=st.sampled_from([-10.0, -3.0, -0.5, 0.5, 3.0, 10.0]),
       q=st.floats(0.0, 12.5))
@example(dom=disk_op(1 / 30).grid, kind="euclidean", where="uniform", pick=0.0, k=0.5, q=5.0)
@settings(max_examples=60, deadline=None)
def test_an_unresolved_count_is_certified_at_lambda(dom, kind, where, pick, k, q):
    # lambda on a dense eigenvalue, k tol off one, at 2/h^2 or a diagonal
    # entry (a zero on the diagonal of A - lambda*I), or q/h^2, on masks that
    # take either path.  The count is strict below the shift it reports, and
    # that shift is lambda unless an eigenvalue lies within tol (plus the
    # values' error, far below 1e-9 scale) of it; the warning fires exactly
    # when the shift moves below lambda.  The h = 1/30 disk at 5/h^2 lies
    # 1.35 from the nearest eigenvalue and meets a small pivot there
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    vals = dense_spectrum(op).values
    value = vals[int(pick * (len(vals) - 1))]
    tol = 1e-12 * (op.max_entry + abs(value))
    lam = {"eigenvalue": value, "near": value + k * tol, "two-over-h2": 2.0 / dom.h ** 2,
           "diagonal": op.matrix.diagonal()[int(pick * (op.n - 1))], "uniform": q / dom.h ** 2}[where]
    cert, messages = certified_with_warnings(op, lam)
    scale = op.max_entry + abs(lam)
    assert cert.count == dense_count(op, cert.shift)
    if np.min(np.abs(vals - lam)) > (1e-12 + 1e-9) * scale:
        assert cert.shift == lam
    assert cert.shift <= lam
    assert [m.startswith(SHIFT_WARNING) for m in messages] == [True] * int(cert.shift < lam)


def test_a_box_bracket_multisects_only_its_own_span(monkeypatch):
    # at an eigenvalue of the hyperbolic square the gate fails and the count
    # brackets lambda; _box_values finds the one value between the bracket's
    # ends, not every value below the upper one
    op = box_op("hyperbolic", 70)
    vals = lapack_box_values(op)
    lam = vals[300]
    box_values, found = weylcs.eigen._box_values, []

    def recording(*args):
        found.append(box_values(*args))
        return found[-1]

    monkeypatch.setattr(weylcs.eigen, "_box_values", recording)
    cert, messages = certified_with_warnings(op, lam)
    assert cert.bracketed and cert.shift < lam and len(messages) == 1
    assert cert.count == np.sum(vals < cert.shift) == 300
    [(values, method, _)] = found
    assert len(values) == 1 and method == "bisection"
    assert abs(values[0] - lam) <= 1e-9 * lam


@st.composite
def boxes(draw):
    """Boxes in d = 1, 2, 3 with at most 60, 15 and 7 nodes per axis, sides
    that are and are not multiples of h."""
    d = draw(st.integers(1, 3))
    most = {1: 60, 2: 15, 3: 7}[d]
    h = 1.0 / draw(st.sampled_from([7, 10, 16, 25]))
    box = []
    for _ in range(d):
        a = draw(st.floats(-0.5, 0.5))
        side = draw(st.one_of(st.integers(3, most + 1).map(lambda k: k * h),
                              st.floats(2.5 * h, (most + 0.9) * h)))
        box.append((a, a + side))
    return rectangle_domain(tuple(box), h)


@pytest.mark.filterwarnings("ignore:count_below")
@given(dom=boxes(), kind=st.sampled_from(["euclidean", "hyperbolic"]),
       fractions=st.lists(st.floats(0.0, 1.05), min_size=1, max_size=3),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_box_count_matches_dense_and_sparse(dom, kind, fractions, picks):
    assemble = assemble_hyperbolic if kind == "hyperbolic" else assemble_euclidean
    op = assemble(dom)
    sparse = on_sparse_path(assemble(dom))
    vals = dense_spectrum(op).values
    on_eigenvalue = [vals[int(p * (len(vals) - 1))] for p in picks]
    for lam in [f * vals[-1] for f in fractions] + on_eigenvalue:
        spec = spectrum_below(op, lam)
        cert = spec.certificate
        assert cert.count_method == "sturm"
        assert cert.count == dense_count(op, cert.shift)
        on_mask = count_certificate(sparse, lam)
        assert (on_mask.count_method, on_mask.count) == ("sparse-ldl", cert.count)
        want = vals[vals < cert.shift]
        assert len(spec.values) == len(want)
        assert np.allclose(spec.values, want, rtol=1e-10, atol=0.0)
    for lam in on_eigenvalue:
        assert count_below(op, lam) == int(np.sum(vals < lam * (1.0 - 1e-9)))


@given(dom=boxes(), erosion=st.one_of(st.just(0.0), st.floats(0.5, 2.5)),
       kind=st.sampled_from(["euclidean", "hyperbolic"]),
       near=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1e3, -10.0, -3.0, 3.0,
                                                                     10.0, 1e3])),
                     min_size=1, max_size=6),
       fractions=st.lists(st.floats(0.0, 1.05), max_size=4))
@settings(max_examples=40, deadline=None)
def test_mode_counts_match_dense(dom, erosion, kind, near, fractions):
    # each mode's counts, read from its Weyl brackets or by a Sturm count
    # where a bracket straddles the point, at points k tol off a dense
    # eigenvalue and across the spectrum: at every point clear of the
    # spectrum they add up to the dense count, anywhere to a count between
    # those at x -/+ tol, and no mode's count decreases in x
    if erosion:
        try:
            dom = erode(dom, erosion * dom.h)
        except EmptyErosionError:
            assume(False)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    box = _box_modes(op)
    assert box is not None
    vals = dense_spectrum(op).values
    picked = [(vals[int(p * (len(vals) - 1))], k) for p, k in near]
    x = np.sort([v + k * 1e-12 * (op.max_entry + abs(v)) for v, k in picked]
                + [f * vals[-1] for f in fractions])
    counts = weylcs.eigen._mode_counts(op.grid.h, box, x)[0]
    assert np.all(np.diff(counts, axis=1) >= 0)
    total, tol = counts.sum(axis=0), 1e-12 * (op.max_entry + np.abs(x))
    clear = np.min(np.abs(vals[:, None] - x), axis=0) > 1e-9 * (op.max_entry + np.abs(x))
    assert np.array_equal(total[clear], np.sum(vals[:, None] < x[clear], axis=0))
    assert np.all(np.sum(vals[:, None] < x - tol, axis=0) <= total)
    assert np.all(total <= np.sum(vals[:, None] < x + tol, axis=0))


def test_box_with_unit_tilde_weight_is_euclidean():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 13)
    hyp = spectrum_below(dataclasses.replace(assemble_hyperbolic(dom),
                                             tilde_weight=np.ones(dom.shape[0])), 1500.0)
    euc = spectrum_below(assemble_euclidean(dom), 1500.0)
    axis = tridiag_eigs(12, 1 / 13, 1.0)
    exact = np.sort((axis[:, None] + axis[None, :]).ravel())
    assert hyp.certificate.count_method == "sturm"
    assert len(hyp.values) == len(euc.values) == int(np.sum(exact < 1500.0))
    assert np.allclose(hyp.values, exact[:len(hyp.values)], rtol=1e-12, atol=0.0)
    assert np.allclose(euc.values, exact[:len(euc.values)], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("denom, kind", [
    (35, "euclidean"), (35, "hyperbolic"), (70, "hyperbolic")])
def test_box_spectrum_matches_dense(hyperbolic_square_spectrum, denom, kind):
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1.0 / denom)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    spec = spectrum_below(op, 2000.0)
    dense = (hyperbolic_square_spectrum(denom) if kind == "hyperbolic"
             else dense_spectrum(op)).values
    dense = dense[dense < 2000.0]
    assert spec.certificate.value_method == BOX_VALUE_METHOD[kind]
    assert len(spec.values) == len(dense) > 0
    assert np.max(np.abs(spec.values - dense) / dense) < 1e-10


def test_box_count_at_h_1_400_matches_mode_sums():
    h = 1 / 400
    op = assemble_euclidean(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    spec = spectrum_below(op, 2e4)
    axis = tridiag_eigs(399, h, 1.0)
    exact = np.sort((axis[:, None] + axis[None, :]).ravel())
    exact = exact[exact < 2e4]
    assert spec.certificate.count_method == "sturm"
    assert len(spec.values) == len(exact) > 1000
    assert np.max(np.abs(spec.values - exact) / exact) < 1e-10


@pytest.mark.parametrize("kind, lam", [("hyperbolic", 250.0), ("euclidean", 2000.0)])
def test_box_path_uses_no_factorization(monkeypatch, kind, lam):
    def boom(*args, **kwargs):
        raise AssertionError("the box path called a sparse or dense solver")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", boom)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", boom)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", boom)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "toarray", boom)
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", boom)
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 70)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    spec = spectrum_below(op, lam)
    cert = spec.certificate
    assert (cert.count_method, cert.value_method) == ("sturm", BOX_VALUE_METHOD[kind])
    assert not cert.bracketed and cert.shift == lam and cert.pivot_margin > 1.0
    assert cert.count == len(spec.values) == count_below(op, lam) > 0
    assert "matrix" not in vars(op)  # the sparse matrix was never assembled


def box_op(kind, denom):
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1.0 / denom)
    return assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)


@pytest.mark.parametrize("kind, lam", [("hyperbolic", 250.0), ("euclidean", 2000.0)])
def test_box_count_computes_no_eigenvalue(monkeypatch, kind, lam):
    # the gate is Sturm counts alone; the values stay spectrum_below's
    op = box_op(kind, 35)
    want = int(np.sum(lapack_box_values(op) < lam))

    def boom(*args, **kwargs):
        raise AssertionError("the count computed eigenvalues")

    monkeypatch.setattr(weylcs.eigen, "_box_values", boom)
    cert = count_certificate(op, lam)
    assert (cert.count_method, cert.bracketed, cert.shift) == ("sturm", False, lam)
    assert cert.pivot_margin > 1.0 and count_below(op, lam) == cert.count == want > 0


@pytest.mark.parametrize("kind, lam", [("hyperbolic", 250.0), ("hyperbolic", 2000.0)])
def test_box_spectrum_bisects_once(monkeypatch, kind, lam):
    calls = []
    box_values = weylcs.eigen._box_values

    def recording(op, box, lower, upper):
        calls.append(upper)
        return box_values(op, box, lower, upper)

    monkeypatch.setattr(weylcs.eigen, "_box_values", recording)
    spec = spectrum_below(box_op(kind, 35), lam)
    assert calls == [spec.certificate.shift] and len(spec.values) > 0


def constant_weight_ops():
    """Operators on boxes whose tilde weight is constant: euclidean in d = 1-3,
    an eroded rectangle, the d = 1 hyperbolic interval and a constant hook."""
    h = 1 / 20
    square = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    return {
        "interval": (assemble_euclidean(rectangle_domain(((0.0, 1.0),), 1 / 500)), 4e5),
        "square": (box_op("euclidean", 35), 2000.0),
        "cube": (assemble_euclidean(rectangle_domain(((0.0, 1.0),) * 3, 1 / 40)), 2000.0),
        "eroded": (assemble_euclidean(erode(rectangle_domain(((0.0, 1.0), (0.0, 1.2)), h), 0.12)),
                   3000.0),
        "hyperbolic-interval": (assemble_hyperbolic(rectangle_domain(((0.0, 1.0),), 1 / 200)),
                                1e5),
        "hook": (dataclasses.replace(assemble_hyperbolic(square),
                                     tilde_weight=np.full(square.shape[0], 2.5)), 2000.0),
    }


@pytest.mark.filterwarnings("ignore:count_below")
@pytest.mark.parametrize("name", sorted(constant_weight_ops()))
def test_constant_weight_box_spectrum_never_bisects(monkeypatch, name):
    # a constant weight gives Weyl brackets of width zero: the gate reads its
    # counts from them and _box_values returns their ends, the closed form,
    # and neither takes a Sturm count.  At an eigenvalue the gate fails and
    # a bracket decides the count, still in closed form
    calls = []
    box_values = weylcs.eigen._box_values

    def boom(*args, **kwargs):
        raise AssertionError("a constant-weight box took a Sturm count")

    def recording(op, box, lower, upper):
        calls.append(upper)
        return box_values(op, box, lower, upper)

    monkeypatch.setattr(weylcs.eigen, "_box_values", recording)
    monkeypatch.setattr(weylcs.eigen, "_sturm_counts", boom)
    op, lam = constant_weight_ops()[name]
    box = _box_modes(op)
    closed = separable_sums([box.a1, box.w[0] * box.mu], lam)
    for at_eigenvalue, lam in [(False, lam), (True, closed[len(closed) // 2])]:
        calls.clear()
        spec = spectrum_below(op, lam)
        cert = spec.certificate
        assert calls[-1] == cert.shift and len(calls) == 1 + cert.bracketed
        assert cert.bracketed == (cert.shift < lam) == at_eigenvalue
        assert (cert.count_method, cert.value_method) == ("sturm", "closed-form")
        assert cert.count == len(spec.values) == count_below(op, lam) > 0
        want = separable_sums([box.a1, box.w[0] * box.mu], cert.shift)
        assert spec.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [lambda: box_op("hyperbolic", 35), lambda: interval_op(60)[0]],
                         ids=["square", "interval"])
def test_box_pivot_margin_is_the_distance_to_the_spectrum(make):
    # 2^j for j leading rungs of equal counts: within a factor 2 of the
    # distance from the shift to the nearest eigenvalue, on either side of
    # it, over tol, or at the cap 2^21 once that distance passes 2^20 tol
    op = make()
    vals, norm = lapack_box_values(op), op.max_entry
    cap = 2.0 ** 21
    for v in vals[[1, len(vals) // 3, len(vals) // 2]]:
        for offset in (-3e6, -2e4, -100.0, -3.0, -1.5, 1.5, 5.0, 700.0, 1e5, 4e6):
            cert = count_certificate(op, v + offset * 1e-12 * (norm + abs(v)))
            dist = np.min(np.abs(vals - cert.shift)) / (1e-12 * (norm + abs(cert.shift)))
            assert not cert.bracketed and cert.count == np.sum(vals < cert.shift)
            if cert.pivot_margin == cap:
                assert dist >= 0.99 * cap / 2.0
            else:
                assert 0.99 * dist <= cert.pivot_margin <= 2.01 * dist, (offset, dist)


def lapack_box_values(op):
    """Oracle: every eigenvalue of every tilde mode by LAPACK's stebz."""
    box, h = _box_modes(op), op.grid.h
    off = np.full(len(box.w) - 1, -1.0 / h ** 2)
    return np.sort(np.concatenate([
        scipy.linalg.eigvalsh_tridiagonal(2.0 / h ** 2 + m * box.w, off, lapack_driver="stebz")
        for m in box.mu]))


@st.composite
def kernel_ops(draw):
    """An operator on a box in d = 1-3 (a cube, so every mu repeats, or
    not; the hyperbolic one with exp(2 x_1) or a weight that changes sign)."""
    d = draw(st.integers(1, 3))
    h = 1.0 / draw(st.sampled_from([7, 10, 16]))
    most = {1: 40, 2: 12, 3: 6}[d]
    if draw(st.booleans()):
        sides = [draw(st.integers(2, most))] * d
    else:
        sides = [draw(st.integers(1, most)) for _ in range(d)]
    dom = rectangle_domain(tuple((0.0, (k + 0.5) * h) for k in sides), h)
    hook = draw(st.sampled_from(["euclidean", "hyperbolic", "sign-changing"]))
    if hook == "euclidean":
        return assemble_euclidean(dom)
    op = assemble_hyperbolic(dom)
    if hook == "sign-changing" and d > 1:
        op = dataclasses.replace(op, tilde_weight=np.cos(9.0 * dom.axis_coords(0)) - 0.4)
    return op


@st.composite
def kernel_cases(draw):
    """An operator of kernel_ops and an upper end: inside the spectrum, on an
    eigenvalue or below it."""
    op = draw(kernel_ops())
    vals = lapack_box_values(op)
    where = draw(st.sampled_from(["inside", "on", "below"]))
    if where == "inside":
        upper = vals[0] + draw(st.floats(0.0, 1.0)) * (vals[-1] - vals[0])
    elif where == "on":
        upper = vals[draw(st.integers(0, len(vals) - 1))]
    else:
        upper = vals[0] - draw(st.floats(1e-3, 10.0)) * abs(vals[0])
    return op, vals, upper


@given(op=kernel_ops())
@settings(max_examples=60, deadline=None)
def test_weyl_brackets_hold_every_mode_eigenvalue(op):
    # min(w) I <= diag(w) <= max(w) I, so by Weyl's inequality eigenvalue k
    # of A1 + mu*diag(w) lies in [a1_k + mu*min(w), a1_k + mu*max(w)], the
    # bracket _box_values starts from, up to the rounding of both sides
    box, h = _box_modes(op), op.grid.h
    atol = 8.0 * np.finfo(float).eps * op.max_entry
    off = np.full(len(box.w) - 1, -1.0 / h ** 2)
    for mu in box.mu:
        vals = scipy.linalg.eigvalsh_tridiagonal(2.0 / h ** 2 + mu * box.w, off,
                                                 lapack_driver="stebz")
        assert np.all(box.a1 + mu * box.w.min() - atol <= vals)
        assert np.all(vals <= box.a1 + mu * box.w.max() + atol)


@given(case=kernel_cases())
@settings(max_examples=60, deadline=None)
def test_box_kernel_matches_lapack(case):
    op, vals, upper = case
    norm = abs(op.matrix).max()
    assert op.max_entry == norm  # bit for bit, without the matrix
    box = _box_modes(op)
    atol = 8.0 * np.finfo(float).eps * norm
    got = _box_values(op, box, -np.inf, upper)[0]
    # at an eigenvalue the two counts may differ on values within rounding of it
    assert np.sum(vals < upper - atol) <= len(got) <= np.sum(vals <= upper + atol)
    assert np.all(np.abs(got - vals[:len(got)]) <= atol)
    assert np.all(np.diff(got) >= 0.0)
    # from a lower end on, the values of that span alone, each one within
    # rounding of an eigenvalue
    lower = min(upper, 0.5 * (vals[0] + upper))
    between = _box_values(op, box, lower, upper)[0]
    assert np.sum((vals >= lower + atol) & (vals < upper - atol)) <= len(between) \
        <= np.sum((vals >= lower - atol) & (vals <= upper + atol))
    assert np.all(np.min(np.abs(between[:, None] - vals), axis=1, initial=np.inf) <= atol)
    assert np.all(np.diff(between) >= 0.0) and np.all((lower <= between) & (between <= upper))
    # the gate counts without values: with no eigenvalue within tol of upper
    # it resolves to the count below upper, with one inside it does not
    tol = 1e-12 * (norm + abs(upper))
    neg, margin = _box_inertia(op.grid.h, box, upper, tol)
    if np.all(np.abs(vals - upper) > tol + atol):
        assert margin > 1.0 and neg == np.sum(vals < upper)
    if np.any(np.abs(vals - upper) < tol - atol):
        assert margin <= 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diag, x, want", [
    ([5.0], [4.0, 5.0, 6.0], [0, 1, 1]),  # a zero pivot counts x itself
    ([2.0, 2.0], [1.0, 2.0, 3.0], [1, 1, 2]),  # eigenvalues 1, 3; q_0 = 0 at x = 2
    ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 2, 2, 3])])  # q_1 = 0 at x = 2
def test_sturm_count_at_a_zero_pivot(diag, x, want):
    # the recurrence meets q_i = 0 and the pivmin guard decides, without a
    # division warning; h = 1 and mu = 1, so d_i = 2 + w_i and the
    # off-diagonal is -1 throughout
    diag = np.asarray(diag)
    counts = _sturm_counts(diag - 2.0, 1.0, np.asarray(x), 1.0, np.finfo(float).tiny)
    t = np.diag(diag) - np.eye(len(diag), k=1) - np.eye(len(diag), k=-1)
    vals = np.linalg.eigvalsh(t)
    assert list(counts) == want
    assert all(c == np.sum(vals < v + 1e-12) for c, v in zip(counts, x))


@pytest.mark.parametrize("d", [2, 3], ids=["hyperbolic", "hyperbolic-d3"])
def test_box_value_error_is_the_bisection_bracket(d):
    # half the bracket, which is at the count's rounding level, plus
    # (20 + 2d) eps max|A_ij| for that rounding and the modes': every value
    # lies within it of the eigenvalue, from LAPACK's stebz on each mode
    h = {2: 1 / 35, 3: 1 / 12}[d]
    op = assemble_hyperbolic(rectangle_domain(((0.0, 1.0),) * d, h))
    want = lapack_box_values(op)
    spec = spectrum_below(op, 2000.0)
    eps_a = np.finfo(float).eps * abs(op.matrix).max()
    error = spec.certificate.value_error
    assert spec.certificate.value_method == "bisection" and len(spec.values) > 0
    assert (20 + 2 * d) * eps_a < error <= (24 + 2 * d) * eps_a
    deviation = np.abs(spec.values - want[:len(spec.values)])
    assert np.max(deviation) <= error, np.max(deviation) / eps_a


def bisection_values(op, upper):
    """Oracle: the values below upper of LAPACK's bisection (stebz) on every
    tilde mode, and a bound on their error: half its final bracket, at most
    2 eps max|A_ij|, plus (20 + 2d) eps max|A_ij| for the rounding of the
    counts and of the modes, as on the box path's multisection."""
    vals = lapack_box_values(op)
    return vals[vals < upper], (22 + 2 * op.grid.d) * np.finfo(float).eps * op.max_entry


def long_double_box_values(op):
    """Oracle: every eigenvalue of a constant-weight box, sum over the axes of
    w_a 4/h^2 sin^2(k pi / (2 (m + 1))) in long double, sorted."""
    box, h = _box_modes(op), np.longdouble(op.grid.h)
    pi = 4 * np.arctan(np.longdouble(1))
    sums = np.zeros(1, dtype=np.longdouble)
    for axis, m in enumerate(map(len, op.grid.occupancy[0])):
        k = np.arange(1, m + 1, dtype=np.longdouble)
        w = 1 if axis == 0 else np.longdouble(box.w[0])
        sums = (sums[:, None] + w * 4 / h ** 2 * np.sin(k * pi / (2 * (m + 1))) ** 2).ravel()
    return np.sort(sums)


@pytest.mark.parametrize("name", sorted(constant_weight_ops()))
def test_closed_form_value_error_bounds_the_long_double_values(name):
    # (17 + 2d) eps max|A_ij|, derived in _values_between: every value lies
    # within it of the long-double closed form, and it is no larger than the
    # bound of LAPACK's bisection on the same box
    op, lam = constant_weight_ops()[name]
    spec = spectrum_below(op, lam)
    cert = spec.certificate
    assert cert.value_method == "closed-form"
    assert cert.value_error == (17 + 2 * op.grid.d) * np.finfo(float).eps * op.max_entry
    want = long_double_box_values(op)[:len(spec.values)]
    deviation = np.abs(spec.values.astype(np.longdouble) - want)
    assert np.max(deviation) <= cert.value_error
    bisected, bisection_error = bisection_values(op, cert.shift)
    assert len(bisected) == len(spec.values) and cert.value_error <= bisection_error


@st.composite
def constant_weight_boxes(draw):
    """An operator with a constant tilde weight on a box in d = 1-3 or on an
    eroded rectangle (its nodes fill a smaller box): euclidean, hyperbolic
    (d = 1) or a constant weight set with dataclasses.replace; and a lambda
    inside its spectrum or on a closed-form eigenvalue."""
    d = draw(st.integers(1, 3))
    h = 1.0 / draw(st.sampled_from([7, 10, 16]))
    most = {1: 40, 2: 12, 3: 6}[d]
    dom = rectangle_domain(tuple((0.0, (draw(st.integers(1, most)) + 0.5) * h)
                                 for _ in range(d)), h)
    if draw(st.booleans()):
        try:
            dom = erode(dom, draw(st.floats(0.5, 2.5)) * h)
        except EmptyErosionError:
            assume(False)
    hook = draw(st.sampled_from(["euclidean", "hyperbolic", "constant"]))
    if hook == "euclidean" or (hook == "hyperbolic" and d > 1):
        op = assemble_euclidean(dom)
    else:
        op = assemble_hyperbolic(dom)
        if hook == "constant":
            weight = draw(st.floats(0.0, 4.0))
            op = dataclasses.replace(op, tilde_weight=np.full(dom.shape[0], weight))
    vals = long_double_box_values(op).astype(float)
    if draw(st.booleans()):
        lam = vals[draw(st.integers(0, len(vals) - 1))]
    else:
        lam = draw(st.floats(0.0, 1.05)) * vals[-1]
    return op, lam


@pytest.mark.filterwarnings("ignore:count_below")
@given(case=constant_weight_boxes())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_the_sturm_count_and_the_bisection(case):
    op, lam = case
    spec = spectrum_below(op, lam)
    cert = spec.certificate
    assert cert.count_method == "sturm"
    assert cert.value_method == ("closed-form" if cert.count else "none")
    assert len(spec.values) == cert.count == count_below(op, lam)
    bisected, bisection_error = bisection_values(op, cert.shift)
    assert len(bisected) == cert.count
    assert np.all(np.abs(spec.values - bisected) <= bisection_error)


@pytest.mark.parametrize("name", ["hyperbolic", "interval", "square"])
def test_box_values_one_short_fail_certification(monkeypatch, name):
    # _box_values must return every value between the two counts, by
    # multisection (the hyperbolic square) or in closed form
    box_values = weylcs.eigen._box_values

    def one_short(op, box, lower, upper):
        vals, method, error = box_values(op, box, lower, upper)
        return vals[1:], method, error

    monkeypatch.setattr(weylcs.eigen, "_box_values", one_short)
    op, lam = (box_op("hyperbolic", 35), 250.0) if name == "hyperbolic" \
        else constant_weight_ops()[name]
    with pytest.raises(CertificationError) as info:
        spectrum_below(op, lam)
    assert info.value.found == info.value.expected - 1 > 0


def test_eigsh_value_error_is_the_ritz_residual(monkeypatch):
    # recompute max |A v - theta v| from the Ritz vectors eigsh returned; by
    # the residual bound each value lies that close to an eigenvalue
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def recording(*args, **kwargs):
        calls.append(eigsh(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    op, h = sparse_interval_op(200)
    spec = spectrum_below(op, 5000.0)
    assert spec.certificate.value_method == "eigsh" and len(calls) == 1
    a = op.matrix
    vecs = calls[0][1]
    theta = np.einsum("ij,ij->j", vecs, a @ vecs)
    inside = theta < spec.certificate.shift
    residual = np.linalg.norm(a @ vecs[:, inside] - vecs[:, inside] * theta[inside], axis=0)
    error = spec.certificate.value_error
    assert error == pytest.approx(residual.max(), rel=1e-12)
    assert 0.0 < error < 1e-8
    exact = tridiag_eigs(200, h, 1.0)
    assert np.all(np.abs(spec.values - exact[:len(spec.values)]) <= error)


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


def test_load_spectrum_skips_blank_lines(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# cutoff=10\n\n1.5\n   \n2.5\n\n")
    back = load_spectrum(path)
    assert back.values.tolist() == [1.5, 2.5] and back.cutoff == 10.0


@pytest.mark.parametrize("text, message", [
    # a nan was dropped by riesz_mean, which then gave 6.0 at lambda 5
    ("# cutoff=10\n1\nnan\n3\n", "spectrum line 3: 'nan' is not a finite number"),
    ("# cutoff=10\n1\n-inf\n", "spectrum line 3: '-inf' is not a finite number"),
    ("# cutoff=10\n1\nabc\n", "spectrum line 3: 'abc' is not a finite number"),
    ("# cutoff=10\n3\n1\n", "spectrum line 3: '1' is below the value before it"),
    ("# cutoff=10\n1\n\n20\n", "spectrum line 4: '20' is not below the cutoff 10.0"),
    ("# cutoff=10\n10\n", "spectrum line 2: '10' is not below the cutoff 10.0"),
    ("# cutoff=ten\n1\n", "spectrum header: cutoff must be a number, got 'ten'"),
    ("# cutoff=nan\n", "spectrum header: cutoff must be a number, got 'nan'"),
    ("# certified=yes\n1\n", "spectrum header: certified must be true or false, got 'yes'"),
], ids=["nan", "-inf", "abc", "unsorted", "past-cutoff", "at-cutoff", "cutoff-ten",
        "cutoff-nan", "certified-yes"])
def test_load_spectrum_names_the_bad_line_or_key(tmp_path, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_spectrum(path)


def test_load_spectrum_keeps_ties_and_an_empty_body(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# cutoff=10\n# certified=true\n-1\n2\n2\n")
    back = load_spectrum(path)
    assert back.values.tolist() == [-1.0, 2.0, 2.0] and back.certified
    path.write_text("# cutoff=inf\n")
    back = load_spectrum(path)
    assert back.values.shape == (0,) and back.cutoff == math.inf and not back.certified

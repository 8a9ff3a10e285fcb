"""Tight discrete coherent-state frames: Parseval, symbols, trace identity."""

import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcs.domains import GridDomain, rectangle_domain
from weylcs.frames import (
    FrameError,
    PhaseSpaceFunction,
    adjoint,
    analytic_symbol,
    build_frame,
    forward,
    load_phase,
    phase_space_moment,
    rayleigh_symbol,
    save_phase,
    symbol,
    trace_via_frame,
)
from weylcs.operators import DimensionMismatchError, assemble_euclidean, assemble_hyperbolic
from weylcs.windows import FactorProfile, Window, c_constants, grad_norm_sq, \
    make_bump_window, make_cosine_window, scale


def frame_1d(N=128, h=0.05, eps=0.2):
    win = scale(make_cosine_window(1), eps)
    return build_frame(((0.0, N * h),), h, win)


def smooth_bump(t, center, radius):
    u = (t - center) / radius
    inside = np.abs(u) < 1.0
    safe = np.where(inside, 1.0 - u * u, 1.0)
    return np.where(inside, np.exp(-1.0 / safe), 0.0)


def test_parseval_1d():
    fr = frame_1d()
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
        nf = fr.grid_norm_sq(f)
        assert abs(forward(fr, f).norm_sq() - nf) <= 1e-12 * nf


def test_lattice_sum_near_one():
    fr = frame_1d(N=160, h=0.0125, eps=0.2)
    assert abs(fr.s - 1.0) < 0.01


@pytest.mark.parametrize("box, h, window, message", [
    (((0.0, 1.0),), 0.05, scale(make_cosine_window(1), 0.6), "wraps around"),
    (((0.0, 1.0), (0.0, 2.0)), 0.05, scale(make_cosine_window(2), 0.1), "cubic"),
    (((0.0, 1.0),), 0.03, scale(make_cosine_window(1), 0.1), "multiple of h"),
    (((0.0, 1.0), (0.0, 1.0)), 0.05, scale(make_cosine_window(1), 0.1), "dimension"),
    # a profile that is 0 at every node, as no window maker builds
    (((0.0, 1.0),), 0.05, Window(d=1, epsilon=0.1, factor=FactorProfile(
        value=np.zeros_like, deriv=np.zeros_like, half_width=1.0)), "vanishes"),
], ids=["wraps", "non-cubic", "not-a-multiple", "dimension", "vanishes"])
def test_build_frame_rejects(box, h, window, message):
    with pytest.raises(FrameError, match=message):
        build_frame(box, h, window)


def test_forward_zero():
    fr = frame_1d(N=32)
    F = forward(fr, np.zeros(fr.n))
    assert np.all(F.values == 0.0)


def test_forward_impulse():
    fr = frame_1d(N=64)
    f = np.zeros(fr.n)
    f[20] = 1.0
    P = np.abs(forward(fr, f).values) ** 2  # [y, xi]
    assert np.max(P.std(axis=1)) < 1e-14 * P.max()
    offs = fr.h * 20 - fr.y_axis()
    offs = np.where(offs >= fr.L / 2, offs - fr.L, offs)
    offs = np.where(offs < -fr.L / 2, offs + fr.L, offs)
    g2 = fr.window(offs[:, None]) ** 2
    col = P[:, 0]
    sel = g2 > 1e-12 * g2.max()
    scale_fac = col[sel][0] / g2[sel][0]
    assert np.allclose(col[sel], scale_fac * g2[sel], rtol=1e-12)
    assert np.all(col[~sel] < 1e-12 * col.max())


def test_adjoint_inverts_forward():
    fr = frame_1d(N=64)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    back = adjoint(fr, forward(fr, f))
    assert np.max(np.abs(back - f)) < 1e-12


def test_adjoint_zero():
    fr = frame_1d(N=32)
    F = forward(fr, np.zeros(fr.n))
    assert np.all(adjoint(fr, F) == 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda fr: forward(fr, np.zeros(fr.n + 1)), "expected 16 samples, got 17"),
    (lambda fr: phase_space_moment(fr, np.zeros(fr.n - 1), lambda xi, y: 1.0),
     "expected 16 samples, got 15"),
    # a function of another frame, even of the same geometry
    (lambda fr: adjoint(fr, forward(frame_1d(N=16), np.zeros(fr.n))), "different frame"),
    (lambda fr: trace_via_frame(fr, np.eye(fr.n + 1)), "must be 16x16"),
], ids=["forward", "moment", "adjoint", "trace"])
def test_frame_functions_reject_another_grid(call, message):
    with pytest.raises(ValueError, match=message):
        call(frame_1d(N=16))


def test_adjointness_by_direct_summation():
    fr = frame_1d(N=16, h=0.1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    F = forward(fr, rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n))
    w = fr.weight_xi * fr.weight_y * fr.measure_normalizer / fr.s
    lhs = w * np.vdot(forward(fr, f).values * math.sqrt(fr.s),
                      F.values * math.sqrt(fr.s))
    rhs = fr.weight_y * np.vdot(f, adjoint(fr, F))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def direct_matrices(fr):
    """Window matrix W[y, x] = g(x - y), wrapped, and phases P[x, xi] = exp(-i xi.x),
    both dense over the flattened grid and straight from the window and the
    frequencies."""
    axes = np.meshgrid(*([fr.y_axis()] * fr.d), indexing="ij")
    xs = np.stack(axes, axis=-1).reshape(-1, fr.d)
    xis = np.stack(np.meshgrid(*([fr.xi_axis()] * fr.d), indexing="ij"),
                   axis=-1).reshape(-1, fr.d)
    off = (xs[None, :, :] - xs[:, None, :] + fr.L / 2) % fr.L - fr.L / 2
    return fr.window(off), np.exp(-1j * xs @ xis.T)


# (d, window, N, h, eps); the last case's support covers 11 of the 12 offsets
DIRECT_CASES = {
    "d1-cosine": (1, make_cosine_window, 16, 0.1, 0.3),
    "d1-bump": (1, make_bump_window, 16, 0.1, 0.3),
    "d2-cosine": (2, make_cosine_window, 8, 0.1, 0.25),
    "d3-cosine": (3, make_cosine_window, 6, 0.1, 0.28),
    "d3-bump": (3, make_bump_window, 6, 0.1, 0.28),
    "d1-wide": (1, make_cosine_window, 12, 0.1, 0.58),
}


def direct_frame(name):
    d, make, N, h, eps = DIRECT_CASES[name]
    return build_frame(((0.0, N * h),) * d, h, scale(make(d), eps))


@pytest.mark.parametrize("name", DIRECT_CASES)
def test_forward_by_direct_summation(name):
    fr = direct_frame(name)
    if name == "d1-wide":
        assert len(fr.offsets) == 11
    rng = np.random.default_rng(3)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    W, P = direct_matrices(fr)
    ref = fr.h ** fr.d / math.sqrt(fr.s) * (W * f) @ P
    assert np.max(np.abs(forward(fr, f).values - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", DIRECT_CASES)
def test_adjoint_by_direct_summation(name):
    fr = direct_frame(name)
    rng = np.random.default_rng(4)
    shape = (fr.n, fr.n)
    F = PhaseSpaceFunction(values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                           frame=fr)
    W, P = direct_matrices(fr)
    ref = np.sum(W * (F.values @ P.conj().T), axis=0) / (fr.n * math.sqrt(fr.s))
    assert np.max(np.abs(adjoint(fr, F) - ref)) < 1e-12 * np.max(np.abs(ref))


def test_symbol_converges_to_c1():
    eps = 0.2
    win = scale(make_cosine_window(1), eps)
    c1 = c_constants(win).c1
    errs = []
    for h in (eps / 20, eps / 40):
        dom = rectangle_domain(((0.0, 2.0),), h)
        op = assemble_euclidean(dom)
        fr = build_frame(((0.0, 2.0),), h, win)
        sv = symbol(fr, op, 0.0, 1.0)
        assert not sv.truncated
        errs.append(abs(sv.value - c1))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_symbol_general_xi():
    eps = 0.25
    win = scale(make_cosine_window(1), eps)
    h = eps / 50
    dom = rectangle_domain(((0.0, 2.0),), h)
    op = assemble_euclidean(dom)
    fr = build_frame(((0.0, 2.0),), h, win)
    for xi in (0.5, 1.7, 3.0):
        sv = symbol(fr, op, xi, 1.0)
        ref = analytic_symbol("euclidean", win, xi)
        assert abs(sv.value - ref) < 20.0 * (1.0 + xi ** 2) * h ** 2 / eps ** 2


@pytest.mark.filterwarnings("error")
def test_symbol_truncated_flag_near_boundary():
    eps = 0.3
    win = scale(make_cosine_window(1), eps)
    h = 0.02
    dom = rectangle_domain(((0.0, 2.0),), h)
    op = assemble_euclidean(dom)
    fr = build_frame(((0.0, 2.0),), h, win)
    assert symbol(fr, op, 0.0, 0.1).truncated
    assert not symbol(fr, op, 0.0, 1.0).truncated
    # a y past any integer index is placed on the grid before the cast
    for y in (1e300, -1e300):
        sv = symbol(fr, op, 0.0, y)
        assert math.isnan(sv.value) and sv.truncated


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("d, denom", [(1, 60), (2, 30), (3, 14)])
def test_symbol_matches_the_assembled_matrix(kind, d, denom):
    # the old full-grid formulas as the oracle: Re <e, A e> / <e, e> over
    # every node with the assembled matrix, and the truncation rule on the
    # euclidean distance transform of the whole grid
    from scipy.ndimage import distance_transform_edt

    rng = np.random.default_rng(d)
    h = 1.0 / denom
    box = rectangle_domain(((0.0, 1.0),) * d, h)
    x = np.stack(np.meshgrid(*(box.axis_coords(a) for a in range(d)), indexing="ij"),
                 axis=-1)
    balls = [(np.full(d, 0.4), 0.3), (rng.uniform(0.3, 0.7, d), 0.2)]
    mask = box.mask & np.any([np.sum((x - c) ** 2, axis=-1) < r * r for c, r in balls],
                             axis=0)
    dom = GridDomain(h=h, origin=box.origin, mask=mask, box=box.box)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    win = scale(make_cosine_window(d), 4.5 * h)
    clear = distance_transform_edt(np.pad(mask, 1), sampling=h)[(slice(1, -1),) * d]
    # deep inside, near the boundary, anywhere around the box, and off the mask
    directions = rng.standard_normal((20, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    near = balls[0][0] + (balls[0][1] + rng.uniform(-3 * h, 3 * h, (20, 1))) * directions
    ys = [c for c, _ in balls] + list(near) + list(rng.uniform(-0.2, 1.2, (20, d))) \
        + [np.full(d, -0.1), np.full(d, 0.95)]
    # eps = 4h and y half a step off a node: in d = 1 the support reaches the
    # node 4 = ceil(eps/h) steps from the node nearest y, the edge of the cube
    # the symbol sums over; and a y whose whole cube lies off the grid
    cases = [(win, y) for y in ys] + [(scale(make_cosine_window(d), 4.0 * h),
                                       np.full(d, 0.4 + 0.5 * h)), (win, np.full(d, 2.0))]
    coords = op.node_coords()
    flags = []
    for win, y in cases:
        fr = build_frame(((0.0, 1.0),) * d, h, win)
        xi = rng.uniform(-30.0, 30.0, d)
        e = np.exp(1j * coords @ xi) * win(coords - y)
        nrm = np.vdot(e, e).real
        want = np.vdot(e, op.matrix @ e).real / nrm if nrm > 0.0 else math.nan
        sv = symbol(fr, op, xi, y)
        assert sv.value == pytest.approx(want, rel=1e-13, abs=0.0, nan_ok=True)
        idx = tuple(np.clip(np.round((y - np.asarray(dom.origin)) / h).astype(int),
                            0, np.asarray(dom.shape) - 1))
        truncated = bool(math.isnan(want) or not mask[idx]
                         or clear[idx] + h < win.support_radius)
        assert sv.truncated == truncated
        flags.append((truncated, math.isnan(want)))
    assert {(False, False), (True, False), (True, True)} <= set(flags)


def test_analytic_symbol_formulas():
    win = make_cosine_window(2)
    c = c_constants(win)
    assert analytic_symbol("euclidean", win, (0.0, 0.0)) == \
        pytest.approx(grad_norm_sq(win))
    win1 = make_cosine_window(1)
    c1 = c_constants(win1).c1
    assert analytic_symbol("hyperbolic", win1, (1.5,), (0.3,)) == \
        pytest.approx(1.5 ** 2 + c1)
    val = analytic_symbol("hyperbolic", win, (1.0, 1.0), (0.0, 0.5))
    assert val == pytest.approx(1.0 + c.c3 + c.c2 + c.c1, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_symbol("elliptic", win, (0.0,))


def test_symbols_check_the_dimension():
    win = scale(make_cosine_window(2), 0.2)
    h = 1 / 40
    op = assemble_hyperbolic(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    fr = build_frame(((0.0, 1.0), (0.0, 1.0)), h, win)
    for xi, y in [((1.0, 2.0), 0.5), ((1.0, 2.0), (0.5, 0.5, 0.5)), ((1.0, 2.0, 3.0), (0.5, 0.5)),
                  (1.0, (0.5, 0.5))]:
        with pytest.raises(DimensionMismatchError, match="coordinates"):
            symbol(fr, op, xi, y)
        with pytest.raises(DimensionMismatchError, match="coordinates"):
            analytic_symbol("hyperbolic", win, xi, y)
    with pytest.raises(DimensionMismatchError, match="coordinates"):
        analytic_symbol("euclidean", win, (1.0, 2.0, 3.0))
    with pytest.raises(DimensionMismatchError, match="window dimension"):
        rayleigh_symbol(op, scale(make_cosine_window(1), 0.2), 1.0, 0.5)
    sv = symbol(fr, op, (1.0, 2.0), (0.5, 0.5))
    assert type(sv.value) is float and not sv.truncated
    # scalars are one coordinate in d = 1
    op1 = assemble_euclidean(rectangle_domain(((0.0, 2.0),), 0.02))
    fr1 = build_frame(((0.0, 2.0),), 0.02, scale(make_cosine_window(1), 0.3))
    assert symbol(fr1, op1, 1.0, 1.0).value == symbol(fr1, op1, (1.0,), np.array([1.0])).value
    assert analytic_symbol("hyperbolic", fr1.window, 1.0, 0.5) == \
        analytic_symbol("hyperbolic", fr1.window, (1.0,), (0.5,))


@pytest.mark.parametrize("call", ["symbol", "rayleigh_symbol", "analytic_symbol"])
@pytest.mark.parametrize("coord", ["xi", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_symbols_reject_non_finite_coordinates(call, coord, bad):
    # y deep inside the hyperbolic unit square: nothing else is wrong
    h = 1 / 30
    win = scale(make_cosine_window(2), 0.2)
    op = assemble_hyperbolic(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    fr = build_frame(((0.0, 1.0), (0.0, 1.0)), h, win)
    point = {"xi": (0.0, 0.0), "y": (0.5, 0.5)}
    point[coord] = (bad, 0.5)
    run = {"symbol": lambda xi, y: symbol(fr, op, xi, y),
           "rayleigh_symbol": lambda xi, y: rayleigh_symbol(op, win, xi, y),
           "analytic_symbol": lambda xi, y: analytic_symbol("hyperbolic", win, xi, y)}[call]
    with pytest.raises(ValueError, match=f"^{coord} must be finite"):
        run(point["xi"], point["y"])


def test_hyperbolic_symbol_d2():
    eps = 0.2 * math.sqrt(2.0)
    win = scale(make_cosine_window(2), eps)
    h = 1 / 60
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    op = assemble_hyperbolic(dom)
    fr = build_frame(((0.0, 1.0), (0.0, 1.0)), h, win)
    sv = symbol(fr, op, (1.3, -0.7), (0.45, 0.5))
    ref = analytic_symbol("hyperbolic", win, (1.3, -0.7), (0.45, 0.5))
    assert not sv.truncated
    assert abs(sv.value - ref) < 0.05 * ref


def test_trace_identity_matrix():
    fr = frame_1d(N=16, h=0.1)
    tr = trace_via_frame(fr, np.eye(fr.n))
    assert tr == pytest.approx(fr.n, rel=1e-12)


def test_trace_random_diagonal():
    fr = frame_1d(N=32, h=0.1)
    d = np.random.default_rng(5).random(fr.n)
    tr = trace_via_frame(fr, np.diag(d))
    assert abs(tr - d.sum()) <= 1e-10 * d.sum()


@pytest.mark.parametrize("fmt", ["dia", "csr", "csc", "coo"])
def test_trace_sparse_matches_dense(fmt):
    # every format is read through its own tocoo(); dia has no max(), so
    # arithmetic on T before the conversion fails here
    fr = frame_1d(N=32, h=0.1)
    d = np.random.default_rng(6).random(fr.n)
    T = scipy.sparse.diags(d).asformat(fmt)
    assert T.format == fmt
    sparse_tr = trace_via_frame(fr, T)
    assert abs(sparse_tr - trace_via_frame(fr, np.diag(d))) <= 1e-12 * d.sum()
    assert abs(sparse_tr - d.sum()) <= 1e-12 * d.sum()


@pytest.mark.parametrize("d, N, eps", [(2, 16, 0.3), (1, 12, 0.58), (3, 8, 0.3)])
def test_trace_of_an_embedded_hyperbolic_operator(d, N, eps):
    # banded, sparse and off-diagonal: the xi-sums between distinct support
    # offsets must vanish for the trace to come out right
    h = 0.1
    fr = build_frame(((0.0, N * h),) * d, h, scale(make_cosine_window(d), eps))
    op = assemble_hyperbolic(rectangle_domain(((0.0, N * h),) * d, h))
    assert np.allclose(op.node_coords(), fr.h * op.nodes)
    idx = np.ravel_multi_index(op.nodes.T, fr.shape)
    A = op.matrix.tocoo()
    T = scipy.sparse.coo_array((A.data, (idx[A.row], idx[A.col])), shape=(fr.n, fr.n))
    assert T.nnz > op.n
    tr = trace_via_frame(fr, T)
    assert abs(tr - T.diagonal().sum()) <= 1e-12 * T.diagonal().sum()


def test_trace_rejects_asymmetric():
    fr = frame_1d(N=16, h=0.1)
    T = np.zeros((fr.n, fr.n))
    T[0, 1] = 1.0
    with pytest.raises(ValueError):
        trace_via_frame(fr, T)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_jensen_direction(seed, n):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = 0.5 * (B + B.T)
    e = rng.standard_normal(n)
    e /= np.linalg.norm(e)
    lam = rng.uniform(-3.0, 3.0)
    vals, vecs = np.linalg.eigh(A)
    T = (vecs * np.clip(lam - vals, 0.0, None)) @ vecs.T
    lhs = e @ T @ e
    rhs = max(lam - e @ A @ e, 0.0)
    assert lhs >= rhs - 1e-12


def test_frame_form_identity_xi1():
    # sum W xi^2 |Phi psi|^2 = ||D1 psi||^2 + c1 ||psi||^2 + O(h^2)
    L = 2.0
    win_base = make_bump_window(1)
    errs = []
    for N in (512, 1024):
        h = L / N
        win = scale(win_base, 0.25)
        fr = build_frame(((0.0, L),), h, win)
        psi = smooth_bump(fr.y_axis(), 1.0, 0.55)
        c = c_constants(win)
        lhs = phase_space_moment(fr, psi, lambda xi, y: xi[0] ** 2)
        d1 = (np.roll(psi, -1) - psi) / h
        rhs = h * np.sum(d1 ** 2) + c.c1 * h * np.sum(psi ** 2)
        errs.append(abs(lhs - rhs))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_frame_form_identity_tilde():
    # sum W e^{2 y1} xi2^2 |Phi psi|^2 = c2 ||e^{x1} psi||^2
    #                                  + c3 ||e^{x1} D2 psi||^2 + O(h^2)
    L = 2.0
    win_base = make_bump_window(2)
    errs = []
    for N in (64, 128):
        h = L / N
        win = scale(win_base, 0.25)
        fr = build_frame(((0.0, L), (0.0, L)), h, win)
        xs = fr.y_axis()
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        psi = smooth_bump(X, 1.0, 0.55) * smooth_bump(Y, 1.0, 0.55) \
            * np.cos(10.0 * math.pi * Y)
        c = c_constants(win)
        lhs = phase_space_moment(
            fr, psi.ravel(), lambda xi, y: np.exp(2.0 * y[..., 0]) * xi[1] ** 2)
        d2 = (np.roll(psi, -1, axis=1) - psi) / h
        rhs = c.c2 * h * h * np.sum(np.exp(2.0 * X) * psi ** 2) \
            + c.c3 * h * h * np.sum(np.exp(2.0 * X) * d2 ** 2)
        errs.append(abs(lhs - rhs))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_phase_roundtrip(tmp_path):
    fr = frame_1d(N=32, h=0.1)
    rng = np.random.default_rng(9)
    F = forward(fr, rng.standard_normal(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(F, path)
    back = load_phase(path, fr)
    ref = np.asarray(F.values, dtype=np.complex64)
    assert np.array_equal(np.asarray(back.values, dtype=np.complex64), ref)


def test_phase_file_layout(tmp_path):
    import struct

    fr = frame_1d(N=16, h=0.1)
    F = forward(fr, np.ones(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(F, path)
    raw = path.read_bytes()
    assert raw[:8] == b"WCSPSF1\n"
    d, N = struct.unpack("<ii", raw[8:16])
    h, L, eps = struct.unpack("<ddd", raw[16:40])
    assert (d, N) == (1, 16)
    assert h == 0.1 and L == pytest.approx(1.6) and eps == 0.2
    assert len(raw) == 40 + 8 * fr.n * fr.n


def test_phase_load_rejects_mismatch(tmp_path):
    fr = frame_1d(N=16, h=0.1)
    other = frame_1d(N=32, h=0.1)
    F = forward(fr, np.ones(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(F, path)
    with pytest.raises(FrameError):
        load_phase(path, other)
    # same geometry, another window scale
    with pytest.raises(FrameError, match="eps"):
        load_phase(path, frame_1d(N=16, h=0.1, eps=0.5))
    # a payload 16 bytes short (two values), and one with a byte too many
    data = path.read_bytes()
    for payload, found in [(data[:-16], "254"), (data + b"\0", "256.125")]:
        path.write_bytes(payload)
        with pytest.raises(FrameError, match=f"file holds {found} values, the frame expects 256"):
            load_phase(path, fr)
    path.write_bytes(data[8:])  # no magic
    with pytest.raises(ValueError, match="not a phase-space file"):
        load_phase(path, fr)

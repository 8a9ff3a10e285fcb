"""Tight discrete coherent-state frames: Parseval, symbols, trace identity."""

import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import window_at
from weylcs import frames
from weylcs.domains import GridDomain, lattice_dist2, rectangle_domain
from weylcs.frames import (
    FrameError,
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
from weylcs.windows import Window, c_constants, grad_norm_sq, \
    make_bump_window, make_cosine_window, scale


def frame_1d(N=128, h=0.05, eps=0.2):
    win = scale(make_cosine_window(1), eps)
    return build_frame(((0.0, (N + 1) * h),), h, win)


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
        assert abs(np.sum(np.abs(forward(fr, f)) ** 2) / fr.P ** fr.d - nf) <= 1e-12 * nf


def test_lattice_sum_near_one():
    fr = frame_1d(N=160, h=0.0125, eps=0.2)
    assert abs(fr.s - 1.0) < 0.01


@pytest.mark.parametrize("box, h, window, message", [
    (((0.0, 1.0),), 0.05, scale(make_cosine_window(1), 0.6), "spans the grid"),
    # the support's side along an axis, 2 eps/sqrt(d), reaches L
    # L is the extent of the nodes along the shortest axis: 20 nodes of 0.05
    (((0.0, 1.05), (-0.3, 1.0)), 0.05, scale(make_cosine_window(2), 0.7072),
     re.escape("spans the grid: 2*eps/sqrt(2) = 1.00013 >= L = 1")),
    (((0.0, 0.7),) * 3, 0.1, scale(make_cosine_window(3), 0.5197),
     re.escape("spans the grid: 2*eps/sqrt(3) = 0.600098 >= L = 0.6")),
    (((0.0, 1.0), (0.0, 1.0)), 0.05, scale(make_cosine_window(1), 0.1), "dimension"),
    # a profile that is 0 at every node, as no window maker builds
    (((0.0, 1.0),), 0.05, Window(d=1, epsilon=0.1, profile=np.zeros_like,
                                 profile_deriv=np.zeros_like), "vanishes"),
    # as rectangle_domain refuses it
    (((0.0, 1.0),), 0.99999999999, scale(make_cosine_window(1), 0.1), "no interior nodes"),
], ids=["spans", "spans-d2", "spans-d3", "dimension", "vanishes", "no-interior"])
def test_build_frame_rejects(box, h, window, message):
    with pytest.raises(ValueError, match=message):
        build_frame(box, h, window)


def test_build_frame_holds_no_n_by_n_array():
    # the frame keeps a P x P table and the window on its P^d support cube;
    # an N x N complex table alone would take 64 MiB at N = 2048
    tracemalloc.start()
    try:
        fr = frame_1d(N=2048, h=0.05, eps=0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fr.n == 2048 and peak < 2 ** 20


@pytest.mark.parametrize("d, N", [(1, 64), (2, 20), (3, 8)])
def test_frame_size_and_support_are_what_the_benchmark_reads(d, N):
    # perfbench/tracing.py reads .n as frames.n and the nonzeros of g_grid as
    # the support nodes of frames.support_frac: the grid's nodes, and the
    # lattice offsets where the window's profile is nonzero to the power d
    h = 0.1
    win = scale(make_cosine_window(d), 0.35)
    fr = build_frame(((0.0, (N + 1) * h),) * d, h, win)
    support = np.count_nonzero(win.factor_value(h * np.arange(-N, N + 1)))
    assert support >= 5
    assert fr.n == N ** d and np.count_nonzero(fr.g_grid) == support ** d


def test_frame_error_is_a_failed_check_not_an_input_error():
    # refused input is a ValueError (exit 1); FrameError is left to defects (exit 2)
    assert issubclass(FrameError, RuntimeError) and not issubclass(FrameError, ValueError)


# (d, N, h, eps, support offsets per axis): 2 eps >= L = N h in each, but the
# support, a cube of side 2 eps/sqrt(d), spans less than L along an axis
@pytest.mark.parametrize("d, N, h, eps, k", [
    (2, 20, 0.05, 0.6, 17),
    (2, 20, 0.05, 0.7071, 19),
    (3, 6, 0.1, 0.5195, 5),
], ids=["d2", "d2-edge", "d3-edge"])
def test_frame_builds_while_the_support_spans_less_than_the_grid(d, N, h, eps, k):
    L = N * h
    fr = build_frame(((0.0, (N + 1) * h),) * d, h, scale(make_cosine_window(d), eps))
    assert 2.0 * eps >= L and fr.P == k and np.count_nonzero(fr.g_grid) == k ** d
    rng = np.random.default_rng(d)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    nf = fr.grid_norm_sq(f)
    assert abs(np.sum(np.abs(forward(fr, f)) ** 2) / fr.P ** d - nf) <= 1e-12 * nf
    B = np.where(rng.random((fr.n, fr.n)) < 0.05, rng.standard_normal((fr.n, fr.n)), 0.0)
    T = B + B.T
    row, col = np.nonzero(T)
    tr = trace_via_frame(fr, (row, col, T[row, col]))
    assert abs(tr - T.trace()) <= 1e-12 * np.abs(T).sum()


@pytest.mark.parametrize("box, h, named", [
    (((0.0, 1.0),), -0.1, "h=-0.1"),
    (((0.0, 1.0),), math.inf, "h=inf"),
    (((0.0, 1.0),), math.nan, "h=nan"),
    (((0.0, 1.0),), 0.0, "h=0.0"),
    (((0.0, math.nan),), 0.05, "box=((0.0, nan),)"),
    (((0.0, math.inf),), 0.05, "box=((0.0, inf),)"),
    (((1.0, 0.0),), 0.05, "box=((1.0, 0.0),)"),
    ((), 0.05, "box=()"),
], ids=["negative-h", "inf-h", "nan-h", "zero-h", "nan-side", "inf-side", "reversed-side",
        "no-side"])
def test_build_frame_rejects_a_bad_box_or_h(box, h, named):
    # one check up front, before any lattice work, names the input at fault
    with pytest.raises(ValueError, match=re.escape(named)) as info:
        build_frame(box, h, scale(make_cosine_window(1), 0.1))
    assert type(info.value) is ValueError


def test_forward_zero():
    fr = frame_1d(N=32)
    F = forward(fr, np.zeros(fr.n))
    assert np.all(F == 0.0)


def test_forward_impulse():
    fr = frame_1d(N=64)
    f = np.zeros(fr.n)
    f[20] = 1.0
    P = np.abs(forward(fr, f)) ** 2  # [y, xi]
    assert np.max(P.std(axis=1)) < 1e-14 * P.max()
    # x - y for x = origin + 20 h and the positions y whose window meets the grid
    offs = fr.origin[0] + fr.h * 20 - positions(fr)[:, 0]
    g2 = window_at(fr.window, offs[:, None]) ** 2
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
    # the transform of a grid of 17 nodes: 17 + P - 1 positions, P = 7
    (lambda fr: adjoint(fr, forward(frame_1d(N=17), np.zeros(17))),
     re.escape("phase-space array has shape (23, 7), the frame's is (22, 7)")),
    # the identity's triplets on a grid of 17 nodes
    (lambda fr: trace_via_frame(fr, (np.arange(17), np.arange(17), np.ones(17))),
     "indices in 0..15"),
], ids=["forward", "moment", "adjoint", "trace"])
def test_frame_functions_reject_another_grid(call, message):
    with pytest.raises(ValueError, match=message):
        call(frame_1d(N=16))


def test_adjointness_by_direct_summation():
    fr = frame_1d(N=16, h=0.1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    F = forward(fr, rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n))
    # the phase-space measure is 1/P^d
    lhs = np.vdot(forward(fr, f), F) / fr.P ** fr.d
    rhs = fr.h ** fr.d * np.vdot(f, adjoint(fr, F))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def positions(fr):
    """The positions y = origin + (i - R) h, i = 0..N_a + P - 2 along each
    axis a, flattened y-major: every lattice node whose window meets the grid."""
    ny = tuple(m + fr.P - 1 for m in fr.shape)
    return np.asarray(fr.origin) + fr.h * (np.indices(ny).reshape(fr.d, -1).T - fr.P // 2)


def direct_matrices(fr):
    """Window matrix W[y, x] = g(x - y) and centred phases E[y, x, xi] =
    exp(-i xi.(x - y)), dense over the flattened grid x, the positions y
    and the frequencies, straight from the window with no wrap."""
    xs = np.asarray(fr.origin) + fr.h * np.indices(fr.shape).reshape(fr.d, -1).T
    ys = positions(fr)
    xis = np.stack(np.meshgrid(*([fr.xi_axis()] * fr.d), indexing="ij"),
                   axis=-1).reshape(-1, fr.d)
    off = xs[None, :, :] - ys[:, None, :]
    return window_at(fr.window, off), np.exp(-1j * off @ xis.T)


# (d, window, N, h, eps); the last case's support covers 11 of the 12 nodes
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
    return build_frame(((0.0, (N + 1) * h),) * d, h, scale(make(d), eps))


@pytest.mark.parametrize("name", DIRECT_CASES)
def test_forward_by_direct_summation(name):
    fr = direct_frame(name)
    if name == "d1-wide":
        assert fr.P == 11
    rng = np.random.default_rng(3)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    W, E = direct_matrices(fr)
    ref = fr.h ** fr.d / math.sqrt(fr.s) * np.einsum("yx,yxk,x->yk", W, E, f)
    assert np.max(np.abs(forward(fr, f) - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", DIRECT_CASES)
def test_adjoint_by_direct_summation(name):
    fr = direct_frame(name)
    rng = np.random.default_rng(4)
    shape = (len(positions(fr)), fr.P ** fr.d)
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    W, E = direct_matrices(fr)
    ref = np.einsum("yx,yxk,yk->x", W, E.conj(), F) / (fr.P ** fr.d * math.sqrt(fr.s))
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
    coords = np.asarray(op.grid.origin) + op.grid.h * op.nodes
    flags = []
    for win, y in cases:
        fr = build_frame(((0.0, 1.0),) * d, h, win)
        xi = rng.uniform(-30.0, 30.0, d)
        e = np.exp(1j * coords @ xi) * window_at(win, coords - y)
        nrm = np.vdot(e, e).real
        want = np.vdot(e, op.matrix @ e).real / nrm if nrm > 0.0 else math.nan
        sv = symbol(fr, op, xi, y)
        assert sv.value == pytest.approx(want, rel=1e-13, abs=0.0, nan_ok=True)
        idx = tuple(np.clip(np.round((y - np.asarray(dom.origin)) / h).astype(int),
                            0, np.asarray(dom.shape) - 1))
        truncated = bool(math.isnan(want) or not mask[idx]
                         or clear[idx] + h < win.epsilon)
        assert sv.truncated == truncated
        flags.append((truncated, math.isnan(want)))
    assert {(False, False), (True, False), (True, True)} <= set(flags)


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_symbol_cube_is_bounded_by_the_grid(kind):
    # eps = 100 on the 11 x 11 lattice of the unit square: the cube stops at
    # the layer past the grid, 11 steps out rather than ceil(eps/h) = 1000
    dom = rectangle_domain(((0.0, 1.0),) * 2, 0.1)
    op = assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)
    win = scale(make_cosine_window(2), 100.0)
    xi, y = np.array([1.0, -2.0]), np.array([0.37, 0.61])
    tracemalloc.start()
    try:
        sv = rayleigh_symbol(op, win, xi, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 and sv.truncated
    coords = np.asarray(op.grid.origin) + op.grid.h * op.nodes
    e = np.exp(1j * coords @ xi) * window_at(win, coords - y)
    assert sv.value == pytest.approx(np.vdot(e, op.matrix @ e).real / np.vdot(e, e).real,
                                     rel=1e-13, abs=0.0)


@st.composite
def masks_and_points(draw):
    """A random mask in d = 1..3 at a random spacing and origin, a window
    scale, and points y inside, near and outside its grid."""
    d = draw(st.integers(1, 3))
    shape = draw(st.tuples(*[st.integers(1, {1: 14, 2: 9, 3: 6}[d])] * d))
    mask = draw(arrays(bool, shape))
    assume(mask.any())
    h = draw(st.floats(0.01, 1.0))
    origin = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    box = tuple((o, o + h * n) for o, n in zip(origin, shape))
    dom = GridDomain(h=h, origin=origin, mask=mask, box=box)
    make = draw(st.sampled_from([make_cosine_window, make_bump_window]))
    win = scale(make(d), draw(st.floats(0.3, 4.5)) * h)
    steps = st.tuples(*[st.floats(-3.0, n + 2.0) for n in shape])
    ys = [np.asarray(origin) + h * np.array(t)
          for t in draw(st.lists(steps, min_size=1, max_size=8))]
    return dom, win, ys


@given(case=masks_and_points(), xi=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_symbol_truncation_is_the_erosion_clearance(case, xi):
    # the symbol's flag, searched over its own cube, agrees with the clearance
    # erode computes over the whole grid, read at the node nearest y
    dom, win, ys = case
    op = assemble_euclidean(dom)
    r = int(math.ceil(win.epsilon / dom.h))
    clear = lattice_dist2(np.pad(~dom.mask, 1, constant_values=True), r)
    for y in ys:
        sv = rayleigh_symbol(op, win, xi[:dom.d], y)
        k = tuple(np.clip(np.round((y - np.asarray(dom.origin)) / dom.h),
                          0, np.asarray(dom.shape) - 1).astype(int))
        want = math.isnan(sv.value) or not dom.mask[k] \
            or dom.h * np.sqrt(clear[tuple(i + 1 for i in k)]) + dom.h < win.epsilon
        assert sv.truncated == want


def _longdouble_rayleigh(op, window, xi, y):
    """Re <e, A e> / <e, e> in long double from the assembled float64 matrix
    and the float64 window samples at the nodes."""
    A = op.matrix.tocoo()
    coords = np.asarray(op.grid.origin) + op.grid.h * op.nodes
    g = window_at(window, coords - y).astype(np.longdouble)
    theta = coords.astype(np.longdouble) @ np.asarray(xi, dtype=np.longdouble)
    cross = g[A.row] * g[A.col] * np.cos(theta[A.row] - theta[A.col])
    return np.sum(A.data.astype(np.longdouble) * cross) / np.sum(g * g)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no more precise than float64")
@pytest.mark.parametrize("kind, d, box, h", [
    ("euclidean", 1, ((0.0, math.pi),), math.pi / 200.0),
    ("euclidean", 2, ((0.0, 1.0),) * 2, 1.0 / 70.0),
    ("hyperbolic", 2, ((0.0, 1.0),) * 2, 0.05),
])
def test_symbol_is_accurate_at_the_symbol_check_points(monkeypatch, kind, d, box, h):
    # the symbols symbol-check takes at h and h/2, against a long-double
    # quotient of the same matrix: no cancellation as h shrinks
    from weylcs import cli

    calls = []

    def recording(op, window, xi, y):
        calls.append((op, window, xi, y, rayleigh_symbol(op, window, xi, y)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "rayleigh_symbol", recording)
    cli._symbol_report(cli.ExperimentConfig(kind=kind, dim=d, box=box, h=h))
    assert len(calls) == 10
    for op, window, xi, y, (value, _) in calls:
        want = _longdouble_rayleigh(op, window, xi, y)
        assert abs(value - want) <= 1e-14 * abs(want)


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
    tr = trace_via_frame(fr, (np.arange(fr.n), np.arange(fr.n), np.ones(fr.n)))
    assert tr == pytest.approx(fr.n, rel=1e-12)


def test_trace_random_diagonal():
    fr = frame_1d(N=32, h=0.1)
    d = np.random.default_rng(5).random(fr.n)
    tr = trace_via_frame(fr, (np.arange(fr.n), np.arange(fr.n), d))
    assert abs(tr - d.sum()) <= 1e-10 * d.sum()


@pytest.mark.parametrize("T", [np.eye(16), scipy.sparse.eye_array(16).tocoo(),
                               [np.arange(16), np.arange(16), np.ones(16)],
                               (np.arange(16), np.arange(16))],
                         ids=["array", "sparse", "list", "pair"])
def test_trace_takes_only_triplets(T):
    # an array or a sparse matrix is not read: it names the one form
    with pytest.raises(ValueError, match=re.escape("T must be a tuple (row, col, value)")):
        trace_via_frame(frame_1d(N=16, h=0.1), T)


@pytest.mark.parametrize("d, N, eps", [(2, 16, 0.3), (1, 12, 0.58), (3, 8, 0.3)])
def test_trace_of_an_embedded_hyperbolic_operator(d, N, eps):
    # banded, sparse and off-diagonal: the xi-sums between distinct support
    # offsets must vanish for the trace to come out right.  The frame's grid
    # is the operator's, node for node, so its own triplets are read
    h = 0.1
    box = ((0.0, (N + 1) * h),) * d
    fr = build_frame(box, h, scale(make_cosine_window(d), eps))
    op = assemble_hyperbolic(rectangle_domain(box, h))
    assert fr.n == op.n == N ** d
    assert np.allclose(np.asarray(op.grid.origin) + op.grid.h * op.nodes,
                       np.asarray(fr.origin) + fr.h * np.indices(fr.shape).reshape(d, -1).T)
    A = op.matrix.tocoo()
    assert A.nnz > op.n
    tr = trace_via_frame(fr, (A.row, A.col, A.data))
    assert abs(tr - A.diagonal().sum()) <= 1e-12 * A.diagonal().sum()


@pytest.mark.parametrize("d, N", [(1, 24), (2, 8), (3, 5)])
def test_trace_triplets_match_the_dense_array(d, N):
    # symmetric, off-diagonal, complex Hermitian: the array's nonzero
    # triplets give its trace
    fr = build_frame(((0.0, (N + 1) * 0.1),) * d, 0.1, scale(make_cosine_window(d), 0.2))
    rng = np.random.default_rng(d)
    B = np.where(rng.random((fr.n, fr.n)) < 0.1, rng.standard_normal((fr.n, fr.n))
                 + 1j * rng.standard_normal((fr.n, fr.n)), 0.0)
    T = B + B.conj().T
    row, col = np.nonzero(T)
    assert trace_via_frame(fr, (row, col, T[row, col])) == pytest.approx(
        T.trace().real, rel=1e-12)


def test_trace_triplets_add_up_duplicates():
    fr = frame_1d(N=16, h=0.1)
    row, col = np.array([0, 0, 1, 2]), np.array([1, 1, 0, 2])
    tr = trace_via_frame(fr, (row, col, np.array([0.5, 0.5, 1.0, 3.0])))
    assert tr == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("triplets, message", [
    (([True], [True], [1.0]), "integer indices"),  # a mask, not indices
    ((0, 0, 1.0), "equal-length"),  # one triplet of scalars, not of 1-D arrays
    (([0, 1], [0], [1.0, 1.0]), "equal-length"),
    (([-1], [-1], [1.0]), "indices in 0..15"),
    (([16], [16], [1.0]), "indices in 0..15"),
    (([0], [16], [1.0]), "indices in 0..15"),
    (([0.0], [0.0], [1.0]), "integer indices"),
    (([0, 1], [0, 1], [1.0]), "equal-length"),
    (([[0]], [[0]], [[1.0]]), "equal-length"),
])
def test_trace_rejects_bad_triplets(triplets, message):
    fr = frame_1d(N=16, h=0.1)
    with pytest.raises(ValueError, match=message):
        trace_via_frame(fr, tuple(np.array(a) for a in triplets))


@pytest.mark.parametrize("make", [make_cosine_window, make_bump_window], ids=["cosine", "bump"])
@pytest.mark.parametrize("d, N", [(1, 24), (2, 8), (3, 5)])
def test_trace_of_a_nonsymmetric_operator(d, N, make):
    # tightness gives the trace of every operator: a random real T with no
    # symmetry, and the upper triangle of a symmetric one
    fr = build_frame(((0.0, (N + 1) * 0.1),) * d, 0.1, scale(make(d), 0.25))
    rng = np.random.default_rng(10 + d)
    B = np.where(rng.random((fr.n, fr.n)) < 0.2, rng.standard_normal((fr.n, fr.n)), 0.0)
    for T in (B, np.triu(B + B.T)):
        row, col = np.nonzero(T)
        tr = trace_via_frame(fr, (row, col, T[row, col]))
        assert abs(tr - T.trace()) <= 1e-12 * np.abs(T.diagonal()).sum()


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
        psi = smooth_bump(fr.origin[0] + fr.h * np.arange(fr.n), 1.0, 0.55)
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
        X, Y = np.meshgrid(*[o + fr.h * np.arange(m) for o, m in zip(fr.origin, fr.shape)],
                           indexing="ij")
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


def test_moment_reads_the_weight_at_the_box_coordinates():
    # the weight exp(2 y_1) xi_2^2 on a box shifted by a is exp(2 a_1) times
    # the weight on the box itself, at the same nodes and positions
    h, a = 0.05, (0.375, -1.25)
    box = ((0.0, 1.0), (0.0, 0.85))
    win = scale(make_cosine_window(2), 0.2)
    fr = build_frame(box, h, win)
    moved = build_frame(tuple((lo + s, hi + s) for (lo, hi), s in zip(box, a)), h, win)
    assert moved.shape == fr.shape == (19, 16)
    assert np.allclose(np.subtract(moved.origin, fr.origin), a, rtol=0.0, atol=1e-15)
    f = np.random.default_rng(8).standard_normal(fr.n)
    moment = phase_space_moment(fr, f, hyperbolic_weight)
    assert phase_space_moment(moved, f, hyperbolic_weight) == pytest.approx(
        math.exp(2.0 * a[0]) * moment, rel=1e-12, abs=0.0)


def moments_by_block(fr, f, weights, block=frames._BLOCK):
    """phase_space_moment of f for each weight with the block cap `block`,
    and the per-axis y indices of every block it analysed."""
    analysis, blocks = frames._analysis, []

    def spy(frame, g, ys):
        blocks.append(list(ys))
        return analysis(frame, g, ys)

    with mock.patch.object(frames, "_BLOCK", block), mock.patch.object(frames, "_analysis", spy):
        return [phase_space_moment(fr, f, w) for w in weights], blocks


def unit_weight(xi, y):
    return 1.0


def hyperbolic_weight(xi, y):
    return np.exp(2 * y[..., 0]) * xi[-1] ** 2


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_moment_blocks_match_the_full_transform(d, seed, data):
    # a cap of `rows` indices along y axis `lead`, plus a remainder below one
    # more, so the last block along that axis is shorter whenever rows does
    # not divide the ny = N + P - 1 positions of an axis
    N = data.draw(st.integers(3, {1: 40, 2: 12, 3: 6}[d]), label="N")
    h = 0.1
    eps = data.draw(st.floats(0.15, 0.49), label="eps") * N * h
    fr = build_frame(((0.0, (N + 1) * h),) * d, h, scale(make_cosine_window(d), eps))
    P, ny = fr.P, N + fr.P - 1
    lead = data.draw(st.integers(0, d - 1), label="lead")
    rows = data.draw(st.integers(1, ny), label="rows")
    per_row = ny ** (d - 1 - lead) * P ** d
    block = rows * per_row + data.draw(st.integers(0, per_row - 1), label="extra")
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    (unit, weighted), blocks = moments_by_block(fr, f, [unit_weight, hyperbolic_weight], block)
    # each pass tiles the grid of positions once, with blocks of consecutive
    # indices within the cap, or one y's P^d values if the cap is smaller
    blocks = [[y.tolist() for y in ys] for ys in blocks]
    first = blocks[:len(blocks) // 2]
    assert blocks == 2 * first
    assert sorted(p for ys in first for p in itertools.product(*ys)) == \
        list(itertools.product(range(ny), repeat=d))
    assert all(y == list(range(y[0], y[0] + len(y))) for ys in first for y in ys)
    assert all(math.prod(map(len, ys)) * P ** d <= max(block, P ** d) for ys in first)
    assert len(first) == 1 or ny ** d * P ** d > block
    F = forward(fr, f)
    assert unit == pytest.approx(np.sum(np.abs(F) ** 2) / P ** d, rel=1e-13, abs=0.0)
    # the same weight on the full (y, xi) grid, y-major and xi in FFT order,
    # at the positions y = origin + (i - R) h
    y = positions(fr)
    xi = np.stack(np.meshgrid(*[fr.xi_axis()] * d, indexing="ij"), axis=-1).reshape(-1, d)
    W = hyperbolic_weight(xi.T[:, None, :], y[:, None, :])
    full = np.sum(W * np.abs(F) ** 2) / P ** d
    assert weighted == pytest.approx(full, rel=1e-12, abs=0.0)


def test_moment_blocks_at_the_module_cap():
    # d = 2, N = 40, eps = 1.35: P = 19 and 58 positions per axis, so
    # 58 * 19^2 values per y_0, 50 of them fit 2^20
    fr = build_frame(((0.0, 4.1),) * 2, 0.1, scale(make_cosine_window(2), 1.35))
    f = np.random.default_rng(7).standard_normal(fr.n)
    (unit,), blocks = moments_by_block(fr, f, [unit_weight])
    assert frames._BLOCK == 2 ** 20 and fr.P == 19
    assert [(len(y0), len(y1)) for y0, y1 in blocks] == [(50, 58), (8, 58)]
    assert unit == pytest.approx(np.sum(np.abs(forward(fr, f)) ** 2) / fr.P ** 2,
                                 rel=1e-13, abs=0.0)
    assert unit == pytest.approx(fr.grid_norm_sq(f), rel=1e-13, abs=0.0)


@given(st.integers(1, 3), st.sampled_from([make_cosine_window, make_bump_window]),
       st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_frame_is_tight_for_any_support_within_the_grid(d, make, seed, data):
    # the support's side 2 eps/sqrt(d) is drawn up to (N - 1) h, one node
    # less than the grid's side L = N h; at the small end it holds one node
    N = data.draw(st.integers(2, {1: 40, 2: 12, 3: 6}[d]), label="N")
    h = data.draw(st.floats(0.01, 1.0), label="h")
    span = data.draw(st.floats(0.05, 1.0), label="span") * (N - 1) * h
    fr = build_frame(((0.0, (N + 1) * h),) * d, h, scale(make(d), span * math.sqrt(d) / 2.0))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    nf = fr.grid_norm_sq(f)
    assert abs(phase_space_moment(fr, f, unit_weight) - nf) <= 1e-13 * nf
    assert np.max(np.abs(adjoint(fr, forward(fr, f)) - f)) <= 1e-12
    B = np.where(rng.random((fr.n, fr.n)) < 0.1, rng.standard_normal((fr.n, fr.n)), 0.0)
    T = B + B.T
    row, col = np.nonzero(T)
    assert abs(trace_via_frame(fr, (row, col, T[row, col])) - T.trace()) <= 1e-12


@st.composite
def boxes_and_windows(draw):
    """A box in d = 1..3 with any lower corner and unequal sides, which h
    need not divide, at least two interior nodes along every axis, and a
    window whose support spans less than the nodes along every axis."""
    d = draw(st.integers(1, 3))
    h = draw(st.floats(0.01, 1.0))
    corner = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    steps = draw(st.lists(st.floats(2.5, {1: 41.0, 2: 13.0, 3: 7.0}[d]), min_size=d, max_size=d))
    box = tuple((a, a + t * h) for a, t in zip(corner, steps))
    nodes = min(map(len, rectangle_domain(box, h).occupancy[0]))
    span = draw(st.floats(0.05, 1.0)) * (nodes - 1) * h
    make = draw(st.sampled_from([make_cosine_window, make_bump_window]))
    return box, h, scale(make(d), span * math.sqrt(d) / 2.0)


@given(case=boxes_and_windows(), kind=st.sampled_from(["euclidean", "hyperbolic"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_frame_on_any_box_lives_on_the_operators_nodes(case, kind, seed):
    # the frame's grid is the operator's: the trace of its own coo triplets
    box, h, win = case
    dom = rectangle_domain(box, h)
    fr = build_frame(box, h, win)
    assert fr.n == int(dom.mask.sum())
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
    nf = fr.grid_norm_sq(f)
    assert abs(phase_space_moment(fr, f, unit_weight) - nf) <= 1e-13 * nf
    assert np.max(np.abs(adjoint(fr, forward(fr, f)) - f)) <= 1e-12
    A = (assemble_hyperbolic(dom) if kind == "hyperbolic" else assemble_euclidean(dom)).matrix
    A = A.tocoo()
    tr = trace_via_frame(fr, (A.row, A.col, A.data))
    assert abs(tr - A.diagonal().sum()) <= 1e-12 * A.diagonal().sum()


def test_phase_roundtrip(tmp_path):
    fr = frame_1d(N=32, h=0.1)
    rng = np.random.default_rng(9)
    F = forward(fr, rng.standard_normal(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(fr, F, path)
    back = load_phase(path, fr)
    ref = np.asarray(F, dtype=np.complex64)
    assert np.array_equal(np.asarray(back, dtype=np.complex64), ref)


def test_phase_file_layout(tmp_path):
    import struct

    fr = frame_1d(N=16, h=0.1)
    F = forward(fr, np.ones(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(fr, F, path)
    raw = path.read_bytes()
    assert raw[:8] == b"WCSPSF4\n"
    d, N = struct.unpack("<ii", raw[8:16])
    h, eps, s = struct.unpack("<ddd", raw[16:40])
    assert (d, N) == (1, 16)
    assert h == 0.1 and eps == 0.2 and s == fr.s
    # f(0.2) = 0 at eps = 0.2: the support is the offsets -1..1, P = 3, and
    # the 18 positions times 3 frequencies are the values
    assert fr.P == 3 and len(raw) == 40 + 8 * 18 * 3


def test_phase_load_rejects_another_window(tmp_path):
    # d = 1, N = 32, h = 0.05, eps = 0.2: both windows have P = 7, but their
    # lattice sums, which the values are normalized by, differ
    box, h = ((0.0, 33 * 0.05),), 0.05
    cosine = build_frame(box, h, scale(make_cosine_window(1), 0.2))
    bump = build_frame(box, h, scale(make_bump_window(1), 0.2))
    assert cosine.P == bump.P == 7 and abs(cosine.s - bump.s) > 5e-4
    path = tmp_path / "phase.bin"
    save_phase(cosine, forward(cosine, np.ones(cosine.n)), path)
    with pytest.raises(ValueError, match="written with another window"):
        load_phase(path, bump)
    assert load_phase(path, cosine).shape == (38, 7)


def test_phase_load_compares_h_relative_to_the_frame(tmp_path):
    # a frame at h = 3e-13 and one of the same shape at h = 1e-13 differ by
    # less than 1e-12 in absolute terms, but not relative to h
    fr, small = frame_1d(N=16, h=3e-13, eps=2e-13), frame_1d(N=16, h=1e-13, eps=2e-13)
    F = forward(fr, np.ones(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(fr, F, path)
    with pytest.raises(ValueError, match="does not match frame geometry"):
        load_phase(path, small)
    back = load_phase(path, fr)
    assert np.array_equal(back, np.asarray(F, dtype=np.complex64))


def test_phase_load_rejects_mismatch(tmp_path):
    fr = frame_1d(N=16, h=0.1)
    other = frame_1d(N=32, h=0.1)
    F = forward(fr, np.ones(fr.n))
    path = tmp_path / "phase.bin"
    save_phase(fr, F, path)
    with pytest.raises(ValueError, match="does not match frame geometry"):
        load_phase(path, other)
    # same geometry, another window scale
    with pytest.raises(ValueError, match="eps"):
        load_phase(path, frame_1d(N=16, h=0.1, eps=0.5))
    # a payload 16 bytes short (two values), and one with a byte too many:
    # the frame expects 18 positions times 3 frequencies
    data = path.read_bytes()
    for payload, found in [(data[:-16], "52"), (data + b"\0", "54.125")]:
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=f"file holds {found} values, the frame expects 54"):
            load_phase(path, fr)
    path.write_bytes(data[8:])  # no magic
    with pytest.raises(ValueError, match="not a phase-space file"):
        load_phase(path, fr)


def test_phase_load_rejects_a_malformed_header(tmp_path):
    import struct

    fr = frame_1d(N=32, h=0.05)
    path = tmp_path / "phase.bin"
    save_phase(fr, forward(fr, np.ones(fr.n)), path)
    data = path.read_bytes()
    # cut off after the magic or inside the 32-byte header
    for k in range(32):
        path.write_bytes(data[:8 + k])
        with pytest.raises(ValueError, match=f"truncated header: {k} of 32 bytes"):
            load_phase(path, fr)
    # h = nan, a nan s and a negative s, in an otherwise whole file
    eps = fr.window.epsilon
    for h, s, message in [(math.nan, fr.s, "does not match frame geometry"),
                          (fr.h, math.nan, "another window"), (fr.h, -fr.s, "another window")]:
        path.write_bytes(data[:16] + struct.pack("<ddd", h, eps, s) + data[40:])
        with pytest.raises(ValueError, match=message):
            load_phase(path, fr)

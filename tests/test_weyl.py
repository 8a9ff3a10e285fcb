"""Riesz means, leading terms, remainder fits, curve export."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_measure, li_yau_bound
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.eigen import Spectrum, dense_spectrum
from weylcs.operators import assemble_euclidean
from weylcs.weyl import (
    CURVE_HEADER,
    RieszCurve,
    UncertifiedTailError,
    build_curve,
    euclidean_leading,
    exact_spectrum_box,
    exact_spectrum_interval,
    fit_remainder_exponent,
    hyperbolic_leading,
    riesz_mean,
    save_curve,
    semiclassical_constant,
    unit_ball_volume,
    weighted_box_volume,
    weighted_volume,
)
from weylcs.windows import make_cosine_window


def test_semiclassical_constants():
    assert semiclassical_constant(1) == pytest.approx(4.0 / 3.0)
    assert semiclassical_constant(2) == pytest.approx(math.pi / 2.0)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_riesz_direct_sum():
    spec = exact_spectrum_interval(math.pi, 1e4)
    assert riesz_mean(spec, 100.0) == pytest.approx(615.0)


def test_riesz_edges():
    spec = exact_spectrum_interval(math.pi, 100.0)
    assert riesz_mean(spec, 1.0) == 0.0
    assert riesz_mean(spec, 2.5) == pytest.approx(1.5)


def test_riesz_uncertified_tail():
    spec = exact_spectrum_interval(math.pi, 10.0)
    with pytest.raises(UncertifiedTailError):
        riesz_mean(spec, 50.0)
    bad = Spectrum(values=np.array([1.0]), cutoff=None, certified=False)
    with pytest.raises(UncertifiedTailError):
        riesz_mean(bad, 5.0)


def test_riesz_mean_rejects_a_nan_lambda():
    # nan once passed the tail check and summed nothing; -inf sums nothing
    spec = exact_spectrum_interval(math.pi, 100.0)
    with pytest.raises(ValueError, match="lambda must be a number, got nan"):
        riesz_mean(spec, math.nan)
    assert riesz_mean(spec, -math.inf) == 0.0


def test_exact_interval_spectra():
    assert np.array_equal(exact_spectrum_interval(math.pi, 10.0).values,
                          [1.0, 4.0, 9.0])
    assert len(exact_spectrum_interval(math.pi, 1.0).values) == 0
    vals = exact_spectrum_interval(1.0, 100.0).values
    ref = np.array([math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2])
    assert np.allclose(vals, ref, rtol=1e-14)
    for L in (0.0, -1.0):
        with pytest.raises(ValueError, match="L must be positive"):
            exact_spectrum_interval(L, 100.0)
    # about 3e153 modes, and 2e18, whose int64 array passes numpy's size cap:
    # named before any array is made
    for lam in (1e308, 4e37):
        with pytest.raises(ValueError, match=re.escape(f"lam={lam!r} on a side of length 1.0")):
            exact_spectrum_interval(1.0, lam)


def test_exact_box_spectra():
    assert np.allclose(exact_spectrum_box((math.pi, math.pi), 5.0).values, [2.0])
    vals = exact_spectrum_box((math.pi, math.pi), 9.0).values
    assert np.allclose(vals, [2.0, 5.0, 5.0, 8.0])
    assert len(exact_spectrum_box((math.pi, math.pi), 2.0).values) == 0


def test_exact_box_spectrum_needs_a_side():
    # a box with no side once returned the single eigenvalue 0.0
    with pytest.raises(ValueError, match="at least one side"):
        exact_spectrum_box((), 5.0)


def test_exact_spectra_name_a_nan_input():
    # lam = nan once read as "too many exact modes below lam=nan"
    with pytest.raises(ValueError, match="Lam must be a number, got nan"):
        exact_spectrum_interval(1.0, math.nan)
    with pytest.raises(ValueError, match="Lam must be a number, got nan"):
        exact_spectrum_box((1.0, 2.0), math.nan)
    with pytest.raises(ValueError, match="L must be positive, got nan"):
        exact_spectrum_interval(math.nan, 100.0)


def test_euclidean_leading_closed_forms():
    assert euclidean_leading(math.pi, 1, 100.0) == pytest.approx(2000.0 / 3.0)
    lam = 37.0
    assert euclidean_leading(math.pi ** 2, 2, lam) == \
        pytest.approx(math.pi * lam ** 2 / 8.0)
    assert euclidean_leading(1.0, 3, 0.0) == 0.0


def test_li_yau_is_leading_term():
    assert li_yau_bound(math.pi, 1, 100.0) == euclidean_leading(math.pi, 1, 100.0)
    spec = exact_spectrum_interval(math.pi, 1e4)
    assert riesz_mean(spec, 100.0) <= li_yau_bound(math.pi, 1, 100.0)


def test_hyperbolic_leading_closed_form():
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 50)
    ref = (1.0 - math.exp(-1.0)) / (8.0 * math.pi)
    assert hyperbolic_leading(dom, 1.0) == pytest.approx(ref, rel=1e-12)
    assert hyperbolic_leading(dom, 0.0) == 0.0


def test_hyperbolic_leading_d1_is_euclidean():
    dom = rectangle_domain(((0.0, math.pi),), math.pi / 100)
    assert hyperbolic_leading(dom, 50.0) == euclidean_leading(math.pi, 1, 50.0)


def test_hyperbolic_leading_is_the_phase_space_integral():
    # midpoint rule for (2 pi)^-2 int_(0,1)^2 int (1 - xi_1^2 - exp(2 y_1) xi_2^2)_+,
    # whose integrand vanishes off |xi_a| < 1 since exp(2 y_1) >= 1; the y_2
    # integral is 1
    n = 64
    mid = (np.arange(n) + 0.5) / n
    y1, xi1, xi2 = np.meshgrid(mid, 2.0 * mid - 1.0, 2.0 * mid - 1.0, indexing="ij")
    integrand = np.clip(1.0 - xi1 ** 2 - np.exp(2.0 * y1) * xi2 ** 2, 0.0, None)
    integral = integrand.sum() * 4.0 / n ** 3 / (2.0 * math.pi) ** 2
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 50)
    assert hyperbolic_leading(dom, 1.0) == pytest.approx(integral, rel=1e-3)


def _plain(dom):
    """dom's mask under a box with sides twice its rows', so exact_box is None."""
    return GridDomain(h=dom.h, origin=dom.origin, mask=dom.mask,
                      box=tuple((a, 2.0 * b - a) for a, b in dom.box))


def test_hyperbolic_leading_mask_fallback():
    h = 1 / 1000
    plain = _plain(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    assert plain.exact_box is None
    ref = (1.0 - math.exp(-1.0)) / (8.0 * math.pi)
    # lattice sum over interior nodes misses an O(h) boundary strip
    assert hyperbolic_leading(plain, 1.0) == pytest.approx(ref, rel=3 * h)


@pytest.mark.parametrize("kind, box, want", [
    ("euclidean", ((0.0, 2.0),), 2.0),
    ("hyperbolic", ((0.0, 2.0),), 2.0),
    ("euclidean", ((0.0, 1.0), (0.0, 0.5)), 0.5),
    ("hyperbolic", ((0.0, 1.0), (0.0, 1.0)), 1.0 - math.exp(-1.0)),
    ("hyperbolic", ((0.5, 1.0), (0.0, 2.0)), 2.0 * (math.exp(-0.5) - math.exp(-1.0))),
    ("euclidean", ((0.0, 1.0), (0.0, 0.5), (0.0, 1.0)), 0.5),
    ("hyperbolic", ((0.0, 1.0),) * 3, (1.0 - math.exp(-2.0)) / 2.0),
])
def test_weighted_volume_closed_forms_and_lattice_sums(kind, box, want):
    h = 1 / 100
    dom = rectangle_domain(box, h)
    assert weighted_volume(kind, dom) == weighted_box_volume(kind, box) \
        == pytest.approx(want, rel=1e-14)
    # the lattice sum over interior nodes misses an O(h) boundary strip
    plain = _plain(dom)
    assert plain.exact_box is None
    assert weighted_volume(kind, plain) == pytest.approx(want, abs=3 * h)
    # against the node sum h^d sum e^{-k x_1} over the true nodes, which for
    # the euclidean kind is the node count times h^d, to the bit
    k = len(box) - 1 if kind == "hyperbolic" else 0
    x1 = plain.origin[0] + h * np.nonzero(plain.mask)[0]
    nodes = float(np.sum(np.exp(-k * x1))) * h ** len(box)
    if kind == "euclidean":
        assert weighted_volume(kind, plain) == nodes == plain.mask.sum() * h ** len(box)
    else:
        assert weighted_volume(kind, plain) == pytest.approx(nodes, rel=1e-14, abs=0.0)


def test_weighted_volume_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="elliptic"):
        weighted_volume("elliptic", rectangle_domain(((0.0, 1.0),), 0.1))
    with pytest.raises(ValueError, match="elliptic"):
        weighted_box_volume("elliptic", ((0.0, 1.0),))


def test_build_curve_ratio_increases_to_one():
    spec = exact_spectrum_interval(math.pi, 2e4)
    curve = build_curve(spec, [1e2, 1e3, 1e4], math.pi, make_cosine_window(1))
    assert np.all(np.diff(curve.ratio) > 0)
    assert curve.ratio[-1] < 1.0
    assert curve.ratio[-1] > 0.99


@pytest.mark.parametrize("d, vol", [(1, math.pi), (2, 0.75)])
def test_build_curve_leading_is_the_euclidean_term_of_the_volume(d, vol):
    # the one leading-term rule: the weighted volume in, euclidean_leading
    # at the window's dimension out, bit for bit
    spec = Spectrum(values=np.empty(0), cutoff=1e4, certified=True)
    lams = np.geomspace(10.0, 1e4, 7)
    curve = build_curve(spec, lams, vol, make_cosine_window(d))
    assert curve.leading.tolist() == [euclidean_leading(vol, d, lam) for lam in lams]


def test_build_curve_empty_spectrum():
    spec = Spectrum(values=np.empty(0), cutoff=1e4, certified=True)
    curve = build_curve(spec, [10.0, 100.0], 1.0, make_cosine_window(1))
    assert np.all(curve.riesz == 0.0)


def test_build_curve_requires_increasing_grid():
    spec = exact_spectrum_interval(math.pi, 1e3)
    with pytest.raises(ValueError):
        build_curve(spec, [100.0, 100.0], 1.0, make_cosine_window(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_curve_rejects_a_grid_that_is_not_finite(bad):
    # before the other checks: a nan passes the strict-increase test and
    # once surfaced as "leading term not finite at lambda = nan"
    spec = exact_spectrum_interval(math.pi, 1e3)
    with pytest.raises(ValueError, match=f"lambda grid must be finite, got {bad!r}") as info:
        build_curve(spec, [10.0, 100.0, bad], 1.0, make_cosine_window(1))
    assert type(info.value) is ValueError


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_build_curve_rejects_a_lambda_at_or_below_zero(lam):
    # eps = lambda^(-1/3) is inf at 0 and nan below
    spec = exact_spectrum_interval(math.pi, 1e3)
    with pytest.raises(OverflowError, match="leaves the float range"):
        build_curve(spec, [lam, 100.0], 1.0, make_cosine_window(1))


def test_riesz_convexity_and_slope_counts():
    spec = exact_spectrum_interval(math.pi, 2e3)
    lams = np.linspace(100.0, 1000.0, 31)
    r = np.array([riesz_mean(spec, lam) for lam in lams])
    assert np.all(np.diff(r) >= 0)
    slopes = np.diff(r) / np.diff(lams)
    assert np.all(np.diff(slopes) >= -1e-9)
    # between consecutive eigenvalues the slope equals the counting function
    vals = spec.values
    a, b = 150.0, 155.0
    count = int(np.sum(vals < a))
    assert (riesz_mean(spec, b) - riesz_mean(spec, a)) / (b - a) == \
        pytest.approx(count)


def test_two_term_heuristic_square():
    spec = exact_spectrum_box((math.pi, math.pi), 2100.0)
    lam = 2000.0
    ratio = riesz_mean(spec, lam) / euclidean_leading(math.pi ** 2, 2, lam)
    assert ratio == pytest.approx(1.0 - 16.0 / (3.0 * math.pi * math.sqrt(lam)),
                                  abs=0.01)


def test_riesz_domain_monotonicity_discrete():
    h = 1 / 20
    big = dense_spectrum(assemble_euclidean(
        rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)))
    small = dense_spectrum(assemble_euclidean(
        rectangle_domain(((0.0, 0.7), (0.0, 1.0)), h)))
    for lam in (50.0, 200.0, 800.0):
        assert riesz_mean(small, lam) <= riesz_mean(big, lam) + 1e-9


def test_fit_synthetic_power_law():
    lams = np.geomspace(1e2, 1e4, 12)
    curve = RieszCurve(lambdas=lams, riesz=2.0 * lams, leading=lams,
                       remainder=lams, ratio=2.0 * np.ones_like(lams),
                       epsilon=lams ** (-1.0 / 3.0), c1=lams, c2=lams,
                       c3=lams)
    fit = fit_remainder_exponent(curve)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_needs_five_samples():
    lams = np.array([1.0, 2.0, 3.0, 4.0])
    curve = RieszCurve(lambdas=lams, riesz=lams, leading=lams,
                       remainder=np.zeros_like(lams), ratio=np.ones_like(lams),
                       epsilon=lams, c1=lams, c2=lams, c3=lams)
    with pytest.raises(ValueError):
        fit_remainder_exponent(curve)


@given(st.floats(0.3, 2.0))
@settings(max_examples=20, deadline=None)
def test_fit_recovers_random_exponent(p):
    lams = np.geomspace(1e2, 1e4, 15)
    r = lams ** p
    curve = RieszCurve(lambdas=lams, riesz=r, leading=np.zeros_like(lams),
                       remainder=r, ratio=r, epsilon=lams, c1=lams, c2=lams,
                       c3=lams)
    assert fit_remainder_exponent(curve).slope == pytest.approx(p, abs=1e-10)


def test_save_curve_format(tmp_path):
    spec = exact_spectrum_interval(math.pi, 2e3)
    lams = np.geomspace(100.0, 1000.0, 6)
    curve = build_curve(spec, lams, math.pi, make_cosine_window(1))
    path = tmp_path / "curve.csv"
    save_curve(curve, path, comments=["source=test"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# source=test"
    assert lines[1] == CURVE_HEADER
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 6 and all(len(row) == 9 for row in data)
    assert float(data[0][0]) == lams[0]
    # 17 significant digits survive a write/parse roundtrip
    assert float(data[3][1]) == curve.riesz[3]


def test_measure_consistency():
    dom = rectangle_domain(((0.0, math.pi),), math.pi / 1000)
    assert abs(lattice_measure(dom) - math.pi) < 0.01

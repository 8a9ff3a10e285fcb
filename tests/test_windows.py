"""Window construction, scaling, and the c-constant quadratures."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import window_at
from weylcs.windows import (
    _factor_quad,
    c_constants,
    factor_deriv_sq,
    grad_norm_sq,
    make_bump_window,
    make_cosine_window,
    scale,
)


def factor_norm_sq(w):
    """int f^2 over the support of one axis, by the windows' quadrature."""
    return _factor_quad(lambda u: w.factor_value(u) ** 2, w.factor_half_width(), w.epsilon)


def test_cosine_d1_unit_norm():
    w = make_cosine_window(1)
    assert abs(factor_norm_sq(w) - 1.0) < 1e-10


def test_cosine_d1_deriv_energy():
    # int (g')^2 over (-1,1) with g = cos(pi u / 2) is pi^2/4
    w = make_cosine_window(1)
    assert abs(grad_norm_sq(w) - math.pi ** 2 / 4.0) < 1e-10


def test_cosine_d2_support_radius():
    w = make_cosine_window(2)
    # the support is the cube of half-width eps/sqrt(d) inside the ball of radius eps
    assert w.epsilon == 1.0
    a = 1.0 / math.sqrt(2.0)
    assert w.factor_half_width() == a
    assert window_at(w, np.array([a * 1.0001, 0.0])) == 0.0
    assert window_at(w, np.array([a * 0.999, a * 0.999])) != 0.0


def test_bump_d1_unit_norm():
    w = make_bump_window(1)
    assert abs(factor_norm_sq(w) - 1.0) < 1e-10


def test_bump_edge_decay():
    w = make_bump_window(1)
    assert abs(window_at(w, np.array([0.9999]))) < 1e-6
    # in d = 1 a scalar is one point
    assert window_at(w, 0.9999) == window_at(w, np.array([0.9999]))


def test_bump_deriv_energy_against_difference_quotient():
    # independent oracle: trapezoid quadrature of a central-difference derivative
    w = make_bump_window(1)
    u = np.linspace(-1.0, 1.0, 200001)
    delta = 1e-5
    g_plus = np.array([float(w.factor_value(x + delta)) for x in u[::100]])
    g_minus = np.array([float(w.factor_value(x - delta)) for x in u[::100]])
    dg = (g_plus - g_minus) / (2.0 * delta)
    oracle = np.trapezoid(dg ** 2, u[::100])
    assert abs(grad_norm_sq(w) - oracle) < 1e-8 * max(1.0, oracle)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_evenness(z1, z2):
    w = make_cosine_window(2)
    z = np.array([z1, z2])
    assert window_at(w, z) == pytest.approx(window_at(w, -z), abs=1e-14)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_product_form(z1, z2):
    w = make_bump_window(2)
    z = np.array([z1, z2])
    prod = float(w.factor_value(z1)) * float(w.factor_value(z2))
    assert float(window_at(w, z)) == pytest.approx(prod, abs=1e-13)


def test_scale_identity():
    w = make_cosine_window(1)
    s = scale(w, 1.0)
    u = np.linspace(-1.0, 1.0, 37)
    assert np.array_equal(w.factor_value(u), s.factor_value(u))


def test_scale_preserves_norm():
    w = scale(make_cosine_window(1), 0.5)
    assert w.epsilon == 0.5
    assert abs(factor_norm_sq(w) - 1.0) < 1e-10


def test_scale_half_quadruples_deriv_energy():
    w = scale(make_cosine_window(1), 0.5)
    assert abs(grad_norm_sq(w) - math.pi ** 2) < 1e-9


@pytest.mark.parametrize("make", [make_cosine_window, make_bump_window])
def test_makers_reject_dimension_below_one(make):
    for d in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            make(d)


@pytest.mark.parametrize("make", [make_cosine_window, make_bump_window])
def test_makers_take_an_integer_dimension(make):
    # a float d once made a window whose first use raised "can't multiply
    # sequence by non-int of type 'float'"; True was taken as d = 1
    for d in (2.0, True, "2", None):
        with pytest.raises(ValueError, match=re.escape(f"an integer, not a bool, got {d!r}")):
            make(d)
    assert make(np.int64(2)).d == 2


def test_scale_rejects_nonpositive():
    # and the non-finite: a NaN or inf eps used to give a window of that epsilon
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            scale(make_cosine_window(1), eps)


def test_c_constants_cosine_d1_closed_forms():
    c = c_constants(make_cosine_window(1))
    assert c.c1 == pytest.approx(math.pi ** 2 / 4.0, abs=1e-10)
    assert c.c2 == 0.0
    c3_exact = math.sinh(2.0) * (0.5 - 2.0 / (4.0 + math.pi ** 2))
    assert c.c3 == pytest.approx(c3_exact, abs=1e-10)


@given(st.floats(0.05, 0.8))
@settings(max_examples=20, deadline=None)
def test_c1_exact_scaling(eps):
    w = make_cosine_window(2)
    c_a = c_constants(scale(w, eps))
    c_b = c_constants(scale(w, eps / 2.0))
    assert c_b.c1 == pytest.approx(4.0 * c_a.c1, rel=1e-8)


def test_c1_eps_squared_constant():
    w = make_cosine_window(2)
    vals = [c_constants(scale(w, e)).c1 * e ** 2 for e in (0.4, 0.2, 0.1)]
    assert max(vals) - min(vals) < 1e-8 * vals[0]


def test_c2_quadruples_on_halving():
    w = make_cosine_window(2)
    c_a = c_constants(scale(w, 0.2))
    c_b = c_constants(scale(w, 0.1))
    assert 3.5 <= c_b.c2 / c_a.c2 <= 4.5


def test_c3_monotone_to_one():
    w = make_cosine_window(2)
    c3 = [c_constants(scale(w, e)).c3 for e in (0.4, 0.2, 0.1, 0.05)]
    devs = [abs(v - 1.0) for v in c3]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert all(dev <= 0.2 * e for dev, e in zip(devs, (0.4, 0.2, 0.1, 0.05)))


def test_c3_deviation_is_second_order():
    # with even factors the first-order mollifier term cancels, so the
    # approach to 1 is quadratic in eps; freeze the quadrature oracle here
    w = make_cosine_window(2)
    ratios = [(c_constants(scale(w, e)).c3 - 1.0) / e ** 2
              for e in (0.4, 0.2, 0.1, 0.05)]
    assert ratios[-1] == pytest.approx(0.1308, abs=2e-3)
    assert max(ratios) / min(ratios) < 1.02


def test_bump_c_constants_finite_and_positive():
    c = c_constants(scale(make_bump_window(3), 0.25))
    assert c.c1 > 0 and c.c2 > 0 and c.c3 > 0
    assert math.isfinite(c.c1) and math.isfinite(c.c2)


def test_factor_deriv_matches_quad_of_profile():
    # cross-check the stored derivative against direct quadrature of the profile
    w = scale(make_bump_window(2), 0.3)
    a = w.factor_half_width()
    val, _ = quad(lambda u: float(w.factor_deriv(u)) ** 2, -a, a,
                  epsabs=1e-12, limit=400)
    assert factor_deriv_sq(w) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("make", [make_cosine_window, make_bump_window])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tanh_sinh_rule_matches_quad(make, d):
    # every factor integral behind c_constants, against adaptive quadrature
    for eps in (0.01, 0.1, 0.3, 1.0):
        w = scale(make(d), eps)
        a = w.factor_half_width()
        for f in (lambda u: w.factor_value(u) ** 2,
                  lambda u: w.factor_deriv(u) ** 2,
                  lambda u: np.exp(2.0 * u) * w.factor_value(u) ** 2):
            ref, _ = quad(lambda u: float(f(u)), -a, a, epsabs=0.0, epsrel=1.2e-14, limit=500)
            assert _factor_quad(f, a) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_c_constants_overflow_raises():
    # c3 integrates exp(2 z_1) over the support, which overflows at eps = 1000
    with pytest.raises(OverflowError):
        c_constants(scale(make_cosine_window(1), 1000.0))


def test_factor_quad_raises_on_overflow_division_and_invalid_but_not_underflow():
    for f in (lambda u: np.exp(1e3 + u), lambda u: 1.0 / (u - u), lambda u: (u - u) / (u - u)):
        with pytest.raises(OverflowError, match="float range at eps = 0.5"):
            _factor_quad(f, 1.0, 0.5)
    assert _factor_quad(lambda u: np.exp(-1e3 + u), 1.0) == 0.0

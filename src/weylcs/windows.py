"""Compactly supported separable windows and their scaling constants.

A window is the product g(z) = f(z_1) * ... * f(z_d) of one even,
unit-normalized one-dimensional profile f taken along each axis.  At scale
eps its support is the cube |z_a| < eps/sqrt(d) (Window.factor_half_width),
which lies in the ball of radius eps; rescaling keeps the L^2 norm.  The
three constants returned by :func:`c_constants` are

    c1 = int (d/dz_1 g^eps)^2 dz
    c2 = int e^{2 z_1} |grad_tilde g^eps|^2 dz
    c3 = int e^{2 z_1} (g^eps)^2 dz

where grad_tilde collects the derivatives along axes 2..d.  Since every axis
has the same unit-norm profile, each is a one-dimensional integral over the
support of f, where the integrand is smooth, by one fixed tanh-sinh rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tanh-sinh rule on [-1, 1]: nodes tanh(pi/2 sinh t) at t = k * 2^-6, |t| <= 3.2.
# The nodes cluster at the ends, where the window integrands vanish or stay
# smooth, so this step integrates them to rounding (at about 1e-16 relative).
_TS_STEP = 2.0 ** -6
_TS_T = _TS_STEP * np.arange(-int(3.2 / _TS_STEP), int(3.2 / _TS_STEP) + 1)
_TS_NODES = np.tanh(0.5 * np.pi * np.sinh(_TS_T))
_TS_WEIGHTS = (_TS_STEP * 0.5 * np.pi * np.cosh(_TS_T)
               / np.cosh(0.5 * np.pi * np.sinh(_TS_T)) ** 2)


@dataclass(frozen=True)
class Window:
    """Product window g = f(z_1) ... f(z_d) of one profile f at scale eps.

    The stored profile f and its derivative are the base (eps = 1) ones, an
    even function supported on |u| <= 1/sqrt(d); evaluation applies the
    L^2-preserving rescaling u -> eps^{-1/2} f(u/eps) on every axis.
    """

    d: int
    epsilon: float
    profile: Callable[[np.ndarray], np.ndarray]
    profile_deriv: Callable[[np.ndarray], np.ndarray]

    def factor_value(self, u):
        u = np.asarray(u, dtype=float)
        e = self.epsilon
        return self.profile(u / e) / math.sqrt(e)

    def factor_deriv(self, u):
        u = np.asarray(u, dtype=float)
        e = self.epsilon
        return self.profile_deriv(u / e) / (e * math.sqrt(e))

    def factor_half_width(self):
        """Half-width of the profile's support, 1/sqrt(d) at eps = 1."""
        return (1.0 / math.sqrt(self.d)) * self.epsilon


def _cosine_profile(d):
    a = 1.0 / math.sqrt(d)
    amp = d ** 0.25
    om = math.pi * math.sqrt(d) / 2.0

    def value(u):
        return np.where(np.abs(u) < a, amp * np.cos(om * u), 0.0)

    def deriv(u):
        return np.where(np.abs(u) < a, -amp * om * np.sin(om * u), 0.0)

    return value, deriv


def _bump_profile(d):
    a = 1.0 / math.sqrt(d)
    sd = math.sqrt(d)

    def raw(u):
        t = sd * u
        inside = np.abs(t) < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - t * t, 1.0)), 0.0)

    norm = math.sqrt(_factor_quad(lambda u: raw(u) ** 2, a))

    def value(u):
        return raw(u) / norm

    def deriv(u):
        t = sd * u
        inside = np.abs(t) < 1.0
        denom = np.where(inside, (1.0 - t * t) ** 2, 1.0)
        return np.where(inside, raw(u) / norm * (-2.0 * t * sd) / denom, 0.0)

    return value, deriv


def _unit_window(d, profile):
    """The window of the profile and derivative pair profile(d) on every
    axis at eps = 1; ValueError unless the dimension d is an integer (a
    numpy one too, but not a bool) >= 1."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be >= 1 and an integer, not a bool, got {d!r}")
    return Window(d, 1.0, *profile(d))


def make_cosine_window(d):
    """Separable cosine window: profile d^{1/4} cos(pi sqrt(d) u / 2) on |u| <= 1/sqrt(d).

    Closed-form norm and derivative integrals make it the reference window
    for exact oracles; it is Lipschitz but not C^1 at the support edge.
    ValueError unless the dimension d is an integer >= 1.
    """
    return _unit_window(d, _cosine_profile)


def make_bump_window(d):
    """Smooth bump window with profile ~ exp(-1/(1-(sqrt(d) u)^2)), numerically
    normalized; ValueError unless the dimension d is an integer >= 1."""
    return _unit_window(d, _bump_profile)


def scale(w: Window, eps: float) -> Window:
    """Mollifier rescaling g -> eps^{-d/2} g(./eps); norm preserved, support
    shrunk.  The one check of eps: ValueError unless 0 < eps < inf."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return Window(w.d, w.epsilon * eps, w.profile, w.profile_deriv)


def _factor_quad(f, a, eps=1.0):
    """int_{-a}^{a} f(u) du by the tanh-sinh rule for the window at scale eps;
    f maps an array of u to an array.  OverflowError naming eps when f
    overflows, divides by zero or takes an invalid value; an underflow, as
    at the edge of the bump, is no error."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return float(a * (_TS_WEIGHTS @ f(a * _TS_NODES)))
        except FloatingPointError as exc:
            raise OverflowError(f"the window constants leave the float range at "
                                f"eps = {eps:g} ({exc})") from exc


def factor_deriv_sq(w: Window) -> float:
    return _factor_quad(lambda u: w.factor_deriv(u) ** 2, w.factor_half_width(), w.epsilon)


def grad_norm_sq(w: Window) -> float:
    """int |grad g^eps|^2 dz; d equal terms, since the other factors have unit norm."""
    return sum([factor_deriv_sq(w)] * w.d)


@dataclass(frozen=True)
class CConstants:
    c1: float
    c2: float
    c3: float


def c_constants(w: Window) -> CConstants:
    """Quadrature values of the three window constants at the window's scale."""
    c1 = factor_deriv_sq(w)
    c3 = _factor_quad(lambda u: np.exp(2.0 * u) * w.factor_value(u) ** 2,
                      w.factor_half_width(), w.epsilon)
    # 0 for d = 1; summed term by term, not (d - 1) * c1, which rounds differently
    c2 = c3 * sum([c1] * (w.d - 1))
    return CConstants(c1=c1, c2=c2, c3=c3)

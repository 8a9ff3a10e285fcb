"""Compactly supported separable windows and their scaling constants.

A window is a product g(z) = f_1(z_1) * ... * f_d(z_d) of even, unit-normalized
one-dimensional profiles, supported in the unit ball.  Rescaling by eps keeps
the L^2 norm and shrinks the support to a ball of radius eps.  The three
constants returned by :func:`c_constants` are

    c1 = int (d/dz_1 g^eps)^2 dz
    c2 = int e^{2 z_1} |grad_tilde g^eps|^2 dz
    c3 = int e^{2 z_1} (g^eps)^2 dz

where grad_tilde collects the derivatives along axes 2..d.  Every integral
is over the support of one factor, where the integrand is smooth, and uses
one fixed tanh-sinh rule.
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


class SeparabilityError(ValueError):
    """Raised when an operation requires a separable window."""


@dataclass(frozen=True)
class FactorProfile:
    """Even 1-D profile supported on |u| <= half_width (at scale eps=1)."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    half_width: float


@dataclass(frozen=True)
class Window:
    """Separable product window at scale eps.

    The stored factor profiles are the base (eps = 1) profiles; evaluation
    applies the L^2-preserving rescaling u -> eps^{-1/2} f(u/eps) per factor.
    """

    d: int
    epsilon: float
    factors: tuple[FactorProfile, ...]
    support_radius: float
    separable: bool = True

    def factor_value(self, j, u):
        u = np.asarray(u, dtype=float)
        e = self.epsilon
        return self.factors[j].value(u / e) / math.sqrt(e)

    def factor_deriv(self, j, u):
        u = np.asarray(u, dtype=float)
        e = self.epsilon
        return self.factors[j].deriv(u / e) / (e * math.sqrt(e))

    def factor_half_width(self, j):
        return self.factors[j].half_width * self.epsilon

    def __call__(self, z):
        """Evaluate g^eps at points z of shape (..., d) (or scalar/1-D if d=1)."""
        z = np.asarray(z, dtype=float)
        if self.d == 1 and (z.ndim == 0 or z.shape[-1] != 1):
            z = z[..., None]
        out = np.ones(z.shape[:-1], dtype=float)
        for j in range(self.d):
            out = out * self.factor_value(j, z[..., j])
        return out


def _cosine_profile(d):
    a = 1.0 / math.sqrt(d)
    amp = d ** 0.25
    om = math.pi * math.sqrt(d) / 2.0

    def value(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < a, amp * np.cos(om * u), 0.0)

    def deriv(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < a, -amp * om * np.sin(om * u), 0.0)

    return FactorProfile(value=value, deriv=deriv, half_width=a)


def _bump_profile(d):
    a = 1.0 / math.sqrt(d)
    sd = math.sqrt(d)

    def raw(u):
        u = np.asarray(u, dtype=float)
        t = sd * u
        inside = np.abs(t) < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - t * t, 1.0)), 0.0)
        return val

    norm = math.sqrt(_factor_quad(lambda u: raw(u) ** 2, a))

    def value(u):
        return raw(u) / norm

    def deriv(u):
        u = np.asarray(u, dtype=float)
        t = sd * u
        inside = np.abs(t) < 1.0
        denom = np.where(inside, (1.0 - t * t) ** 2, 1.0)
        return np.where(inside, raw(u) / norm * (-2.0 * t * sd) / denom, 0.0)

    return FactorProfile(value=value, deriv=deriv, half_width=a)


def make_cosine_window(d):
    """Separable cosine window: each factor d^{1/4} cos(pi sqrt(d) u / 2) on |u| <= 1/sqrt(d).

    Closed-form norm and derivative integrals make it the reference window
    for exact oracles; it is Lipschitz but not C^1 at the support edge.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Window(d=d, epsilon=1.0, factors=tuple(_cosine_profile(d) for _ in range(d)),
                  support_radius=1.0)


def make_bump_window(d):
    """Smooth bump window with factors ~ exp(-1/(1-(sqrt(d) u)^2)), numerically normalized."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Window(d=d, epsilon=1.0, factors=tuple(_bump_profile(d) for _ in range(d)),
                  support_radius=1.0)


def scale(w: Window, eps: float) -> Window:
    """Mollifier rescaling g -> eps^{-d/2} g(./eps); norm preserved, support shrunk."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Window(d=w.d, epsilon=w.epsilon * eps, factors=w.factors,
                  support_radius=w.support_radius * eps, separable=w.separable)


def _factor_quad(f, a):
    """int_{-a}^{a} f(u) du by the tanh-sinh rule; f maps an array of u to
    an array.  An overflow in f raises OverflowError."""
    with np.errstate(over="raise"):
        try:
            return float(a * (_TS_WEIGHTS @ f(a * _TS_NODES)))
        except FloatingPointError as exc:
            raise OverflowError(str(exc)) from exc


def factor_norm_sq(w: Window, j: int) -> float:
    a = w.factor_half_width(j)
    return _factor_quad(lambda u: w.factor_value(j, u) ** 2, a)


def factor_deriv_sq(w: Window, j: int) -> float:
    a = w.factor_half_width(j)
    return _factor_quad(lambda u: w.factor_deriv(j, u) ** 2, a)


def grad_norm_sq(w: Window) -> float:
    """int |grad g^eps|^2 dz; factorizes since the other factors have unit norm."""
    return sum(factor_deriv_sq(w, j) for j in range(w.d))


@dataclass(frozen=True)
class CConstants:
    c1: float
    c2: float
    c3: float


def c_constants(w: Window) -> CConstants:
    """Quadrature values of the three window constants at the window's scale."""
    if not w.separable:
        raise SeparabilityError("separability required")
    a0 = w.factor_half_width(0)
    c1 = factor_deriv_sq(w, 0)
    c3 = _factor_quad(lambda u: np.exp(2.0 * u) * w.factor_value(0, u) ** 2, a0)
    if w.d == 1:
        c2 = 0.0
    else:
        tilde = sum(factor_deriv_sq(w, j) for j in range(1, w.d))
        c2 = c3 * tilde
    return CConstants(c1=c1, c2=c2, c3=c3)

"""Riesz means, phase-space leading terms, and remainder-exponent fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import GridDomain, measure
from .eigen import Spectrum
from .windows import Window, c_constants, make_cosine_window, scale


class UncertifiedTailError(ValueError):
    pass


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def semiclassical_constant(d):
    """C_d = int (1 - |xi|^2)_+ d xi = vol(B_d) * 2/(d+2)."""
    return unit_ball_volume(d) * 2.0 / (d + 2.0)


def riesz_mean(spec: Spectrum, lam: float) -> float:
    """Sum of (lam - lambda_k)_+ over the certified spectrum."""
    if not spec.certified:
        raise UncertifiedTailError("spectrum is not certified")
    if spec.cutoff is not None and spec.cutoff < lam:
        raise UncertifiedTailError(
            f"uncertified tail: cutoff {spec.cutoff} < lambda {lam}")
    vals = spec.values
    return float(np.sum(lam - vals[vals < lam]))


def exact_spectrum_interval(L: float, Lam: float) -> Spectrum:
    """Dirichlet eigenvalues (k pi / L)^2 strictly below Lam."""
    if L <= 0:
        raise ValueError("L must be positive")
    kmax = int(math.floor(L * math.sqrt(max(Lam, 0.0)) / math.pi)) + 1
    k = np.arange(1, kmax + 1)
    vals = (k * math.pi / L) ** 2
    return Spectrum(values=vals[vals < Lam], cutoff=Lam, certified=True)


def exact_spectrum_box(lengths, Lam: float) -> Spectrum:
    """Dirichlet box eigenvalues, sums of per-axis (k pi / L_j)^2, below Lam."""
    combos = np.zeros(1)
    for L in lengths:
        axis = exact_spectrum_interval(L, Lam).values
        combos = (combos[:, None] + axis[None, :]).ravel()
        combos = combos[combos < Lam]
    return Spectrum(values=np.sort(combos), cutoff=Lam, certified=True)


def euclidean_leading(vol: float, d: int, lam: float) -> float:
    """Weyl leading term vol * lam^{1+d/2} * C_d / (2 pi)^d."""
    if lam <= 0:
        return 0.0
    return vol * lam ** (1.0 + d / 2.0) * semiclassical_constant(d) / (2.0 * math.pi) ** d


def li_yau_bound(vol: float, d: int, lam: float) -> float:
    """Riesz-mean upper bound; coincides with the Weyl leading term."""
    return euclidean_leading(vol, d, lam)


def hyperbolic_leading(dom: GridDomain, lam: float) -> float:
    """Leading term for the exp(2 x_1)-weighted operator.

    Substituting eta_tilde = exp(y_1) xi_tilde reduces the phase-space integral
    to C_d * int_Omega exp(-(d-1) y_1) dy; the y-integral is closed-form on
    rectangles and a lattice sum otherwise.
    """
    d = dom.d
    if d == 1:
        vol = (dom.exact_box[0][1] - dom.exact_box[0][0]) if dom.exact_box else measure(dom)
        return euclidean_leading(vol, 1, lam)
    if lam <= 0:
        return 0.0
    k = d - 1
    if dom.exact_box is not None:
        (a1, b1) = dom.exact_box[0]
        cross = 1.0
        for a, b in dom.exact_box[1:]:
            cross *= b - a
        integral = cross * (math.exp(-k * a1) - math.exp(-k * b1)) / k
    else:
        axes = tuple(range(1, d))
        counts = dom.mask.sum(axis=axes)
        y1 = dom.axis_coords(0)
        integral = float(np.sum(counts * np.exp(-k * y1))) * dom.h ** d
    return lam ** (1.0 + d / 2.0) * semiclassical_constant(d) * integral \
        / (2.0 * math.pi) ** d


def phase_space_volume(kind, dom: GridDomain, lam: float, resolution: int) -> float:
    """Midpoint quadrature of (lam - symbol)_+ (2 pi)^{-d} over xi, summed on the mask."""
    if kind not in ("euclidean", "hyperbolic"):
        raise ValueError(f"unknown kind {kind!r}")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if lam <= 0:
        return 0.0
    d = dom.d
    sq = math.sqrt(lam)

    def midpoints(bound):
        dxi = 2.0 * bound / resolution
        return -bound + dxi * (np.arange(resolution) + 0.5), dxi

    if kind == "euclidean" or d == 1:
        xi_parts = [midpoints(sq) for _ in range(d)]
        grids = np.meshgrid(*[p for p, _ in xi_parts], indexing="ij")
        sym = sum(g ** 2 for g in grids)
        cell = math.prod(dx for _, dx in xi_parts)
        integral = float(np.sum(np.clip(lam - sym, 0.0, None))) * cell
        return integral * measure(dom) / (2.0 * math.pi) ** d

    r = dom.y1_min
    xi1, dxi1 = midpoints(sq)
    tilde_bound = sq * math.exp(-r)
    tilde_parts = [midpoints(tilde_bound) for _ in range(d - 1)]
    tg = np.meshgrid(*[p for p, _ in tilde_parts], indexing="ij")
    tilde_sq = sum(g ** 2 for g in tg).ravel()
    cell = dxi1 * math.prod(dx for _, dx in tilde_parts)
    counts = dom.mask.sum(axis=tuple(range(1, d)))
    y1 = dom.axis_coords(0)
    active = counts > 0
    total = 0.0
    base = lam - xi1[:, None] ** 2  # (resolution, 1)
    for w, cnt in zip(np.exp(2.0 * y1[active]), counts[active]):
        vals = np.clip(base - w * tilde_sq[None, :], 0.0, None)
        total += float(cnt) * float(vals.sum())
    return total * cell * dom.h ** d / (2.0 * math.pi) ** d


@dataclass(frozen=True)
class RieszCurve:
    lambdas: np.ndarray
    riesz: np.ndarray
    leading: np.ndarray
    remainder: np.ndarray
    ratio: np.ndarray
    epsilon: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    meta: dict


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float
    lam_window: tuple


def build_curve(spec: Spectrum, lambdas, leading_fn, window: Window | None = None,
                eps_alpha: float = 1.0 / 3.0, meta: dict | None = None) -> RieszCurve:
    """Riesz means against the leading term on a lambda grid.

    The eps schedule eps = lambda^{-alpha} only feeds the diagnostic window
    constant columns; the leading term itself is eps-free.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    riesz = np.array([riesz_mean(spec, lam) for lam in lambdas])
    leading = np.array([leading_fn(lam) for lam in lambdas])
    eps = lambdas ** (-eps_alpha)
    if window is None:
        window = make_cosine_window(1)
    cc = [c_constants(scale(window, e)) for e in eps]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(leading != 0.0, riesz / leading, 0.0)
    return RieszCurve(
        lambdas=lambdas, riesz=riesz, leading=leading, remainder=riesz - leading,
        ratio=ratio, epsilon=eps,
        c1=np.array([c.c1 for c in cc]),
        c2=np.array([c.c2 for c in cc]),
        c3=np.array([c.c3 for c in cc]),
        meta=dict(meta or {}),
    )


def fit_remainder_exponent(curve: RieszCurve, lam_window=None) -> ExponentFit:
    """Least-squares slope of log|remainder| against log lambda."""
    lo, hi = lam_window if lam_window is not None else (-np.inf, np.inf)
    sel = (curve.lambdas >= lo) & (curve.lambdas <= hi) & (curve.remainder != 0.0)
    if sel.sum() < 5:
        raise ValueError("need at least 5 samples with nonzero remainder")
    x = np.log(curve.lambdas[sel])
    y = np.log(np.abs(curve.remainder[sel]))
    (slope, intercept), res, *_ = np.polyfit(x, y, 1, full=True)
    residual = math.sqrt(res[0] / sel.sum()) if len(res) else 0.0
    lam_sel = curve.lambdas[sel]
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       residual=residual, lam_window=(float(lam_sel[0]), float(lam_sel[-1])))


CURVE_HEADER = "lambda,riesz,leading,remainder,ratio,epsilon,c1,c2,c3"


def save_curve(curve: RieszCurve, path, comments=()):
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(CURVE_HEADER + "\n")
        cols = (curve.lambdas, curve.riesz, curve.leading, curve.remainder,
                curve.ratio, curve.epsilon, curve.c1, curve.c2, curve.c3)
        for row in zip(*cols):
            fh.write(",".join("%.17g" % v for v in row) + "\n")

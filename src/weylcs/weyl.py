"""Riesz means, phase-space leading terms, and remainder-exponent fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import GridDomain, box_sides
from .eigen import Spectrum, separable_sums
from .operators import weighted_axes
from .windows import Window, c_constants, scale


class UncertifiedTailError(ValueError):
    pass


class LeadingOverflowError(OverflowError):
    """The leading term of a curve is not finite at a lambda of its grid."""


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def semiclassical_constant(d):
    """C_d = int (1 - |xi|^2)_+ d xi = vol(B_d) * 2/(d+2)."""
    return unit_ball_volume(d) * 2.0 / (d + 2.0)


def riesz_mean(spec: Spectrum, lam: float) -> float:
    """Sum of (lam - lambda_k)_+ over the certified spectrum; ValueError for
    a nan lam."""
    if math.isnan(lam):
        raise ValueError(f"lambda must be a number, got {lam!r}")
    if not spec.certified:
        raise UncertifiedTailError("spectrum is not certified")
    if spec.cutoff is not None and spec.cutoff < lam:
        raise UncertifiedTailError(
            f"uncertified tail: cutoff {spec.cutoff} < lambda {lam}")
    vals = spec.values
    return float(np.sum(lam - vals[vals < lam]))


def exact_spectrum_interval(L: float, Lam: float) -> Spectrum:
    """Dirichlet eigenvalues (k pi / L)^2 strictly below Lam; ValueError unless
    L > 0, Lam is a number and the L sqrt(Lam) / pi modes below Lam fit a
    numpy array."""
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    if math.isnan(Lam):
        raise ValueError(f"Lam must be a number, got {Lam!r}")
    modes = L * math.sqrt(max(Lam, 0.0)) / math.pi
    if not 8.0 * modes < np.iinfo(np.intp).max:  # numpy's cap in bytes; k holds int64
        raise ValueError(f"too many exact modes below lam={Lam!r} on a side of length {L!r}")
    k = np.arange(1, int(modes) + 2)
    vals = (k * math.pi / L) ** 2
    return Spectrum(values=vals[vals < Lam], cutoff=Lam, certified=True)


def exact_spectrum_box(lengths, Lam: float) -> Spectrum:
    """Dirichlet box eigenvalues, sums of per-axis (k pi / L_j)^2, below Lam;
    ValueError as exact_spectrum_interval, or for a box with no side."""
    axes = [exact_spectrum_interval(L, Lam).values for L in lengths]
    if not axes:
        raise ValueError("a box needs at least one side, got none")
    return Spectrum(values=separable_sums(axes, Lam), cutoff=Lam, certified=True)


def euclidean_leading(vol: float, d: int, lam: float) -> float:
    """Weyl leading term vol * lam^{1+d/2} * C_d / (2 pi)^d."""
    if lam <= 0:
        return 0.0
    return vol * lam ** (1.0 + d / 2.0) * semiclassical_constant(d) / (2.0 * math.pi) ** d


def weighted_box_volume(kind, box) -> float:
    """int_box exp(-k y_1) dy in closed form, with k as in weighted_volume.
    ValueError as in domains.box_sides; OverflowError naming the box when
    exp(-k a_1) overflows."""
    sides = box_sides(box)
    k = weighted_axes(kind, len(sides))
    try:
        sides[0] = (math.exp(-k * box[0][0]) - math.exp(-k * box[0][1])) / k if k else sides[0]
    except OverflowError as exc:
        raise OverflowError(f"exp(-{k} y_1) overflows on the box, got box={box!r}") from exc
    return math.prod(sides)


def weighted_volume(kind, dom: GridDomain) -> float:
    """int_Omega exp(-k y_1) dy, with k = operators.weighted_axes(kind, d): each
    exp(2 y_1)-weighted axis contributes exp(-y_1) to the phase-space volume.

    Closed form on an exact box, the lattice sum over the mask's rows otherwise.
    """
    k = weighted_axes(kind, dom.d)
    if dom.exact_box is not None:
        return weighted_box_volume(kind, dom.exact_box)
    counts = dom.mask.sum(axis=tuple(range(1, dom.d)))
    return float(np.sum(counts * np.exp(-k * dom.axis_coords(0)))) * dom.h ** dom.d


def hyperbolic_leading(dom: GridDomain, lam: float) -> float:
    """Leading term for the exp(2 x_1)-weighted operator.

    Substituting eta_tilde = exp(y_1) xi_tilde turns the phase-space integral
    into the euclidean one over the weighted volume int_Omega exp(-(d-1) y_1) dy.
    """
    return euclidean_leading(weighted_volume("hyperbolic", dom), dom.d, lam)


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


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float


def build_curve(spec: Spectrum, lambdas, vol: float, window: Window) -> RieszCurve:
    """Riesz means against the leading term on a lambda grid.

    The leading term at each lambda is euclidean_leading(vol, window.d, lam),
    vol the weighted volume of the spectrum's domain (weighted_volume).  The
    fixed schedule eps = lambda^{-1/3} only feeds the diagnostic window
    constant columns, the constants of window (of the spectrum's dimension)
    scaled by eps; the leading term itself is eps-free.  LeadingOverflowError
    when a leading term is not finite (lambda too large), OverflowError when
    an eps is not finite and positive (a lambda <= 0) or when the window
    constants overflow at it; ValueError for a grid that is not finite or
    not strictly increasing.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lambdas)):
        bad = lambdas[~np.isfinite(lambdas)][0]
        raise ValueError(f"lambda grid must be finite, got {float(bad)!r}")
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    riesz = np.array([riesz_mean(spec, lam) for lam in lambdas])
    with np.errstate(over="ignore"):  # an overflow is reported below
        leading = np.array([euclidean_leading(vol, window.d, lam) for lam in lambdas])
    if not np.all(np.isfinite(leading)):
        raise LeadingOverflowError("leading term not finite at lambda = "
                                   f"{lambdas[~np.isfinite(leading)][0]:g}")
    with np.errstate(all="ignore"):
        eps = lambdas ** (-1.0 / 3.0)
    if not np.all(np.isfinite(eps) & (eps > 0.0)):
        raise OverflowError("eps = lambda^(-1/3) leaves the float range")
    cc = [c_constants(scale(window, e)) for e in eps]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(leading != 0.0, riesz / leading, 0.0)
    return RieszCurve(
        lambdas=lambdas, riesz=riesz, leading=leading, remainder=riesz - leading,
        ratio=ratio, epsilon=eps,
        c1=np.array([c.c1 for c in cc]),
        c2=np.array([c.c2 for c in cc]),
        c3=np.array([c.c3 for c in cc]),
    )


def fit_remainder_exponent(curve: RieszCurve) -> ExponentFit:
    """Least-squares slope of log|remainder| against log lambda.

    Samples with a zero remainder are left out.
    """
    sel = curve.remainder != 0.0
    if sel.sum() < 5:
        raise ValueError("need at least 5 samples with nonzero remainder")
    x = np.log(curve.lambdas[sel])
    y = np.log(np.abs(curve.remainder[sel]))
    (slope, intercept), res, *_ = np.polyfit(x, y, 1, full=True)
    residual = math.sqrt(res[0] / sel.sum()) if len(res) else 0.0
    return ExponentFit(slope=float(slope), intercept=float(intercept), residual=residual)


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

"""Eigenvalue computation with inertia certification.

Partial spectra are certified against the Sylvester inertia of A - lambda*I:
the number of eigenvalues below the shift, so a missed eigenvalue cannot go
unnoticed.

On a box, read from the mask alone (GridDomain.occupancy: its true nodes fill
their bounding box, as on a rectangle, an eroded rectangle or a loaded box
mask), the operator is a Kronecker sum A1 (x) I + diag(w) (x) A_tilde, with
A1 the 1-D Dirichlet second difference along x_1, w the tilde edge weight at
each x_1 (exp(2 x_1) or 1) and A_tilde the Dirichlet Laplacian of the other
axes, whose eigenvalues mu are sums of 4/h^2 sin^2(k pi / (2 (m + 1))).  The
sine transform of the tilde axes is orthogonal, so the spectrum is the union
over mu of the spectra of the tridiagonals A1 + mu*diag(w), and the count is
the sum of their counts.

The box path is numpy only, and it counts by one rule (_mode_counts).  As
min(w) I <= diag(w) <= max(w) I, eigenvalue k of mode mu lies in its Weyl
bracket [a1_k + mu*min(w), a1_k + mu*max(w)], with a1 the modes of A1: a
mode's count below a point is read from its brackets, and only a mode whose
bracket straddles the point takes a Sturm count (_sturm_counts, run down the
rows of all those tridiagonals at once; Barth, Martin & Wilkinson 1967,
backward stable).  The gate (_box_inertia) sums those counts at shift -/+ tol
and computes no eigenvalue; the eigenvalues below the certified shift come
from one routine, _box_values, which takes the counts at its two ends the
same way.  Where w is constant (every euclidean box and every d = 1 box) the
brackets have width zero: counts and values are both the closed form, the
sums of A1's modes and w*mu, and no Sturm count runs.  Where w varies,
multisection narrows the brackets down to the count's rounding level
(stebz's criterion).  Neither assembles the sparse matrix nor lists the
nodes: its largest entry, which sets tol, is DiscreteOperator.max_entry, read
from the edge weights at the occupied x_1 indices.

Elsewhere the count comes from a sparse LDL^T: SuperLU in symmetric mode with
a symmetric fill-reducing order and diagonal pivots only, whose negative
pivots give the inertia.  Without pivoting the factorization is not backward
stable in general, so a count is accepted only when every pivot, and the
distance from the shift to the spectrum, stand clear of the factorization's
rounding level.

Both paths answer each question in one shape.  A gate (_box_inertia,
_sparse_inertia) gives a count and a margin, resolved above 1; a value
search (_box_values, _slice_values) gives the values in a span, how they
were found and a bound on their error: the rounding of the closed form,
half the final bracket plus the rounding of the counts, or the residual
bound |theta - lambda_i| <= ||r|| (Parlett, The Symmetric Eigenvalue
Problem, ch. 4).

On either path one loop, _resolved, gives every count: the gate runs once,
at lambda, and a count it leaves unresolved is bracketed by two resolved
counts of the same path, at lambda - delta and lambda + 2*delta.
count_certificate, the count of count_below and spectrum_below, lets the
values between the two ends decide, each within its error bound of an
eigenvalue.  The shift stays lambda unless a value lies within that bound
plus tol of it; then it moves below the value, and only then does the count
warn, always for that one reason: lambda lies too close to an eigenvalue.

One routine, _values_between, finds the eigenvalues between two certified
counts, and it alone checks that the search found exactly the difference of
the counts: for spectrum_below from 0 with count 0 (both operators are
positive definite) to the certified shift, and for the bracket between its
two ends.  On a box they are the values of _box_values between the two
shifts: the ends of the Weyl brackets where those have width zero, the
multisection midpoints otherwise.  Elsewhere they come from spectrum
slicing (Ericsson-Ruhe 1980; Campos-Roman 2012): a span of more than _SLICE
eigenvalues that is wider than the bracket's first delta is cut at a count
of _resolved at its midpoint, the gate's or else the lower end of the
bracket, which searches no values and never warns, and each half is
searched the same way.  A half whose two counts are equal holds no
eigenvalue and costs nothing; in every other slice, shift-invert eigsh
centred in it must find exactly the slice's count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .operators import DiscreteOperator

DENSE_LIMIT = 5000
_SLICE = 128  # most eigenvalues in one slice (see _values_between)


class DenseLimitError(ValueError):
    pass


class CertificationError(RuntimeError):
    def __init__(self, found, expected):
        super().__init__(f"partial spectrum returned {found} eigenvalues, "
                         f"inertia count expects {expected}")
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class Certificate:
    """How a count was certified and how the values below it were found."""
    count_method: str  # "sturm" (box) or "sparse-ldl"
    count: int  # eigenvalues strictly below the shift
    shift: float  # the shift the count used: lambda, or below an eigenvalue at lambda
    bracketed: bool  # the gate at lambda was unresolved and a bracket decided the count
    # how far the count stands clear of its rounding level, the gate's
    # margin: on a box 2^j for the j leading rungs of equal counts (see
    # _box_inertia), within a factor 2 of the distance to the spectrum over
    # tol; elsewhere the smallest |pivot|, or the distance to the spectrum if
    # smaller, over the level of _sparse_inertia.  Above 1 is resolved; after
    # a bracket, the smaller margin of its two ends
    pivot_margin: float
    # "closed-form" (a box whose Weyl brackets all have width zero: a
    # constant tilde weight), "bisection" (a box whose brackets were
    # narrowed), "eigsh" (sliced), "eigvalsh" (a slice too large for eigsh,
    # count + 1 >= n, as on a mask of one or two nodes) or "none"
    value_method: str = "none"
    # a bound on the error of the values (see _box_values), read on a box
    # from the final brackets.  After closed-form (17 + 2d)*eps*max|A_ij| for
    # the rounding of the sums; after bisection half the widest final
    # bracket (each value is the midpoint of its bracket) plus
    # (20 + 2d)*eps*max|A_ij| for the rounding of the counts and of the
    # modes.  On the eigsh and eigvalsh paths the largest residual
    # |A v - theta v| of a unit eigenvector; nan for none, which has no values
    value_error: float = float("nan")


@dataclass(frozen=True)
class Spectrum:
    values: np.ndarray  # nondecreasing, with multiplicity
    cutoff: float  # every eigenvalue below it is listed; math.inf for a whole spectrum
    certified: bool
    certificate: Certificate | None = None  # never written to a file


def dense_spectrum(op: DiscreteOperator) -> Spectrum:
    """All eigenvalues by a dense symmetric solver, for n up to DENSE_LIMIT,
    in the ascending order LAPACK returns them."""
    import scipy.linalg  # slow import, needed here only

    return Spectrum(values=scipy.linalg.eigvalsh(_dense(op)), cutoff=math.inf, certified=True)


def _dense(op):
    """The matrix of op as a dense array; DenseLimitError for n above DENSE_LIMIT."""
    if op.n > DENSE_LIMIT:
        raise DenseLimitError(f"n={op.n} exceeds dense limit {DENSE_LIMIT}")
    return op.matrix.toarray()


def _start_vector(n, seed=0):
    """Fixed pseudo-random start vector: repeated runs give identical output."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _sparse_inertia(b, tol):
    """Negative count of a sparse LDL^T of b and its margin, resolved above 1.

    The count is None, with margin 0, when SuperLU found b exactly singular,
    met a zero pivot inside a supernode ("failed to factorize") or left the
    diagonal (a zero pivot made it pivot off it, so perm_r != perm_c and U's
    diagonal no longer carries the inertia).  The margin is the smallest
    pivot |d_k|, or the distance from zero to the spectrum of b if smaller,
    over the larger of tol and the LU rounding level: n*eps times the
    largest row sum of |L||D||L^T|.
    """
    import scipy.sparse.linalg  # slow import, needed here only

    n = b.shape[0]
    try:
        lu = scipy.sparse.linalg.splu(b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular" or "failed to factorize"
        if "singular" in str(exc) or "failed to factorize" in str(exc):
            return None, 0.0
        raise
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, 0.0
    U = lu.U  # a copy on each read
    d, U = U.diagonal(), abs(U)
    # The backward error is at most n*eps*|L||D||L^T| entrywise (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, ch. 9), so its
    # 2-norm at most n*eps times the largest row sum of that symmetric
    # product, which U = D L^T makes |U|^T |D|^-1 |U|: read from U alone.
    bound = max(tol, n * np.finfo(float).eps * (U.T @ (U @ np.ones(n) / np.abs(d))).max())
    # without pivoting, an eigenvalue of b near zero need not leave a small
    # pivot; two steps of inverse iteration from a fixed vector see it
    x = lu.solve(_start_vector(n))
    dist = np.linalg.norm(x) / np.linalg.norm(lu.solve(x)) / bound
    pivot = np.min(np.abs(d)) / bound
    return int(np.count_nonzero(d < 0.0)), float(min(pivot, dist))


def separable_sums(axes, upper):
    """The sorted sums below upper of one value from each increasing array of
    axes, added in axis order: the eigenvalues below upper of a Kronecker sum
    whose terms have those spectra (a single 0 for no axis)."""
    sums = np.zeros(1)
    for axis in axes:
        sums = (sums[:, None] + axis).ravel()
        sums = sums[sums < upper]
    return np.sort(sums)


class _Box(NamedTuple):
    """Separable structure of an operator on a filled box."""
    w: np.ndarray  # tilde edge weight at each x_1 index of the box
    mu: np.ndarray  # sorted eigenvalues of A_tilde (a single 0 for d=1)
    a1: np.ndarray  # increasing eigenvalues of A1


def _box_modes(op):
    """The _Box of an operator whose nodes fill their bounding box, or None.
    On m nodes an axis's second difference has the eigenvalues
    4/h^2 sin^2(k pi / (2 (m + 1))), k = 1..m."""
    axes, filled = op.grid.occupancy
    if not filled:
        return None
    modes = [4.0 / op.grid.h ** 2 * np.sin(np.arange(1, m + 1) * np.pi / (2.0 * (m + 1))) ** 2
             for m in map(len, axes)]
    return _Box(w=op.tilde_weight[axes[0]], mu=separable_sums(modes[1:], np.inf), a1=modes[0])


_EPS = np.finfo(float).eps
# Sturm counts per multisection sweep: up to about this many, a numpy call
# costs little more than its fixed overhead, so few values get many points each
_POINTS = 512


def _sturm_counts(w, mu, x, inv_h2, pivmin):
    """Eigenvalues below x of the symmetric tridiagonals with diagonal
    d_i = 2/h^2 + w_i*mu (mu broadcast against x) and off-diagonal -1/h^2:
    the negative terms of q_i = (d_i - x) - b^2/q_{i-1}, a |q_i| under pivmin
    taken as -pivmin as in LAPACK's stebz.  The rows are streamed, so the
    memory is that of x."""
    b2 = inv_h2 * inv_h2
    shape = np.broadcast_shapes(np.shape(mu), np.shape(x))
    count = np.zeros(shape, dtype=np.intp)
    q = np.full(shape, np.inf)  # so that b^2/q_{-1} = 0
    t = np.empty(shape)
    neg = np.empty(shape, dtype=bool)
    for wi in w:
        np.subtract(2.0 * inv_h2 + wi * mu, x, out=t)
        np.divide(b2, q, out=q)
        np.subtract(t, q, out=q)
        # every q_i under pivmin is negative once guarded: min(q_i, -pivmin)
        np.less(q, pivmin, out=neg)
        count += neg
        np.minimum(q, -pivmin, out=q, where=neg)
    return count


def _mode_counts(h, box, x):
    """Each tilde mode's count below each point of the array x, one row per
    mode that can reach max(x) (A1 is positive definite and mu >= 0, so a
    mode's eigenvalues lie above mu * min(w) for w of any sign), with those
    modes' mu, 1/h^2 and stebz's pivmin.

    As min(w) I <= diag(w) <= max(w) I, Weyl's inequality puts eigenvalue k
    of mode mu in its bracket [a1_k + mu*min(w), a1_k + mu*max(w)], a1 the
    modes of A1: a count is read from the brackets by a search in a1, and
    only a (mode, point) pair whose bracket straddles the point takes a
    Sturm count.  The read count is exact unless one of the mode's
    eigenvalues lies within the rounding of its bracket ends, (17 + d)
    eps*max|A_ij| (see _box_values), of the point."""
    w, a1 = box.w, box.a1
    mu = box.mu[box.mu * w.min() <= x.max()]
    inv_h2 = 1.0 / (h * h)
    pivmin = np.finfo(float).tiny * max(1.0, inv_h2 * inv_h2)
    count = np.searchsorted(a1, x - (mu * w.max())[:, None])
    modes, points = np.nonzero(np.searchsorted(a1, x - (mu * w.min())[:, None]) > count)
    if len(modes):
        count[modes, points] = _sturm_counts(w, mu[modes], x[points], inv_h2, pivmin)
    return count, mu, inv_h2, pivmin


# the gate's rungs r, doubling up to about the bracket's first delta, _DELTA*scale = 1e6*tol
_RUNGS = 2.0 ** np.arange(21)


def _box_inertia(h, box, shift, tol):
    """Eigenvalues below shift on a box and the margin, from _mode_counts alone.

    Each count of _mode_counts counts every eigenvalue below a point within
    a few eps*|A| << tol of the one asked: a Sturm count is the exact count
    of a matrix that near A (Barth, Martin & Wilkinson 1967; Demmel, Dhillon
    & Ren 1995), and a count read from the brackets is exact unless an
    eigenvalue lies within their rounding, (17 + d)*eps*max|A_ij|, of the
    point.  So an eigenvalue within that rounding of shift - tol is counted
    at shift + tol either way: a misread makes the two counts differ, and
    the count goes to the bracket.  Equal counts at shift -/+ tol are the
    count.  The margin is 2^j for the j leading rungs r with equal counts at
    shift -/+ r*tol: 1 when unresolved, else within a factor 2 of the
    distance to the spectrum over tol, or 2^21."""
    counts = _mode_counts(h, box, shift + tol * np.concatenate([-_RUNGS, _RUNGS]))[0].sum(axis=0)
    same = np.cumprod(counts[:len(_RUNGS)] == counts[len(_RUNGS):])
    return int(counts[0]), float(2.0 ** same.sum())


def _box_values(op, box, lower, upper):
    """Eigenvalues in [lower, upper) of the tridiagonals A1 + mu*diag(w), one
    per tilde mode, how they were found and a bound on their error.

    A mode's counts below lower and below upper come from _mode_counts, as
    the gate's do (at a lower end of 0, below every Weyl bracket of a
    positive definite operator, none is a Sturm count).  Where w is
    constant every bracket has width zero and its end is the closed form,
    the sum of A1's mode and w*mu (method "closed-form"); otherwise Sturm
    multisection narrows the brackets of the values between the two counts
    together down to the count's rounding level, stebz's criterion
    ("bisection").  The method is read from the final brackets, and so is
    the error: half the widest final bracket (each value is its midpoint)
    plus c*eps*M, with M = max|A_ij|, c = 17 + 2d for the closed form and
    c = 20 + 2d for bisection, as derived below.

    The bounds hold for nonnegative weights as assembled, with each
    rounding at most eps/2 relative, and every eigenvalue of A in [0, 2M]
    (Gershgorin).  A is the exact Kronecker sum of its own rounded weights,
    1/h^2 (eps) along x_1 and w/h^2 (3 eps/2) along the other axes, plus the
    rounding of its diagonal, summed from 2d weights: at most d*eps*M in the
    2-norm, so by Weyl's inequality each eigenvalue of A lies within d*eps*M
    of a sum of per-axis terms 4 w_a/h^2 sin^2(theta_a) of those weights,
    terms that add up to at most 2M.

    A closed-form value lies within c*eps*M of an eigenvalue of A,
    c = 17 + 2d.  Each mode 4/h^2 sin^2(theta) is within 7 eps of its exact
    value: 4/h^2 (eps), the angle (3 eps/2, which sin does not amplify below
    pi/2), sin (eps), the square and the product.  Against the matrix's
    rounded weight that makes 8 eps of the x_1 term; mu, a sum over d - 1
    axes (d/2 - 1 more), times w (eps/2) against the rounded w/h^2 (3 eps/2)
    makes (8 + d/2) eps of the tilde term.  So the terms are off by
    (16 + d) eps*M together, their sum rounds by eps*M more, and the diagonal
    adds d.

    A multisection value lies within half the widest final bracket plus
    c*eps*M of an eigenvalue of A, c = 20 + 2d.  Every diagonal entry d_i
    of a mode's tridiagonal and both ends of a Weyl bracket also lie in
    [0, 2M] (a1_k < 4/h^2 and mu*max(w) < 4(d - 1) max(w)/h^2, twice the
    two parts of the largest diagonal entry), and 1/h^2 <= M/2.  While the
    counts at both ends keep the invariant count(lo) <= k < count(hi) for
    value k, the terms of c are:

    - 2, the guarded recurrence (Barth, Martin & Wilkinson 1967): the count
      at x is the exact count of a tridiagonal within eps/2 |d_i - x| <= eps*M
      of each diagonal entry and within 3 eps/4 of each off-diagonal
      relative (b^2, b^2/q and the previous q each round once), 1.75 eps*M
      in the 2-norm, and the guard moves an entry by 2 pivmin at most, far
      less; by Weyl's inequality the eigenvalue lies in
      [lo - 2 eps*M, hi + 2 eps*M);
    - 17 + d, the closed-form mu: 4/h^2 (eps), the angle (3 eps/2, which sin
      does not amplify below pi/2), sin (eps), the square and the product
      give 7 eps per axis, and the sum over the d - 1 axes d/2 - 1 more;
      w*mu (eps/2) against the matrix's rounded weight w/h^2 (3 eps/2) makes
      (8 + d/2) eps of a term at most 2M, and 2/h^2 + w*mu rounds by eps*M;
    - d, the matrix's diagonal, summed from 2d weights, against the exact
      Kronecker sum;
    - 1, the midpoint.

    The counts may break that invariant at an end of a Weyl bracket, whose
    ends are sums of rounded modes: the eigenvalue the counts see may lie
    just outside it.  Then every point multisection counts lies on the same
    side of that eigenvalue, and the bracket converges to that end.  The
    eigenvalue of the exact Kronecker sum lies in its exact bracket, whose
    end is within the modes' rounding, (17 + d) eps*M, of the computed one;
    the eigenvalue the counts see is within 2 + 17 + d of it and beyond the
    computed end.  So the end lies within (19 + d) eps*M of the former, and
    with the diagonal's d and the midpoint's 1 the bound 20 + 2d stands.
    """
    w, a1 = box.w, box.a1
    counts, mu, inv_h2, pivmin = _mode_counts(op.grid.h, box, np.array([lower, upper]))
    first, count = counts[:, 0], counts[:, 1] - counts[:, 0]
    low, high = mu * w.min(), mu * w.max()
    mode = np.repeat(np.arange(len(mu)), count)
    index = np.arange(len(mode)) - np.repeat(np.cumsum(count) - count - first, count)
    lo = np.maximum(a1[index] + low[mode], lower)
    hi = np.minimum(a1[index] + high[mode], upper)
    method = "bisection" if np.any(hi != lo) else "closed-form"
    # converged as in LAPACK's stebz: to the rounding level of the count,
    # eps times 4/h^2 + mu*max|w|, a bound on the mode's eigenvalues
    floor = np.maximum(_EPS * (4.0 * inv_h2 + mu[mode] * np.abs(w).max()), pivmin)
    mu, rows = mu[mode, None], np.arange(len(mode))
    points = max(1, _POINTS // max(1, len(mode)))
    frac = np.arange(1, points + 1) / (points + 1.0)
    while np.any(hi - lo > np.maximum(floor, 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))):
        x = lo[:, None] + (hi - lo)[:, None] * frac
        past = np.sum(_sturm_counts(w, mu, x, inv_h2, pivmin) <= index[:, None], axis=1)
        ends = np.concatenate([lo[:, None], x, hi[:, None]], axis=1)
        lo, hi = ends[rows, past], ends[rows, past + 1]
    c = 17 if method == "closed-form" else 20
    error = 0.5 * np.max(hi - lo, initial=0.0) + (c + 2 * op.grid.d) * _EPS * op.max_entry
    return np.sort(0.5 * (lo + hi)), method, float(error)


def _shifted(op, shift):
    """A - shift*I in CSC form."""
    import scipy.sparse  # slow import, needed here only

    return op.matrix - shift * scipy.sparse.identity(op.n, format="csc")


# the bracket's first delta over scale = max|A_ij| + |lambda|: 1e6 times tol,
# so that its ends stand well clear of an eigenvalue at lambda and resolve,
# yet close enough that the bracket holds few eigenvalues to search
_DELTA = 1e-6


def _resolved(op, box, lam):
    """Two resolved (shift, count) ends around lam, their smaller margin and tol.

    At delta = 0 the path's gate runs once, at lam; while either end is
    unresolved, the ends are lam - delta and lam + 2*delta, delta widening
    from _DELTA*scale by 100x.  The bracket is asymmetric so that
    _slice_values does not centre its factorization on an eigenvalue at
    lambda; once delta is a few times scale both ends lie outside the
    spectrum and resolve.  Each distinct shift is counted once, in order.
    """
    scale = op.max_entry + abs(lam)
    if not np.isfinite(scale):  # an inf or nan entry: no count can be certified
        raise ValueError(f"operator entries must be finite, got max|A_ij| + |lam| = {scale!r}")
    tol = 1e-12 * scale
    delta = 0.0
    while True:
        ends = [(s, *(_sparse_inertia(_shifted(op, s), tol) if box is None
                      else _box_inertia(op.grid.h, box, s, tol)))
                for s in dict.fromkeys((lam - delta, lam + 2.0 * delta))]
        margin = min(end[2] for end in ends)
        if margin > 1.0:
            return ends[0][:2], ends[-1][:2], margin, tol
        delta = 100.0 * delta if delta else _DELTA * scale


def count_certificate(op: DiscreteOperator, lam: float) -> Certificate:
    """Certified inertia count of the eigenvalues strictly below lam and the
    shift it used: lam, or just below an eigenvalue within tol of lam."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    box = _box_modes(op)
    lo, hi, margin, tol = _resolved(op, box, lam)
    vals, _, error = _values_between(op, box, lo, hi)  # none when the counts are equal
    # each value lies within error of an eigenvalue; one within error + tol
    # of the shift counts as at lambda and moves the shift below it, but
    # never below lo, whose count is certified
    shift, gap = lam, tol + error
    for v in vals[::-1]:  # sorted
        if v > shift - gap:
            shift = min(shift, v - gap)
    shift = max(shift, lo[0])
    count = lo[1] + int(np.count_nonzero(vals < shift))
    if shift < lam:
        warnings.warn(f"count_below: shift perturbed to {float(shift)!r} "
                      "(lambda too close to an eigenvalue)")
    return Certificate(count_method="sparse-ldl" if box is None else "sturm", count=count,
                       shift=float(shift), bracketed=bool(lo[0] < lam), pivot_margin=margin)


def count_below(op: DiscreteOperator, lam: float) -> int:
    """Number of eigenvalues strictly below lam, via the inertia of A - lam*I."""
    return count_certificate(op, lam).count


def _slice_values(op, lo, hi, count):
    """The eigenvalues in [lo, hi), which its certified counts say number
    count, how they were found and a bound on their error.

    Shift-invert eigsh about the centre returns the count + 1 eigenvalues
    nearest it.  Every eigenvalue in the slice lies within (hi - lo)/2 of the
    centre and every other one at least that far, so those include the whole
    slice: a count that is too low leaves one value too many in it, one that
    is too high too few, and _values_between refuses either.

    Lanczos from one start vector sees one direction of each eigenspace, so it
    can miss copies of a multiple eigenvalue, which symmetric masks have.
    While the slice comes up short, eigsh runs again from a new start vector
    on the complement of the eigenvectors found so far.  The values are the
    Rayleigh quotients of the eigenvectors: sigma + 1/nu, what shift-invert
    gives, loses accuracy far from a centre that lies close to an eigenvalue.
    A slice of count + 1 >= n values, which eigsh cannot return, comes from
    one dense eigh instead; either way the error is the largest residual
    |A v - theta v| of the slice's unit eigenvectors.
    """
    import scipy.linalg  # slow imports, needed here only
    import scipy.sparse.linalg

    n = op.n
    if count + 1 >= n:
        # eigsh needs k < n: a matrix of at most _SLICE + 1 rows, or more
        # than _SLICE eigenvalues within a few tol that no split could separate
        theta, vecs = scipy.linalg.eigh(_dense(op))
        inside = (theta >= lo) & (theta < hi)
        vals, found, method = theta[inside], vecs[:, inside], "eigvalsh"
    else:
        sigma = 0.5 * (lo + hi)
        solve = scipy.sparse.linalg.splu(_shifted(op, sigma)).solve
        found = np.empty((n, 0))  # eigenvectors of the values in the slice so far
        vals, method = [], "eigsh"
        # every round but the last adds a value; a negative count (ends out
        # of order) runs none and fails _values_between's check
        for seed in range(count + 1):
            def project(x, q=found):
                return x - q @ (q.T @ x)

            inverse = scipy.sparse.linalg.LinearOperator(
                (n, n), matvec=lambda x: project(solve(project(x))), dtype=float)
            _, vecs = scipy.sparse.linalg.eigsh(
                op.matrix, k=count - len(vals) + 1, sigma=sigma, which="LM", OPinv=inverse,
                v0=project(_start_vector(n, seed)))
            av = op.matrix @ vecs
            theta = np.einsum("ij,ij->j", vecs, av)
            inside = (theta >= lo) & (theta < hi)
            vals.extend(theta[inside])
            found = np.hstack([found, vecs[:, inside]])
            if not inside.any() or len(vals) >= count:
                break
    residual = np.linalg.norm(op.matrix @ found - found * vals, axis=0)
    return np.sort(vals), method, float(np.max(residual, initial=0.0))


def _values_between(op, box, lo, hi):
    """The eigenvalues between two certified counts lo and hi, each a
    (shift, count) pair, how they were found and their error bound.

    On a box (box not None) they are the values of _box_values between the
    two shifts: no eigenvalue lies within tol of a certified shift, so the
    modes' counts there add up to lo's and hi's.  Elsewhere a span of more
    than _SLICE eigenvalues, wider than the bracket's first delta
    _DELTA*(max|A_ij| + |hi|), is cut into two spans, each searched by this
    routine, at the lower end that _resolved gives at its midpoint: the
    midpoint itself when the gate resolves there, else the lower end of the
    narrowest bracket that resolves, whose values are not searched.  The
    method and error are merged over the halves that hold values; any other
    span goes to _slice_values whole.  Either search must find exactly the
    difference of the counts, or CertificationError.  Equal counts have no
    values, found by "none" with a nan error, and cost nothing: no eigsh
    runs on a slice its counts show to be empty.
    """
    count = hi[1] - lo[1]
    if count == 0:
        return np.empty(0), "none", float("nan")
    # a narrower span goes whole: halving it would only close in on a
    # cluster, each midpoint bracketed on it
    if box is None and count > _SLICE and hi[0] - lo[0] > _DELTA * (op.max_entry + abs(hi[0])):
        cut = _resolved(op, box, 0.5 * (lo[0] + hi[0]))[0]
        # a cut at or below lo means more than _SLICE eigenvalues within a
        # few tol of the midpoint: no split can separate them
        if cut[0] > lo[0]:
            halves = [(lo, cut), (cut, hi)]
            parts = [p for p in (_values_between(op, box, *e) for e in halves) if p[1] != "none"]
            method = "eigvalsh" if any(m == "eigvalsh" for _, m, _ in parts) else "eigsh"
            error = float(np.max([e for _, _, e in parts]))
            return np.concatenate([v for v, _, _ in parts]), method, error
    if box is None:
        vals, method, error = _slice_values(op, lo[0], hi[0], count)
    else:
        vals, method, error = _box_values(op, box, lo[0], hi[0])
    if len(vals) != count:
        raise CertificationError(found=len(vals), expected=count)
    return vals, method, error


def spectrum_below(op: DiscreteOperator, lam: float) -> Spectrum:
    """All eigenvalues below lam, certified against the inertia count."""
    cert = count_certificate(op, lam)
    # both operators are positive definite: no eigenvalue below 0
    vals, method, error = _values_between(op, _box_modes(op), (0.0, 0), (cert.shift, cert.count))
    return Spectrum(values=vals, cutoff=lam, certified=True,
                    certificate=replace(cert, value_method=method, value_error=error))


def save_spectrum(spec: Spectrum, path, extra=()):
    """Text export: '#' header lines, namely the magic line, the cutoff (inf
    for a whole spectrum), certified and each line of extra, then one
    eigenvalue per line."""
    with open(path, "w") as fh:
        fh.write("# weylcs spectrum v1\n")
        fh.write("# cutoff=%.17g\n" % spec.cutoff)
        fh.write(f"# certified={str(spec.certified).lower()}\n")
        for line in extra:
            fh.write(f"# {line}\n")
        for v in spec.values:
            fh.write("%.17g\n" % v)


def _number(text):
    """float(text), or nan where text is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_spectrum(path) -> Spectrum:
    """Read a save_spectrum file; an empty or missing cutoff reads as
    math.inf, a whole spectrum.  ValueError naming the header key for a
    cutoff that is not a number or a certified other than true or false, and
    naming the line (counted from 1) and its text for a value that is not a
    finite number, is below the value before it, or is not below the cutoff.
    """
    header, lines = {}, []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    header[k.strip()] = v.strip()
            elif line:
                lines.append((i, line))
    cutoff = _number(header.get("cutoff") or "inf")
    if math.isnan(cutoff):
        raise ValueError(f"spectrum header: cutoff must be a number, got {header['cutoff']!r}")
    certified = header.get("certified", "false")
    if certified not in ("true", "false"):
        raise ValueError(f"spectrum header: certified must be true or false, got {certified!r}")
    vals = []
    for i, text in lines:
        v = _number(text)
        problem = ("is not a finite number" if not math.isfinite(v) else
                   "is below the value before it" if vals and v < vals[-1] else
                   f"is not below the cutoff {cutoff!r}" if not v < cutoff else None)
        if problem:
            raise ValueError(f"spectrum line {i}: {text!r} {problem}")
        vals.append(v)
    return Spectrum(values=np.asarray(vals), cutoff=cutoff, certified=certified == "true")

"""Eigenvalue computation with inertia certification.

Partial spectra are certified against the Sylvester inertia of A - lambda*I:
the number of eigenvalues below the shift, so a missed eigenvalue cannot go
unnoticed.

On a box (``GridDomain.exact_box`` set and the nodes filling their bounding
box) the operator is a Kronecker sum A1 (x) I + diag(w) (x) A_tilde, with A1
the 1-D Dirichlet second difference along x_1, w the tilde edge weight at each
x_1 (exp(2 x_1) or 1) and A_tilde the Dirichlet Laplacian of the other axes,
whose eigenvalues mu are sums of 4/h^2 sin^2(k pi / (2 (m + 1))).  The sine
transform of the tilde axes is orthogonal, so the spectrum is the union over
mu of the spectra of the tridiagonals A1 + mu*diag(w), and the count is the
sum of their Sturm counts (bisection, backward stable).  The eigenvalues below
the shift come out of the same bisection.

Elsewhere the count comes from a sparse LDL^T: SuperLU in symmetric mode with
a symmetric fill-reducing order and diagonal pivots only, whose negative
pivots give the inertia.  Without pivoting the factorization is not backward
stable in general, so a count is accepted only when every pivot, and the
distance from the shift to the spectrum, stand clear of the factorization's
rounding level.

On either path an unresolved count nudges the shift downward and, after three
unresolved attempts, falls back to a dense Bunch-Kaufman LDL^T, which pivots
and is stable.

Off a box the values below a certified count come from spectrum slicing
(Ericsson-Ruhe 1980; Campos-Roman 2012): [0, shift) is split at certified
counts into slices of at most _SLICE eigenvalues, and shift-invert eigsh
centred in each slice must find exactly the slice's count in it.  Both
operators are positive definite, so the first slice starts at 0 with count 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .operators import DiscreteOperator

DENSE_LIMIT = 5000
_SLICE = 128  # most eigenvalues in one slice (see _slice_ends)


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
    count_method: str  # "sturm" (box), "sparse-ldl" or "dense-ldl"
    count: int  # eigenvalues strictly below the shift
    shift: float  # the shift the count used, lambda or nudged below it
    nudges: int  # downward shift perturbations before the count resolved
    # how far the count stands clear of its rounding level (see _Gate): on a
    # box the distance from the shift to the nearest eigenvalue at or below
    # shift + tol, over tol; elsewhere the smallest |pivot|, or the distance to
    # the spectrum if smaller, over the level of _sparse_inertia.  Above 1 is
    # resolved
    pivot_margin: float
    # "bisection" (box), "eigsh" (sliced), "eigvalsh" (a slice too large for
    # eigsh, count + 1 >= n, as on a mask of one or two nodes) or "none"
    value_method: str = "none"


@dataclass(frozen=True)
class Spectrum:
    values: np.ndarray  # nondecreasing, with multiplicity
    cutoff: float | None
    certified: bool
    certificate: Certificate | None = None  # never written to a file


def dense_spectrum(op: DiscreteOperator, limit=DENSE_LIMIT) -> Spectrum:
    """All eigenvalues by a dense symmetric solver."""
    if op.n > limit:
        raise DenseLimitError(f"n={op.n} exceeds dense limit {limit}")
    vals = scipy.linalg.eigvalsh(op.matrix.toarray())
    return Spectrum(values=np.sort(vals), cutoff=None, certified=True)


def _inertia_negative(d):
    """Negative count and smallest |block eigenvalue| of the LDL^T middle factor."""
    n = d.shape[0]
    neg = 0
    min_abs = np.inf
    i = 0
    while i < n:
        if i + 1 < n and d[i, i + 1] != 0.0:
            a, b, c = d[i, i], d[i, i + 1], d[i + 1, i + 1]
            mean = 0.5 * (a + c)
            half = np.hypot(0.5 * (a - c), b)
            e1, e2 = mean - half, mean + half
            neg += (e1 < 0.0) + (e2 < 0.0)
            min_abs = min(min_abs, abs(e1), abs(e2))
            i += 2
        else:
            neg += d[i, i] < 0.0
            min_abs = min(min_abs, abs(d[i, i]))
            i += 1
    return neg, min_abs


def _start_vector(n, seed=0):
    """Fixed pseudo-random start vector: repeated runs give identical output."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


_NEAR_EIGENVALUE = "lambda too close to an eigenvalue"
_SMALL_PIVOT = "zero or small pivot in the unpivoted factorization"


class _Gate(NamedTuple):
    """A count is resolved when margin is above 1; cause names what held it
    down otherwise, in the nudge warning."""
    margin: float
    cause: str


def _sparse_inertia(b, tol):
    """Negative count of a sparse LDL^T of b (None if unusable) and its gate.

    The count is None when SuperLU left the diagonal (a zero pivot made it
    pivot off it, so perm_r != perm_c and U's diagonal no longer carries the
    inertia) or found b exactly singular.  It is resolved (margin above 1)
    when every pivot |d_k| and the distance from zero to the spectrum of b
    exceed both tol and the LU rounding level n*eps*max_k (|L||U|)_kk.
    """
    n = b.shape[0]
    try:
        lu = scipy.sparse.linalg.splu(b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        return None, _Gate(0.0, _NEAR_EIGENVALUE)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, _Gate(0.0, _SMALL_PIVOT)
    d = lu.U.diagonal()
    # diagonal of |L||U| without forming the product.  The largest entry,
    # not each row's own, bounds the backward error that can flip a sign: a
    # tiny pivot inflates the rows after it while its own row stays small.
    growth = np.asarray(abs(lu.L).multiply(abs(lu.U).T).sum(axis=1)).ravel()
    bound = max(tol, n * np.finfo(float).eps * growth.max())
    # without pivoting, an eigenvalue of b near zero need not leave a small
    # pivot; two steps of inverse iteration from a fixed vector see it
    x = lu.solve(_start_vector(n))
    dist = np.linalg.norm(x) / np.linalg.norm(lu.solve(x)) / bound
    pivot = np.min(np.abs(d)) / bound
    return int(np.count_nonzero(d < 0.0)), _Gate(
        float(min(pivot, dist)), _NEAR_EIGENVALUE if dist <= 1.0 else _SMALL_PIVOT)


def _box_modes(op):
    """(w, mu) of an operator on a filled box, or None.

    w is the tilde edge weight at each x_1 index of the box, mu the sorted
    eigenvalues of A_tilde (a single 0 for d=1).
    """
    if op.grid.exact_box is None:
        return None
    lo, hi = op.nodes.min(axis=0), op.nodes.max(axis=0)
    extent = hi - lo + 1
    if op.n != np.prod(extent):
        return None
    mu = np.zeros(1)
    for m in extent[1:]:
        axis = 4.0 / op.grid.h ** 2 * np.sin(np.arange(1, m + 1) * np.pi / (2.0 * (m + 1))) ** 2
        mu = (mu[:, None] + axis).ravel()
    return op.tilde_weight[lo[0]:hi[0] + 1], np.sort(mu)


def _box_values(h, w, mu, upper):
    """Sorted eigenvalues at or below upper: bisection on the tridiagonal
    A1 + mu*diag(w) of each tilde mode."""
    inv_h2 = 1.0 / (h * h)
    off = np.full(len(w) - 1, -inv_h2)
    w_min = w.min()
    found = [np.empty(0)]
    for m in mu:
        if w_min >= 0.0 and m * w_min > upper:
            # A1 is positive definite, so this block and every later one
            # (mu is sorted) lie above m * w_min
            break
        found.append(scipy.linalg.eigvalsh_tridiagonal(
            2.0 * inv_h2 + m * w, off, select="v", select_range=(-np.inf, upper)))
    return np.sort(np.concatenate(found))


def count_certificate(op: DiscreteOperator, lam: float) -> Certificate:
    """Certified inertia count of the eigenvalues strictly below lam and the
    shift it used, nudged downward off an eigenvalue."""
    return _count(op, lam)[0]


def count_below(op: DiscreteOperator, lam: float) -> int:
    """Number of eigenvalues strictly below lam, via the inertia of A - lam*I."""
    return count_certificate(op, lam).count


def _count(op, lam):
    """Certificate of the count and, on a box, the eigenvalues below its shift
    (None elsewhere)."""
    a = op.matrix.tocsc()
    eye = scipy.sparse.identity(op.n, format="csc")
    scale = abs(a).max() + abs(lam)
    tol = 1e-12 * scale
    box = _box_modes(op)
    method = "sparse-ldl" if box is None else "sturm"
    shift = lam
    values = None
    causes = []
    for attempt in range(3):
        # 2*tol per step: a nudge off an eigenvalue at lambda clears the gate
        shift = shift - 2.0 * tol * attempt
        if box is None:
            neg, gate = _sparse_inertia(a - shift * eye, tol)
        else:
            # bisection values carry errors of order eps*|A| << tol, so the
            # count is exact once no value lies within tol of the shift;
            # values above shift + tol are farther than that by construction
            near = _box_values(op.grid.h, *box, shift + tol)
            values = near[near < shift]
            neg = len(values)
            gate = _Gate(float(np.min(np.abs(near - shift), initial=np.inf) / tol),
                         _NEAR_EIGENVALUE)
        if gate.margin > 1.0:
            margin = gate.margin
            break
        causes.append(gate.cause)
    else:
        # three unresolved attempts: the pivoted dense factorization at the
        # last shift decides
        if op.n > DENSE_LIMIT:
            raise DenseLimitError(f"n={op.n} exceeds dense limit {DENSE_LIMIT} and the "
                                  "inertia count did not resolve")
        _, d, _ = scipy.linalg.ldl((a - shift * eye).toarray())
        neg, min_abs = _inertia_negative(d)
        method, margin = "dense-ldl", float(min_abs / tol)
    if attempt > 0:
        warnings.warn(f"count_below: shift perturbed to {float(shift)!r} "
                      f"({'; '.join(dict.fromkeys(causes))})")
    cert = Certificate(count_method=method, count=int(neg), shift=float(shift),
                       nudges=attempt, pivot_margin=margin)
    return cert, values


def _slice_ends(op, lo, hi):
    """Slice ends from lo to hi, each a (shift, count) pair: a slice that
    holds more than _SLICE eigenvalues is split at a certified count at its
    midpoint."""
    if hi[1] - lo[1] > _SLICE:
        mid = count_certificate(op, 0.5 * (lo[0] + hi[0]))
        # a nudged midpoint at or below lo means more than _SLICE eigenvalues
        # within a few tol: no split can separate them
        if mid.shift > lo[0]:
            return _slice_ends(op, lo, (mid.shift, mid.count))[:-1] + \
                _slice_ends(op, (mid.shift, mid.count), hi)
    return [lo, hi]


def _slice_values(op, lo, hi, count):
    """The count eigenvalues in [lo, hi), and how they were found.

    Shift-invert eigsh about the centre returns the count + 1 eigenvalues
    nearest it.  Every eigenvalue in the slice lies within (hi - lo)/2 of the
    centre and every other one at least that far, so those include the whole
    slice: a count that is too low leaves one value too many in it, one that
    is too high too few.

    Lanczos from one start vector sees one direction of each eigenspace, so it
    can miss copies of a multiple eigenvalue, which symmetric masks have.
    While the slice comes up short, eigsh runs again from a new start vector
    on the complement of the eigenvectors found so far.  The values are the
    Rayleigh quotients of the eigenvectors: sigma + 1/nu, what shift-invert
    gives, loses accuracy far from a centre that lies close to an eigenvalue.
    """
    n = op.n
    if count + 1 >= n:
        # eigsh needs k < n: a matrix of at most _SLICE + 1 rows, or more than
        # _SLICE eigenvalues within a few tol that no split could separate
        vals = dense_spectrum(op).values
        vals, method = vals[(vals >= lo) & (vals < hi)], "eigvalsh"
    else:
        a = op.matrix.tocsc()
        sigma = 0.5 * (lo + hi)
        solve = scipy.sparse.linalg.splu(a - sigma * scipy.sparse.identity(n, format="csc")).solve
        found = np.empty((n, 0))  # eigenvectors of the values in the slice so far
        vals, method = [], "eigsh"
        # every round but the last adds a value; a negative count (ends out
        # of order) runs none and fails the check below
        for seed in range(count + 1):
            def project(x, q=found):
                return x - q @ (q.T @ x)

            inverse = scipy.sparse.linalg.LinearOperator(
                (n, n), matvec=lambda x: project(solve(project(x))), dtype=float)
            _, vecs = scipy.sparse.linalg.eigsh(
                a, k=count - len(vals) + 1, sigma=sigma, which="LM", OPinv=inverse,
                v0=project(_start_vector(n, seed)))
            theta = np.einsum("ij,ij->j", vecs, a @ vecs)
            inside = (theta >= lo) & (theta < hi)
            vals.extend(theta[inside])
            if not inside.any() or len(vals) >= count:
                break
            found = np.hstack([found, vecs[:, inside]])
    if len(vals) != count:
        raise CertificationError(found=len(vals), expected=count)
    return np.sort(vals), method


def spectrum_below(op: DiscreteOperator, lam: float) -> Spectrum:
    """All eigenvalues below lam, certified against the inertia count."""
    cert, vals = _count(op, lam)
    if cert.count == 0:
        return Spectrum(values=np.empty(0), cutoff=lam, certified=True, certificate=cert)
    if vals is not None:
        # on a box the bisection that made the count also gave the values
        method = "bisection"
    else:
        # both operators are positive definite: no eigenvalue below 0
        ends = _slice_ends(op, (0.0, 0), (cert.shift, cert.count))
        parts = [_slice_values(op, lo, hi, c_hi - c_lo)
                 for (lo, c_lo), (hi, c_hi) in zip(ends, ends[1:])]
        vals = np.concatenate([v for v, _ in parts])
        method = "eigvalsh" if any(m == "eigvalsh" for _, m in parts) else "eigsh"
    return Spectrum(values=vals, cutoff=lam, certified=True,
                    certificate=replace(cert, value_method=method))


def save_spectrum(spec: Spectrum, path, kind="", h=None, extra=()):
    """Text export: header comments, then one eigenvalue per line."""
    with open(path, "w") as fh:
        fh.write("# weylcs spectrum v1\n")
        fh.write(f"# kind={kind}\n")
        fh.write("# h=%s\n" % ("" if h is None else "%.17g" % h))
        fh.write("# cutoff=%s\n" % ("" if spec.cutoff is None else "%.17g" % spec.cutoff))
        fh.write(f"# certified={str(spec.certified).lower()}\n")
        for line in extra:
            fh.write(f"# {line}\n")
        for v in spec.values:
            fh.write("%.17g\n" % v)


def load_spectrum(path) -> Spectrum:
    header = {}
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    header[k.strip()] = v.strip()
            else:
                vals.append(float(line))
    cutoff = float(header["cutoff"]) if header.get("cutoff") else None
    certified = header.get("certified", "false") == "true"
    return Spectrum(values=np.asarray(vals), cutoff=cutoff, certified=certified)

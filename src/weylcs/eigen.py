"""Eigenvalue computation with inertia certification.

Partial spectra are certified against the Sylvester inertia of A - lambda*I:
the negative-pivot count of a symmetric indefinite (Bunch-Kaufman) LDL^T
factorization equals the number of eigenvalues below the shift, so a missed
eigenvalue cannot go unnoticed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .operators import DiscreteOperator

DENSE_LIMIT = 5000


class DenseLimitError(ValueError):
    pass


class CertificationError(RuntimeError):
    def __init__(self, found, expected):
        super().__init__(f"partial spectrum returned {found} eigenvalues, "
                         f"inertia count expects {expected}")
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class Spectrum:
    values: np.ndarray  # nondecreasing, with multiplicity
    cutoff: float | None
    certified: bool


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


def count_below(op: DiscreteOperator, lam: float, limit=DENSE_LIMIT) -> int:
    """Number of eigenvalues strictly below lam, via LDL^T inertia of A - lam*I."""
    return _count_below(op, lam, limit)[0]


def _count_below(op, lam, limit):
    """Inertia count and the shift it used: nudged downward off an eigenvalue."""
    if op.n > limit:
        raise DenseLimitError(f"n={op.n} exceeds dense limit {limit}")
    a = op.matrix.toarray()
    scale = np.abs(a).max() + abs(lam)
    shift = lam
    for attempt in range(3):
        b = a - shift * np.eye(op.n)
        _, d, _ = scipy.linalg.ldl(b)
        neg, min_abs = _inertia_negative(d)
        if min_abs > 1e-12 * scale or attempt == 2:
            if attempt > 0:
                warnings.warn(f"count_below: shift perturbed to {shift!r} "
                              "(lambda too close to an eigenvalue)")
            return int(neg), shift
        shift = shift - 1e-12 * scale * (attempt + 1)
    raise AssertionError("unreachable")


def spectrum_below(op: DiscreteOperator, lam: float, limit=DENSE_LIMIT,
                   max_count=None) -> Spectrum:
    """All eigenvalues below lam, certified against the inertia count."""
    expected, shift = _count_below(op, lam, limit)
    if max_count is not None and expected > max_count:
        raise ValueError(f"expected {expected} eigenvalues, limit {max_count}")
    if expected == 0:
        return Spectrum(values=np.empty(0), cutoff=lam, certified=True)
    if op.n <= limit and (expected > op.n // 4 or expected >= op.n - 1):
        vals = scipy.linalg.eigvalsh(op.matrix.toarray())
        vals = vals[vals < shift]
    else:
        # shift-invert about zero: the operator is positive definite, so the
        # expected smallest eigenvalues are the largest of the inverse.  A
        # fixed start vector keeps the output identical from run to run.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.n)
        vals = scipy.sparse.linalg.eigsh(
            op.matrix.tocsc(), k=expected, sigma=0.0, which="LM", v0=v0,
            return_eigenvectors=False)
        vals = np.sort(vals)
        vals = vals[vals < shift]
    if len(vals) != expected:
        raise CertificationError(found=len(vals), expected=expected)
    return Spectrum(values=np.sort(vals), cutoff=lam, certified=True)


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

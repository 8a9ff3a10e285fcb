"""Discrete coherent-state transform on a periodized embedding grid.

The frame vectors are e_{xi,y}(x) = exp(i xi.x) g(x - y) with y on the same
lattice as x and xi on the discrete Fourier frequencies of the embedding box.
Restricting both indices this way makes the discrete Plancherel identity exact,
so after dividing by the window lattice sum

    s = h^d * sum_m g(m h)^2

the family is an exactly tight (Parseval) frame: the weighted phase-space norm
of the transform equals the grid L^2 norm to machine precision, and the trace
identity holds exactly for any symmetric operator on the embedding grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft
import scipy.sparse as sp

from .domains import _clearance
from .operators import DiscreteOperator, DimensionMismatchError
from .windows import Window, c_constants, grad_norm_sq

# values per batch of shifted windows: large enough to amortize the per-call
# FFT overhead, small enough that a batch and its transform stay in cache
_BATCH = 1 << 16


class FrameError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CoherentFrame:
    d: int
    N: int  # nodes per axis
    h: float
    window: Window
    g_grid: np.ndarray = field(repr=False)  # window sampled at wrapped lattice offsets
    s: float  # lattice sum, h^d * sum g^2

    @property
    def L(self):
        return self.N * self.h

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def n(self):
        return self.N ** self.d

    @property
    def weight_xi(self):
        return (2.0 * math.pi / self.L) ** self.d

    @property
    def weight_y(self):
        return self.h ** self.d

    @property
    def measure_normalizer(self):
        return (2.0 * math.pi) ** (-self.d)

    def xi_axis(self):
        """Fourier frequencies of one axis, in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.h)

    def y_axis(self):
        return self.h * np.arange(self.N)

    def grid_norm_sq(self, f):
        return self.weight_y * float(np.vdot(f, f).real)


def _shifted_windows(frame: CoherentFrame, ys=None):
    """Yield (rows, w) with w[k] = g(x - y_k) on the grid for the y-indices ys[rows].

    ys is an (m, d) array of lattice indices, all n of them in row-major order
    by default.  Shifts wrap around the torus; batches hold about _BATCH values.
    """
    d, N = frame.d, frame.N
    if ys is None:
        ys = np.indices(frame.shape).reshape(d, -1).T
    x = np.arange(N)
    step = max(1, _BATCH // frame.n)
    for start in range(0, len(ys), step):
        rows = slice(start, start + step)
        idx = tuple(((x - ys[rows, a, None]) % N).reshape((-1,) + (1,) * a + (N,)
                                                         + (1,) * (d - 1 - a))
                    for a in range(d))
        yield rows, frame.g_grid[idx]


def _windowed_dft(frame: CoherentFrame, w, f):
    """Unnormalized transform rows sum_x exp(-i xi.x) w[k](x) f(x), xi in FFT order."""
    return scipy.fft.fftn(w * f, axes=tuple(range(1, frame.d + 1)))


@dataclass(frozen=True, eq=False)
class PhaseSpaceFunction:
    """Transform values, indexed [y_flat, xi_flat] (y-major, xi in FFT order)."""

    values: np.ndarray
    frame: CoherentFrame

    def norm_sq(self):
        fr = self.frame
        w = fr.weight_xi * fr.weight_y * fr.measure_normalizer
        return w * float(np.sum(np.abs(self.values) ** 2))


def build_frame(box, h, window: Window) -> CoherentFrame:
    """Periodized frame on a cubic box of side L = N*h; requires 2*eps < L."""
    sides = [b - a for a, b in box]
    L = sides[0]
    if any(abs(sd - L) > 1e-12 * L for sd in sides):
        raise FrameError("embedding box must be cubic (equal sides)")
    N = int(round(L / h))
    if abs(N * h - L) > 1e-9 * L:
        raise FrameError("box side must be an integer multiple of h")
    d = window.d
    if len(box) != d:
        raise FrameError("box dimension does not match window dimension")
    if 2.0 * window.support_radius >= L:
        raise FrameError("window support wraps around the torus (2*eps >= L)")
    # wrapped lattice offsets m*h in [-L/2, L/2)
    offs = h * np.arange(N)
    offs = np.where(offs >= L / 2.0, offs - L, offs)
    grids = np.meshgrid(*([offs] * d), indexing="ij")
    pts = np.stack(grids, axis=-1)
    g_grid = window(pts)
    s = float(np.sum(g_grid ** 2)) * h ** d
    if s <= 0.0:
        raise FrameError("window vanishes on the lattice; reduce h")
    return CoherentFrame(d=d, N=N, h=h, window=window, g_grid=g_grid, s=s)


def forward(frame: CoherentFrame, f) -> PhaseSpaceFunction:
    """Windowed DFT: F[y, xi] = h^d / sqrt(s) * sum_x exp(-i xi.x) g(x-y) f(x)."""
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    fg = f.reshape(frame.shape)
    vals = np.empty((frame.n,) + frame.shape, dtype=complex)
    for rows, w in _shifted_windows(frame):
        vals[rows] = _windowed_dft(frame, w, fg)
    vals *= frame.h ** frame.d / math.sqrt(frame.s)
    return PhaseSpaceFunction(values=vals.reshape(frame.n, frame.n), frame=frame)


def adjoint(frame: CoherentFrame, F: PhaseSpaceFunction) -> np.ndarray:
    """Weighted synthesis; exact left inverse of forward (tight frame)."""
    if F.frame is not frame:
        raise FrameError("phase-space function belongs to a different frame")
    vals = F.values.reshape((frame.n,) + frame.shape)
    axes = tuple(range(1, frame.d + 1))
    acc = np.zeros(frame.shape, dtype=complex)
    for rows, w in _shifted_windows(frame):
        acc += np.sum(w * scipy.fft.ifftn(vals[rows], axes=axes), axis=0)
    return (acc / math.sqrt(frame.s)).reshape(frame.n)


def phase_space_moment(frame: CoherentFrame, f, weight) -> float:
    """Weighted second moment sum_{xi,y} W * weight(xi, y) * |forward(f)(xi, y)|^2.

    weight(xi_axes, y) receives the d per-axis frequency grids (FFT order,
    broadcastable) and the y coordinate vector, returning the weight over the
    xi grid.  Streams over y, so large frames never materialize the full
    transform.
    """
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    fg = f.reshape(frame.shape)
    xi = frame.xi_axis()
    xi_axes = np.meshgrid(*([xi] * frame.d), indexing="ij", sparse=True)
    ys = np.indices(frame.shape).reshape(frame.d, -1).T
    total = 0.0
    for rows, w in _shifted_windows(frame, ys):
        power = np.abs(_windowed_dft(frame, w, fg)) ** 2
        for y, p in zip(frame.h * ys[rows], power):
            total += float(np.sum(weight(xi_axes, y) * p))
    return total * frame.h ** (2 * frame.d) / (frame.s * frame.n)


class SymbolValue(NamedTuple):
    value: float
    truncated: bool


def rayleigh_symbol(op: DiscreteOperator, window: Window, xi, y) -> float:
    """Re <e, A e> / <e, e> for the coherent state e = exp(i xi.x) g(x - y)
    restricted to the operator's interior nodes; nan when e vanishes there."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    coords = op.node_coords()
    e = np.exp(1j * coords @ xi) * window(coords - y)
    nrm = np.vdot(e, e).real
    if nrm == 0.0:
        return math.nan
    return float(np.vdot(e, op.matrix @ e).real / nrm)


def symbol(frame: CoherentFrame, op: DiscreteOperator, xi, y) -> SymbolValue:
    """Discrete symbol Re <e, A e> / <e, e> of the operator at phase-space point (xi, y).

    The coherent state is restricted to the operator's interior nodes; if the
    window support sticks out of the domain the value is flagged truncated.
    """
    val = rayleigh_symbol(op, frame.window, xi, y)
    dom = op.grid
    idx = tuple(np.clip(np.round((np.atleast_1d(y) - np.asarray(dom.origin)) / dom.h)
                        .astype(int), 0, np.asarray(dom.shape) - 1))
    truncated = (math.isnan(val) or not dom.mask[idx]
                 or _clearance(dom)[idx] + dom.h < frame.window.support_radius)
    return SymbolValue(value=val, truncated=bool(truncated))


def analytic_symbol(kind, window: Window, xi, y=None) -> float:
    """Continuum symbol: |xi|^2 + grad-norm for the Laplacian; the hyperbolic
    operator adds the exp(2 y_1)-weighted tilde terms with the window constants."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if kind == "euclidean":
        return float(xi @ xi) + grad_norm_sq(window)
    if kind == "hyperbolic":
        c = c_constants(window)
        y1 = 0.0 if y is None else float(np.atleast_1d(y)[0])
        tilde_sq = float(xi[1:] @ xi[1:])
        return float(xi[0] ** 2 + math.exp(2.0 * y1) * (tilde_sq * c.c3 + c.c2) + c.c1)
    raise ValueError(f"unknown kind {kind!r}")


def trace_via_frame(frame: CoherentFrame, T) -> float:
    """Phase-space trace sum; equals trace(T) exactly for symmetric T (tightness).

    T may be dense or scipy.sparse; it is read column by column and never
    densified.  The sum is taken as sum_j <Phi delta_j, Phi(T delta_j)> with
    an explicit windowed DFT over xi, where for column j only the windows
    covering node j contribute.
    """
    T = sp.csc_array(T)
    n = frame.n
    if T.shape != (n, n):
        raise DimensionMismatchError(f"operator must be {n}x{n} on the embedding grid")
    if abs(T - T.conj().T).max() > 1e-12 * (abs(T).max() + 1.0):
        raise ValueError("operator must be symmetric")
    d = frame.d
    # column j pairs with every y = x_j - m for m in the window's support
    support = np.argwhere(frame.g_grid != 0.0)
    nodes = np.indices(frame.shape).reshape(d, -1).T
    ys = ((nodes[:, None, :] - support[None, :, :]) % frame.N).reshape(-1, d)
    cols = np.repeat(np.arange(n), len(support))
    total = 0.0
    for rows, w in _shifted_windows(frame, ys):
        j = cols[rows]
        delta = (np.arange(n) == j[:, None]).reshape(w.shape)
        a = _windowed_dft(frame, w, delta)
        b = _windowed_dft(frame, w, T[:, j].T.toarray().reshape(w.shape))
        total += float(np.sum((a.conj() * b).real))
    # weights: (2pi/L)^d * h^d * (2pi)^-d = N^-d, times h^d / s from the
    # normalized frame vectors
    return total * frame.h ** d / (frame.s * n)


_PHASE_MAGIC = b"WCSPSF1\n"


def save_phase(F: PhaseSpaceFunction, path):
    """Binary export: magic, little-endian header (int32 d, int32 N, float64 h,
    float64 L, float64 eps), then complex64 values row-major, y-major xi-minor."""
    fr = F.frame
    with open(path, "wb") as fh:
        fh.write(_PHASE_MAGIC)
        fh.write(struct.pack("<ii", fr.d, fr.N))
        fh.write(struct.pack("<ddd", fr.h, fr.L, fr.window.epsilon))
        fh.write(np.ascontiguousarray(F.values, dtype=np.complex64).tobytes())


def load_phase(path, frame: CoherentFrame) -> PhaseSpaceFunction:
    with open(path, "rb") as fh:
        if fh.read(len(_PHASE_MAGIC)) != _PHASE_MAGIC:
            raise ValueError("not a phase-space file")
        d, N = struct.unpack("<ii", fh.read(8))
        h, L, eps = struct.unpack("<ddd", fh.read(24))
        if (d, N) != (frame.d, frame.N) or abs(h - frame.h) > 1e-12:
            raise FrameError("file does not match frame geometry")
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    vals = raw.reshape(frame.n, frame.n).astype(complex)
    return PhaseSpaceFunction(values=vals, frame=frame)

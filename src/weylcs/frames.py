"""Discrete coherent-state transform on a periodized embedding grid.

The frame vectors are e_{xi,y}(x) = exp(i xi.x) g(x - y) with y on the same
lattice as x and xi on the discrete Fourier frequencies of the embedding box.
Restricting both indices this way makes the discrete Plancherel identity exact,
so after dividing by the window lattice sum

    s = h^d * sum_m g(m h)^2

the family is an exactly tight (Parseval) frame: the weighted phase-space norm
of the transform equals the grid L^2 norm to machine precision, and the trace
identity holds exactly for any symmetric operator on the embedding grid.

The window is a product of 1-D factors g_a supported on k_a of the N lattice
offsets of an axis, so the transform is applied one axis at a time: along
axis a, the samples at (y_a + m_a) mod N for the k_a support offsets m_a are
contracted with the table

    K_a[y, m, xi] = g_a(m h) exp(-i xi (y + m) h),

kept as its two factors, the k_a x N table g_a(m h) exp(-i xi m h) (one
matrix product per axis) and the N x N phase exp(-i xi y h).  A transform
costs O(n^2 k_a) for n = N^d, and no FFT is involved.  The trace sums over xi
explicitly too: the sums over xi of exp(i xi (m - m') h) for pairs of support
offsets, which the Plancherel identity makes N delta_{m m'}, are computed
numerically from the same tables rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domains import clearance
from .operators import DiscreteOperator, DimensionMismatchError, diagonal
from .windows import Window, c_constants, grad_norm_sq


class FrameError(ValueError):
    pass


class AxisTable(NamedTuple):
    """Support of one window factor and its part of the transform table."""

    offsets: np.ndarray  # the k_a wrapped lattice offsets m with g_a(m h) != 0
    table: np.ndarray  # [m, xi] = g_a(m h) exp(-i xi m h), xi in FFT order


@dataclass(frozen=True, eq=False)
class CoherentFrame:
    d: int
    N: int  # nodes per axis
    h: float
    window: Window
    g_grid: np.ndarray = field(repr=False)  # window sampled at wrapped lattice offsets
    s: float  # lattice sum, h^d * sum g^2
    phase: np.ndarray = field(repr=False)  # [y, xi] = exp(-i xi y h), one axis
    axes: tuple[AxisTable, ...] = field(repr=False)

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


def _analysis(frame: CoherentFrame, f, ys):
    """Unnormalized transform sum_x exp(-i xi.x) g(x - y) f(x), one axis at a time.

    f has the frame's grid shape; ys holds one array of lattice indices per
    axis, and y runs over their product.  Returns the values indexed
    [y_0, ..., y_{d-1}, xi_0, ..., xi_{d-1}], xi in FFT order.
    """
    N, d = frame.N, frame.d
    vals = f
    for a, (ax, y) in enumerate(zip(frame.axes, ys)):
        # vals holds y_0..y_{a-1}, x_a..x_{d-1}, xi_0..xi_{a-1}: gather
        # x_a = y + m in place of x_a, m last, and contract m into xi_a, last
        gathered = np.moveaxis(np.take(vals, (y[:, None] + ax.offsets) % N, axis=a),
                               a + 1, -1)
        vals = gathered.reshape(-1, len(ax.offsets)) @ ax.table
        vals = vals.reshape(gathered.shape[:-1] + (N,))
        vals *= frame.phase[y].reshape((len(y),) + (1,) * (d - 1) + (N,))
    return vals


def _synthesis(frame: CoherentFrame, values):
    """Exact transpose of _analysis over all y: values [y..., xi...] to
    sum_{y,xi} exp(i xi.x) g(x - y) values[y, xi] on the grid."""
    N, d = frame.N, frame.d
    vals = values
    for a in reversed(range(d)):
        # vals holds y_0..y_a, x_{a+1}..x_{d-1}, xi_0..xi_a: contract xi_a
        # into the support offsets m, then add (y, m) into x_a = y + m
        ax = frame.axes[a]
        vals = vals * frame.phase.conj().reshape((N,) + (1,) * (d - 1) + (N,))
        shape = vals.shape[:-1]
        vals = (vals.reshape(-1, N) @ ax.table.conj().T).reshape(shape + (-1,))
        acc = np.zeros(shape, dtype=complex)
        for j, m in enumerate(ax.offsets):
            acc += np.roll(vals[..., j], m, axis=a)
        vals = acc
    return vals


@dataclass(frozen=True, eq=False)
class PhaseSpaceFunction:
    """Transform values, indexed [y_flat, xi_flat] (y-major, xi in FFT order)."""

    values: np.ndarray
    frame: CoherentFrame

    def norm_sq(self):
        fr = self.frame
        w = fr.weight_xi * fr.weight_y * fr.measure_normalizer
        # one pass over the (re, im) pairs in numpy's own reduction: unlike a
        # BLAS dot, its result does not depend on the BLAS thread count
        v = self.values.reshape(-1).view(float)
        return w * float(np.einsum("i,i", v, v))


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
    samples = [window.factor_value(a, offs) for a in range(d)]
    g_grid = functools.reduce(np.multiply.outer, samples)
    s = float(np.sum(g_grid ** 2)) * h ** d
    if s <= 0.0:
        raise FrameError("window vanishes on the lattice; reduce h")
    # exp(-i xi_k j h) = exp(-2 pi i k j / N), from the exact residue k j mod N
    k = np.arange(N)
    phase = np.exp(-2j * math.pi / N * (np.outer(k, k) % N))
    axes = tuple(AxisTable(offsets=m, table=g[m, None] * phase[m])
                 for g, m in ((g, np.flatnonzero(g)) for g in samples))
    return CoherentFrame(d=d, N=N, h=h, window=window, g_grid=g_grid, s=s,
                         phase=phase, axes=axes)


def forward(frame: CoherentFrame, f) -> PhaseSpaceFunction:
    """Windowed DFT: F[y, xi] = h^d / sqrt(s) * sum_x exp(-i xi.x) g(x-y) f(x)."""
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    fg = f.reshape(frame.shape) * (frame.h ** frame.d / math.sqrt(frame.s))
    vals = _analysis(frame, fg, [np.arange(frame.N)] * frame.d)
    return PhaseSpaceFunction(values=vals.reshape(frame.n, frame.n), frame=frame)


def adjoint(frame: CoherentFrame, F: PhaseSpaceFunction) -> np.ndarray:
    """Weighted synthesis; exact left inverse of forward (tight frame)."""
    if F.frame is not frame:
        raise FrameError("phase-space function belongs to a different frame")
    acc = _synthesis(frame, F.values.reshape(frame.shape * 2))
    return (acc / (frame.n * math.sqrt(frame.s))).reshape(frame.n)


def phase_space_moment(frame: CoherentFrame, f, weight) -> float:
    """Weighted second moment sum_{xi,y} W * weight(xi, y) * |forward(f)(xi, y)|^2.

    Streams over y one row along the last axis at a time (N^(d+1) values), so
    large frames never materialize the full transform, and calls weight once
    per row.  weight(xi_axes, y) receives the d per-axis frequency grids (FFT
    order) and the row's N points y as an (N, d) array, both shaped to
    broadcast against the values [y, xi_0, ..., xi_{d-1}]: xi_axes[a] has
    shape (1, ..., N, ..., 1) and y has shape (N, 1, ..., 1, d), so y[..., a]
    is the a-th coordinate.
    """
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    fg = f.reshape(frame.shape)
    xi = frame.xi_axis()
    xi_axes = [a[None] for a in np.meshgrid(*([xi] * frame.d), indexing="ij", sparse=True)]
    row = np.arange(frame.N)
    total = 0.0
    for head in itertools.product(range(frame.N), repeat=frame.d - 1):
        ys = [np.array([i]) for i in head] + [row]
        power = np.abs(_analysis(frame, fg, ys).reshape((frame.N,) + frame.shape))
        power *= power
        y = frame.h * np.column_stack([np.full(frame.N, i) for i in head] + [row])
        power *= weight(xi_axes, y.reshape((frame.N,) + (1,) * frame.d + (frame.d,)))
        total += float(power.sum())
    return total * frame.h ** (2 * frame.d) / (frame.s * frame.n)


class SymbolValue(NamedTuple):
    value: float
    truncated: bool


def _phase_point(d, xi, y):
    """xi and y as float arrays of d finite coordinates; a scalar is one
    coordinate."""
    xi, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (xi, y))
    if xi.shape != (d,) or y.shape != (d,):
        raise DimensionMismatchError(f"xi and y need {d} coordinates, got {xi.size}, {y.size}")
    for name, v in (("xi", xi), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()!r}")
    return xi, y


def rayleigh_symbol(op: DiscreteOperator, window: Window, xi, y) -> float:
    """Re <e, A e> / <e, e> for the coherent state e = exp(i xi.x) g(x - y)
    restricted to the operator's interior nodes; nan when e vanishes there.

    e is evaluated only on the block of grid nodes in the window's support
    around y, and the form is summed over the edges of that block: the
    diagonal sum_i diag_i |e_i|^2 less 2 w Re(conj(e_i) e_j) for each pair of
    neighbours i, j along an axis with edge weight w.  Since e vanishes off
    the interior nodes, this is exactly Re <e, A e> of the assembled matrix.
    """
    dom = op.grid
    if window.d != dom.d:
        raise DimensionMismatchError(f"window dimension {window.d} on a {dom.d}-D grid")
    xi, y = _phase_point(dom.d, xi, y)
    # one node of margin: the window vanishes at the ends of its support
    widths = np.array([window.factor_half_width(a) for a in range(dom.d)]) + dom.h
    lo = np.ceil((y - widths - np.asarray(dom.origin)) / dom.h).astype(int)
    hi = np.floor((y + widths - np.asarray(dom.origin)) / dom.h).astype(int) + 1
    block = tuple(slice(*np.clip((a, b), 0, n)) for a, b, n in zip(lo, hi, dom.shape))
    coords = dom.node_coords(np.stack(np.meshgrid(
        *(np.arange(s.start, s.stop) for s in block), indexing="ij"), axis=-1))
    e = np.exp(1j * coords @ xi) * window(coords - y) * dom.mask[block]
    nrm = np.vdot(e, e).real
    if nrm == 0.0:
        return math.nan
    x1 = (slice(None),) + (None,) * (dom.d - 1)  # weights vary along x_1 only
    weights = [w[block[0]][x1] for w in op.axis_weights()]
    form = float(np.sum(diagonal(weights) * (e.real ** 2 + e.imag ** 2)))
    for a, w in enumerate(weights):
        lower = e[(slice(None),) * a + (slice(None, -1),)]
        upper = e[(slice(None),) * a + (slice(1, None),)]
        if a == 0:
            w = w[:-1]  # an edge along x_1 has the weight of its lower node
        form -= 2.0 * float(np.sum(w * (lower.real * upper.real + lower.imag * upper.imag)))
    return float(form / nrm)


def symbol(frame: CoherentFrame, op: DiscreteOperator, xi, y) -> SymbolValue:
    """Discrete symbol Re <e, A e> / <e, e> of the operator at phase-space point (xi, y).

    The coherent state is restricted to the operator's interior nodes.  The
    value is flagged truncated when the window support may stick out of the
    domain: when the node nearest y lies within support_radius - h of a node
    outside it.  That clearance is computed on the nodes within
    r = ceil(support_radius / h) lattice steps of that node only: outside
    nodes farther away lie beyond support_radius.
    """
    val = rayleigh_symbol(op, frame.window, xi, y)
    dom = op.grid
    radius = frame.window.support_radius
    r = int(math.ceil(radius / dom.h))
    idx = np.clip(np.round((np.atleast_1d(y) - np.asarray(dom.origin)) / dom.h).astype(int),
                  0, np.asarray(dom.shape) - 1)
    block = tuple(slice(max(i - r, 0), i + r + 1) for i in idx)
    centre = tuple(i - s.start for i, s in zip(idx, block))
    truncated = (math.isnan(val) or not dom.mask[tuple(idx)]
                 or clearance(dom.mask[block], dom.h, r)[centre] + dom.h < radius)
    return SymbolValue(value=val, truncated=bool(truncated))


def analytic_symbol(kind, window: Window, xi, y=None) -> float:
    """Continuum symbol: |xi|^2 + grad-norm for the Laplacian; the hyperbolic
    operator adds the exp(2 y_1)-weighted tilde terms with the window constants."""
    if kind not in ("euclidean", "hyperbolic"):
        raise ValueError(f"unknown kind {kind!r}")
    xi, y = _phase_point(window.d, xi, np.zeros(window.d) if y is None else y)
    if kind == "euclidean":
        return float(xi @ xi) + grad_norm_sq(window)
    c = c_constants(window)
    tilde_sq = float(xi[1:] @ xi[1:])
    return float(xi[0] ** 2 + math.exp(2.0 * float(y[0])) * (tilde_sq * c.c3 + c.c2) + c.c1)


def trace_via_frame(frame: CoherentFrame, T) -> float:
    """Phase-space trace sum; equals trace(T) exactly for symmetric T (tightness).

    T is an array or any scipy.sparse matrix, read as (row, col, value)
    triplets: an array through np.nonzero, a sparse matrix through its own
    tocoo(), so a sparse T is never densified and this module imports no
    scipy.  The sum is sum_j <Phi delta_j, Phi(T delta_j)>: for column j only
    the windows y = x_j - m with m in the window's support contribute, and
    the sum over xi is an explicit product of frame tables, the Gram matrix
    G[m, m'] = sum_xi g(m h) g(m' h) exp(i xi (m - m') h).  So the trace is
    sum_j sum_{m, m'} G[m, m'] T[x_j + m' - m, j].  G is the tensor product
    of the per-axis Gram matrices, and grouping the terms by delta = m' - m
    reduces the sum to the diagonal sums t[delta] = sum_j T[x_j + delta, j]
    against the per-axis sums of G along its diagonals.
    """
    # convert first: not every sparse format has the methods the check uses
    T = T.tocoo() if hasattr(T, "tocoo") else np.asarray(T)
    n, N = frame.n, frame.N
    if T.shape != (n, n):
        raise DimensionMismatchError(f"operator must be {n}x{n} on the embedding grid")
    if abs(T - T.conj().T).max() > 1e-12 * (abs(T).max() + 1.0):
        raise ValueError("operator must be symmetric")
    if isinstance(T, np.ndarray):
        row, col = np.nonzero(T)
        data = T[row, col]
    else:
        row, col, data = T.row, T.col, T.data
    rows = np.unravel_index(row, frame.shape)
    cols = np.unravel_index(col, frame.shape)
    delta = np.ravel_multi_index([(r - c) % N for r, c in zip(rows, cols)], frame.shape)
    total = np.zeros(n, dtype=complex)
    np.add.at(total, delta, data)
    total = total.reshape(frame.shape)
    for ax in frame.axes:
        gram = ax.table.conj() @ ax.table.T  # the explicit sum over xi
        diag = (ax.offsets[None, :] - ax.offsets[:, None]) % N  # m' - m
        sums = np.zeros(N, dtype=complex)
        np.add.at(sums, diag.ravel(), gram.ravel())
        total = np.tensordot(sums, total, axes=(0, 0))
    # weights: (2pi/L)^d * h^d * (2pi)^-d = N^-d, times h^d / s from the
    # normalized frame vectors
    return float(total.real) * frame.h ** frame.d / (frame.s * n)


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
        if eps != frame.window.epsilon:
            raise FrameError(f"file window scale eps={eps!r} does not match the "
                             f"frame's eps={frame.window.epsilon!r}")
        raw = fh.read()
    if len(raw) != 8 * frame.n ** 2:
        raise FrameError(f"file holds {len(raw) / 8:g} values, the frame expects {frame.n ** 2}")
    vals = np.frombuffer(raw, dtype=np.complex64).reshape(frame.n, frame.n).astype(complex)
    return PhaseSpaceFunction(values=vals, frame=frame)

"""Discrete coherent-state transform on a periodized embedding grid.

The frame vectors are e_{xi,y}(x) = exp(i xi.x) g(x - y) with y on the same
lattice as x and xi on the discrete Fourier frequencies of the embedding box.
Restricting both indices this way makes the discrete Plancherel identity exact,
so after dividing by the window lattice sum

    s = h^d * sum_m g(m h)^2

the family is an exactly tight (Parseval) frame: the weighted phase-space norm
of the transform equals the grid L^2 norm to machine precision, and the trace
identity holds exactly for any symmetric operator on the embedding grid.

The window is the product of one 1-D profile f taken along every axis, and
f is nonzero on k of the N lattice offsets of an axis, so the transform is
applied one axis at a time with the same table for each: along an axis, the
samples at (y + m) mod N for the k support offsets m are contracted with

    K[y, m, xi] = f(m h) exp(-i xi (y + m) h),

kept as its two factors, the k x N table f(m h) exp(-i xi m h) (one matrix
product per axis) and the N x N phase exp(-i xi y h).  A transform costs
O(n^2 k) for n = N^d, and no FFT is involved.  The trace sums over xi
explicitly too: the sums over xi of exp(i xi (m - m') h) for pairs of support
offsets, which the Plancherel identity makes N delta_{m m'}, are computed
numerically from the same table rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import KINDS, DiscreteOperator, DimensionMismatchError, diagonal
from .windows import Window, c_constants, grad_norm_sq


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
    phase: np.ndarray = field(repr=False)  # [y, xi] = exp(-i xi y h), one axis
    offsets: np.ndarray = field(repr=False)  # the k wrapped lattice offsets m with f(m h) != 0
    table: np.ndarray = field(repr=False)  # [m, xi] = f(m h) exp(-i xi m h), xi in FFT order

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
    for a, y in enumerate(ys):
        # vals holds y_0..y_{a-1}, x_a..x_{d-1}, xi_0..xi_{a-1}: gather
        # x_a = y + m in place of x_a, m last, and contract m into xi_a, last
        gathered = np.moveaxis(np.take(vals, (y[:, None] + frame.offsets) % N, axis=a),
                               a + 1, -1)
        vals = gathered.reshape(-1, len(frame.offsets)) @ frame.table
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
        vals = vals * frame.phase.conj().reshape((N,) + (1,) * (d - 1) + (N,))
        shape = vals.shape[:-1]
        vals = (vals.reshape(-1, N) @ frame.table.conj().T).reshape(shape + (-1,))
        acc = np.zeros(shape, dtype=complex)
        for j, m in enumerate(frame.offsets):
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
    g = window.factor_value(offs)
    g_grid = functools.reduce(np.multiply.outer, [g] * d)
    s = float(np.sum(g_grid ** 2)) * h ** d
    if s <= 0.0:
        raise FrameError("window vanishes on the lattice; reduce h")
    # exp(-i xi_k j h) = exp(-2 pi i k j / N), from the exact residue k j mod N
    k = np.arange(N)
    phase = np.exp(-2j * math.pi / N * (np.outer(k, k) % N))
    m = np.flatnonzero(g)
    return CoherentFrame(d=d, N=N, h=h, window=window, g_grid=g_grid, s=s,
                         phase=phase, offsets=m, table=g[m, None] * phase[m])


def _grid_samples(frame: CoherentFrame, f):
    """f in the frame's grid shape; DimensionMismatchError unless it holds
    frame.n samples."""
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    return f.reshape(frame.shape)


def forward(frame: CoherentFrame, f) -> PhaseSpaceFunction:
    """Windowed DFT: F[y, xi] = h^d / sqrt(s) * sum_x exp(-i xi.x) g(x-y) f(x)."""
    fg = _grid_samples(frame, f) * (frame.h ** frame.d / math.sqrt(frame.s))
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
    fg = _grid_samples(frame, f)
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


def _cube_symbol(op: DiscreteOperator, window: Window, xi, y) -> SymbolValue:
    """Re <e, A e> / <e, e> for e = exp(i xi.x) g(x - y) restricted to the
    operator's interior nodes, and its truncation flag, from one lattice cube.

    For a real window the quotient is a trigonometric polynomial in xi,

        (D - 2 sum_a cos(xi_a h) C_a) / |g|^2,

    with the xi-free sums |g|^2 = sum g^2 and D = sum diag g^2 over the
    interior nodes and C_a = sum w_a g g' over the edges along axis a, of the
    weight w_a of their lower node.  Since g vanishes off the interior nodes,
    this is exactly the form of the assembled matrix; nan when |g|^2 = 0.

    The sums run over the cube of r = ceil(support_radius / h) lattice steps
    around the grid node k nearest y, where the window is the outer product
    of its 1-D profile along each axis.  The cube covers the support: along
    an axis g is nonzero only where |x_a - y_a| < support_radius / sqrt(d)
    <= r h, and k lies within h/2 of y_a, so every support node j has
    |j - k| < r + 1/2.  For y off the grid k is clipped onto it; the support
    nodes on the grid are then within r steps of the unclipped node and on
    the grid's side of it, so within r steps of k too.  The flag is that of
    symbol, searched over the same cube.
    """
    dom = op.grid
    if window.d != dom.d:
        raise DimensionMismatchError(f"window dimension {window.d} on a {dom.d}-D grid")
    xi, y = _phase_point(dom.d, xi, y)
    r = int(math.ceil(window.support_radius / dom.h))
    t = np.arange(-r, r + 1)
    idx = np.clip(np.round((y - np.asarray(dom.origin)) / dom.h),
                  0, np.asarray(dom.shape) - 1).astype(int)  # clipped first: y may be huge
    near = [i + t for i in idx]  # the cube's indices along each axis
    clipped = [np.clip(j, 0, n - 1) for j, n in zip(near, dom.shape)]
    inside = functools.reduce(np.logical_and.outer,
                              [(0 <= j) & (j < n) for j, n in zip(near, dom.shape)])
    inside &= dom.mask[np.ix_(*clipped)]
    g = functools.reduce(np.multiply.outer, [window.factor_value(o + dom.h * j - c)
                                             for o, j, c in zip(dom.origin, near, y)]) * inside
    gg = g * g
    norm = float(np.sum(gg))
    if norm == 0.0:
        return SymbolValue(value=math.nan, truncated=True)
    x1 = (slice(None),) + (None,) * (dom.d - 1)  # weights vary along x_1 only
    weights = [w[clipped[0]][x1] for w in op.axis_weights()]
    diag = float(np.sum(diagonal(weights) * gg))
    edges = [float(np.sum(np.delete(w * g, -1, axis=a) * np.delete(g, 0, axis=a)))
             for a, w in enumerate(weights)]  # an edge has the weight of its lower node
    dist2 = np.min(functools.reduce(np.add.outer, [t * t] * dom.d)[~inside], initial=r * r + 1)
    truncated = not inside[(r,) * dom.d] or dom.h * np.sqrt(dist2) + dom.h < window.support_radius
    return SymbolValue(value=(diag - 2.0 * float(np.cos(xi * dom.h) @ edges)) / norm,
                       truncated=bool(truncated))


def rayleigh_symbol(op: DiscreteOperator, window: Window, xi, y) -> float:
    """Re <e, A e> / <e, e> for the coherent state e = exp(i xi.x) g(x - y)
    restricted to the operator's interior nodes; nan when e vanishes there.

    The value is the trigonometric polynomial (D - 2 sum_a cos(xi_a h) C_a)
    / |g|^2 in xi of d + 2 real sums of the window and the operator's edge
    weights, taken over the cube of ceil(support_radius / h) lattice steps
    around the node nearest y, which holds the window's support (see
    _cube_symbol).
    """
    return _cube_symbol(op, window, xi, y).value


def symbol(frame: CoherentFrame, op: DiscreteOperator, xi, y) -> SymbolValue:
    """Discrete symbol Re <e, A e> / <e, e> of the operator at phase-space point (xi, y).

    The value is rayleigh_symbol's with the frame's window: the
    trigonometric polynomial (D - 2 sum_a cos(xi_a h) C_a) / |g|^2 of sums
    over the cube of r = ceil(support_radius / h) lattice steps around the
    node nearest y, which holds the window's support.  It is flagged
    truncated when the window support may stick out of the domain: when
    that node lies within support_radius - h of a node outside it (nodes
    past the grid count as outside), or the value is nan.  Only the nodes of
    the same cube are searched: outside nodes farther away lie beyond
    support_radius, and the squared offset is capped at r^2 + 1.
    """
    return _cube_symbol(op, frame.window, xi, y)


def analytic_symbol(kind, window: Window, xi, y=None) -> float:
    """Continuum symbol: |xi|^2 + grad-norm for the Laplacian; the hyperbolic
    operator adds the exp(2 y_1)-weighted tilde terms with the window constants,
    which vanish for d = 1."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    xi, y = _phase_point(window.d, xi, np.zeros(window.d) if y is None else y)
    if kind == "euclidean" or window.d == 1:
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
    sum_j sum_{m, m'} G[m, m'] T[x_j + m' - m, j].  G is the d-fold tensor
    power of the one-axis Gram matrix, and grouping the terms by
    delta = m' - m reduces the sum to the diagonal sums
    t[delta] = sum_j T[x_j + delta, j] contracted along every axis with the
    sums of the one-axis Gram matrix along its diagonals.
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
    gram = frame.table.conj() @ frame.table.T  # the explicit sum over xi
    diag = (frame.offsets[None, :] - frame.offsets[:, None]) % N  # m' - m
    sums = np.zeros(N, dtype=complex)
    np.add.at(sums, diag.ravel(), gram.ravel())
    for _ in range(frame.d):
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

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
product per axis) and the N x N phase exp(-i xi y h).  The shared analysis
contracts with the table alone, giving the centred transform; forward
multiplies it by the phase, and adjoint removes the phase before the
transpose.  phase_space_moment needs |F|^2 only, so it skips the phase and
streams y in blocks of at most _BLOCK transform values.  A transform costs
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

from .domains import box_sides, whole_steps
from .operators import DiscreteOperator, DimensionMismatchError, weighted_axes
from .windows import Window, c_constants, grad_norm_sq


class FrameError(RuntimeError):
    """A frame check failed: a non-finite Parseval or trace defect."""


_BLOCK = 2 ** 20  # transform values phase_space_moment holds per block of y


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

    def xi_axis(self):
        """Fourier frequencies of one axis, in FFT order: 2 pi np.fft.fftfreq(N, h)
        up to rounding, without importing numpy.fft."""
        return 2.0 * math.pi / self.L * ((np.arange(self.N) + self.N // 2) % self.N - self.N // 2)

    def grid_norm_sq(self, f):
        return self.h ** self.d * float(np.vdot(f, f).real)


def _analysis(frame: CoherentFrame, f, ys):
    """Centred transform sum_x exp(-i xi.(x - y)) g(x - y) f(x), one axis at a time.

    f has the frame's grid shape; ys holds one array of lattice indices per
    axis, and y runs over their product.  Returns the values indexed
    [y_0, ..., y_{d-1}, xi_0, ..., xi_{d-1}], xi in FFT order.  The
    unnormalized transform is these values times exp(-i xi.y), which
    _phased applies; |values|^2 does not depend on it.
    """
    N = frame.N
    vals = f
    for a, y in enumerate(ys):
        # vals holds y_0..y_{a-1}, x_a..x_{d-1}, xi_0..xi_{a-1}: gather
        # x_a = y + m in place of x_a, m last, and contract m into xi_a, last
        gathered = np.moveaxis(np.take(vals, (y[:, None] + frame.offsets) % N, axis=a),
                               a + 1, -1)
        vals = gathered.reshape(-1, len(frame.offsets)) @ frame.table
        vals = vals.reshape(gathered.shape[:-1] + (N,))
    return vals


def _phased(frame: CoherentFrame, values, phase):
    """values [y..., xi...] over all y times prod_a phase[y_a, xi_a], in place:
    a second array of this size costs page faults on every call."""
    N, d = frame.N, frame.d
    for a in range(d):
        values *= phase.reshape((N,) + (1,) * (d - 1) + (N,) + (1,) * (d - 1 - a))
    return values


def _synthesis(frame: CoherentFrame, vals):
    """Exact transpose of _analysis over all y: centred values [y..., xi...] to
    sum_{y,xi} exp(i xi.(x - y)) g(x - y) vals[y, xi] on the grid."""
    N, d = frame.N, frame.d
    for a in reversed(range(d)):
        # vals holds y_0..y_a, x_{a+1}..x_{d-1}, xi_0..xi_a: contract xi_a
        # into the support offsets m, then add (y, m) into x_a = y + m
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


def build_frame(box, h, window: Window) -> CoherentFrame:
    """Periodized frame on a cubic box of side L = N*h; requires the window's
    support, a cube of side 2*eps/sqrt(d), to span less than L along an axis.
    ValueError as in domains.box_sides, unless 0 < h < inf, and for every
    other refusal: a box that is not cubic or not a multiple of h, another
    dimension, a window that wraps, vanishes on the lattice or overflows."""
    sides = box_sides(box)
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got h={h!r}")
    L = sides[0]
    if any(abs(sd - L) > 1e-12 * L for sd in sides):
        raise ValueError("embedding box must be cubic (equal sides)")
    N = whole_steps(L, h)
    if abs(N * h - L) > 1e-9 * L:
        raise ValueError("box side must be an integer multiple of h")
    d = window.d
    if len(box) != d:
        raise ValueError("box dimension does not match window dimension")
    span = 2.0 * window.factor_half_width()  # the support's side along one axis
    if span >= L:
        name = "2*eps" if d == 1 else f"2*eps/sqrt({d})"
        raise ValueError(f"window support wraps around the torus: {name} = {span:g} >= L = {L:g}")
    # wrapped lattice offsets m*h in [-L/2, L/2)
    offs = h * np.arange(N)
    offs = np.where(offs >= L / 2.0, offs - L, offs)
    g = window.factor_value(offs)
    with np.errstate(over="ignore"):  # an overflow is reported below
        g_grid = functools.reduce(np.multiply.outer, [g] * d)
        s = float(np.sum(g_grid ** 2)) * h ** d
    if s <= 0.0:
        raise ValueError("window vanishes on the lattice; reduce h")
    if not s < math.inf:
        raise ValueError(f"window's lattice sum overflows at eps = {window.epsilon:g}; "
                         "increase eps")
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
    vals = _phased(frame, _analysis(frame, fg, [np.arange(frame.N)] * frame.d), frame.phase)
    return PhaseSpaceFunction(values=vals.reshape(frame.n, frame.n), frame=frame)


def adjoint(frame: CoherentFrame, F: PhaseSpaceFunction) -> np.ndarray:
    """Weighted synthesis; exact left inverse of forward (tight frame).
    ValueError for a function of another frame."""
    if F.frame is not frame:
        raise ValueError("phase-space function belongs to a different frame")
    vals = _phased(frame, F.values.astype(complex).reshape(frame.shape * 2), frame.phase.conj())
    return (_synthesis(frame, vals) / (frame.n * math.sqrt(frame.s))).reshape(frame.n)


def phase_space_moment(frame: CoherentFrame, f, weight) -> float:
    """Weighted second moment (1/n) sum_{xi,y} weight(xi, y) |forward(f)(xi, y)|^2.

    The library's one sum of |F|^2: the phase-space measure
    (2 pi / L)^d h^d (2 pi)^-d is 1/n, so with weight 1 this is the norm of
    the transform, which tightness makes grid_norm_sq(f).

    Streams over y in blocks of at most _BLOCK transform values (or the N^d
    values of one y, if more): a block takes, along each y axis in turn, as
    many consecutive indices as fit with every index of the later axes, at
    least one.  So large frames never materialize the full transform, and a
    frame whose transform fits _BLOCK takes one block.  |forward(f)|^2 does
    not depend on the phase exp(-i xi.y), so the centred values are used.
    weight is called once per block:
    weight(xi_axes, y) receives the d per-axis frequency grids (FFT order)
    and the block's M points y as an (M, d) array, both shaped to broadcast
    against the values [y, xi_0, ..., xi_{d-1}] with y flattened y-major:
    xi_axes[a] has shape (1, ..., N, ..., 1), N at position a + 1, and y has
    shape (M, 1, ..., 1, d), so y[..., a] is the a-th coordinate.
    """
    fg = _grid_samples(frame, f)
    N, d = frame.N, frame.d
    xi_axes = [a[None] for a in np.meshgrid(*[frame.xi_axis()] * d, indexing="ij", sparse=True)]
    # block length along y axis a: as many indices as fit _BLOCK, with every
    # index of the later y axes and every xi (N^(2d-1-a) values per index)
    sizes = [min(max(_BLOCK // N ** (2 * d - 1 - a), 1), N) for a in range(d)]
    total = 0.0
    for starts in itertools.product(*[range(0, N, c) for c in sizes]):
        ys = [np.arange(i, min(i + c, N)) for i, c in zip(starts, sizes)]
        # (re, im) pairs last, squared in place: |F|^2 with no second array
        sq = _analysis(frame, fg, ys).reshape((-1,) + frame.shape + (1,)).view(float)
        sq *= sq
        y = frame.h * np.stack(np.meshgrid(*ys, indexing="ij"), axis=-1)
        sq *= np.expand_dims(weight(xi_axes, y.reshape((-1,) + (1,) * d + (d,))), -1)
        total += float(sq.sum())
    return total * frame.h ** (2 * d) / (frame.s * frame.n)


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


def rayleigh_symbol(op: DiscreteOperator, window: Window, xi, y) -> SymbolValue:
    """The symbol routine: Re <e, A e> / <e, e> for the coherent state
    e = exp(i xi.x) g(x - y) restricted to the operator's interior nodes, and
    its truncation flag, from one lattice cube.

    The value is the operator's own quadratic form, the sum over grid edges
    of w (e_i - e_j)^2 with e zero off the interior nodes, which for a real
    window is

        sum_a sum_{edges along a} w_a [(g - g')^2 + 4 sin^2(xi_a h / 2) g g'] / |g|^2,

    with w_a the weight of an edge's lower node and |g|^2 = sum g^2 over the
    interior nodes.  Every term is nonnegative for a nonnegative window, so
    nothing cancels.

    The sums run over the edges of the cube of r + 1 lattice steps around the
    grid node k nearest y, r = ceil(min(eps / h, max(shape))), where the
    window is the outer product of its 1-D profile along each axis.  The
    inner cube of r steps covers the support on the grid: along an axis g is
    nonzero only where |x_a - y_a| < eps / sqrt(d) <= r h, and k lies within
    h/2 of y_a, so every support node j has |j - k| < r + 1/2.  For y off the
    grid k is clipped onto it; the support nodes on the grid are then within
    r steps of the unclipped node and on the grid's side of it, so within r
    steps of k too.  At the cap r = max(shape) the inner cube holds the whole
    grid and the layer past it.  So g is zero on the cube's outer layer, and
    an edge from the support into that layer is a Dirichlet edge, w g^2,
    like every edge to a node outside the domain.

    It is flagged truncated when the window support may stick out of the
    domain: when k lies within eps - h of a node outside it (nodes past the
    grid count as outside), or e vanishes on the interior nodes, where the
    value is nan.  Only the nodes of the same cube are searched: outside
    nodes farther away lie beyond eps, the radius of the ball that holds the
    support, or at the cap beyond the nearest node of the layer past the
    grid, which the cube holds, and the squared offset is capped at r^2 + 1.
    That squared offset is the clearance erode computes
    (domains.lattice_dist2 of the complement), read at k alone.
    """
    dom = op.grid
    if window.d != dom.d:
        raise DimensionMismatchError(f"window dimension {window.d} on a {dom.d}-D grid")
    xi, y = _phase_point(dom.d, xi, y)
    r = int(math.ceil(min(window.epsilon / dom.h, max(dom.shape))))
    t = np.arange(-r - 1, r + 2)
    idx = np.clip(np.round((y - np.asarray(dom.origin)) / dom.h),
                  0, np.asarray(dom.shape) - 1).astype(int)  # clipped first: y may be huge
    near = [i + t for i in idx]  # the cube's indices along each axis
    clipped = [np.clip(j, 0, n - 1) for j, n in zip(near, dom.shape)]
    inside = functools.reduce(np.logical_and.outer,
                              [(0 <= j) & (j < n) for j, n in zip(near, dom.shape)])
    inside &= dom.mask[np.ix_(*clipped)]
    g = functools.reduce(np.multiply.outer, [window.factor_value(o + dom.h * j - c)
                                             for o, j, c in zip(dom.origin, near, y)]) * inside
    norm = float(np.sum(g * g))
    if norm == 0.0:
        return SymbolValue(value=math.nan, truncated=True)
    x1 = (slice(None),) + (None,) * (dom.d - 1)  # weights vary along x_1 only
    s = 4.0 * np.sin(0.5 * dom.h * xi) ** 2
    energy = 0.0
    for a, w in enumerate(op.axis_weights()):
        lo, hi = g[(slice(None),) * a + (slice(-1),)], g[(slice(None),) * a + (slice(1, None),)]
        # an edge has the weight of its lower node
        energy += float(np.sum(w[clipped[0]][x1][:len(lo)] * ((lo - hi) ** 2 + s[a] * lo * hi)))
    # outer-layer nodes lie r + 1 steps out, past the cap
    dist2 = np.min(functools.reduce(np.add.outer, [t * t] * dom.d)[~inside], initial=r * r + 1)
    truncated = not inside[(r + 1,) * dom.d] or \
        dom.h * np.sqrt(dist2) + dom.h < window.epsilon
    return SymbolValue(value=energy / norm, truncated=bool(truncated))


def symbol(frame: CoherentFrame, op: DiscreteOperator, xi, y) -> SymbolValue:
    """The frame form of the symbol routine: rayleigh_symbol(op, window, xi, y)
    at the phase-space point (xi, y) with the frame's window."""
    return rayleigh_symbol(op, frame.window, xi, y)


def analytic_symbol(kind, window: Window, xi, y=None) -> float:
    """Continuum symbol: |xi|^2 + grad-norm for the Laplacian; with
    exp(2 y_1)-weighted axes (operators.weighted_axes) the tilde terms carry
    that weight and the window constants.  OverflowError naming eps when the
    window constants leave the float range, naming y_1 when exp(2 y_1) does."""
    weighted = weighted_axes(kind, window.d)
    xi, y = _phase_point(window.d, xi, np.zeros(window.d) if y is None else y)
    if not weighted:
        return float(xi @ xi) + grad_norm_sq(window)
    c = c_constants(window)
    try:
        weight = math.exp(2.0 * float(y[0]))
    except OverflowError as exc:
        raise OverflowError(f"exp(2 y_1) overflows at y_1 = {y[0]:g}") from exc
    tilde_sq = float(xi[1:] @ xi[1:])
    return float(xi[0] ** 2 + weight * (tilde_sq * c.c3 + c.c2) + c.c1)


def trace_via_frame(frame: CoherentFrame, T) -> float:
    """Phase-space trace sum; equals trace(T) exactly for symmetric T (tightness).

    T is a tuple (row, col, value) of equal-length 1-D arrays of triplets,
    indices in 0..n-1 (duplicates add up), the one form it takes: a sparse
    matrix passes its own coo row, col and data, so nothing is densified and
    this module imports no scipy.  The symmetry check sums the triplets of
    T - T^H per entry.  The sum is
    sum_j <Phi delta_j, Phi(T delta_j)>: for column j only
    the windows y = x_j - m with m in the window's support contribute, and
    the sum over xi is an explicit product of frame tables, the Gram matrix
    G[m, m'] = sum_xi g(m h) g(m' h) exp(i xi (m - m') h).  So the trace is
    sum_j sum_{m, m'} G[m, m'] T[x_j + m' - m, j].  G is the d-fold tensor
    power of the one-axis Gram matrix, and grouping the terms by
    delta = m' - m reduces the sum to the diagonal sums
    t[delta] = sum_j T[x_j + delta, j] contracted along every axis with the
    sums of the one-axis Gram matrix along its diagonals.
    """
    n, N = frame.n, frame.N
    if not (isinstance(T, tuple) and len(T) == 3):
        raise ValueError(f"T must be a tuple (row, col, value) of triplets, got {type(T).__name__}")
    row, col, data = (np.asarray(a) for a in T)
    if not (row.ndim == 1 and row.shape == col.shape == data.shape and all(
            a.dtype.kind in "iu" and ((0 <= a) & (a < n)).all() for a in (row, col))):
        raise ValueError(f"triplets need equal-length integer indices in 0..{n - 1}")
    # T - T^H summed per entry (row * n + col), against the largest |entry|
    key = np.concatenate([row, col]).astype(np.int64) * n + np.concatenate([col, row])
    order = np.argsort(key)
    asym = np.add.reduceat(np.concatenate([data, -np.conj(data)])[order],
                           np.flatnonzero(np.diff(key[order], prepend=-1)))
    if abs(asym).max(initial=0.0) > 1e-12 * (abs(data).max(initial=0.0) + 1.0):
        raise ValueError("operator must be symmetric")
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
    """Read a save_phase file for frame; ValueError unless it is one and
    matches the frame's geometry, eps and size.  The header must be whole,
    and its h and L must match the frame's to 1e-12 relative (a nan matches
    nothing)."""
    with open(path, "rb") as fh:
        if fh.read(len(_PHASE_MAGIC)) != _PHASE_MAGIC:
            raise ValueError("not a phase-space file")
        header = fh.read(32)
        if len(header) < 32:
            raise ValueError(f"truncated header: {len(header)} of 32 bytes")
        d, N, h, L, eps = struct.unpack("<iiddd", header)
        if (d, N) != (frame.d, frame.N) or not (abs(h - frame.h) <= 1e-12 * frame.h
                                                and abs(L - frame.L) <= 1e-12 * frame.L):
            raise ValueError("file does not match frame geometry")
        if eps != frame.window.epsilon:
            raise ValueError(f"file window scale eps={eps!r} does not match the "
                             f"frame's eps={frame.window.epsilon!r}")
        raw = fh.read()
    if len(raw) != 8 * frame.n ** 2:
        raise ValueError(f"file holds {len(raw) / 8:g} values, the frame expects {frame.n ** 2}")
    vals = np.frombuffer(raw, dtype=np.complex64).reshape(frame.n, frame.n).astype(complex)
    return PhaseSpaceFunction(values=vals, frame=frame)

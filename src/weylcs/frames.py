"""Discrete coherent-state transform on the grid, frequencies matched to the window.

The frame vectors are the centred coherent states

    e_{xi,y}(x) = exp(i xi.(x - y)) g(x - y),

with x on the grid, the interior lattice of domains.rectangle_domain(box, h)
(a grid function u is zero off the grid), and y on every lattice node whose
window meets the grid.  The window is the
product of one 1-D profile f taken along every axis, nonzero on the
lattice offsets m h with |m| <= R only, so for each y the product
g(x - y) u(x) fits in one period of a length-P DFT, P = 2 R + 1.  Per axis
xi runs over the P frequencies 2 pi p / (P h), p = -R..R, and the discrete
Plancherel identity makes the sum over xi of
|sum_x exp(-i xi.(x - y)) g(x - y) u(x)|^2 equal to
P^d sum_x g(x - y)^2 |u(x)|^2.  Summed over y this is
P^d (sum_m g(m h)^2) sum_x |u(x)|^2, so after dividing by the window
lattice sum

    s = h^d * sum_m g(m h)^2

and with the phase-space measure 1/P^d the family is an exactly tight
(Parseval) frame with no torus: the weighted phase-space norm of the
transform equals the grid L^2 norm to machine precision, and the trace
identity holds exactly for any operator on the grid.  These are
the "painless nonorthogonal expansions" of Daubechies, Grossmann & Meyer
(J. Math. Phys. 27, 1986).

The transform is applied one axis at a time with the same P x P table

    K[m, xi] = f(m h) exp(-i xi m h),  m = -R..R,

for each: along an axis, the samples padded with P - 1 zeros on each side
are cut into the N_a + P - 1 sliding windows of P nodes, one per position y,
for the N_a nodes of axis a, and each window is contracted with K (one
matrix product per axis).  phase_space_moment streams y in blocks of at
most _BLOCK transform values.  A transform has prod_a (N_a + P - 1) P^d
values, about n P^d for the n = prod_a N_a grid nodes, and costs
O(n P^d k) for the k support offsets of an axis; no FFT is involved.  The
trace sums over xi explicitly too: the sums over xi of exp(i xi (m - m') h)
for pairs of support offsets, which the Plancherel identity makes
P delta_{m m'}, are computed numerically from the same table rather than
assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domains import _interior
from .operators import DiscreteOperator, DimensionMismatchError, weighted_axes
from .windows import Window, c_constants, grad_norm_sq


class FrameError(RuntimeError):
    """A frame check failed: a non-finite Parseval or trace defect."""


_BLOCK = 2 ** 20  # transform values phase_space_moment holds per block of y


@dataclass(frozen=True, eq=False)
class CoherentFrame:
    d: int
    shape: tuple  # grid nodes per axis
    origin: tuple  # the coordinates of grid node 0
    h: float
    window: Window
    g_grid: np.ndarray = field(repr=False)  # window on its support cube, offsets -R..R per axis
    s: float  # lattice sum, h^d * sum g^2
    table: np.ndarray = field(repr=False)  # [m, xi] = f(m h) exp(-i xi m h), xi in FFT order

    @property
    def P(self):
        """Frequencies, and window nodes, per axis: 2 R + 1."""
        return len(self.table)

    @property
    def n(self):
        return math.prod(self.shape)

    def xi_axis(self):
        """The P frequencies of one axis, 2 pi p / (P h) for p = -R..R, in FFT
        order: 2 pi np.fft.fftfreq(P, h) up to rounding."""
        P = self.P
        return 2.0 * math.pi / (P * self.h) * ((np.arange(P) + P // 2) % P - P // 2)

    def grid_norm_sq(self, f):
        return self.h ** self.d * float(np.vdot(f, f).real)


def _analysis(frame: CoherentFrame, f, ys):
    """Centred transform sum_x exp(-i xi.(x - y)) g(x - y) f(x), one axis at a time.

    f has the frame's grid shape; ys holds one array of position indices
    per axis, index i for y = origin + (i - R) h, and y runs over their
    product.
    Returns the values indexed [y_0, ..., y_{d-1}, xi_0, ..., xi_{d-1}], xi
    in FFT order.
    """
    P = frame.P
    vals = f
    for a, y in enumerate(ys):
        # vals holds y_0..y_{a-1}, x_a..x_{d-1}, xi_0..xi_{a-1}: pad x_a with
        # P - 1 zeros on each side, so that window i holds x = y + m h for
        # m = -R..R, put the windows at y in place of x_a, nodes last, and
        # contract the nodes into xi_a, last
        pad = [(P - 1, P - 1) if b == a else (0, 0) for b in range(vals.ndim)]
        windows = np.take(sliding_window_view(np.pad(vals, pad), P, axis=a), y, axis=a)
        vals = (windows.reshape(-1, P) @ frame.table).reshape(windows.shape[:-1] + (P,))
    return vals


def build_frame(box, h, window: Window) -> CoherentFrame:
    """Frame on the grid of rectangle_domain(box, h): per axis the lattice
    nodes strictly inside the box, read from domains without building the
    mask.  Requires the window's support, a cube of side 2*eps/sqrt(d), to
    span less than L = h min(shape), the nodes' shortest extent, which bounds
    the P x P table by the grid.  ValueError as in rectangle_domain, and for
    a box of another dimension than the window's or a window that spans the
    grid, vanishes on the lattice or overflows."""
    inside = _interior(box, h)
    d = window.d
    if len(box) != d:
        raise ValueError("box dimension does not match window dimension")
    shape = tuple(int(v.sum()) for v in inside)
    span, L = 2.0 * window.factor_half_width(), h * min(shape)  # span: the support's side
    if span >= L:
        name = "2*eps" if d == 1 else f"2*eps/sqrt({d})"
        raise ValueError(f"window support spans the grid: {name} = {span:g} >= L = {L:g}")
    # the offsets m h with |m| <= r hold the support; R is the last nonzero one
    r = math.ceil(span / (2.0 * h))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        g = window.factor_value(h * np.arange(-r, r + 1))
        R = int(np.max(np.abs(np.flatnonzero(g) - r), initial=0))
        g = g[r - R:r + R + 1]
        g_grid = functools.reduce(np.multiply.outer, [g] * d)
        s = float(np.sum(g_grid ** 2)) * h ** d
    if s <= 0.0:
        raise ValueError("window vanishes on the lattice; reduce h")
    if not s < math.inf:
        raise ValueError(f"window's lattice sum overflows at eps = {window.epsilon:g}; "
                         "increase eps")
    # exp(-i xi_p m h) = exp(-2 pi i p m / P), from the exact residue p m mod P
    m, P = np.arange(-R, R + 1), 2 * R + 1
    origin = tuple(float(a + h * v.argmax()) for (a, _), v in zip(box, inside))
    return CoherentFrame(d=d, shape=shape, origin=origin, h=h, window=window, g_grid=g_grid, s=s,
                         table=g[:, None] * np.exp(-2j * math.pi / P * (np.outer(m, m + R) % P)))


def _grid_samples(frame: CoherentFrame, f):
    """f in the frame's grid shape; DimensionMismatchError unless it holds
    frame.n samples."""
    f = np.asarray(f)
    if f.size != frame.n:
        raise DimensionMismatchError(f"expected {frame.n} samples, got {f.size}")
    return f.reshape(frame.shape)


def forward(frame: CoherentFrame, f) -> np.ndarray:
    """Windowed DFT at every position y, centred:
    F[y, xi] = h^d / sqrt(s) * sum_x exp(-i xi.(x - y)) g(x - y) f(x),
    indexed [y_flat, xi_flat] (y-major, xi in FFT order)."""
    fg = _grid_samples(frame, f) * (frame.h ** frame.d / math.sqrt(frame.s))
    vals = _analysis(frame, fg, [np.arange(m + frame.P - 1) for m in frame.shape])
    return vals.reshape(-1, frame.P ** frame.d)


def adjoint(frame: CoherentFrame, F) -> np.ndarray:
    """Weighted synthesis, sum_{y,xi} exp(i xi.(x - y)) g(x - y) F[y, xi] / (P^d sqrt(s))
    on the grid: the adjoint of forward for the grid inner product h^d sum_x
    and the phase-space measure 1/P^d, and its exact left inverse (tight
    frame).  ValueError unless F has forward's shape."""
    P, d = frame.P, frame.d
    ny = [m + P - 1 for m in frame.shape]  # positions y per axis
    want = (math.prod(ny), P ** d)
    if np.shape(F) != want:
        raise ValueError(f"phase-space array has shape {np.shape(F)}, the frame's is {want}")
    vals = np.reshape(F, tuple(ny) + (P,) * d)
    for a in reversed(range(d)):
        # vals holds y_0..y_a, x_{a+1}..x_{d-1}, xi_0..xi_a: contract xi_a
        # into the window's nodes; grid node x takes node j of the window at
        # position x + P - 1 - j, for j = 0..P-1 in turn
        vals = (vals.reshape(-1, P) @ frame.table.conj().T).reshape(vals.shape)
        vals = sum(vals[(slice(None),) * a + (slice(P - 1 - j, P - 1 - j + frame.shape[a]),
                                              Ellipsis, j)] for j in range(P))
    return (vals / (P ** d * math.sqrt(frame.s))).reshape(frame.n)


def phase_space_moment(frame: CoherentFrame, f, weight) -> float:
    """Weighted second moment (1/P^d) sum_{xi,y} weight(xi, y) |forward(f)(xi, y)|^2.

    The library's one sum of |F|^2: the phase-space measure is 1/P^d, so
    with weight 1 this is the norm of the transform, which tightness makes
    grid_norm_sq(f).

    Streams over y in blocks of at most _BLOCK transform values (or the P^d
    values of one y, if more): a block takes, along each y axis in turn, as
    many consecutive indices as fit with every index of the later axes, at
    least one.  So large frames never materialize the full transform, and a
    frame whose transform fits _BLOCK takes one block.
    weight is called once per block:
    weight(xi_axes, y) receives the d per-axis frequency grids (FFT order)
    and the block's M points y as an (M, d) array, both shaped to broadcast
    against the values [y, xi_0, ..., xi_{d-1}] with y flattened y-major:
    xi_axes[a] has shape (1, ..., P, ..., 1), P at position a + 1, and y has
    shape (M, 1, ..., 1, d), so y[..., a] is the a-th coordinate, read in the
    box's own coordinates.
    """
    fg = _grid_samples(frame, f)
    P, d = frame.P, frame.d
    ny = [m + P - 1 for m in frame.shape]  # positions y per axis
    xi_axes = [a[None] for a in np.meshgrid(*[frame.xi_axis()] * d, indexing="ij", sparse=True)]
    # block length along y axis a: as many indices as fit _BLOCK, with every
    # index of the later y axes and every xi (prod(ny[a+1:]) P^d values per index)
    sizes = [min(max(_BLOCK // (math.prod(ny[a + 1:]) * P ** d), 1), ny[a]) for a in range(d)]
    total = 0.0
    for starts in itertools.product(*[range(0, m, c) for m, c in zip(ny, sizes)]):
        ys = [np.arange(i, min(i + c, m)) for i, c, m in zip(starts, sizes, ny)]
        # (re, im) pairs last, squared in place: |F|^2 with no second array
        sq = _analysis(frame, fg, ys).reshape((-1,) + (P,) * d + (1,)).view(float)
        sq *= sq
        y = np.asarray(frame.origin) + frame.h * (
            np.stack(np.meshgrid(*ys, indexing="ij"), axis=-1) - P // 2)
        sq *= np.expand_dims(weight(xi_axes, y.reshape((-1,) + (1,) * d + (d,))), -1)
        total += float(sq.sum())
    return total * frame.h ** (2 * d) / (frame.s * P ** d)


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


def analytic_symbol(kind, window: Window, xi, y) -> float:
    """Continuum symbol: |xi|^2 + grad-norm for the Laplacian; with
    exp(2 y_1)-weighted axes (operators.weighted_axes) the tilde terms carry
    that weight and the window constants.  OverflowError naming eps when the
    window constants leave the float range, naming y_1 when exp(2 y_1) does."""
    weighted = weighted_axes(kind, window.d)
    xi, y = _phase_point(window.d, xi, y)
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
    """Phase-space trace sum; equals the real part of trace(T) exactly for any
    operator T on the grid (tightness).

    T is a tuple (row, col, value) of equal-length 1-D arrays of triplets,
    indices in 0..n-1 (duplicates add up), the one form it takes: a sparse
    matrix passes its own coo row, col and data, so nothing is densified and
    this module imports no scipy.  The sum is
    sum_j <Phi delta_j, Phi(T delta_j)>: for column j only
    the windows y = x_j - m with m in the window's support contribute, and
    the sum over xi is an explicit product of frame tables, the Gram matrix
    G[m, m'] = sum_xi g(m h) g(m' h) exp(i xi (m - m') h).  So the trace is
    sum_j sum_{m, m'} G[m, m'] T[x_j + m' - m, j].  G is the d-fold tensor
    power of the one-axis Gram matrix, and grouping the terms by
    delta = m' - m reduces the sum to the sums t[delta] = sum_j T[x_j + delta, j]
    of the triplets by their offset row - col, |delta| < P per axis,
    contracted along every axis with the sums of the one-axis Gram matrix
    along its diagonals.  Only delta = 0 survives the exact sums over xi, so
    the entries off the diagonal add only rounding.
    """
    n, P = frame.n, frame.P
    if not (isinstance(T, tuple) and len(T) == 3):
        raise ValueError(f"T must be a tuple (row, col, value) of triplets, got {type(T).__name__}")
    row, col, data = (np.asarray(a) for a in T)
    if not (row.ndim == 1 and row.shape == col.shape == data.shape and all(
            a.dtype.kind in "iu" and ((0 <= a) & (a < n)).all() for a in (row, col))):
        raise ValueError(f"triplets need equal-length integer indices in 0..{n - 1}")
    rows = np.unravel_index(row, frame.shape)
    cols = np.unravel_index(col, frame.shape)
    # per axis the offset r - c; windows meet both nodes only for |r - c| < P
    delta = [r - c for r, c in zip(rows, cols)]
    near = np.all([abs(dl) < P for dl in delta], axis=0)
    total = np.zeros((2 * P - 1,) * frame.d, dtype=complex)
    np.add.at(total, tuple(dl[near] + P - 1 for dl in delta), data[near])
    gram = frame.table.conj() @ frame.table.T  # the explicit sum over xi
    m = np.arange(P)
    sums = np.zeros(2 * P - 1, dtype=complex)
    np.add.at(sums, (m[None, :] - m[:, None] + P - 1).ravel(), gram.ravel())  # m' - m
    for _ in range(frame.d):
        total = np.tensordot(sums, total, axes=(0, 0))
    # weights: the measure P^-d, times h^d / s from the normalized frame vectors
    return float(total.real) * frame.h ** frame.d / (frame.s * P ** frame.d)


_PHASE_MAGIC = b"WCSPSF4\n"


def _phase_header(d):
    """The little-endian header of a phase file: int32 d, d int32 nodes per
    axis, float64 h, float64 eps, float64 s."""
    return f"<{d + 1}iddd"


def save_phase(frame: CoherentFrame, F, path):
    """Binary export of forward's array F: magic, the _phase_header (s is the
    window's lattice sum the values are normalized by), then the
    prod_a (N_a + P - 1) x P^d complex64 values row-major, y-major xi-minor."""
    with open(path, "wb") as fh:
        fh.write(_PHASE_MAGIC)
        fh.write(struct.pack(_phase_header(frame.d), frame.d, *frame.shape, frame.h,
                             frame.window.epsilon, frame.s))
        fh.write(np.ascontiguousarray(F, dtype=np.complex64).tobytes())


def load_phase(path, frame: CoherentFrame) -> np.ndarray:
    """Read a save_phase file for frame as forward's array; ValueError unless
    it is one and matches the frame's geometry, window and size.  The header
    must be whole for the frame's d, its h and s must match the frame's to
    1e-12 relative (a nan matches nothing) and its eps exactly."""
    layout = _phase_header(frame.d)
    size = struct.calcsize(layout)
    with open(path, "rb") as fh:
        if fh.read(len(_PHASE_MAGIC)) != _PHASE_MAGIC:
            raise ValueError("not a phase-space file")
        header = fh.read(size)
        if len(header) < size:
            raise ValueError(f"truncated header: {len(header)} of {size} bytes")
        d, *shape, h, eps, s = struct.unpack(layout, header)
        if (d, tuple(shape)) != (frame.d, frame.shape) or not abs(h - frame.h) <= 1e-12 * frame.h:
            raise ValueError("file does not match frame geometry")
        if eps != frame.window.epsilon:
            raise ValueError(f"file window scale eps={eps!r} does not match the "
                             f"frame's eps={frame.window.epsilon!r}")
        if not abs(s - frame.s) <= 1e-12 * frame.s:
            raise ValueError(f"file was written with another window: its lattice sum "
                             f"s={s!r}, the frame's window gives s={frame.s!r}")
        raw = fh.read()
    count = math.prod(m + frame.P - 1 for m in frame.shape) * frame.P ** frame.d
    if len(raw) != 8 * count:
        raise ValueError(f"file holds {len(raw) / 8:g} values, the frame expects {count}")
    return np.frombuffer(raw, dtype=np.complex64).reshape(-1, frame.P ** frame.d).astype(complex)

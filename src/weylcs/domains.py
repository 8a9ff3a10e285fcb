"""Masked uniform grids representing an open set, with erosion and dilation.

Nodes live on the lattice origin + h * index.  The mask marks interior nodes,
so the set's lattice volume is the number of true nodes times h^d (the
euclidean weyl.weighted_volume).  Erosion and dilation threshold the
exact euclidean distance between lattice nodes, matching dist(x, boundary) in
the continuum definitions of the shrunk set Omega_eps and the fattened set
Omega^eps.  Distances are computed only up to the radius a threshold needs
(see :func:`lattice_dist2`), with numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class EmptyErosionError(ValueError):
    """Erosion removed every node; the caller must reduce eps."""


@dataclass(frozen=True, eq=False)
class GridDomain:
    h: float
    origin: tuple
    mask: np.ndarray
    box: tuple

    @functools.cached_property
    def occupancy(self):
        """(axes, filled): per axis, the lattice indices that hold a true node
        (the mask reduced over the other axes), and whether the true nodes
        fill the box those indices span.  An empty mask fills none."""
        axes = [np.flatnonzero(self.mask.any(axis=tuple(b for b in range(self.d) if b != a)))
                for a in range(self.d)]
        span = tuple(slice(i[0], i[-1] + 1) for i in axes if len(i))
        return axes, len(span) == self.d and bool(self.mask[span].all())

    @functools.cached_property
    def exact_box(self):
        """box when the mask, origin and h are exactly what rectangle_domain(box, h)
        builds, else None; weyl.weighted_volume then uses its closed form.

        That mask is the product of the per-axis interior vectors, so it is
        matched by the occupancy without building it."""
        try:
            # shapes first: a box far larger than the mask builds no lattice
            if _rectangle_shape(self.box, self.h) != list(self.shape) or \
                    tuple(float(a) for a, _ in self.box) != tuple(self.origin):
                return None
            inside = [np.flatnonzero(v) for v in _interior(self.box, self.h)]
        except ValueError:  # no lattice of that box at h, or no node inside it
            return None
        axes, filled = self.occupancy
        return self.box if filled and all(map(np.array_equal, inside, axes)) else None

    @property
    def d(self):
        return self.mask.ndim

    @property
    def shape(self):
        return self.mask.shape

    def axis_coords(self, axis):
        return self.origin[axis] + self.h * np.arange(self.shape[axis])


def box_sides(box, name="box"):
    """The sides b - a of a box given as one (a, b) pair per axis.

    The one rule of a box, which every routine that takes one applies:
    ValueError, its message starting with name and naming the box, unless it
    has at least one (a, b) pair and every side b - a is positive and finite,
    which makes a and b finite too.
    """
    try:
        sides = [b - a for a, b in box]
    except (TypeError, ValueError):  # not a sequence of number pairs
        sides = []
    if not sides or not all(0 < s < math.inf for s in sides):
        raise ValueError(f"{name} needs at least one (a, b) pair, and every side b - a "
                         f"positive and finite, got box={box!r}")
    return sides


def _rectangle_shape(box, h):
    """Nodes per axis of the lattice from each lower end, through the upper end.

    The one check of a box and its spacing: ValueError as in box_sides, or
    unless 0 < h < shortest side and the lattice can be indexed (the product
    of the (b - a)/h is below the largest np.intp).
    """
    sides = box_sides(box)
    if not 0 < h < min(sides):
        raise ValueError(f"need 0 < h < shortest side, got h={h!r}")
    if not math.prod(s / h for s in sides) < np.iinfo(np.intp).max:
        raise ValueError(f"the lattice of box {box!r} at h={h!r} has too many nodes to index")
    # the whole steps h that fit each side, to 1e-9 relative: the one rule
    # for a lattice's nodes along an axis
    return [int(math.floor(s / h * (1.0 + 1e-9))) + 1 for s in sides]


def _interior(box, h):
    """Per axis, which of the _rectangle_shape lattice nodes from the lower end
    of box lie strictly inside it: the one rule of a box's interior lattice.
    The mask of rectangle_domain is their product, and a frame's nodes
    (frames.build_frame) are the same.  ValueError as in _rectangle_shape, or
    when no node lies inside."""
    coords = [a + h * np.arange(m) for (a, _), m in zip(box, _rectangle_shape(box, h))]
    inside = [(c > a + 1e-9 * h) & (c < b - 1e-9 * h) for c, (a, b) in zip(coords, box)]
    if not all(v.any() for v in inside):
        raise ValueError("no interior nodes; reduce h")
    return inside


def rectangle_domain(box, h) -> GridDomain:
    """Grid domain for an open axis-aligned box; mask true strictly inside.
    ValueError as in _interior."""
    box = tuple((float(a), float(b)) for a, b in box)
    mask = functools.reduce(np.logical_and.outer, _interior(box, h))
    return GridDomain(h=h, origin=tuple(a for a, _ in box), mask=mask, box=box)


def lattice_dist2(target, r):
    """Squared lattice distance from each node to the nearest True node of target.

    Exact where it is at most r^2 and r^2 + 1 elsewhere; nodes beyond the
    array count as non-target.  Separable: per axis, D <- min over |t| <= r
    of D shifted by t, plus t^2, which takes the minimum over the target nodes
    in the cube of half-width r, a superset of the ball of radius r.
    O(n d r) for n nodes.
    """
    cap = r * r + 1
    dist2 = np.where(target, 0, cap)
    for axis in range(dist2.ndim):
        cur = np.moveaxis(dist2, axis, 0)
        m = len(cur)
        padded = np.full((m + 2 * r,) + cur.shape[1:], cap)
        padded[r:r + m] = cur
        out = cur.copy()
        for t in range(1, r + 1):
            np.minimum(out, padded[r + t:r + t + m] + t * t, out=out)
            np.minimum(out, padded[r - t:r - t + m] + t * t, out=out)
        dist2 = np.moveaxis(out, 0, axis)
    return np.minimum(dist2, cap)


def _zero_radius(eps):
    """The one rule of a morphology radius: ValueError unless 0 <= eps < inf.
    True for eps = 0, whose erosion and dilation are the set itself."""
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be >= 0 and finite, got {eps!r}")
    return eps == 0


def erode(dom: GridDomain, eps: float) -> GridDomain:
    """Nodes whose distance to the complement exceeds eps (Omega_eps);
    ValueError unless 0 <= eps < inf, EmptyErosionError if none does."""
    if _zero_radius(eps):
        return dom
    # distance to the nearest node outside the mask (nodes beyond the array
    # are outside), exact up to r*h >= min(eps, max(shape)*h) + h and above it
    # elsewhere: no node lies more than max(shape) steps from the outside
    r = int(math.ceil(min(eps / dom.h, max(dom.shape)))) + 1
    dist2 = lattice_dist2(np.pad(~dom.mask, 1, constant_values=True), r)
    mask = dom.h * np.sqrt(dist2[(slice(1, -1),) * dom.d]) > eps
    if not mask.any():
        raise EmptyErosionError("empty erosion")
    return GridDomain(h=dom.h, origin=dom.origin, mask=mask, box=dom.box)


def dilate(dom: GridDomain, eps: float) -> GridDomain:
    """Nodes within distance eps of the domain (Omega^eps); box padded by eps.
    ValueError unless 0 <= eps < inf and the padded lattice can be indexed
    (as in _rectangle_shape)."""
    if _zero_radius(eps):
        return dom
    if not math.prod(m + 2.0 * (eps / dom.h + 2.0) for m in dom.shape) < np.iinfo(np.intp).max:
        raise ValueError(f"the dilation by eps={eps!r} at h={dom.h!r} has too many nodes to index")
    pad = int(math.ceil(eps / dom.h)) + 1
    padded = np.pad(dom.mask, pad, constant_values=False)
    # exact below pad*h >= eps + h/2, the threshold
    dist = dom.h * np.sqrt(lattice_dist2(padded, pad))
    # half-cell correction: interior nodes under-represent the continuum set
    # by up to h/2 per side, so the raw threshold systematically under-dilates
    mask = padded | (dist < eps + 0.5 * dom.h)
    origin = tuple(o - pad * dom.h for o in dom.origin)
    box = tuple((a - pad * dom.h, b + pad * dom.h) for a, b in dom.box)
    return GridDomain(h=dom.h, origin=origin, mask=mask, box=box)


def save_mask(dom: GridDomain, path):
    """Plain-text mask format: key=value header, then run-length-encoded rows."""
    with open(path, "w") as fh:
        fh.write("# weylcs grid mask v1\n")
        fh.write(f"d={dom.d}\n")
        fh.write("h=%.17g\n" % dom.h)
        fh.write("origin=" + " ".join("%.17g" % o for o in dom.origin) + "\n")
        fh.write("box=" + " ".join("%.17g,%.17g" % (a, b) for a, b in dom.box) + "\n")
        fh.write("shape=" + " ".join(str(n) for n in dom.shape) + "\n")
        rows = dom.mask.reshape(-1, dom.shape[-1])
        for row in rows:
            fh.write(_rle_encode(row) + "\n")


def _rle_encode(row):
    ends = np.append(np.flatnonzero(row[1:] != row[:-1]) + 1, len(row))
    starts = np.append(0, ends[:-1])
    return " ".join(f"{int(row[s])}x{e - s}" for s, e in zip(starts, ends))


def _rle_decode(line, width, row):
    """The nodes of a row of BxN tokens, bit B (0 or 1) repeated N >= 1 times;
    ValueError naming the row (counted from 1) and the token or both lengths."""
    bits, counts = [], []
    for tok in line.split():
        bit, _, n = tok.partition("x")
        if bit not in ("0", "1") or not n.isdecimal() or int(n) < 1:
            raise ValueError(f"mask row {row}: bad run {tok!r}, need BxN with B 0 or 1 and N >= 1")
        bits.append(bit == "1")
        counts.append(int(n))
    if sum(counts) != width:  # before np.repeat allocates the row
        raise ValueError(f"mask row {row}: RLE row length mismatch, "
                         f"{sum(counts)} nodes for a shape width of {width}")
    return np.repeat(bits, counts)


def load_mask(path) -> GridDomain:
    """Read a save_mask file; header keys and values are stripped, so spaces
    around '=' are allowed."""
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, val = line.split("=", 1)
                header[key.strip()] = val.strip()
            else:
                rows.append(line)

    def parse(key, convert):
        if key not in header:
            raise ValueError(f"mask header lacks {key!r}")
        try:
            return convert(header[key])
        except ValueError as exc:
            raise ValueError(f"mask header: {key} cannot be parsed, got {header[key]!r}") from exc

    d = parse("d", int)
    h = parse("h", float)
    origin = parse("origin", lambda v: tuple(float(t) for t in v.split()))
    box = parse("box", lambda v: tuple(tuple(float(u) for u in t.split(",")) for t in v.split()))
    shape = parse("shape", lambda v: tuple(int(t) for t in v.split()))
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"mask header: h must be positive and finite, got {header['h']!r}")
    if not all(map(math.isfinite, origin)):
        raise ValueError(f"mask header: origin entries must be finite, got {header['origin']!r}")
    box_sides(box, name="mask header: box")
    if not d == len(origin) == len(box) == len(shape):
        raise ValueError(f"mask header: d={d} with {len(origin)} origin, {len(box)} box "
                         f"and {len(shape)} shape entries")
    if any(n < 1 for n in shape):
        raise ValueError(f"mask header: shape entries must be at least 1, got {header['shape']!r}")
    if len(rows) != math.prod(shape[:-1]):
        raise ValueError(f"mask header: shape {shape} needs {math.prod(shape[:-1])} rows, "
                         f"found {len(rows)}")
    mask = np.stack([_rle_decode(r, shape[-1], i) for i, r in enumerate(rows, 1)]).reshape(shape)
    return GridDomain(h=h, origin=origin, mask=mask, box=box)

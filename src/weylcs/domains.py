"""Masked uniform grids representing an open set, with erosion and dilation.

Nodes live on the lattice origin + h * index.  The mask marks interior nodes;
measure is (number of true nodes) * h^d.  Erosion and dilation threshold the
exact euclidean distance between lattice nodes, matching dist(x, boundary) in
the continuum definitions of the shrunk set Omega_eps and the fattened set
Omega^eps.  Distances are computed only up to the radius a threshold needs
(see :func:`lattice_dist2`), with numpy alone.
"""

from __future__ import annotations

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
    # Set when the mask is exactly the interior lattice of an axis-aligned box;
    # lets downstream leading-term integrals use closed forms.
    exact_box: tuple | None = None

    @property
    def d(self):
        return self.mask.ndim

    @property
    def shape(self):
        return self.mask.shape

    def axis_coords(self, axis):
        return self.origin[axis] + self.h * np.arange(self.shape[axis])

    def node_coords(self, idx):
        idx = np.asarray(idx)
        return np.asarray(self.origin) + self.h * idx

    @property
    def y1_min(self):
        i = np.nonzero(self.mask.any(axis=tuple(range(1, self.d))) if self.d > 1
                       else self.mask)[0]
        return self.origin[0] + self.h * i.min()

    @property
    def y1_max(self):
        i = np.nonzero(self.mask.any(axis=tuple(range(1, self.d))) if self.d > 1
                       else self.mask)[0]
        return self.origin[0] + self.h * i.max()


def rectangle_domain(box, h) -> GridDomain:
    """Grid domain for an open axis-aligned box; mask true strictly inside."""
    box = tuple((float(a), float(b)) for a, b in box)
    for a, b in box:
        if not b > a:
            raise ValueError("degenerate box")
    if h <= 0 or h >= min(b - a for a, b in box):
        raise ValueError("h must be positive and smaller than the shortest side")
    tol = 1e-9 * h
    shape = []
    for a, b in box:
        shape.append(int(math.floor((b - a) / h + tol)) + 1)
    mask = np.ones(shape, dtype=bool)
    for axis, (a, b) in enumerate(box):
        coords = a + h * np.arange(shape[axis])
        inside = (coords > a + tol) & (coords < b - tol)
        sl = [None] * len(box)
        sl[axis] = slice(None)
        mask &= inside[tuple(sl)]
    if not mask.any():
        raise ValueError("no interior nodes; reduce h")
    return GridDomain(h=h, origin=tuple(a for a, _ in box), mask=mask, box=box,
                      exact_box=box)


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


def clearance(mask, h, r):
    """Distance from each node to the nearest node outside mask (nodes beyond
    the array are outside), exact up to r*h and above it elsewhere."""
    inner = (slice(1, -1),) * mask.ndim
    return h * np.sqrt(lattice_dist2(np.pad(~mask, 1, constant_values=True), r)[inner])


def erode(dom: GridDomain, eps: float) -> GridDomain:
    """Nodes whose distance to the complement exceeds eps (Omega_eps)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return dom
    mask = clearance(dom.mask, dom.h, int(math.ceil(eps / dom.h)) + 1) > eps
    if not mask.any():
        raise EmptyErosionError("empty erosion")
    return GridDomain(h=dom.h, origin=dom.origin, mask=mask, box=dom.box)


def dilate(dom: GridDomain, eps: float) -> GridDomain:
    """Nodes within distance eps of the domain (Omega^eps); box padded by eps."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return dom
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


def measure(dom: GridDomain) -> float:
    return int(dom.mask.sum()) * dom.h ** dom.d


def save_mask(dom: GridDomain, path):
    """Plain-text mask format: key=value header, then run-length-encoded rows."""
    with open(path, "w") as fh:
        fh.write("# weylcs grid mask v1\n")
        fh.write(f"d={dom.d}\n")
        fh.write("h=%.17g\n" % dom.h)
        fh.write("origin=" + " ".join("%.17g" % o for o in dom.origin) + "\n")
        fh.write("box=" + " ".join("%.17g,%.17g" % (a, b) for a, b in dom.box) + "\n")
        fh.write("shape=" + " ".join(str(n) for n in dom.shape) + "\n")
        if dom.exact_box is not None:
            fh.write("exact_box=" + " ".join("%.17g,%.17g" % (a, b)
                                             for a, b in dom.exact_box) + "\n")
        rows = dom.mask.reshape(-1, dom.shape[-1])
        for row in rows:
            fh.write(_rle_encode(row) + "\n")


def _rle_encode(row):
    toks = []
    run_bit = bool(row[0])
    run_len = 0
    for b in row:
        if bool(b) == run_bit:
            run_len += 1
        else:
            toks.append(f"{int(run_bit)}x{run_len}")
            run_bit, run_len = bool(b), 1
    toks.append(f"{int(run_bit)}x{run_len}")
    return " ".join(toks)


def _rle_decode(line, width):
    out = np.empty(width, dtype=bool)
    pos = 0
    for tok in line.split():
        bit, count = tok.split("x")
        n = int(count)
        out[pos:pos + n] = bool(int(bit))
        pos += n
    if pos != width:
        raise ValueError("RLE row length mismatch")
    return out


def load_mask(path) -> GridDomain:
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, val = line.split("=", 1)
                header[key] = val
            else:
                rows.append(line)
    d = int(header["d"])
    h = float(header["h"])
    origin = tuple(float(t) for t in header["origin"].split())
    box = tuple(tuple(float(u) for u in t.split(",")) for t in header["box"].split())
    shape = tuple(int(t) for t in header["shape"].split())
    exact_box = None
    if "exact_box" in header:
        exact_box = tuple(tuple(float(u) for u in t.split(","))
                          for t in header["exact_box"].split())
    mask = np.stack([_rle_decode(r, shape[-1]) for r in rows]).reshape(shape)
    return GridDomain(h=h, origin=origin, mask=mask, box=box, exact_box=exact_box)

"""Sparse symmetric Dirichlet discretizations on masked grids.

Both operators are assembled in divergence form: the quadratic form is a sum
over grid edges of w_e * ((v_i - v_j)/h)^2, with edges to non-interior nodes
contributing w_e * (v_i/h)^2 (Dirichlet zero).  Edge weights are 1 for the
euclidean Laplacian and for the first axis of the hyperbolic operator, and
exp(2 x_1) for edges along the remaining axes (the edge midpoint shares the
node's x_1, so sampling at the node is exact).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domains import GridDomain


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    grid: GridDomain
    kind: str  # "euclidean" | "hyperbolic"
    nodes: np.ndarray  # (n, d) integer multi-indices, row k <-> nodes[k]
    row_of: np.ndarray = field(repr=False)  # grid-shaped, -1 outside
    # weight of the edges along axes 2..d at each x_1 index of the grid:
    # exp(2 x_1) (or the tilde_weight hook) for hyperbolic, 1 for euclidean
    tilde_weight: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.nodes)

    @functools.cached_property
    def matrix(self):
        """The sparse CSR matrix, assembled on first access."""
        return _assemble_matrix(self)

    def axis_weights(self):
        """Edge weight along each axis at each x_1 index of the grid: 1/h^2
        along x_1, tilde_weight/h^2 along the other axes."""
        inv_h2 = 1.0 / (self.grid.h * self.grid.h)
        return [np.full(len(self.tilde_weight), inv_h2)] + \
            [self.tilde_weight * inv_h2] * (self.grid.d - 1)

    def node_coords(self):
        return np.asarray(self.grid.origin) + self.grid.h * self.nodes


def diagonal(weights):
    """Diagonal entries from per-axis edge weights: a node has two edges along
    each axis, to a neighbour or to the boundary, and gets +w for each, in
    axis order (the exact rounding of the assembled matrix)."""
    diag = np.zeros_like(weights[0])
    for w in weights:
        diag += w
        diag += w
    return diag


def _assemble_matrix(op: DiscreteOperator):
    import scipy.sparse as sp  # slow import, needed here only

    nodes, row_of = op.nodes, op.row_of
    n = len(nodes)
    weights = [w[nodes[:, 0]] for w in op.axis_weights()]
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diagonal(weights)]
    for axis, w in enumerate(weights):
        # interior edges in the +axis direction: -w symmetric off-diagonal
        nb = nodes.copy()
        nb[:, axis] += 1
        in_bounds = nb[:, axis] < row_of.shape[axis]
        nb_row = np.full(n, -1, dtype=np.int64)
        nb_row[in_bounds] = row_of[tuple(nb[in_bounds].T)]
        i = np.flatnonzero(nb_row >= 0)
        j = nb_row[i]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-w[i], -w[i]])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def _assemble(dom: GridDomain, kind, tilde_weight=None):
    mask = dom.mask
    nodes = np.argwhere(mask)
    row_of = -np.ones(mask.shape, dtype=np.int64)
    row_of[mask] = np.arange(len(nodes))
    if kind == "hyperbolic" and dom.d > 1:
        if tilde_weight is None:
            tilde_weight = lambda x1: np.exp(2.0 * x1)
        x1_weight = np.asarray(tilde_weight(dom.axis_coords(0)), dtype=float)
    else:
        x1_weight = np.ones(mask.shape[0])
    return DiscreteOperator(grid=dom, kind=kind, nodes=nodes, row_of=row_of,
                            tilde_weight=x1_weight)


def assemble_euclidean(dom: GridDomain) -> DiscreteOperator:
    """Second-difference Dirichlet Laplacian on the interior nodes."""
    if not dom.mask.any():
        raise ValueError("empty domain")
    return _assemble(dom, "euclidean")


def assemble_hyperbolic(dom: GridDomain, tilde_weight=None) -> DiscreteOperator:
    """Discretization of -d^2/dx_1^2 - exp(2 x_1) * Laplacian in the tilde axes.

    tilde_weight is a test hook replacing exp(2 x_1); for d=1 the operator
    coincides with the euclidean one.
    """
    if not dom.mask.any():
        raise ValueError("empty domain")
    return _assemble(dom, "hyperbolic", tilde_weight=tilde_weight)


def apply(op: DiscreteOperator, v) -> np.ndarray:
    v = np.asarray(v)
    if v.shape[0] != op.n:
        raise DimensionMismatchError(f"expected length {op.n}, got {v.shape[0]}")
    return op.matrix @ v


def export_matrix(op: DiscreteOperator, path):
    """Coordinate text format: 'row col value' per stored entry, 17 significant digits."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write("# weylcs matrix v1\n")
        fh.write(f"# kind={op.kind} n={op.n} h={op.grid.h!r}\n")
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write("%d %d %.17g\n" % (i, j, v))

"""Sparse symmetric Dirichlet discretizations on masked grids.

Both operators are assembled in divergence form: the quadratic form is a sum
over grid edges of w_e * ((v_i - v_j)/h)^2, with edges to non-interior nodes
contributing w_e * (v_i/h)^2 (Dirichlet zero).  Edge weights are 1 for the
euclidean Laplacian and for the first axis of the hyperbolic operator, and
exp(2 x_1) for edges along the remaining axes (the edge midpoint shares the
node's x_1, so sampling at the node is exact).

The matrix is assembled in CSC form, the format SuperLU and ARPACK read.  It
is exactly symmetric with sorted indices, so its data, indices and indptr are
also those of its CSR form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domains import GridDomain


KINDS = ("euclidean", "hyperbolic")  # the operators this module assembles


class DimensionMismatchError(ValueError):
    pass


def weighted_axes(kind, d):
    """How many of the d axes the kind weights by exp(2 x_1): the d - 1 tilde
    axes for the hyperbolic operator, none for the euclidean one, so the two
    coincide for d = 1.  The one place that tells the kinds apart, and the
    one check of a kind: ValueError unless kind is in KINDS."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return d - 1 if kind == "hyperbolic" else 0


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    grid: GridDomain
    kind: str  # one of KINDS
    # weight of the edges along axes 2..d at each x_1 index of the grid:
    # exp(2 x_1) where the kind weights them (weighted_axes), 1 otherwise.
    # matrix is assembled from it on first access, so
    # dataclasses.replace(op, tilde_weight=w) gives the operator with weight w
    tilde_weight: np.ndarray = field(repr=False)

    @functools.cached_property
    def n(self):
        return int(np.count_nonzero(self.grid.mask))

    @functools.cached_property
    def nodes(self):
        """(n, d) integer multi-indices of the mask's nodes in C order, row k <->
        nodes[k], built on first access: the box path never reads them, and
        the map back from grid index to row is built with the matrix."""
        return np.argwhere(self.grid.mask)

    @functools.cached_property
    def matrix(self):
        """The sparse CSC matrix, assembled on first access."""
        return _assemble_matrix(self)

    def axis_weights(self):
        """Edge weight along each axis at each x_1 index of the grid: 1/h^2
        along x_1, tilde_weight/h^2 along the other axes."""
        inv_h2 = 1.0 / (self.grid.h * self.grid.h)
        return [np.full(len(self.tilde_weight), inv_h2)] + \
            [self.tilde_weight * inv_h2] * (self.grid.d - 1)

    @functools.cached_property
    def max_entry(self):
        """max |A_ij| from the edge weights, without the assembled matrix.

        A node's row holds the diagonal of its x_1 index and -w of that index
        along each axis with two nodes or more: the largest of those over the
        nodes' x_1 indices.  That is abs(A).max() bit for bit on a box, and on
        any mask when the weights are nonnegative (as assembled), since then
        each diagonal entry sums every weight of its row and is the largest.
        """
        axes, _ = self.grid.occupancy
        weights = [w[axes[0]] for w in self.axis_weights()]
        return max([np.abs(diagonal(weights)).max()]
                   + [np.abs(w).max() for w, idx in zip(weights, axes) if len(idx) > 1])


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

    nodes, n = op.nodes, op.n
    # -1 outside the mask, also on a layer past the upper end of every axis
    row_of = np.full(np.add(op.grid.shape, 1), -1, dtype=np.int64)
    row_of[tuple(nodes.T)] = np.arange(n)
    weights = [w[nodes[:, 0]] for w in op.axis_weights()]
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diagonal(weights)]
    for axis, w in enumerate(weights):
        # interior edges in the +axis direction: -w symmetric off-diagonal
        nb_row = row_of[tuple((nodes + np.eye(op.grid.d, dtype=np.int64)[axis]).T)]
        i = np.flatnonzero(nb_row >= 0)
        j = nb_row[i]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-w[i], -w[i]])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()  # in canonical form: duplicates summed, indices sorted


def _assemble(dom: GridDomain, kind):
    if not dom.mask.any():
        raise ValueError("empty domain")
    x1 = dom.axis_coords(0)
    weighted = weighted_axes(kind, dom.d) > 0
    with np.errstate(over="ignore"):
        x1_weight = np.exp(2.0 * x1) if weighted else np.ones(len(x1))
        op = DiscreteOperator(grid=dom, kind=kind, tilde_weight=x1_weight)
        if not np.isfinite(diagonal(op.axis_weights())).all():  # the largest entries
            entry = "exp(2 x_1)/h^2" if weighted else f"{2 * dom.d}/h^2"
            raise ValueError(f"matrix entries not finite with x_1 up to {x1.max():g} and "
                             f"h = {dom.h:g} ({kind}: {entry} overflows)")
    return op


def assemble_euclidean(dom: GridDomain) -> DiscreteOperator:
    """Second-difference Dirichlet Laplacian on the interior nodes; ValueError
    when its entries are not finite (h = nan) or the mask is empty."""
    return _assemble(dom, "euclidean")


def assemble_hyperbolic(dom: GridDomain) -> DiscreteOperator:
    """Discretization of -d^2/dx_1^2 - exp(2 x_1) * Laplacian in the tilde axes.

    For d=1 the operator coincides with the euclidean one.  Above, a grid on
    which exp(2 x_1)/h^2 overflows raises ValueError, as does an empty mask.
    """
    return _assemble(dom, "hyperbolic")


def export_matrix(op: DiscreteOperator, path):
    """Coordinate text format: 'row col value' per stored entry, 17 significant digits."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write("# weylcs matrix v1\n")
        fh.write(f"# kind={op.kind} n={op.n} h={op.grid.h!r}\n")
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write("%d %d %.17g\n" % (i, j, v))

"""Laplace kernel matrices for d = 1, 2, 3 assembled in H-form.

Inadmissible leaves are evaluated densely at the DoF points (collocation
style, with a regularized value on coincident points).  Admissible leaves are
approximated by Chebyshev tensor interpolation of the kernel on the bounding
boxes and then recompressed by SVD.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .blocks import ADMISSIBLE, build_block_tree
from .clustering import build_cluster_tree, DEFAULT_LEAFSIZE
from .hmatrix import HMatrix, build_hmatrix
from .lowrank import LowRank, TruncationControl, recompress


def default_order(d):
    """Interpolation order keeping tensor ranks near single digits."""
    return 4 if d == 3 else 5


@dataclass(frozen=True)
class KernelConfig:
    """Kernel dimension, interpolation order and truncation control.

    ``diag_distance`` is the regularization distance substituted when a
    matrix entry samples coincident points (half the local mesh width for
    the built-in geometries).
    """

    d: int
    order: int = 0
    truncation: TruncationControl = field(default_factory=TruncationControl)
    diag_distance: float | None = None

    def __post_init__(self):
        _check_dimension(self.d)
        k = self.order
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
            raise ValueError(f"interpolation order must be an integer >= 1 (0: default), got {k!r}")
        if k == 0:
            object.__setattr__(self, "order", default_order(self.d))


def _check_dimension(d):
    if d not in (1, 2, 3):
        raise ValueError("kernel dimension must be 1, 2 or 3")


def _kernel_of_distance(r, d):
    if d == 1:
        return -np.log(r)
    if d == 2:
        return -np.log(r) / (2.0 * math.pi)
    return 1.0 / (4.0 * math.pi * r)


def kernel_eval(x, y, d):
    """Laplace kernel value g(x, y) for dimension d; x != y required."""
    _check_dimension(d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = math.sqrt(float(np.sum((x - y) ** 2)))
    if r == 0.0:
        raise ValueError("kernel is singular at coincident points")
    return float(_kernel_of_distance(r, d))


def _pairwise_distance(xs, ys):
    """Distances between the rows of xs and ys, squares summed axis by axis."""
    r2 = None
    for a in range(xs.shape[1]):
        da = xs[:, a, None] - ys[None, :, a]
        r2 = da * da if r2 is None else r2 + da * da
    return np.sqrt(r2)


def assemble_dense_block(points, t, s, cfg: KernelConfig):
    """Dense kernel evaluation between the DoF points of two clusters."""
    xs = points[t.start : t.end]
    ys = points[s.start : s.end]
    r = _pairwise_distance(xs, ys)
    coincident = r == 0.0
    if np.any(coincident):
        if cfg.diag_distance is None:
            raise ValueError("coincident points but no regularization distance set")
        r = np.where(coincident, cfg.diag_distance, r)
    return _kernel_of_distance(r, cfg.d)


# -- Chebyshev tensor interpolation ------------------------------------------


def chebyshev_nodes(a, b, m):
    """m Chebyshev points of the first kind mapped to [a, b]."""
    i = np.arange(m)
    ref = np.cos((2 * i + 1) * math.pi / (2 * m))
    return 0.5 * (a + b) + 0.5 * (b - a) * ref


def lagrange_basis(nodes, x):
    """Matrix L with L[i, mu] the mu-th Lagrange polynomial at x[i]."""
    m = nodes.shape[0]
    if m == 1:
        return np.ones((x.shape[0], 1))
    # barycentric weights: row mu holds nodes[mu] - nodes[j] for j != mu
    off = (nodes[:, None] - nodes[None, :])[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    w = 1.0 / np.prod(off, axis=1)
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    safe = np.where(hit, 1.0, diff)
    terms = w[None, :] / safe
    out = terms / np.sum(terms, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        out[rows] = 0.0
        out[hit] = 1.0
    return out


def _cluster_basis(points, cluster, order):
    """Tensor grid of interpolation nodes on the bounding box and the Lagrange
    factor of the cluster's points: both depend on the cluster alone.

    Axes with zero extent collapse to the single center point, so the tensor
    rank only counts the non-degenerate directions.
    """
    xs = points[cluster.start : cluster.end]
    per_axis, u = [], None
    for a in range(cluster.dim):
        lo, hi = cluster.bbox_min[a], cluster.bbox_max[a]
        nodes = np.array([lo]) if hi == lo else chebyshev_nodes(lo, hi, order)
        per_axis.append(nodes)
        la = lagrange_basis(nodes, xs[:, a])
        u = la if u is None else (u[:, :, None] * la[:, None, :]).reshape(xs.shape[0], -1)
    mesh = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1), u


def _interpolated_block(basis_t, basis_s, cfg: KernelConfig) -> LowRank:
    (grid_t, ut), (grid_s, us) = basis_t, basis_s
    r = _pairwise_distance(grid_t, grid_s)
    if np.any(r == 0.0):
        raise ValueError("interpolation grids coincide; block is not admissible")
    core = _kernel_of_distance(r, cfg.d)
    return recompress(LowRank(ut @ core, us), cfg.truncation)


def assemble_lowrank_block(points, t, s, cfg: KernelConfig) -> LowRank:
    """Tensor-interpolated kernel block, recompressed to the tolerance."""
    basis_t, basis_s = (_cluster_basis(points, c, cfg.order) for c in (t, s))
    return _interpolated_block(basis_t, basis_s, cfg)


def assemble_hmatrix(block, points, cfg: KernelConfig) -> HMatrix:
    """Fill a block tree: admissible leaves low-rank, the rest dense.

    Each cluster's basis is built once per call, however many admissible
    blocks it spans; ``recompress`` returns fresh factors, so no leaf shares
    memory with a basis.
    """
    bases = {}

    def basis(c):
        if c not in bases:
            bases[c] = _cluster_basis(points, c, cfg.order)
        return bases[c]

    def payload(b):
        if b.kind == ADMISSIBLE:
            return _interpolated_block(basis(b.row), basis(b.col), cfg)
        return assemble_dense_block(points, b.row, b.col, cfg)

    return build_hmatrix(block, payload)


# -- built-in geometries ------------------------------------------------------


def geometry_points(d, n):
    """DoF coordinates: uniform interval, unit circle, or Fibonacci sphere."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if d == 1:
        return np.linspace(0.0, 1.0, n)[:, None]
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return np.stack((np.cos(ang), np.sin(ang)), axis=1)
    if d == 3:
        i = np.arange(n)
        golden = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - 2.0 * (i + 0.5) / n
        rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        ang = golden * i
        return np.stack((rad * np.cos(ang), rad * np.sin(ang), z), axis=1)
    raise ValueError("geometry dimension must be 1, 2 or 3")


def mesh_width(d, n):
    """Characteristic spacing of the built-in geometries."""
    if d == 1:
        return 1.0 / (n - 1)
    if d == 2:
        return 2.0 * math.sin(math.pi / n)
    return math.sqrt(4.0 * math.pi / n)


@dataclass
class BemCase:
    """An assembled kernel matrix together with its construction context."""

    hmatrix: HMatrix
    tree: object
    points: np.ndarray
    cfg: KernelConfig


def make_bem_case(
    d,
    n,
    eta,
    leafsize=DEFAULT_LEAFSIZE,
    order=0,
    eps=1e-6,
    kmax=None,
) -> BemCase:
    """Build geometry, trees and the assembled H-matrix for a kernel case."""
    pts = geometry_points(d, n)
    tree = build_cluster_tree(pts, leafsize)
    block = build_block_tree(tree, tree, eta)
    cfg = KernelConfig(
        d=d,
        order=order,
        truncation=TruncationControl(eps, kmax),
        diag_distance=0.5 * mesh_width(d, n),
    )
    h = assemble_hmatrix(block, tree.points, cfg)
    return BemCase(h, tree, tree.points, cfg)

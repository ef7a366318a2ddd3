"""Laplace kernel matrices for d = 1, 2, 3 assembled in H-form.

Inadmissible leaves are evaluated densely at the DoF points (collocation
style, with a regularized value on coincident points), one kernel evaluation
per block row.  Admissible leaves interpolate the kernel on Chebyshev tensor
grids over the bounding boxes: each cluster's Lagrange factor u = q r is
factored once, and the blocks of equal core shapes are recompressed together
by one stacked SVD of their cores r_t core r_s^T.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .blocks import ADMISSIBLE, INADMISSIBLE, PARTITIONED, BlockNode, build_block_tree
from .clustering import build_cluster_tree, DEFAULT_LEAFSIZE
from .hmatrix import HMatrix, build_hmatrix
from .lowrank import LowRank, TruncationControl, _kept_rank


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
    """Distances between the rows of xs and ys (after any leading stack axes)."""
    r2 = None
    for a in range(xs.shape[-1]):
        da = xs[..., :, a, None] - ys[..., None, :, a]
        r2 = da * da if r2 is None else r2 + da * da
    return np.sqrt(r2)


# Entries per dense kernel evaluation: longer rows' temporaries refault each row.
_RUN_ENTRIES = 1 << 14


def _dense_leaves(points, blocks, cfg: KernelConfig):
    """Dense payloads of ``blocks``: one kernel evaluation per block row (in runs of
    ``_RUN_ENTRIES``) against its blocks' concatenated column points."""
    rows, runs = {}, []
    for b in blocks:
        run = rows.get(b.row)
        if run is None or b.rows * (b.cols + sum(c.cols for c in run)) > _RUN_ENTRIES:
            rows[b.row] = run = []
            runs.append(run)
        run.append(b)
    out = {}
    for run in runs:
        t = run[0].row
        ys = np.concatenate([points[b.col.start : b.col.end] for b in run])
        r = _pairwise_distance(points[t.start : t.end], ys)
        if not r.all():
            if cfg.diag_distance is None:
                raise ValueError("coincident points but no regularization distance set")
            r[r == 0.0] = cfg.diag_distance
        values = _kernel_of_distance(r, cfg.d)
        for b, j in zip(run, itertools.accumulate((b.cols for b in run), initial=0)):
            out[b] = values[:, j : j + b.cols].copy()
    return out


def assemble_dense_block(points, t, s, cfg: KernelConfig):
    """Dense kernel evaluation between the DoF points of two clusters."""
    b = BlockNode(t, s, INADMISSIBLE)
    return _dense_leaves(points, [b], cfg)[b]


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
    w = 1.0 / off.prod(axis=1)
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    exact = hit.any()  # some x is a node: its row is the unit vector
    terms = w / (np.where(hit, 1.0, diff) if exact else diff)
    out = terms / terms.sum(axis=1, keepdims=True)
    if exact:
        out[hit.any(axis=1)] = 0.0
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


def _orthonormal_bases(points, clusters, order):
    """cluster -> (grid, q, r), q r the thin QR of its Lagrange factor, stacked by shape."""
    bases = {c: _cluster_basis(points, c, order) for c in clusters}
    shapes = defaultdict(list)
    for c, (_, u) in bases.items():
        shapes[u.shape].append(c)
    for group in shapes.values():
        q, r = np.linalg.qr(np.stack([bases[c][1] for c in group]))
        bases.update((c, (bases[c][0], q_c, r_c)) for c, q_c, r_c in zip(group, q, r))
    return bases


def _lowrank_leaves(points, blocks, cfg: KernelConfig):
    """Low-rank payloads of admissible ``blocks``: u_t core u_s^T = q_t (r_t core
    r_s^T) q_s^T, so each group of equal core shapes takes one stacked kernel
    evaluation, product and SVD, truncated per block by ``_kept_rank``."""
    bases = _orthonormal_bases(points, dict.fromkeys(c for b in blocks for c in (b.row, b.col)), cfg.order)
    groups = defaultdict(list)
    for b in blocks:
        t, s = bases[b.row], bases[b.col]
        groups[t[2].shape, s[2].shape].append((b, t, s))
    out = {}
    for members in groups.values():
        _, ts, ss = zip(*members)
        r = _pairwise_distance(np.stack([t[0] for t in ts]), np.stack([s[0] for s in ss]))
        if not r.all():
            raise ValueError("interpolation grids coincide; block is not admissible")
        core = np.stack([t[2] for t in ts]) @ _kernel_of_distance(r, cfg.d) @ np.stack([s[2].T for s in ss])
        u, sv, vt = np.linalg.svd(core, full_matrices=False)
        for (b, t, s), k, u_b, s_b, vt_b in zip(members, _kept_rank(sv, cfg.truncation), u, sv, vt):
            out[b] = LowRank(t[1] @ (u_b[:, :k] * s_b[:k]), s[1] @ vt_b[:k].T)
    return out


def assemble_lowrank_block(points, t, s, cfg: KernelConfig) -> LowRank:
    """Tensor-interpolated kernel block, recompressed to the tolerance."""
    b = BlockNode(t, s, ADMISSIBLE)
    return _lowrank_leaves(points, [b], cfg)[b]


def assemble_hmatrix(block, points, cfg: KernelConfig) -> HMatrix:
    """Fill a block tree: admissible leaves low-rank, the rest dense.

    Each cluster's grid and the thin QR of its Lagrange factor are built once
    per call; admissible blocks are filled in groups of equal core shapes
    (``_lowrank_leaves``), dense ones by block rows (``_dense_leaves``).
    """
    def leaves(b):
        return [x for row in b.sons for c in row for x in leaves(c)] if b.kind == PARTITIONED else [b]

    leaf_blocks = leaves(block)
    payloads = _lowrank_leaves(points, [b for b in leaf_blocks if b.kind == ADMISSIBLE], cfg)
    payloads.update(_dense_leaves(points, [b for b in leaf_blocks if b.kind != ADMISSIBLE], cfg))
    return build_hmatrix(block, payloads.__getitem__)


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

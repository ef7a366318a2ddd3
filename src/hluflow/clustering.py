"""Geometric clustering of degrees of freedom into a binary cluster tree.

Clusters are contiguous ranges of a global permutation of the DoF indices,
each with a tight axis-aligned bounding box.  Internal clusters are split by
bisecting the longest bounding-box axis at its midpoint, with a median
fallback so that degenerate point sets still terminate.
"""

from __future__ import annotations

import numpy as np

DEFAULT_LEAFSIZE = 32


class Cluster:
    """A contiguous DoF index range [start, end) with its bounding box."""

    __slots__ = ("start", "end", "bbox_min", "bbox_max", "sons", "level")

    def __init__(self, start, end, bbox_min, bbox_max, sons=(), level=0):
        self.start = start
        self.end = end
        self.bbox_min = bbox_min
        self.bbox_max = bbox_max
        self.sons = sons
        self.level = level

    @property
    def size(self):
        return self.end - self.start

    @property
    def is_leaf(self):
        return not self.sons

    @property
    def dim(self):
        return len(self.bbox_min)

    def __repr__(self):
        kind = "leaf" if self.is_leaf else "node"
        return f"Cluster({kind} [{self.start}:{self.end}) level={self.level})"


class ClusterTree:
    """Binary cluster tree over a permuted point set.

    Attributes
    ----------
    root : Cluster
    points : (n, d) array of the DoF coordinates in tree order.
    permutation : (n,) array mapping original DoF index -> tree-ordered index.
    leafsize : the maximum leaf size the construction aimed for.
    """

    def __init__(self, root, points, permutation, leafsize):
        self.root = root
        self.points = points
        self.permutation = permutation
        self.leafsize = leafsize


def _as_points(dofs):
    pts = np.asarray(dofs, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("DoF set must be a non-empty (n, d) coordinate array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("DoF coordinates must be finite")
    return pts


def build_cluster_tree(dofs, leafsize=DEFAULT_LEAFSIZE):
    """Build a binary cluster tree by recursive geometric bisection.

    Parameters
    ----------
    dofs : array_like, shape (n, d) or (n,)
        Coordinates of the degrees of freedom.
    leafsize : int
        Maximum number of DoFs in a leaf cluster.

    Returns
    -------
    ClusterTree
    """
    if leafsize < 1:
        raise ValueError("leafsize must be >= 1")
    pts = _as_points(dofs)
    n = pts.shape[0]
    order = np.arange(n)

    def build(lo, hi, level):
        sub = pts[order[lo:hi]]
        bmin = sub.min(axis=0)
        bmax = sub.max(axis=0)
        size = hi - lo
        if size <= leafsize:
            return Cluster(lo, hi, bmin, bmax, level=level)
        axis = int(np.argmax(bmax - bmin))
        coords = sub[:, axis]
        mid = 0.5 * (bmin[axis] + bmax[axis])
        left = coords <= mid
        k = int(np.count_nonzero(left))
        if k == 0 or k == size:
            # Midpoint split failed (clustered/duplicate coordinates):
            # median split, stable so equal coordinates keep their order.
            k = size // 2
            sel = np.argsort(coords, kind="stable")
            order[lo:hi] = order[lo:hi][sel]
        else:
            order[lo:hi] = np.concatenate((order[lo:hi][left], order[lo:hi][~left]))
        s0 = build(lo, lo + k, level + 1)
        s1 = build(lo + k, hi, level + 1)
        return Cluster(lo, hi, bmin, bmax, sons=(s0, s1), level=level)

    root = build(0, n, 0)
    permutation = np.empty(n, dtype=np.intp)
    permutation[order] = np.arange(n)
    return ClusterTree(root, pts[order], permutation, leafsize)


def diam(cluster):
    """Euclidean diameter of the cluster's bounding box."""
    return float(np.linalg.norm(cluster.bbox_max - cluster.bbox_min))


def dist(t, s):
    """Euclidean distance between the bounding boxes of two clusters."""
    if t.dim != s.dim:
        raise ValueError(f"dimension mismatch: {t.dim} vs {s.dim}")
    gap = np.maximum(0.0, np.maximum(t.bbox_min - s.bbox_max, s.bbox_min - t.bbox_max))
    return float(np.linalg.norm(gap))

"""Block tree construction over cluster pairs with the admissibility condition.

A block over the cluster pair (t, s) is either admissible (low-rank
approximable), inadmissible (stored dense), or partitioned into the grid of
son-cluster pairs.  Admissibility uses the standard geometric criterion
min{diam(t), diam(s)} <= eta * dist(t, s).
"""

from __future__ import annotations

import math

import numpy as np

from .clustering import Cluster, ClusterTree, diam, dist

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
PARTITIONED = "partitioned"


class BlockNode:
    """Node of the block tree over a (row cluster, column cluster) pair."""

    __slots__ = ("row", "col", "kind", "sons")

    def __init__(self, row, col, kind, sons=None):
        self.row = row
        self.col = col
        self.kind = kind
        self.sons = sons if sons is not None else []

    @property
    def rows(self):
        return self.row.size

    @property
    def cols(self):
        return self.col.size

    @property
    def row_range(self):
        return (self.row.start, self.row.end)

    @property
    def col_range(self):
        return (self.col.start, self.col.end)

    def __repr__(self):
        return f"BlockNode({self.kind} [{self.row.start}:{self.row.end})x[{self.col.start}:{self.col.end}))"


def admissible(t, s, eta):
    """True iff min{diam(t), diam(s)} <= eta * dist(t, s)."""
    if not eta > 0:  # also rejects NaN
        raise ValueError("eta must be positive")
    return min(diam(t), diam(s)) <= eta * dist(t, s)


def build_block_tree(rows: ClusterTree, cols: ClusterTree, eta=1.0):
    """Build the block tree over two cluster trees.

    An admissible pair becomes a leaf to be stored in low-rank form; a
    non-admissible pair where both clusters have sons is partitioned and all
    son pairs are recursed; any other pair becomes a dense leaf.  Each kind is
    the one ``admissible`` gives, from diameters and bounds cached per cluster.
    """
    admissible(rows.root, cols.root, eta)  # rejects a bad eta or mismatched dimensions
    geometry = {}

    def admits(t, s):
        for c in (t, s):
            if c not in geometry:
                geometry[c] = (diam(c), c.bbox_min.tolist(), c.bbox_max.tolist())
        (dt, t_lo, t_hi), (ds, s_lo, s_hi) = geometry[t], geometry[s]
        gap = sum(max(0.0, a - d, c - b) ** 2 for a, b, c, d in zip(t_lo, t_hi, s_lo, s_hi))
        near, far = min(dt, ds), eta * math.sqrt(gap)
        if abs(near - far) > 1e-12 * far:  # decided whatever the rounding of the sum
            return near < far
        return admissible(t, s, eta)  # a near tie: ask the exact test

    def build(t, s):
        if admits(t, s):
            return BlockNode(t, s, ADMISSIBLE)
        if t.sons and s.sons:
            grid = [[build(tc, sc) for sc in s.sons] for tc in t.sons]
            return BlockNode(t, s, PARTITIONED, grid)
        return BlockNode(t, s, INADMISSIBLE)

    return build(rows.root, cols.root)


def _uniform_binary_tree(n, depth):
    """Cluster tree over points 0..n-1 split to exactly `depth` levels."""
    if n < (1 << depth):
        raise ValueError(f"n={n} too small for {depth} bisection levels")
    pts = np.arange(n, dtype=float)[:, None]

    def build(lo, hi, level):
        bmin = np.array([float(lo)])
        bmax = np.array([float(hi - 1)])
        if level == depth:
            return Cluster(lo, hi, bmin, bmax, level=level)
        k = (hi - lo + 1) // 2
        s0 = build(lo, lo + k, level + 1)
        s1 = build(lo + k, hi, level + 1)
        return Cluster(lo, hi, bmin, bmax, sons=(s0, s1), level=level)

    root = build(0, n, 0)
    return ClusterTree(root, pts, np.arange(n, dtype=np.intp), max(1, n >> depth))


def build_diagonal_2x2_tree(n, depth, upper_right_split=False):
    """Synthetic block tree: diagonal blocks partitioned 2x2 down to `depth`,
    off-diagonal blocks kept as dense leaves at every level.

    With ``upper_right_split`` the top-level upper-right block is partitioned
    one extra 2x2 level, which is the smallest structure on which solve tasks
    from the second diagonal panel can overlap the first panel's tail.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if upper_right_split and depth < 2:
        raise ValueError("upper_right_split needs depth >= 2")
    tree = _uniform_binary_tree(n, max(depth, 2 if upper_right_split else depth))

    def offdiag(t, s, split):
        if split:
            grid = [
                [BlockNode(tc, sc, INADMISSIBLE) for sc in s.sons] for tc in t.sons
            ]
            return BlockNode(t, s, PARTITIONED, grid)
        return BlockNode(t, s, INADMISSIBLE)

    def build_diag(t, level):
        if level == depth:
            return BlockNode(t, t, INADMISSIBLE)
        t0, t1 = t.sons
        grid = [
            [build_diag(t0, level + 1), offdiag(t0, t1, upper_right_split and level == 0)],
            [offdiag(t1, t0, False), build_diag(t1, level + 1)],
        ]
        return BlockNode(t, t, PARTITIONED, grid)

    return build_diag(tree.root, 0), tree


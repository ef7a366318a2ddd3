"""Hierarchical matrix storage and the immutable skeleton slot array.

An HMatrix mirrors its block tree: inadmissible leaves hold dense numpy
arrays, admissible leaves hold LowRank factor pairs, partitioned nodes hold a
grid of children.  The skeleton assigns every leaf one slot in a flat array,
depth-first row-major, so that the slots below any block-tree node form a
contiguous interval.  Those intervals stand in for operand memory regions in
dependency detection and never change, no matter how the low-rank factors
are reallocated by the arithmetic.

Every product of an H-node or a leaf window with a block of vectors, from
either side, plain, subtracting or restricted to a factored triangle, goes
through the one walker ``_matvec_into``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .blocks import ADMISSIBLE, BlockNode, INADMISSIBLE, PARTITIONED
from .clustering import Cluster
from .lowrank import LowRank

DENSE = "dense"
LOWRANK = "lowrank"

_FLATTEN_GUARD = 4096


class StructureError(ValueError):
    """Block structure does not admit the requested operation."""


class HMatrix:
    """Matrix content attached to a block-tree node."""

    __slots__ = ("block", "kind", "data")

    def __init__(self, block: BlockNode, kind, data):
        self.block = block
        self.kind = kind
        self.data = data

    @property
    def rows(self):
        return self.block.rows

    @property
    def cols(self):
        return self.block.cols

    @property
    def row_range(self):
        return self.block.row_range

    @property
    def col_range(self):
        return self.block.col_range

    @property
    def is_leaf(self):
        return self.kind != PARTITIONED

    def child(self, i, j):
        return self.data[i][j]

    @property
    def rank(self):
        if self.kind != LOWRANK:
            raise StructureError("rank is defined for low-rank leaves only")
        return self.data.k

    def leaves(self):
        out = []
        stack = [self]
        while stack:
            h = stack.pop()
            if h.is_leaf:
                out.append(h)
            else:
                for row in reversed(h.data):
                    stack.extend(reversed(row))
        return out

    def copy(self):
        if self.kind == DENSE:
            return HMatrix(self.block, DENSE, self.data.copy())
        if self.kind == LOWRANK:
            return HMatrix(self.block, LOWRANK, self.data.copy())
        grid = [[c.copy() for c in row] for row in self.data]
        return HMatrix(self.block, PARTITIONED, grid)

    def __repr__(self):
        r0, r1 = self.row_range
        c0, c1 = self.col_range
        return f"HMatrix({self.kind} [{r0}:{r1})x[{c0}:{c1}))"


def build_hmatrix(block: BlockNode, policy="zero") -> HMatrix:
    """Create an HMatrix matching a block tree leaf for leaf.

    ``policy`` fills the leaves: the default 'zero' gives zero dense blocks
    and rank-0 low-rank blocks; a callable ``policy(leaf_block)`` may return
    a dense array or a LowRank instead.
    """

    def content(b):
        if callable(policy):
            data = policy(b)
            if b.kind == ADMISSIBLE and not isinstance(data, LowRank):
                raise StructureError("policy must return LowRank for admissible leaves")
            if b.kind == INADMISSIBLE and not isinstance(data, np.ndarray):
                raise StructureError("policy must return an array for dense leaves")
            return data
        if b.kind == ADMISSIBLE:
            return LowRank.zeros(b.rows, b.cols)
        return np.zeros((b.rows, b.cols))

    def build(b):
        if b.kind == PARTITIONED:
            grid = [[build(c) for c in row] for row in b.sons]
            return HMatrix(b, PARTITIONED, grid)
        kind = LOWRANK if b.kind == ADMISSIBLE else DENSE
        return HMatrix(b, kind, content(b))

    return build(block)


class Skeleton:
    """One immutable slot per H-matrix leaf, in depth-first row-major order.

    ``ranges`` maps every block-tree node to the half-open interval of slot
    indices covering the leaves below it, so intervals of any two nodes are
    equal, nested or disjoint.
    """

    def __init__(self, size, ranges, leaf_order):
        self.size = size
        self.ranges = ranges
        self.leaf_order = leaf_order

    def fingerprint(self):
        h = hashlib.sha256(str(self.size).encode())
        for block in self.leaf_order:
            lo, hi = self.ranges[block]
            h.update(b"%d:%d;" % (lo, hi))
        for block, (lo, hi) in sorted(
            self.ranges.items(), key=lambda kv: (kv[1], kv[0].row_range, kv[0].col_range)
        ):
            h.update(b"%d,%d|" % (lo, hi))
        return h.hexdigest()


def build_skeleton(h) -> Skeleton:
    """Enumerate leaves depth-first row-major and record per-node intervals."""
    root = h.block if isinstance(h, HMatrix) else h
    ranges = {}
    leaf_order = []

    def visit(b, lo):
        if b.kind != PARTITIONED:
            ranges[b] = (lo, lo + 1)
            leaf_order.append(b)
            return lo + 1
        hi = lo
        for row in b.sons:
            for c in row:
                hi = visit(c, hi)
        ranges[b] = (lo, hi)
        return hi

    size = visit(root, 0)
    return Skeleton(size, ranges, leaf_order)


def hmatvec(h: HMatrix, x):
    """y = h @ x by recursion over the block structure."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != h.cols:
        raise ValueError(f"length mismatch: {h.cols} columns vs {x.shape[0]}")
    y = np.zeros(h.rows) if x.ndim == 1 else np.zeros((h.rows, x.shape[1]))
    _matvec_into(h, x, y)
    return y


class _Window:
    """Rectangular window of a leaf block, in global index coordinates.

    Reads like an HMatrix leaf: ``kind``, ``block`` (the leaf's, so it
    declares the leaf's slot), ``row_range``, ``col_range`` and ``data``, the
    payload cut to the window as views, so in-place writes reach the leaf.
    """

    __slots__ = ("leaf", "kind", "block", "row_range", "col_range")

    def __init__(self, leaf, row_range, col_range):
        if isinstance(leaf, _Window):
            leaf = leaf.leaf
        self.leaf = leaf
        self.kind = leaf.kind
        self.block = leaf.block
        self.row_range = row_range
        self.col_range = col_range

    @property
    def data(self):
        r0 = self.block.row.start
        c0 = self.block.col.start
        rows = slice(self.row_range[0] - r0, self.row_range[1] - r0)
        cols = slice(self.col_range[0] - c0, self.col_range[1] - c0)
        d = self.leaf.data
        if self.kind == DENSE:
            return d[rows, cols]
        return LowRank(d.a[rows], d.b[cols])


def _matvec_into(op, x, y, right=False, acc=None, tri=None):
    """Accumulate op @ x into y, or x @ op if ``right``, leaf by leaf.

    ``op`` is an H-node or a leaf window.  Each leaf adds its product a @ b
    with ``y += a @ b``, or calls ``acc(y, a, b)`` instead (``gemm_update``
    subtracts).  ``tri`` 'L' or 'U' restricts a factored diagonal block to
    its unit-lower or its upper triangle; it takes the plain add only.
    """
    kind = op.kind
    if kind == PARTITIONED:
        r0 = op.block.row.start
        c0 = op.block.col.start
        for i, row in enumerate(op.data):
            for j, c in enumerate(row):
                if tri is not None and (j > i if tri == "L" else j < i):
                    continue
                b = c.block
                i0, i1 = b.row.start - r0, b.row.end - r0
                j0, j1 = b.col.start - c0, b.col.end - c0
                sub = tri if i == j else None
                if right:
                    _matvec_into(c, x[:, i0:i1], y[:, j0:j1], True, acc, sub)
                else:
                    _matvec_into(c, x[j0:j1], y[i0:i1], False, acc, sub)
        return
    d = op.data
    if kind == LOWRANK:
        if tri is not None:
            raise StructureError("factored matrix has a low-rank diagonal block")
        a, b = (x @ d.a, d.b.T) if right else (d.a, d.b.T @ x)
    elif tri is None:
        a, b = (x, d) if right else (d, x)
    else:
        t = np.tril(d, -1) if tri == "L" else np.triu(d)
        p = x @ t if right else t @ x
        y += p + x if tri == "L" else p
        return
    if acc is None:
        y += a @ b
    else:
        acc(y, a, b)


def flatten(h: HMatrix, guard=_FLATTEN_GUARD):
    """Expand to a dense array; refuses blocks larger than the guard."""
    if max(h.rows, h.cols) > guard:
        raise ValueError(
            f"flatten of {h.rows}x{h.cols} exceeds the dense-storage guard {guard}"
        )
    out = np.zeros((h.rows, h.cols))
    r0 = h.row_range[0]
    c0 = h.col_range[0]
    for leaf in h.leaves():
        i0, i1 = leaf.row_range
        j0, j1 = leaf.col_range
        if leaf.kind == DENSE:
            out[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0] = leaf.data
        else:
            out[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0] = leaf.data.value()
    return out


def structure_dump(h: HMatrix):
    """Leaf list with ranges, kind and rank; the block-picture export."""
    lines = []
    for leaf in h.leaves():
        r0, r1 = leaf.row_range
        c0, c1 = leaf.col_range
        rank = str(leaf.data.k) if leaf.kind == LOWRANK else "dense"
        lines.append(f"[{r0}:{r1}) [{c0}:{c1}) {leaf.kind} {rank}")
    return "\n".join(lines) + "\n"


# -- binary round-trip ------------------------------------------------------


def _structure_json(b: BlockNode):
    node = {
        "row": list(b.row_range),
        "col": list(b.col_range),
        "kind": b.kind,
    }
    if b.kind == PARTITIONED:
        node["sons"] = [[_structure_json(c) for c in row] for row in b.sons]
    return node


def save_hmatrix(path, h: HMatrix):
    """Write structure plus leaf payloads; geometry is not preserved."""
    arrays = {}
    for i, leaf in enumerate(h.leaves()):
        if leaf.kind == DENSE:
            arrays[f"leaf{i}_d"] = leaf.data
        else:
            arrays[f"leaf{i}_a"] = leaf.data.a
            arrays[f"leaf{i}_b"] = leaf.data.b
    header = json.dumps(_structure_json(h.block))
    with open(path, "wb") as f:
        np.savez(f, header=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)


def _stub_cluster(rng):
    lo, hi = rng
    return Cluster(lo, hi, np.array([float(lo)]), np.array([float(hi)]))


def load_hmatrix(path) -> HMatrix:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        counter = [0]

        def rebuild(node):
            row = _stub_cluster(node["row"])
            col = _stub_cluster(node["col"])
            if node["kind"] == PARTITIONED:
                grid_b = []
                grid_h = []
                for srow in node["sons"]:
                    rb, rh = [], []
                    for sub in srow:
                        hb = rebuild(sub)
                        rb.append(hb.block)
                        rh.append(hb)
                    grid_b.append(rb)
                    grid_h.append(rh)
                block = BlockNode(row, col, PARTITIONED, grid_b)
                return HMatrix(block, PARTITIONED, grid_h)
            i = counter[0]
            counter[0] += 1
            block = BlockNode(row, col, node["kind"])
            if node["kind"] == INADMISSIBLE:
                return HMatrix(block, DENSE, data[f"leaf{i}_d"].copy())
            return HMatrix(
                block, LOWRANK, LowRank(data[f"leaf{i}_a"], data[f"leaf{i}_b"])
            )

        return rebuild(header)

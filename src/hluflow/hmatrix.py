"""Hierarchical matrix storage and the immutable skeleton slot array.

An HMatrix mirrors its block tree: inadmissible leaves hold dense numpy
arrays, admissible leaves LowRank factor pairs unless a plan stored them
dense, partitioned nodes a grid of children.  The skeleton assigns every leaf
of the HMatrix it is given one slot in a flat array, depth-first row-major, so
that the slots below any node form a contiguous interval.  Those intervals
stand in for operand memory regions in dependency detection and never change,
no matter how the low-rank factors are reallocated by the arithmetic.  Given a
plan's coarse tree, a coalesced node is one leaf and one slot: dependencies are
tracked at the grain the storage is factored in.

Every product of an H-node or a leaf window with a block of vectors, from
either side, plain, subtracting or restricted to a factored triangle, goes
through the one walker ``_matvec_into``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .blocks import ADMISSIBLE, BlockNode, PARTITIONED
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
        if self.kind == PARTITIONED:
            return HMatrix(self.block, PARTITIONED, [[c.copy() for c in row] for row in self.data])
        return HMatrix(self.block, self.kind, self.data.copy())

    def __repr__(self):
        r0, r1 = self.row_range
        c0, c1 = self.col_range
        return f"HMatrix({self.kind} [{r0}:{r1})x[{c0}:{c1}))"


def _zero(b):
    if b.kind == ADMISSIBLE:
        return LowRank.zeros(b.rows, b.cols)
    return np.zeros((b.rows, b.cols))


def build_hmatrix(block: BlockNode, policy=_zero) -> HMatrix:
    """Create an HMatrix matching a block tree leaf for leaf.

    ``policy(leaf_block)`` returns each leaf's payload, which sets its format:
    an array gives a dense leaf for any block, a LowRank a low-rank leaf of an
    admissible block.  The default gives zero dense blocks and rank-0
    low-rank blocks.
    """

    def build(b):
        if b.kind == PARTITIONED:
            return HMatrix(b, PARTITIONED, [[build(c) for c in row] for row in b.sons])
        data = policy(b)
        if isinstance(data, np.ndarray):
            return HMatrix(b, DENSE, data)
        if isinstance(data, LowRank) and b.kind == ADMISSIBLE:
            return HMatrix(b, LOWRANK, data)
        raise StructureError(f"policy returned {type(data).__name__} for {b!r}")

    return build(block)


class Skeleton:
    """One immutable slot per leaf of an H-matrix tree, in depth-first row-major order.

    ``ranges`` maps the block of every node of that tree to the half-open
    interval of slot indices covering the leaves below it, so intervals of
    any two nodes are equal, nested or disjoint.
    """

    def __init__(self, size, ranges):
        self.size = size
        self.ranges = ranges


def build_skeleton(h: HMatrix) -> Skeleton:
    """Enumerate the leaves of ``h`` depth-first row-major and record per-node intervals.

    The leaves are ``h``'s, not its block tree's: a dense leaf over a
    partitioned block (a node ``make_plan`` coalesced) takes one slot.
    """
    ranges = {}

    def visit(node, lo):
        if node.kind != PARTITIONED:
            ranges[node.block] = (lo, lo + 1)
            return lo + 1
        hi = lo
        for row in node.data:
            for c in row:
                hi = visit(c, hi)
        ranges[node.block] = (lo, hi)
        return hi

    size = visit(h, 0)
    return Skeleton(size, ranges)


def _operand(h: HMatrix, x):
    """``x`` as a float array, checked to have one entry (row) per column of ``h``."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != h.cols:
        raise ValueError(f"length mismatch: {h.cols} columns vs {x.shape[0]}")
    return x


def hmatvec(h: HMatrix, x):
    """y = h @ x by recursion over the block structure."""
    x = _operand(h, x)
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


def _block_from_json(node):
    row, col = _stub_cluster(node["row"]), _stub_cluster(node["col"])
    sons = [[_block_from_json(c) for c in srow] for srow in node.get("sons", [])]
    return BlockNode(row, col, node["kind"], sons)


def load_hmatrix(path) -> HMatrix:
    with np.load(path) as data:
        block = _block_from_json(json.loads(bytes(data["header"]).decode()))
        ids = itertools.count()

        def payload(b):
            # a plan may store an admissible leaf dense: the saved arrays tell its format
            i = next(ids)
            if f"leaf{i}_d" in data.files:
                return data[f"leaf{i}_d"].copy()
            return LowRank(data[f"leaf{i}_a"], data[f"leaf{i}_b"])

        return build_hmatrix(block, payload)

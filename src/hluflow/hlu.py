"""Recursive right-looking H-LU factorization, inline or as nested tasks.

The factorization of a partitioned block runs the classic sequence per
diagonal step: factor the diagonal block, solve the row panel with the new
lower factor, solve the column panel with the new upper factor, then
multiply-accumulate into the trailing blocks, recursing on partitioned
operands.  Each block operation is one record, ``_Op(kind, x, a, b)``, that
an executor (carrying the truncation control and the flop counter) gets as a
leaf, run whole by ``_kernel``, or as a recursion level, split by ``_expand``.
Executed inline this is the sequential algorithm; emitted onto the task
runtime every level becomes a parent task (weak accesses under early
release, strong otherwise) and every leaf op a task whose regions are
exactly the skeleton intervals of its operands, so the runtime rediscovers
the dependency structure of the recursion.  Below a granularity cutoff (see
``_Emit``) a whole level runs inline inside one strong task, as OpenMP's
``final`` clause would.

Products are exact.  An update with a low-rank operand is one leaf op whatever
its destination's partition: it forms its product once and hands each leaf of
the destination its slices.  A low-rank leaf sums its updates in a fixed
source order and is truncated only by its flush, before its triangular solve
or at the half-block bound; parallel runs match the sequential result bit for bit.
Leaf formats are fixed by ``make_plan`` before any run: it stores dense each
low-rank leaf that a dense x dense update alone would push to that bound,
and coalesces each small all-dense node into one array that the recursion
factors as one dense leaf.  The skeleton numbers the leaves of that coarse
tree, so a coalesced node is one slot: regions follow the storage's grain.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .blocks import PARTITIONED
from .hmatrix import DENSE, HMatrix, LOWRANK, Skeleton, StructureError, build_skeleton
from .hmatrix import _matvec_into, _operand, _Window
# add_truncated and compress_dense are unused here: perfbench's traced run wraps
# hlu.add_truncated, hlu.recompress and hlu.compress_dense, looked up by name
from .lowrank import (
    LowRank,
    TruncationControl,
    add_truncated,
    compress_dense,
    gemm_update,
    lu_nopivot,
    recompress,
    trsm_lower_unit,
    trsm_upper_right,
)
from .runtime import Region, Runtime

SEQUENTIAL = "sequential"
PARALLEL = "parallel"


class FlopCounter:
    """Thread-safe accumulator of per-kernel integer flop estimates, exact in any order."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def add(self, n):
        with self._lock:
            self.total += n


@dataclass
class HluPlan:
    """Everything one factorization run needs, fixed up front."""

    matrix: HMatrix
    skeleton: Skeleton
    truncation: TruncationControl
    mode: str = SEQUENTIAL
    workers: int = 1
    wd_er: bool = True
    flops: FlopCounter = field(default_factory=FlopCounter)
    # The tree the recursion factors; default ``matrix``.  Apply the factors through
    # ``matrix``: on bem3d (seed 1) ``coarse`` read the probe residual 4.21e-16 -> 5.13e-16.
    coarse: HMatrix | None = None

    def __post_init__(self):
        if self.coarse is None:
            self.coarse = self.matrix
        ranges = self.skeleton.ranges
        for leaf in self.coarse.leaves():
            if leaf.block not in ranges:
                raise StructureError(
                    f"the skeleton of {self.skeleton.size} slots has no interval for "
                    f"{_lbl('leaf', leaf)} of the tree the recursion factors"
                )


def make_plan(
    h: HMatrix,
    truncation: TruncationControl | None = None,
    mode: str = SEQUENTIAL,
    workers: int = 1,
    wd_er: bool = True,
    seed: int = 0,
) -> HluPlan:
    """Fix the formats and storage of ``h``'s leaves; bundle it with the tree the
    recursion factors, that tree's skeleton and the settings.

    One bodiless walk of the recursion in program order (``_Formats``) stores
    dense, in ``h`` and not in the matrices it shares blocks with, each
    low-rank leaf that a dense x dense update would push to the half-block
    bound.  Then each largest partitioned node whose leaves are all dense
    and smaller than ``_COALESCE_BELOW`` rows and columns, and whose larger
    side is at most n // 4 (the grain of 2 workers), becomes one array
    (``_coalesce``): ``h`` keeps its block tree, its leaves views into those
    arrays, and ``plan.coarse`` holds each such node as one dense leaf, which
    ``plan.skeleton`` numbers as one slot.  Coalescing and a walk over
    ``plan.coarse``, with its wider operands, repeat until that walk stores no
    leaf dense; leaves only turn dense, so this ends.  All of this is the same
    in every mode and for any ``workers`` and ``wd_er``; ``seed`` is ignored.
    """
    if mode not in (SEQUENTIAL, PARALLEL):
        raise ValueError(f"unknown mode {mode!r}")
    ctl = truncation if truncation is not None else TruncationControl()
    coarse = h
    if h.rows == h.cols:
        _factor(_Formats(), h)
        walk = None
        while walk is None or walk.stored:
            coarse, walk = _coalesce(h, h.rows // 4), _Formats()
            _factor(walk, coarse)
    return HluPlan(
        matrix=h,
        skeleton=build_skeleton(coarse),
        truncation=ctl,
        mode=mode,
        workers=workers,
        wd_er=wd_er,
        coarse=coarse,
    )


# Leaves of this many rows or columns repay a BLAS call on their own (see
# lowrank._GEMM_MIN_WORK); smaller ones are worth coalescing.
_COALESCE_BELOW = 128


def _coalesce(h, side):
    """A tree over ``h``'s blocks and leaves, with each largest qualifying node (see
    ``make_plan``) one dense leaf: an array the leaves below it become views of."""
    if h.kind != PARTITIONED:
        return h
    leaves = h.leaves() if max(h.rows, h.cols) <= side else ()
    if leaves and all(
        leaf.kind == DENSE and max(leaf.rows, leaf.cols) < _COALESCE_BELOW for leaf in leaves
    ):
        block = np.empty((h.rows, h.cols))
        r0, c0 = h.row_range[0], h.col_range[0]
        for leaf in leaves:
            (i0, i1), (j0, j1) = leaf.row_range, leaf.col_range
            view = block[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0]
            view[...] = leaf.data
            leaf.data = view
        return HMatrix(h.block, DENSE, block)
    return HMatrix(h.block, PARTITIONED, [[_coalesce(c, side) for c in row] for row in h.data])


# -- operands -----------------------------------------------------------------


def _times(op, x, right=False):
    """op @ x, or x @ op if ``right``, as a new array."""
    if right:
        y = np.zeros((x.shape[0], op.col_range[1] - op.col_range[0]))
    else:
        y = np.zeros((op.row_range[1] - op.row_range[0], x.shape[1]))
    _matvec_into(op, x, y, right)
    return y


def _row_splits(op):
    return [child.row_range for child in (row[0] for row in op.data)]


def _col_splits(op):
    return [child.col_range for child in op.data[0]]


# -- products ------------------------------------------------------------------


def _product_grid(a, b, c=None):
    """The cells of a @ b, cut along the partitions of c (if given), a and b.

    Yields ``(i, j, rows, cols, pairs)`` row by row, ``pairs`` listing the
    inner operands (a_ip, b_pj) as children or ``_Window``s of leaves.
    """
    a_part = a.kind == PARTITIONED
    b_part = b.kind == PARTITIONED
    c_part = c is not None and c.kind == PARTITIONED
    if a_part and b_part and _col_splits(a) != _row_splits(b):
        raise StructureError(f"inner partitions of {_lbl('', a)} @ {_lbl('', b)} do not match")
    rows = _row_splits(c) if c_part else (_row_splits(a) if a_part else [a.row_range])
    cols = _col_splits(c) if c_part else (_col_splits(b) if b_part else [b.col_range])
    mids = _col_splits(a) if a_part else (_row_splits(b) if b_part else [a.col_range])
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            pairs = [
                (
                    a.child(i, p) if a_part else _Window(a, rr, mm),
                    b.child(p, j) if b_part else _Window(b, mm, cc),
                )
                for p, mm in enumerate(mids)
            ]
            yield i, j, rr, cc, pairs


def _product(a, b):
    """The exact product a @ b of two H-operands as a factor pair (u, vt), u @ vt == a @ b.

    The factors may share the operands' memory; vt is a new array if a is
    low-rank or an operand is partitioned, where the pair stacks the pairs of
    the grid's cells, each zero-padded to the whole.
    """
    if a.kind == LOWRANK:
        fa = a.data
        return fa.a, _times(b, fa.b.T, right=True)
    if b.kind == LOWRANK:
        fb = b.data
        return _times(a, fb.a), fb.b.T
    if a.kind == DENSE and b.kind == DENSE:
        return a.data, b.data
    parts = [(rr, cc, *_product(ap, bp))
             for _, _, rr, cc, pairs in _product_grid(a, b) for ap, bp in pairs]
    r0, c0 = parts[0][0][0], parts[0][1][0]
    k_total = sum(pu.shape[1] for _, _, pu, _ in parts)
    u = np.zeros((parts[-1][0][1] - r0, k_total))
    vt = np.zeros((k_total, parts[-1][1][1] - c0))
    off = 0
    for rr, cc, pu, pvt in parts:
        u[rr[0] - r0 : rr[1] - r0, off : off + pu.shape[1]] = pu
        vt[off : off + pu.shape[1], cc[0] - c0 : cc[1] - c0] = pvt
        off += pu.shape[1]
    return u, vt


# -- operations and the recursion ------------------------------------------------------


class _Op(NamedTuple):
    """One block operation: ``kind`` writes ``x`` and reads ``a`` and ``b``.

    ``lu`` factors x; ``lsolve`` / ``rsolve`` solve x with the factored
    diagonal block a; ``update`` is x -= a @ b; ``lpanel`` / ``rpanel``, the
    steps of a leaf's solve, are x -= a @ b or x -= b @ a, x and b panels of
    that leaf.
    """

    kind: str
    x: object
    a: object = None
    b: object = None


_PANELS = ("lpanel", "rpanel")


def _lbl(kind, x, y=None):
    """A task's label: its kind and x's row and column ranges, then y's after ``<-``.

    ``_Emit`` labels an update or a panel op ``update`` x ``<-`` a, any other op by its kind and x.
    """
    (r0, r1), (c0, c1) = x.row_range, x.col_range
    label = f"{kind}[{r0}:{r1})x[{c0}:{c1})"
    return label if y is None else label + _lbl("<-", y)


def _factor(ex, h):
    """h := its L\\U factors, a dense leaf or a square grid with square diagonal blocks."""
    if h.kind == LOWRANK:
        raise StructureError(f"diagonal block {_lbl('lu', h)} is low-rank; expected dense")
    if h.kind == DENSE and h.rows != h.cols:
        raise StructureError(f"LU requires a square block, got {_lbl('lu', h)}")
    if h.kind == PARTITIONED and len(h.data) != len(h.data[0]):
        raise StructureError(f"LU requires a square grid at {_lbl('lu', h)}")
    ex.run(_Op("lu", h), h.kind == DENSE)


def _solve(ex, f, b, right):
    """b := f^-1 b, or b := b f^-1 if ``right``, f a factored diagonal block.

    On the left f acts as its unit lower factor, on the right as its upper
    factor.  ``b`` is an H-node or a row (left) or column (right) window of
    a leaf; against a partitioned factor a leaf is solved panel by panel, in
    place, and against a dense factor a partitioned b block by block, the
    factor cut into windows at b's splits.  The first solve body that
    reaches a low-rank leaf flushes it.
    """
    leaf = f.kind == DENSE and b.kind != PARTITIONED
    ex.run(_Op("rsolve" if right else "lsolve", b, f), leaf)


def _update(ex, c, a, b):
    """c := c - a @ b in H-arithmetic; c may be a node or a dense window.

    An update with a low-rank operand or target, or with leaves only, is one
    leaf op: it forms its product once and hands slices to every leaf of c.
    """
    kinds = (c.kind, a.kind, b.kind)
    leaf = LOWRANK in kinds or PARTITIONED not in kinds
    ex.run(_Op("update", c, a, b), leaf)


def _expand(ex, op):
    """Hand ``ex`` the ops of one recursion level of ``op`` in program order.

    A solve visits a partitioned x transposed on the right, so both sides run
    one block-row elimination.
    """
    kind, x, a, b = op
    right = kind == "rsolve"
    if kind == "lu":
        nb = len(x.data)
        for k in range(nb):
            _factor(ex, x.child(k, k))
            for j in range(k + 1, nb):
                _solve(ex, x.child(k, k), x.child(k, j), False)
            for i in range(k + 1, nb):
                _solve(ex, x.child(k, k), x.child(i, k), True)
            for i in range(k + 1, nb):
                for j in range(k + 1, nb):
                    _update(ex, x.child(i, j), x.child(i, k), x.child(k, j))
    elif kind == "update":
        c_part = x.kind == PARTITIONED
        for i, j, rr, cc, pairs in _product_grid(a, b, x):
            ci = x.child(i, j) if c_part else _Window(x, rr, cc)
            for ap, bp in pairs:
                _update(ex, ci, ap, bp)
    elif x.kind == PARTITIONED:
        m = len(x.data) if right else len(x.data[0])
        xc = (lambda i, j: x.child(j, i)) if right else x.child
        cuts = _col_splits(x) if right else _row_splits(x)
        ac = a.child if a.kind == PARTITIONED else (lambda i, j: _Window(a, cuts[i], cuts[j]))
        for i in range(len(cuts)):
            for p in range(i):
                for j in range(m):
                    if right:
                        _update(ex, xc(i, j), xc(p, j), ac(p, i))
                    else:
                        _update(ex, xc(i, j), ac(i, p), xc(p, j))
            for j in range(m):
                _solve(ex, ac(i, i), xc(i, j), right)
    else:
        if right:
            panels = [_Window(x, x.row_range, cols) for cols in _col_splits(a)]
        else:
            panels = [_Window(x, rows, x.col_range) for rows in _row_splits(a)]
        for i, xi in enumerate(panels):
            for p, xp in enumerate(panels[:i]):
                ap = a.child(p, i) if right else a.child(i, p)
                ex.run(_Op("rpanel" if right else "lpanel", xi, ap, xp), True)
            _solve(ex, a.child(i, i), xi, right)


# -- the leaf kernel -------------------------------------------------------------------------


def _target(op, right):
    """What a triangular solve on a leaf or window overwrites in place: the dense
    window, or of a low-rank payload the ``a`` rows (left) or the transposed ``b`` rows (right)."""
    d = op.data
    if op.kind == DENSE:
        return d
    return d.b.T if right else d.a


class _Sum:
    """The exact sum of the updates a low-rank leaf accumulated, not yet truncated.

    Reads like a LowRank but keeps its factors as lists of parts, which ``a``
    and ``b`` concatenate once per truncation instead of once per update."""

    __slots__ = ("a_parts", "b_parts", "k", "shape")

    def __init__(self, x):
        self.a_parts, self.b_parts, self.k, self.shape = [x.a], [x.b], x.k, x.shape

    def sub(self, u, vt, owned):
        """This sum minus u @ vt, holding vt's memory only if ``owned`` (no operand's)."""
        self.a_parts.append(-u)
        self.b_parts.append(vt.T if owned else vt.T.copy())
        self.k += u.shape[1]
        return self

    a = property(lambda self: np.hstack(self.a_parts))
    b = property(lambda self: np.hstack(self.b_parts))
    value = LowRank.value


def _flush(b, ctl, flops):
    """Truncate the sum a low-rank leaf or window's leaf accumulated (two thin QRs, a k x k SVD):
    the only truncation, run by a solve body first and by an update at the half-block bound."""
    if isinstance(b, _Window):
        b = b.leaf
    if isinstance(b.data, _Sum):
        flops.add(4 * sum(b.data.shape) * b.data.k**2 + 22 * b.data.k**3)
        b.data = recompress(b.data, ctl)


def _kernel(op, ctl, flops):
    """Run one leaf op, truncating with ``ctl`` and counting into ``flops``: every leaf task's body."""
    kind, x, a, b = op
    if kind == "lu":
        lu_nopivot(x.data, block_path=_lbl("lu", x))
        flops.add(2 * x.rows**3 // 3)
    elif kind in ("lsolve", "rsolve"):
        right = kind == "rsolve"
        _flush(x, ctl, flops)
        f, t = a.data, _target(x, right)
        (trsm_upper_right if right else trsm_lower_unit)(f, t)
        flops.add(f.shape[0] ** 2 * t.shape[0 if right else 1])
    elif kind in _PANELS:
        right = kind == "rpanel"
        dst, src = _target(x, right), _target(b, right)
        _matvec_into(a, src, dst, right=right, acc=gemm_update)
        flops.add(2 * dst.shape[0] * dst.shape[1] * src.shape[1 if right else 0])
    else:
        # one exact factor pair of the whole product, formed once; each leaf y of x (x
        # itself if a leaf) takes its rows of u and columns of vt: a dense y subtracts
        # them, a low-rank y appends them to its sum and flushes a sum that reaches
        # half the block size
        u, vt = _product(a, b)
        k, applied = u.shape[1], 0
        r0, c0 = x.row_range[0], x.col_range[0]
        owned = a.kind == LOWRANK or PARTITIONED in (a.kind, b.kind)  # _product formed vt
        for y in x.leaves() if x.kind == PARTITIONED else (x,):
            (i0, i1), (j0, j1) = y.row_range, y.col_range
            yu, yvt = (u, vt) if y is x else (u[i0 - r0 : i1 - r0], vt[:, j0 - c0 : j1 - c0])
            if y.kind == DENSE:
                gemm_update(y.data, yu, yvt)
                applied += (i1 - i0) * (j1 - j0)
            elif k:
                d = y.data
                y.data = (d if isinstance(d, _Sum) else _Sum(d)).sub(yu, yvt, owned)
                if y.data.k >= min(i1 - i0, j1 - j0) / 2:
                    _flush(y, ctl, flops)
        # forming the pair once (a dense pair forms nothing), then applying it to x's dense leaves
        m, n = u.shape[0], vt.shape[1]
        formed = 0 if a.kind == b.kind == DENSE else k * (n if a.kind == LOWRANK else m)
        inner = a.col_range[1] - a.col_range[0]
        flops.add(2 * formed * inner + 2 * applied * k)


# -- executors: ``run(op, leaf)`` takes a leaf op or a recursion level ---------------------


class _Inline:
    """Runs each leaf op's kernel at once and expands each level in place."""

    def __init__(self, ctl, flops):
        self.ctl = ctl
        self.flops = flops

    def run(self, op, leaf):
        if leaf:
            _kernel(op, self.ctl, self.flops)
        else:
            _expand(self, op)


class _Formats:
    """Runs no kernel; marks dense each low-rank leaf that receives a dense x dense
    product whose inner dimension reaches half the leaf's smaller side.

    Such a product alone has that rank, so the update body would flush the
    leaf at the half-block bound whatever its rank, truncating factors at
    least half as wide as the leaf: a dense leaf is cheaper, and it is stored
    as the product of the factors at once.  Every update into a leaf precedes
    its solve, which precedes its use as an operand, so the operands' formats
    are final when the walk reaches an update.
    """

    stored = 0  # leaves this walk stored dense

    def run(self, op, leaf):
        kind, c, a, b = op
        if not leaf:
            _expand(self, op)
        elif kind == "update" and c.kind == LOWRANK and a.kind == b.kind == DENSE:
            if a.col_range[1] - a.col_range[0] >= min(c.rows, c.cols) / 2:
                c.kind, c.data = DENSE, c.data.value()
                self.stored += 1


def _extent(op):
    return max(op.row_range[1] - op.row_range[0], op.col_range[1] - op.col_range[0])


class _Emit:
    """Submits each leaf op as a strong task and each recursion level as a parent.

    A task declares x's slots read-write and its operands' read-only (a
    panel's b lies in x's leaf); a parent's accesses are weak under early
    release.  A recursion level whose operands all span at most ``grain`` =
    n // (2 w) rows and columns, n the order of the plan's matrix and w the
    runtime's worker count, becomes one strong leaf task: every strong task's
    body is ``_Inline.run`` of its op.  Below the grain a body costs less
    than its task; above it a (2w) x (2w) block grid is left, whose first
    trailing update alone holds (2w - 1)^2 independent tasks.
    """

    def __init__(self, runtime, plan):
        self.rt = runtime
        self.ranges = plan.skeleton.ranges
        self.inline = _Inline(plan.truncation, plan.flops)
        self.grain = plan.matrix.rows // (2 * runtime.workers)

    def run(self, op, leaf):
        kind, x, a, b = op
        spawns = not leaf and any(_extent(o) > self.grain for o in (x, a, b) if o is not None)
        weak = spawns and self.rt.wd_er
        regions = [Region(*self.ranges[x.block], "rw", weak=weak)]
        for o in (a,) if kind in _PANELS else (a, b):
            if o is not None:
                regions.append(Region(*self.ranges[o.block], "r", weak=weak))
        body = partial(_expand, self, op) if spawns else partial(self.inline.run, op, leaf)
        label = _lbl("update" if kind in _PANELS else kind, x, None if b is None else a)
        self.rt.submit(regions, body, label=label, spawns=spawns)


def hlu_factorize(plan: HluPlan):
    """Factorize the plan's matrix in place, by the recursion over ``plan.coarse``.

    Sequential mode uses no runtime at all and returns None; parallel mode
    runs the emitted tasks and returns their TaskGraph: the tasks in id order
    with their timings, and the edges their region chains enforced.
    """
    if plan.matrix.rows != plan.matrix.cols:
        raise StructureError("H-LU requires a square matrix")
    if plan.mode == SEQUENTIAL:
        _factor(_Inline(plan.truncation, plan.flops), plan.coarse)
        return None
    return _emitted(plan).run()


def emit_task_graph(plan: HluPlan):
    """Expand the full nested task graph without executing any kernel."""
    return _emitted(plan, collect=True).task_graph()


def _emitted(plan, collect=False):
    """A runtime holding the tasks ``_Emit`` submitted for factoring ``plan.coarse``."""
    rt = Runtime(plan.skeleton.size, plan.workers, plan.wd_er, collect)
    _factor(_Emit(rt, plan), plan.coarse)
    return rt


# -- triangular matvec on the factored matrix ----------------------------------------


def lower_unit_matvec(h: HMatrix, x):
    """y = L @ x where L is the unit lower factor stored in a factored matrix."""
    x = _operand(h, x)
    y = np.zeros_like(x)
    _matvec_into(h, x, y, tri="L")
    return y


def upper_matvec(h: HMatrix, x):
    """y = U @ x where U is the upper factor stored in a factored matrix."""
    x = _operand(h, x)
    y = np.zeros_like(x)
    _matvec_into(h, x, y, tri="U")
    return y

"""Recursive right-looking H-LU factorization, inline or as nested tasks.

The factorization of a partitioned block runs the classic sequence per
diagonal step: factor the diagonal block, solve the row panel with the new
lower factor, solve the column panel with the new upper factor, then
multiply-accumulate into the trailing blocks, recursing on partitioned
operands.  Executed inline this is the sequential algorithm; emitted onto the
task runtime every recursion level becomes a parent task (weak accesses under
early release, strong otherwise) and every leaf-level kernel becomes a task
whose regions are exactly the skeleton intervals of its operands, so the
runtime rediscovers the dependency structure of the recursion.  Below a
granularity cutoff (see ``_Emit``) a whole recursion level runs inline inside
one strong task, as OpenMP's ``final`` clause would.

Low-rank destinations accumulate through truncated addition; products
contributing to one destination are emitted in a fixed source order, so a
single-worker parallel run reproduces the sequential result bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .blocks import PARTITIONED
from .hmatrix import DENSE, HMatrix, LOWRANK, Skeleton, StructureError, build_skeleton
from .hmatrix import _matvec_into, _Window
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
    """Thread-safe accumulator for per-kernel analytic flop estimates."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0.0

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
    seed: int = 0
    flops: FlopCounter = field(default_factory=FlopCounter)


def make_plan(
    h: HMatrix,
    truncation: TruncationControl | None = None,
    mode: str = SEQUENTIAL,
    workers: int = 1,
    wd_er: bool = True,
    seed: int = 0,
) -> HluPlan:
    if mode not in (SEQUENTIAL, PARALLEL):
        raise ValueError(f"unknown mode {mode!r}")
    return HluPlan(
        matrix=h,
        skeleton=build_skeleton(h),
        truncation=truncation if truncation is not None else TruncationControl(),
        mode=mode,
        workers=workers,
        wd_er=wd_er,
        seed=seed,
    )


# -- operands -----------------------------------------------------------------


def _slice(op, rows, cols):
    """The rows x cols part of a leaf or window; a whole leaf stays itself."""
    if op.kind == PARTITIONED:
        raise StructureError("cannot window a partitioned block")
    if isinstance(op, HMatrix) and rows == op.row_range and cols == op.col_range:
        return op
    return _Window(op, rows, cols)


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


# -- low-rank products ----------------------------------------------------------


def _multiply_lowrank(a, b, ctl: TruncationControl) -> LowRank:
    """Low-rank approximation of the product a @ b of two H-operands."""
    a_part = a.kind == PARTITIONED
    b_part = b.kind == PARTITIONED
    if a.kind == LOWRANK:
        fa = a.data
        # b.T @ fa.b, written as (fa.b.T @ b).T
        return LowRank(fa.a, _times(b, fa.b.T, right=True).T)
    if b.kind == LOWRANK:
        fb = b.data
        return LowRank(_times(a, fb.a), fb.b)
    if not a_part and not b_part:
        return compress_dense(a.data @ b.data, ctl)

    rows = _row_splits(a) if a_part else [a.row_range]
    cols = _col_splits(b) if b_part else [b.col_range]
    mids = _col_splits(a) if a_part else _row_splits(b)
    if a_part and b_part and _col_splits(a) != _row_splits(b):
        raise StructureError("inner partitions of a product do not match")

    grid = []
    for i, rr in enumerate(rows):
        line = []
        for j, cc in enumerate(cols):
            acc = LowRank.zeros(rr[1] - rr[0], cc[1] - cc[0])
            for p, mm in enumerate(mids):
                ap = a.child(i, p) if a_part else _slice(a, rr, mm)
                bp = b.child(p, j) if b_part else _slice(b, mm, cc)
                acc = add_truncated(acc, _multiply_lowrank(ap, bp, ctl), ctl)
            line.append(acc)
        grid.append(line)
    if len(rows) == 1 and len(cols) == 1:
        return grid[0][0]
    return _merge_lowrank(grid, rows, cols, ctl)


def _merge_lowrank(grid, rows, cols, ctl):
    m = rows[-1][1] - rows[0][0]
    n = cols[-1][1] - cols[0][0]
    k_total = sum(p.k for line in grid for p in line)
    u = np.zeros((m, k_total))
    v = np.zeros((n, k_total))
    off = 0
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            p = grid[i][j]
            if p.k == 0:
                continue
            u[rr[0] - rows[0][0] : rr[1] - rows[0][0], off : off + p.k] = p.a
            v[cc[0] - cols[0][0] : cc[1] - cols[0][0], off : off + p.k] = p.b
            off += p.k
    return recompress(LowRank(u, v), ctl)


# -- executors --------------------------------------------------------------------


class _Inline:
    """Runs leaf kernels immediately; recursion levels are plain calls."""

    def __init__(self, plan):
        self.plan = plan

    def leaf(self, label, specs, body):
        body()

    def parent(self, label, specs, spawn):
        spawn(self)


def _extent(op):
    return max(op.row_range[1] - op.row_range[0], op.col_range[1] - op.col_range[0])


class _Emit:
    """Submits leaf kernels as strong tasks, recursion levels as parents.

    A recursion level whose operands all span at most ``grain`` = n // (2 w)
    rows and columns, n the order of the plan's matrix and w the runtime's
    worker count, becomes one strong leaf task with the level's label and
    regions that runs the level through ``_Inline``.  Below the grain a body
    costs less than its task; above it a (2w) x (2w) block grid is left,
    whose first trailing update alone holds (2w - 1)^2 independent tasks.
    """

    def __init__(self, runtime, plan):
        self.rt = runtime
        self.plan = plan
        self.weak_parents = runtime.wd_er
        self.grain = plan.matrix.rows // (2 * runtime.workers)

    def _regions(self, specs, weak):
        ranges = self.plan.skeleton.ranges
        out = []
        for obj, mode in specs:
            lo, hi = ranges[obj.block]
            out.append(Region(lo, hi, mode, weak=weak))
        return out

    def leaf(self, label, specs, body):
        self.rt.submit(self._regions(specs, weak=False), body, label=label)

    def parent(self, label, specs, spawn):
        if all(_extent(obj) <= self.grain for obj, _ in specs):
            inline = _Inline(self.plan)
            self.leaf(label, specs, lambda: spawn(inline))
            return
        self.rt.submit(
            self._regions(specs, weak=self.weak_parents),
            lambda: spawn(self),
            label=label,
            spawns=True,
        )


def _lbl(kind, rows, cols):
    return f"{kind}[{rows[0]}:{rows[1]})x[{cols[0]}:{cols[1]})"


# -- triangular solves ---------------------------------------------------------------


def _target(op, right):
    """The array a triangular solve on a leaf or window overwrites in place.

    That is the dense window, or of a low-rank payload the ``a`` rows (left
    solve) or the transposed ``b`` rows (right solve).
    """
    d = op.data
    if op.kind == DENSE:
        return d
    return d.b.T if right else d.a


def _solve_lower(ex, l, b, ctl, flops):
    """b := l^-1 b with l a factored (unit lower) diagonal block.

    ``b`` is an H-node or a row window of a leaf; against a partitioned
    factor a leaf is solved panel by panel, in place.
    """
    label = _lbl("lsolve", b.row_range, b.col_range)
    if l.kind == DENSE:
        if b.kind == PARTITIONED:
            raise StructureError("dense factor against partitioned right-hand side")

        def body():
            x = _target(b, False)
            trsm_lower_unit(l.data, x)
            flops.add(l.rows * l.rows * x.shape[1])

        ex.leaf(label, [(l, "r"), (b, "rw")], body)
        return

    def spawn(ex):
        if b.kind == PARTITIONED:
            rs = len(l.data)
            cs = len(b.data[0])
            for i in range(rs):
                for p in range(i):
                    for j in range(cs):
                        _update(ex, b.child(i, j), l.child(i, p), b.child(p, j), ctl, flops)
                for j in range(cs):
                    _solve_lower(ex, l.child(i, i), b.child(i, j), ctl, flops)
            return
        panels = [_Window(b, rows, b.col_range) for rows in _row_splits(l)]
        for i, bi in enumerate(panels):
            for p, bp in enumerate(panels[:i]):
                lip = l.child(i, p)

                def body(lip=lip, bi=bi, bp=bp):
                    dst = _target(bi, False)
                    src = _target(bp, False)
                    _matvec_into(lip, src, dst, acc=gemm_update)
                    flops.add(2.0 * dst.shape[0] * dst.shape[1] * src.shape[0])

                ex.leaf(
                    _lbl("update", bi.row_range, bi.col_range)
                    + _lbl("<-", lip.row_range, lip.col_range),
                    [(lip, "r"), (b, "rw")],
                    body,
                )
            _solve_lower(ex, l.child(i, i), bi, ctl, flops)

    ex.parent(label, [(l, "r"), (b, "rw")], spawn)


def _solve_upper(ex, b, u, ctl, flops):
    """b := b u^-1 with u a factored (upper) diagonal block.

    ``b`` is an H-node or a column window of a leaf; against a partitioned
    factor a leaf is solved panel by panel, in place.
    """
    label = _lbl("rsolve", b.row_range, b.col_range)
    if u.kind == DENSE:
        if b.kind == PARTITIONED:
            raise StructureError("dense factor against partitioned right-hand side")

        def body():
            x = _target(b, True)
            trsm_upper_right(u.data, x)
            flops.add(u.rows * u.rows * x.shape[0])

        ex.leaf(label, [(u, "r"), (b, "rw")], body)
        return

    def spawn(ex):
        if b.kind == PARTITIONED:
            cs = len(u.data[0])
            rs = len(b.data)
            for j in range(cs):
                for p in range(j):
                    for i in range(rs):
                        _update(ex, b.child(i, j), b.child(i, p), u.child(p, j), ctl, flops)
                for i in range(rs):
                    _solve_upper(ex, b.child(i, j), u.child(j, j), ctl, flops)
            return
        panels = [_Window(b, b.row_range, cols) for cols in _col_splits(u)]
        for j, bj in enumerate(panels):
            for p, bp in enumerate(panels[:j]):
                upj = u.child(p, j)

                def body(upj=upj, bj=bj, bp=bp):
                    dst = _target(bj, True)
                    src = _target(bp, True)
                    _matvec_into(upj, src, dst, right=True, acc=gemm_update)
                    flops.add(2.0 * dst.shape[0] * dst.shape[1] * src.shape[1])

                ex.leaf(
                    _lbl("update", bj.row_range, bj.col_range)
                    + _lbl("<-", upj.row_range, upj.col_range),
                    [(upj, "r"), (b, "rw")],
                    body,
                )
            _solve_upper(ex, bj, u.child(j, j), ctl, flops)

    ex.parent(label, [(b, "rw"), (u, "r")], spawn)


# -- multiply-accumulate ----------------------------------------------------------------


def _update(ex, c, a, b, ctl, flops):
    """c := c - a @ b in H-arithmetic; c may be a node or a dense window."""
    c_part = c.kind == PARTITIONED
    a_part = a.kind == PARTITIONED
    b_part = b.kind == PARTITIONED
    label = _lbl("update", c.row_range, c.col_range) + _lbl("<-", a.row_range, a.col_range)
    specs = [(c, "rw"), (a, "r"), (b, "r")]

    if c.kind == LOWRANK:
        # low-rank destination: one truncated accumulation task
        def body():
            p = _multiply_lowrank(a, b, ctl)
            m, n = p.shape
            c.data = add_truncated(c.data, p.neg(), ctl)
            flops.add(2.0 * (c.data.k + p.k + 1) * (m + n) * (p.k + 1))

        ex.leaf(label, specs, body)
        return

    if not (c_part or a_part or b_part):
        # dense destination, leaf operands: plain subtract of the product
        def body():
            dst = c.data
            if a.kind == LOWRANK:
                fa = a.data
                gemm_update(dst, fa.a, _times(b, fa.b.T, right=True))
                flops.add(2.0 * fa.k * (dst.shape[0] + dst.shape[1]) * dst.shape[1])
            elif b.kind == LOWRANK:
                fb = b.data
                gemm_update(dst, _times(a, fb.a), fb.b.T)
                flops.add(2.0 * fb.k * (dst.shape[0] + dst.shape[1]) * dst.shape[0])
            else:
                av = a.data
                gemm_update(dst, av, b.data)
                flops.add(2.0 * dst.shape[0] * dst.shape[1] * av.shape[1])

        ex.leaf(label, specs, body)
        return

    def spawn(ex):
        rows = _row_splits(c) if c_part else (_row_splits(a) if a_part else [c.row_range])
        cols = _col_splits(c) if c_part else (_col_splits(b) if b_part else [c.col_range])
        if a_part and b_part and _col_splits(a) != _row_splits(b):
            raise StructureError("inner partitions of an update do not match")
        mids = _col_splits(a) if a_part else (_row_splits(b) if b_part else [a.col_range])
        for i, rr in enumerate(rows):
            for j, cc in enumerate(cols):
                ci = c.child(i, j) if c_part else _slice(c, rr, cc)
                for p, mm in enumerate(mids):
                    ap = a.child(i, p) if a_part else _slice(a, rr, mm)
                    bp = b.child(p, j) if b_part else _slice(b, mm, cc)
                    _update(ex, ci, ap, bp, ctl, flops)

    ex.parent(label, specs, spawn)


# -- factorization ----------------------------------------------------------------------


def _factor(ex, h, ctl, flops):
    label = _lbl("lu", h.row_range, h.col_range)
    if h.kind == DENSE:
        if h.rows != h.cols:
            raise StructureError(f"LU requires a square block, got {label}")

        def body():
            lu_nopivot(h.data, block_path=label)
            flops.add(2.0 / 3.0 * h.rows**3)

        ex.leaf(label, [(h, "rw")], body)
        return
    if h.kind == LOWRANK:
        raise StructureError(f"diagonal block {label} is low-rank; expected dense")

    def spawn(ex):
        nb = len(h.data)
        if nb != len(h.data[0]):
            raise StructureError(f"LU requires a square grid at {label}")
        for k in range(nb):
            _factor(ex, h.child(k, k), ctl, flops)
            for j in range(k + 1, nb):
                _solve_lower(ex, h.child(k, k), h.child(k, j), ctl, flops)
            for i in range(k + 1, nb):
                _solve_upper(ex, h.child(i, k), h.child(k, k), ctl, flops)
            for i in range(k + 1, nb):
                for j in range(k + 1, nb):
                    _update(ex, h.child(i, j), h.child(i, k), h.child(k, j), ctl, flops)

    ex.parent(label, [(h, "rw")], spawn)


def hlu_factorize(plan: HluPlan):
    """Factorize the plan's matrix in place.

    Sequential mode uses no runtime at all and returns None; parallel mode
    runs the emitted task graph and returns its ExecutionTrace.
    """
    h = plan.matrix
    if h.rows != h.cols:
        raise StructureError("H-LU requires a square matrix")
    if plan.mode == SEQUENTIAL:
        _factor(_Inline(plan), h, plan.truncation, plan.flops)
        return None
    rt = Runtime(
        slots=plan.skeleton.size,
        workers=plan.workers,
        wd_er=plan.wd_er,
        seed=plan.seed,
    )
    _factor(_Emit(rt, plan), h, plan.truncation, plan.flops)
    return rt.run()


def emit_task_graph(plan: HluPlan):
    """Expand the full nested task graph without executing any kernel."""
    rt = Runtime(
        slots=plan.skeleton.size, workers=plan.workers, wd_er=plan.wd_er, collect=True
    )
    _factor(_Emit(rt, plan), plan.matrix, plan.truncation, plan.flops)
    return rt.task_graph()


def _run_op(op, root, operands, ctl, runtime, skeleton):
    """Run one block operation on ``root``, inline or as tasks on ``runtime``.

    Returns the flop count of the kernels the call itself ran: all of them
    inline, none when it only emits tasks (they count when they execute).
    """
    if runtime is not None and skeleton is None:
        raise ValueError("emitting tasks requires the skeleton of the enclosing matrix")
    plan = HluPlan(root, skeleton, ctl if ctl is not None else TruncationControl())
    ex = _Inline(plan) if runtime is None else _Emit(runtime, plan)
    op(ex, *operands, plan.truncation, plan.flops)
    return plan.flops.total


def solve_lower_hmatrix(l, b, ctl=None, runtime=None, skeleton=None):
    """b := l^-1 b; emits tasks when a runtime is given, else runs inline."""
    return _run_op(_solve_lower, b, (l, b), ctl, runtime, skeleton)


def solve_upper_hmatrix(b, u, ctl=None, runtime=None, skeleton=None):
    """b := b u^-1; emits tasks when a runtime is given, else runs inline."""
    return _run_op(_solve_upper, b, (b, u), ctl, runtime, skeleton)


def update_hmatrix(c, a, b, ctl=None, runtime=None, skeleton=None):
    """c := c - a @ b; emits tasks when a runtime is given, else runs inline."""
    return _run_op(_update, c, (c, a, b), ctl, runtime, skeleton)


# -- triangular matvec on the factored matrix ----------------------------------------


def lower_unit_matvec(h: HMatrix, x):
    """y = L @ x where L is the unit lower factor stored in a factored matrix."""
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x, dtype=float)
    _matvec_into(h, x, y, tri="L")
    return y


def upper_matvec(h: HMatrix, x):
    """y = U @ x where U is the upper factor stored in a factored matrix."""
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x, dtype=float)
    _matvec_into(h, x, y, tri="U")
    return y

"""Traced run: per-layer metrics from wrappers installed around library calls.

The wrappers exist only inside this run.  They are installed on the names
the callers look up: ``hlu.py`` and ``kernels.py`` import the ``lowrank`` and
assembly functions by name, so those modules' names are the ones replaced,
and every replaced name is restored when the run leaves the block.

Each wrapper records a span: calls, total time and self time (total minus
the time of wrapped calls nested inside it on the same thread).  Runtime
numbers come from the ``ExecutionTrace`` that ``hlu_factorize`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import statistics
import threading
import time
from collections import Counter, defaultdict

from hluflow import blocks, hlu, hmatrix, kernels, runtime
from hluflow.hmatrix import DENSE, LOWRANK

import hlubench

PAR_MODES = ("par1", "par2", "par2_taskwait")
TASK_KINDS = ("lu", "lsolve", "rsolve", "update")

# span key -> the lowrank kernels the H-LU recursion calls by name
KERNEL_SPANS = {
    "lowrank.truncate": ("add_truncated", "recompress"),
    "lowrank.compress_dense": ("compress_dense",),
    "lowrank.gemm": ("gemm_update",),
    "lowrank.trsm": ("trsm_lower_unit", "trsm_upper_right"),
    "lowrank.lu": ("lu_nopivot",),
}

PER_LAYER = {
    "clustering.build_s": "s",
    "blocks.build_s": "s",
    "kernels.assemble_s": "s",
    "hmatrix.skeleton_s": "s",
    "blocks.leaves_dense": "count",
    "blocks.leaves_lowrank": "count",
    "kernels.rank_max": "rank",
    "hmatrix.slots": "count",
    "lowrank.truncate.calls": "count",
    "lowrank.truncate_s": "s",
    "lowrank.truncate.rank_in": "rank",
    "lowrank.truncate.rank_out": "rank",
    "lowrank.truncate.keep_ratio": "ratio",
    "lowrank.compress_dense.calls": "count",
    "lowrank.compress_dense_s": "s",
    "lowrank.gemm.calls": "count",
    "lowrank.gemm_s": "s",
    "lowrank.trsm.calls": "count",
    "lowrank.trsm_s": "s",
    "lowrank.lu.calls": "count",
    "lowrank.lu_s": "s",
    "lowrank.rank_max": "rank",
    "runtime.tasks": "count",
    "runtime.leaf_tasks": "count",
    "runtime.emit_us_per_task": "us",
    **{
        f"runtime.{m}.{name}": unit
        for m in PAR_MODES
        for name, unit in (
            ("submit_s", "s"),
            ("leaf_body_s", "s"),
            ("body_inflation", "ratio"),
            ("ready_wait_p50_ms", "ms"),
            ("idle_s", "s"),
            ("utilization", "ratio"),
            ("makespan_s", "s"),
        )
    },
    "hlu.flops": "flop",
    **{f"hlu.tasks.{kind}": "count" for kind in TASK_KINDS},
    "hlu.gflops_seq": "GFLOP/s",
    "hlu.seq_self_s": "s",
    "hmatrix.matvec_s": "s",
    "bench.trace_overhead": "ratio",
}


class Tracer:
    """Spans and counters recorded by wrappers; safe to call from any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self):
        with self._lock:
            self.calls = Counter()
            self.total = defaultdict(float)
            self.self_time = defaultdict(float)
            self.counts = Counter()

    def count(self, key, n):
        with self._lock:
            self.counts[key] += n

    def wrap(self, key, fn, after=None):
        """``fn`` recorded as span ``key``; ``after(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                with self._lock:
                    self.calls[key] += 1
                    self.total[key] += dur
                    self.self_time[key] += dur - nested
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace ``owner.name`` by its traced wrapper for each target."""
        saved = []
        try:
            for owner, name, key, after in targets:
                fn = getattr(owner, name)
                saved.append((owner, name, fn))
                setattr(owner, name, self.wrap(key, fn, after))
            yield self
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)


def _setup_targets():
    return [
        # bem: make_bem_case looks these up in the kernels module
        (kernels, "build_cluster_tree", "clustering.build", None),
        (kernels, "build_block_tree", "blocks.build", None),
        (kernels, "assemble_hmatrix", "kernels.assemble", None),
        # dense2x2: the uniform cluster tree nests inside the block tree
        (blocks, "_uniform_binary_tree", "clustering.build", None),
        (blocks, "build_diagonal_2x2_tree", "blocks.build", None),
        (hmatrix, "build_hmatrix", "kernels.assemble", None),
        (hmatrix, "build_skeleton", "hmatrix.skeleton", None),
    ]


def _kernel_targets(tracer):
    def ranks(rank_in):
        def after(args, result):
            tracer.count("rank_in", rank_in(args))
            tracer.count("rank_out", result.k)

        return after

    truncate_hooks = {
        "add_truncated": ranks(lambda args: args[0].k + args[1].k),
        "recompress": ranks(lambda args: args[0].k),
    }
    targets = [(hlu, "hlu_factorize", "hlu.factorize", None)]
    for key, names in KERNEL_SPANS.items():
        targets.extend((hlu, name, key, truncate_hooks.get(name)) for name in names)
    return targets


def _runtime_metrics(mode, trace, submit):
    """Runtime cost and worker occupancy of one traced parallel run."""
    workers = hlubench.MODES[mode][1]
    tasks = trace.tasks
    body = sum(t.body_end_t - t.start_t for t in tasks)
    capacity = workers * trace.makespan
    return {
        f"runtime.{mode}.submit_s": submit,
        f"runtime.{mode}.leaf_body_s": sum(
            t.body_end_t - t.start_t for t in tasks if not t.spawns
        ),
        f"runtime.{mode}.ready_wait_p50_ms": 1e3
        * statistics.median(t.start_t - t.ready_t for t in tasks),
        f"runtime.{mode}.idle_s": capacity - body,
        f"runtime.{mode}.utilization": body / capacity,
        f"runtime.{mode}.makespan_s": trace.makespan,
    }


def _setup_metrics(run, tracer):
    """Self time of each set-up layer (median over builds) and structure counts."""
    spans = defaultdict(list)
    with tracer.installed(_setup_targets()):
        for _ in range(hlubench.SETUP_REPS):
            tracer.reset()
            run.setup(reps=1)
            for key in ("clustering.build", "blocks.build", "kernels.assemble", "hmatrix.skeleton"):
                spans[f"{key}_s"].append(tracer.self_time[key])
    metrics = {key: statistics.median(v) for key, v in spans.items()}
    leaves = run.template.leaves()
    ranks = [leaf.data.k for leaf in leaves if leaf.kind == LOWRANK]
    metrics["blocks.leaves_dense"] = sum(leaf.kind == DENSE for leaf in leaves)
    metrics["blocks.leaves_lowrank"] = len(ranks)
    metrics["kernels.rank_max"] = max(ranks, default=0)
    metrics["hmatrix.slots"] = hmatrix.build_skeleton(run.template).size
    return metrics


def _graph_metrics(run):
    """Task counts and emission cost of the graph expanded in collect mode."""
    plan = run.plan("par1")
    gc.collect()
    t0 = time.perf_counter()
    tasks = hlu.emit_task_graph(plan).tasks
    emit = time.perf_counter() - t0
    kinds = Counter(t.label.split("[", 1)[0] for t in tasks)
    return {
        "runtime.tasks": len(tasks),
        "runtime.leaf_tasks": sum(not t.spawns for t in tasks),
        "runtime.emit_us_per_task": 1e6 * emit / len(tasks),
        **{f"hlu.tasks.{kind}": kinds[kind] for kind in TASK_KINDS},
    }


def _kernel_metrics(run, tracer, deadline):
    """Untraced and traced sequential runs, alternating until the deadline.

    Returns the kernel metrics and the untraced and traced factor times.
    """
    plain, traced, spans = [], [], defaultdict(list)
    metrics = {}
    last_pair = 0.0
    while not plain or time.perf_counter() + last_pair <= deadline:
        p0 = time.perf_counter()
        result = run.factorize("seq")
        if result is not None:
            plain.append(result[0])
        tracer.reset()
        with tracer.installed(_kernel_targets(tracer)):
            result = run.factorize("seq")
        if result is not None:
            traced.append(result[0])
            spans["hlu.seq_self_s"].append(tracer.self_time["hlu.factorize"])
            for key in KERNEL_SPANS:
                spans[f"{key}_s"].append(tracer.total[key])
                metrics[f"{key}.calls"] = tracer.calls[key]
            rank_in, rank_out = tracer.counts["rank_in"], tracer.counts["rank_out"]
            metrics["lowrank.truncate.rank_in"] = rank_in
            metrics["lowrank.truncate.rank_out"] = rank_out
            # 0 when no truncation ran (no low-rank block on the workload)
            metrics["lowrank.truncate.keep_ratio"] = rank_out / rank_in if rank_in else 0.0
        last_pair = time.perf_counter() - p0
    metrics.update({key: statistics.median(v) for key, v in spans.items()})
    return metrics, plain, traced


def traced_run(workload, seed, seconds):
    """Per-layer metrics of one workload; returns (Run, metrics, samples)."""
    tracer = Tracer()
    run = hlubench.Run(workload, seed)
    metrics = _setup_metrics(run, tracer)
    metrics.update(_graph_metrics(run))

    start = time.perf_counter()
    warm = run.factorize("seq")  # warm-up; also fixes the sequential reference
    if warm is not None:
        metrics["hlu.flops"] = warm[1].flops.total
    leaf_body = {}
    for mode in PAR_MODES:
        tracer.reset()
        with tracer.installed([(runtime.Runtime, "submit", "runtime.submit", None)]):
            result = run.factorize(mode)
        if result is not None:
            found = _runtime_metrics(mode, result[2], tracer.self_time["runtime.submit"])
            metrics.update(found)
            leaf_body[mode] = found[f"runtime.{mode}.leaf_body_s"]

    found, plain, traced = _kernel_metrics(run, tracer, start + seconds)
    metrics.update(found)
    if plain and traced:
        factor_seq = statistics.median(plain)
        metrics["bench.trace_overhead"] = statistics.median(traced) / factor_seq
        metrics["hlu.gflops_seq"] = metrics.get("hlu.flops", 0.0) / factor_seq / 1e9
        for mode, body in leaf_body.items():
            metrics[f"runtime.{mode}.body_inflation"] = body / factor_seq

    if run.reference is not None:
        ranks = [leaf.data.k for leaf in run.reference.leaves() if leaf.kind == LOWRANK]
        metrics["lowrank.rank_max"] = max(ranks, default=0)
        matvec = []
        with tracer.installed([(hlu, "_matvec_into", "hmatrix.matvec", None)]):
            for _ in range(2 * hlubench.APPLY_PER_ROUND):
                tracer.reset()
                run.time_apply()
                matvec.append(tracer.total["hmatrix.matvec"])
        metrics["hmatrix.matvec_s"] = statistics.median(matvec)
    samples = {"setup": hlubench.SETUP_REPS, "factor_seq": len(plain), "factor_seq_traced": len(traced)}
    return run, metrics, samples

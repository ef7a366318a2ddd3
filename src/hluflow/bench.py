"""Benchmark cases and the timing harness, which returns one JSON-ready row.

Two case families: the synthetic dense 2x2-recursive structure (all leaves
dense, diagonally dominant random entries) and the kernel-assembled cases on
the built-in geometries.  Timings cover the factorization, with assembly and
planning timed apart; correctness is reported as the worst relative residual
of random matrix-vector probes against the pre-factorization matrix.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from .blocks import build_diagonal_2x2_tree
from .hlu import (
    PARALLEL,
    SEQUENTIAL,
    hlu_factorize,
    lower_unit_matvec,
    make_plan,
    upper_matvec,
)
from .hmatrix import LOWRANK, build_hmatrix, hmatvec
from .kernels import make_bem_case
from .lowrank import TruncationControl

RESIDUAL_PROBES = 10


@dataclass
class BenchConfig:
    """Self-validating description of one benchmark run."""

    case: str = "dense2x2"  # dense2x2 | bem
    n: int = 1024
    r: int = 4  # recursion depth of the dense2x2 structure
    d: int = 1  # kernel dimension of the bem case
    eta: float = 0.5
    leafsize: int = 512
    order: int = 0  # 0 = per-dimension default
    eps: float = 1e-6
    kmax: int | None = None
    mode: str = "seq"  # seq | par
    workers: int = 1
    wd_er: bool = True
    repetitions: int = 3
    seed: int = 0

    def validate(self):
        if self.case not in ("dense2x2", "bem"):
            raise ValueError(f"unknown case {self.case!r}")
        if self.mode not in ("seq", "par"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.case == "bem" and self.d not in (1, 2, 3):
            raise ValueError("bem dimension must be 1, 2 or 3")
        return self

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def build_case(cfg: BenchConfig):
    """Assembled H-matrix for a configuration (freshly filled each call)."""
    if cfg.case == "dense2x2":
        root, _ = build_diagonal_2x2_tree(cfg.n, cfg.r)
        rng = np.random.default_rng(cfg.seed)

        def fill(block):
            m = rng.standard_normal((block.rows, block.cols))
            if block.row_range == block.col_range:
                m += cfg.n * np.eye(block.rows)
            return m

        return build_hmatrix(root, fill)
    case = make_bem_case(
        cfg.d, cfg.n, cfg.eta, cfg.leafsize, cfg.order, cfg.eps, cfg.kmax
    )
    return case.hmatrix


def residual_probe(original, factored, seed=0, probes=RESIDUAL_PROBES):
    """Worst relative residual ||A x - L (U x)|| / ||A x|| over random x."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(probes):
        x = rng.standard_normal(original.cols)
        ax = hmatvec(original, x)
        lux = lower_unit_matvec(factored, upper_matvec(factored, x))
        residuals.append(np.linalg.norm(ax - lux) / np.linalg.norm(ax))
    return float(np.max(residuals))  # a NaN propagates, where max() would skip it


def _plan_for(cfg: BenchConfig, h, mode):
    return make_plan(
        h,
        truncation=TruncationControl(cfg.eps, cfg.kmax),
        mode=SEQUENTIAL if mode == "seq" else PARALLEL,
        workers=cfg.workers,
        wd_er=cfg.wd_er,
    )


def _timed_runs(cfg, template, mode):
    """Times of ``cfg.repetitions`` factorizations of copies of ``template`` and
    of their ``make_plan`` calls, and the last plan, its matrix factored."""
    times, plan_times = [], []
    for _ in range(cfg.repetitions):
        h = template.copy()
        t0 = time.perf_counter()
        plan = _plan_for(cfg, h, mode)
        t1 = time.perf_counter()
        hlu_factorize(plan)
        times.append(time.perf_counter() - t1)
        plan_times.append(t1 - t0)
    return times, plan_times, plan


def run_bench(cfg: BenchConfig) -> dict:
    """Build the case, factorize per config, probe the residual.

    Returns one JSON-ready row: the config's fields, then ``times`` (one per
    repetition), their median ``time``, the median ``plan_time`` of the
    ``make_plan`` calls (formats and coalesced storage, outside ``time``),
    ``assemble_time``, the wall time of ``build_case`` (outside both),
    ``slots``, the plan's skeleton size (the leaves of the tree it factors),
    the median sequential time over ``time`` as ``speedup`` (1.0 in seq
    mode), ``flops``, ``gflops`` at the fastest repetition, the probe
    ``residual`` and the largest rank of a low-rank leaf of the factors,
    ``peak_rank``.
    """
    cfg.validate()
    t0 = time.perf_counter()
    template = build_case(cfg)
    assemble_time = time.perf_counter() - t0
    times, plan_times, plan = _timed_runs(cfg, template, cfg.mode)
    median = statistics.median(times)
    speedup = 1.0
    if cfg.mode == "par":
        speedup = statistics.median(_timed_runs(cfg, template, "seq")[0]) / median
    flops = 2.0 * cfg.n**3 / 3.0 if cfg.case == "dense2x2" else plan.flops.total
    ranks = [leaf.data.k for leaf in plan.matrix.leaves() if leaf.kind == LOWRANK]
    return {
        **asdict(cfg),
        "times": times,
        "time": median,
        "plan_time": statistics.median(plan_times),
        "assemble_time": assemble_time,
        "slots": plan.skeleton.size,
        "speedup": speedup,
        "flops": flops,
        "gflops": flops / min(times) / 1e9,
        "residual": residual_probe(template, plan.matrix, cfg.seed),
        "peak_rank": max(ranks, default=0),
    }

"""Workloads, timed factorization runs and the correctness gate.

Every library call goes through its module attribute (``hlu.hlu_factorize``,
``kernels.make_bem_case``, ...) so that the traced run in ``layers.py`` can
install its wrappers on those names without touching the library.

A run builds one workload from the seed, discards a warm-up factorization,
then times the four execution modes round-robin until the time budget is
spent.  Every factorization is checked: its factor must be bitwise equal
to the first sequential one, whose residual against the pre-factorization
matrix must stay under the workload's tolerance.  An exception, a failed
tolerance or a mismatch counts as a failed factorization.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hluflow import blocks, hlu, hmatrix, kernels
from hluflow.hmatrix import DENSE
from hluflow.lowrank import TruncationControl

SETUP_REPS = 9
RESIDUAL_PROBES = 256
APPLY_PROBES = 32
APPLY_PER_ROUND = 3

# name -> (plan mode, workers, wd_er)
MODES = {
    "seq": (hlu.SEQUENTIAL, 1, True),
    "par1": (hlu.PARALLEL, 1, True),
    "par2": (hlu.PARALLEL, 2, True),
    "par2_taskwait": (hlu.PARALLEL, 2, False),
}

END_TO_END = {
    "setup_s": "s",
    "factor_seq_s": "s",
    "factor_par1_s": "s",
    "factor_par2_s": "s",
    "factor_par2_taskwait_s": "s",
    "apply_s": "s",
    "residual": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """A seeded H-matrix case with its truncation and residual tolerance."""

    name: str
    build: Callable[[int], hmatrix.HMatrix]
    eps: float
    tolerance: float


def dense2x2(name, n, r, tolerance=1e-11):
    """All-dense 2x2-recursive structure with a seeded, diagonally dominant fill."""

    def build(seed):
        root, _ = blocks.build_diagonal_2x2_tree(n, r)
        rng = np.random.default_rng(seed)

        def fill(block):
            m = rng.standard_normal((block.rows, block.cols))
            if block.row_range == block.col_range:
                m += n * np.eye(block.rows)
            return m

        return hmatrix.build_hmatrix(root, fill)

    return Workload(name, build, 1e-6, tolerance)


def bem(name, d, n, leafsize, eps=1e-6, eta=0.5, tolerance=1e-4):
    """Laplace kernel on the built-in d-dimensional geometry; the seed is unused."""

    def build(seed):
        return kernels.make_bem_case(d, n, eta, leafsize, 0, eps).hmatrix

    return Workload(name, build, eps, tolerance)


WORKLOADS = {
    w.name: w
    for w in (
        dense2x2("dense2x2", n=2048, r=4),
        bem("bem1d", d=1, n=2048, leafsize=64),
        bem("bem3d", d=3, n=1024, leafsize=64, eta=1.0),
    )
}


def same_factor(x, y):
    """True iff two factored H-matrices hold bitwise identical leaves."""
    for a, b in zip(x.leaves(), y.leaves(), strict=True):
        if a.kind != b.kind:
            return False
        if a.kind == DENSE:
            if not np.array_equal(a.data, b.data):
                return False
        elif not (np.array_equal(a.data.a, b.data.a) and np.array_equal(a.data.b, b.data.b)):
            return False
    return True


def apply_factor(factored, x):
    """L (U x) with both factors read from the factored matrix."""
    return hlu.lower_unit_matvec(factored, hlu.upper_matvec(factored, x))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload at one seed: the template matrix, reference and tallies."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.truncation = TruncationControl(workload.eps)
        self.template = None
        self.reference = None
        self.residual = None
        self.attempted = 0
        self.failed = 0

    def setup(self, reps=SETUP_REPS):
        """Build the case ``reps`` times; returns the wall time of each build."""
        times = []
        for _ in range(reps):
            self.template = None
            gc.collect()
            t0 = time.perf_counter()
            template = self.workload.build(self.seed)
            hmatrix.build_skeleton(template)
            times.append(time.perf_counter() - t0)
            self.template = template
        return times

    def plan(self, mode):
        kind, workers, wd_er = MODES[mode]
        return hlu.make_plan(
            self.template.copy(),
            self.truncation,
            mode=kind,
            workers=workers,
            wd_er=wd_er,
            seed=self.seed,
        )

    def factorize(self, mode):
        """Time one factorization and check it; returns (seconds, plan, trace).

        Returns None when the factorization raised.  A result that fails the
        check is still returned with its time, and counted as failed.
        """
        plan = self.plan(mode)
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            trace = hlu.hlu_factorize(plan)
        except Exception:  # noqa: BLE001 - any library error is a failed run
            self._fail(mode, "raised\n" + traceback.format_exc())
            return None
        seconds = time.perf_counter() - t0
        self._check(mode, plan.matrix)
        return seconds, plan, trace

    def _check(self, mode, factored):
        # The first sequential factor is the reference; every later factor
        # must equal it bit for bit, so it shares the reference's residual.
        if self.reference is None:
            if mode != "seq":
                self._fail(mode, "no sequential factor to compare with")
                return
            self.reference = factored
            self._probe()
        elif not same_factor(self.reference, factored):
            self._fail(mode, "factor differs bitwise from the sequential factor")
            return
        if not self.residual <= self.workload.tolerance:
            self._fail(mode, f"residual {self.residual:.3e} above {self.workload.tolerance:.0e}")

    def _probe(self):
        """Residual ||A X - L (U X)||_F / ||A X||_F of the reference factor."""
        rng = np.random.default_rng([self.seed, 1])  # a stream apart from the fill's
        probes = rng.standard_normal((self.template.cols, RESIDUAL_PROBES))
        self.apply_block = np.ascontiguousarray(probes[:, :APPLY_PROBES])
        image = hmatrix.hmatvec(self.template, probes)
        diff = image - apply_factor(self.reference, probes)
        self.residual = float(np.linalg.norm(diff) / np.linalg.norm(image))

    def _fail(self, mode, why):
        self.failed += 1
        print(f"FAILED {self.workload.name} seed={self.seed} mode={mode}: {why}", file=sys.stderr)

    def time_apply(self):
        """Wall time of applying the reference factor to a block of probes."""
        gc.collect()
        t0 = time.perf_counter()
        apply_factor(self.reference, self.apply_block)
        return time.perf_counter() - t0


def measure(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics of one workload; returns (Run, metrics, samples)."""
    run = Run(workload, seed)
    setup = run.setup()
    start = time.perf_counter()
    run.factorize("seq")  # warm-up, discarded
    times = {mode: [] for mode in MODES}
    applies = []
    order = list(MODES)
    rounds = 0
    last_round = 0.0
    while rounds == 0 or time.perf_counter() - start + last_round <= seconds:
        r0 = time.perf_counter()
        # rotate the mode order so no mode always follows the same one
        for mode in order[rounds % len(order) :] + order[: rounds % len(order)]:
            result = run.factorize(mode)
            if result is not None:
                times[mode].append(result[0])
        if run.reference is not None:
            applies.extend(run.time_apply() for _ in range(APPLY_PER_ROUND))
        last_round = time.perf_counter() - r0
        rounds += 1

    metrics = {"setup_s": statistics.median(setup)}
    for mode, ts in times.items():
        # 0.0 only when every attempt raised, which also marks the run incorrect
        metrics[f"factor_{mode}_s"] = statistics.median(ts) if ts else 0.0
    metrics["apply_s"] = statistics.median(applies) if applies else 0.0
    metrics["residual"] = run.residual if run.residual is not None else 0.0
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples = {"setup": len(setup), "apply": len(applies), "rounds": rounds}
    samples.update({f"factor_{m}": len(ts) for m, ts in times.items()})
    return run, metrics, samples

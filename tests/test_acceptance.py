"""Acceptance suite: one test per criterion, each printing a PASS line.

Bounds are pinned here, not computed at run time: the kernel-matrix bounds
were frozen after a one-off dense-oracle calibration run (worst observed
assembly error 9.5e-06 over the eta sweep, worst residual 4.8e-07).

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import os
import time

import numpy as np
import pytest

from conftest import find_one
from graphgen import materialize, oracle_edges, random_plan
from hluflow.bench import BenchConfig, build_case, residual_probe, run_bench
from hluflow.blocks import build_diagonal_2x2_tree
from hluflow.hlu import hlu_factorize, make_plan
from hluflow.hmatrix import build_hmatrix, build_skeleton, flatten
from hluflow.kernels import assemble_dense_block, make_bem_case
from hluflow.lowrank import LowRank, TruncationControl, add_truncated
from hluflow.runtime import Runtime

# frozen after the calibration run documented above
BEM_ASSEMBLY_BOUND = 1e-4
BEM_RESIDUAL_BOUND = 100 * BEM_ASSEMBLY_BOUND

HOST_CORES = os.cpu_count() or 1


def announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def unpivoted_lu_oracle(a):
    b = a.copy()
    for j in range(b.shape[0] - 1):
        b[j + 1 :, j] /= b[j, j]
        b[j + 1 :, j + 1 :] -= np.outer(b[j + 1 :, j], b[j, j + 1 :])
    return b


def dense_case(n, r, seed=0):
    return build_case(BenchConfig(case="dense2x2", n=n, r=r, seed=seed))


def test_criterion_1_dense_oracle_equivalence():
    t0 = time.perf_counter()
    worst_rec = 0.0
    worst_match = 0.0
    for n in (64, 256, 512):
        for r in (2, 3):
            h = dense_case(n, r)
            a = flatten(h)
            hlu_factorize(make_plan(h))
            f = flatten(h)
            l = np.tril(f, -1) + np.eye(n)
            u = np.triu(f)
            rec = np.linalg.norm(l @ u - a) / np.linalg.norm(a)
            oracle = unpivoted_lu_oracle(a)
            match = np.linalg.norm(f - oracle) / np.linalg.norm(oracle)
            assert rec <= 1e-11, f"n={n} r={r}: reconstruction {rec:.2e}"
            assert match <= 1e-11, f"n={n} r={r}: oracle mismatch {match:.2e}"
            worst_rec = max(worst_rec, rec)
            worst_match = max(worst_match, match)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    announce(
        1,
        f"dense L*U reconstruction <= {worst_rec:.2e}, flat-LU match <= "
        f"{worst_match:.2e} (bound 1e-11, {elapsed:.1f}s)",
    )


def test_criterion_2_truncated_addition_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for i in range(500):
        eps = 1e-4 if i % 2 == 0 else 1e-8
        m = int(rng.integers(8, 257))
        n = int(rng.integers(8, 257))
        k1 = int(rng.integers(0, 9))
        k2 = int(rng.integers(0, 9))
        x1 = LowRank(rng.standard_normal((m, k1)), rng.standard_normal((n, k1)))
        x2 = LowRank(rng.standard_normal((m, k2)), rng.standard_normal((n, k2)))
        got = add_truncated(x1, x2, TruncationControl(eps))
        assert got.k <= k1 + k2
        exact = x1.value() + x2.value()
        norm = np.linalg.svd(exact, compute_uv=False)
        sigma1 = norm[0] if norm.size else 0.0
        err = np.linalg.svd(got.value() - exact, compute_uv=False)
        err1 = err[0] if err.size else 0.0
        assert err1 <= eps * sigma1 + 1e-300, f"case {i}: {err1:.2e} > {eps:.0e}*{sigma1:.2e}"
        if sigma1 > 0:
            worst = max(worst, err1 / sigma1 / eps)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    announce(
        2,
        f"500 truncated additions within eps (worst error/(eps*norm) = "
        f"{worst:.3f}, {elapsed:.1f}s)",
    )


@pytest.fixture(scope="module")
def bem_cases():
    return {eta: make_bem_case(1, 1024, eta=eta, leafsize=32, eps=1e-6) for eta in (0.25, 0.5, 1.0)}


def test_criterion_3_bem_end_to_end(bem_cases):
    worst_asm = 0.0
    worst_res = 0.0
    for eta, case in bem_cases.items():
        dense = assemble_dense_block(case.points, case.tree.root, case.tree.root, case.cfg)
        asm = np.linalg.norm(flatten(case.hmatrix) - dense) / np.linalg.norm(dense)
        assert asm <= BEM_ASSEMBLY_BOUND, f"eta={eta}: assembly error {asm:.2e}"
        h = case.hmatrix.copy()
        hlu_factorize(make_plan(h, TruncationControl(1e-6)))
        res = residual_probe(case.hmatrix, h)
        assert res <= BEM_RESIDUAL_BOUND, f"eta={eta}: residual {res:.2e}"
        worst_asm = max(worst_asm, asm)
        worst_res = max(worst_res, res)
    announce(
        3,
        f"d=1 n=1024 assembly <= {worst_asm:.2e} (bound {BEM_ASSEMBLY_BOUND:.0e}), "
        f"residual <= {worst_res:.2e} (bound {BEM_RESIDUAL_BOUND:.0e})",
    )


def test_criterion_4_dependency_inference_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    graphs = 0
    edges_checked = 0
    for i in range(1000):
        wd_er = i % 2 == 0
        slots, roots = random_plan(rng, max_tasks=200, spin_scale=2e-5)
        rt = Runtime(slots=slots, workers=3, wd_er=wd_er)
        materialize(rt, roots, weak_parents=wd_er)
        rt.run()
        got = {(e.src.id, e.dst.id) for e in rt.task_graph().edges}
        want = oracle_edges(rt.tasks)
        assert got == want, f"graph {i}: inferred edges differ from oracle"
        for e in rt.task_graph().edges:
            if wd_er and e.weak:
                continue  # early release legitimately crosses weak accesses
            assert e.src.end_t <= e.dst.start_t, (
                f"graph {i}: edge {e.src.label}->{e.dst.label} not serialized"
            )
            edges_checked += 1
        graphs += 1
    elapsed = time.perf_counter() - t0
    assert graphs == 1000
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    announce(
        4,
        f"1000 nested graphs: edges == O(T^2) oracle, {edges_checked} "
        f"strong edges serializable ({elapsed:.1f}s)",
    )


def test_criterion_5_weak_dependency_early_release_behavior():
    n = 256
    root, _ = build_diagonal_2x2_tree(n, 2, upper_right_split=True)
    lab_o1 = f"lu[0:{n // 2})x[0:{n // 2})"
    lab_o21 = f"lsolve[0:{n // 4})x[{n // 2}:{3 * n // 4})"

    def run(wd_er):
        rng = np.random.default_rng(42)

        def fill(block):
            m = rng.standard_normal((block.rows, block.cols))
            if block.row_range == block.col_range:
                m += n * np.eye(block.rows)
            return m

        h = build_hmatrix(root, fill)
        trace = hlu_factorize(
            make_plan(h, mode="parallel", workers=2, wd_er=wd_er)
        )
        o1 = find_one(trace, lab_o1)
        o21 = find_one(trace, lab_o21)
        return o21.start_t < o1.end_t

    crossed = sum(run(True) for _ in range(100))
    blocked = sum(not run(False) for _ in range(100))
    assert crossed >= 95, f"early start in only {crossed}/100 runs with wd_er"
    assert blocked == 100, f"{100 - blocked} runs crossed without wd_er"
    announce(
        5,
        f"solve overlapped the factorization in {crossed}/100 runs with "
        f"early release and 0/100 without",
    )


def _median_speedup(cfg_par, reps=5):
    cfg_par.repetitions = reps
    return run_bench(cfg_par)["speedup"]


def test_criterion_6_scalability_ordering():
    # the 2.0 floor may be relaxed to 1.6 on throttled CI, opted in explicitly
    floor = 1.6 if os.environ.get("HLUFLOW_THROTTLED_CI") == "1" else 2.0
    cases = {
        "dense2x2": BenchConfig(case="dense2x2", n=4096, r=5, mode="par", workers=4),
        "bem": BenchConfig(
            case="bem", n=4096, d=1, eta=0.5, leafsize=512, mode="par", workers=4
        ),
    }
    if HOST_CORES < 4:
        # the criterion presumes a >=4-core host; this sandbox has fewer.
        # Measure the dense criterion case once so the machinery is
        # exercised and the skip reports real numbers, then skip the
        # assertions that the hardware cannot support.
        cfg = BenchConfig(
            case="dense2x2", n=4096, r=5, mode="par", workers=4, repetitions=1
        )
        speedup = run_bench(cfg)["speedup"]
        pytest.skip(
            f"criterion 6 requires >=4 cores (host has {HOST_CORES}); "
            f"dense2x2 n=4096 r=5 measured speedup {speedup:.2f} at 4 workers"
        )
    results = {}
    for name, cfg in cases.items():
        cfg.wd_er = True
        with_er = _median_speedup(cfg)
        cfg_no = BenchConfig(**{**cfg.__dict__, "wd_er": False})
        without_er = _median_speedup(cfg_no)
        results[name] = (with_er, without_er)
        assert with_er >= without_er, (
            f"{name}: speedup ordering violated ({with_er:.2f} < {without_er:.2f})"
        )
        assert with_er >= floor, f"{name}: speedup {with_er:.2f} below {floor}"
    announce(
        6,
        "; ".join(
            f"{k}: {v[0]:.2f}x with early release vs {v[1]:.2f}x without"
            for k, v in results.items()
        ),
    )


def test_criterion_7_determinism():
    # dense family: single- and multi-worker bitwise equality
    h_seq = dense_case(256, 3, seed=5)
    hlu_factorize(make_plan(h_seq))
    ref = flatten(h_seq)
    for workers in (1, 4):
        h = dense_case(256, 3, seed=5)
        hlu_factorize(make_plan(h, mode="parallel", workers=workers, wd_er=True))
        assert np.array_equal(flatten(h), ref), f"dense {workers}-worker mismatch"

    # kernel family: single-worker bitwise equality (and multi-worker, which
    # holds here because truncation order is pinned by the region chains)
    case = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6)
    h_seq = case.hmatrix.copy()
    hlu_factorize(make_plan(h_seq, TruncationControl(1e-6)))
    ref = flatten(h_seq)
    for workers in (1, 4):
        h = case.hmatrix.copy()
        hlu_factorize(
            make_plan(
                h, TruncationControl(1e-6), mode="parallel", workers=workers, wd_er=True
            )
        )
        assert np.array_equal(flatten(h), ref), f"bem {workers}-worker mismatch"
    announce(7, "parallel runs bitwise equal to sequential on both families")


def test_criterion_8_skeleton_immutability(bem_cases):
    checked = 0
    for n in (64, 256, 512):
        for r in (2, 3):
            h = dense_case(n, r)
            sk = build_skeleton(h)
            before = (sk.size, dict(sk.ranges))
            hlu_factorize(make_plan(h))
            assert (sk.size, sk.ranges) == before, f"dense2x2 n={n} r={r}"
            checked += 1
    for eta, case in bem_cases.items():
        h = case.hmatrix.copy()
        sk = build_skeleton(h)
        before = (sk.size, dict(sk.ranges))
        hlu_factorize(make_plan(h, TruncationControl(1e-6)))
        assert (sk.size, sk.ranges) == before, f"bem eta={eta}"
        checked += 1
    announce(8, f"skeleton ranges unchanged across {checked} factorizations")

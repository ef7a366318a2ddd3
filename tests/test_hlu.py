import re

import numpy as np
import pytest

from hluflow.blocks import ADMISSIBLE, BlockNode, build_block_tree, build_diagonal_2x2_tree
from hluflow.clustering import build_cluster_tree
from hluflow.hmatrix import (
    LOWRANK,
    HMatrix,
    StructureError,
    build_hmatrix,
    build_skeleton,
    flatten,
    hmatvec,
)
from hluflow.hlu import (
    emit_task_graph,
    hlu_factorize,
    lower_unit_matvec,
    make_plan,
    solve_lower_hmatrix,
    solve_upper_hmatrix,
    update_hmatrix,
    upper_matvec,
)
from hluflow.kernels import make_bem_case
from hluflow.lowrank import LowRank, SingularBlockError, TruncationControl
from hluflow.runtime import Runtime


def dense2x2_matrix(n, r, seed=7, upper_right_split=False):
    root, _ = build_diagonal_2x2_tree(n, r, upper_right_split)
    rng = np.random.default_rng(seed)

    def fill(block):
        m = rng.standard_normal((block.rows, block.cols))
        if block.row_range == block.col_range:
            m += n * np.eye(block.rows)
        return m

    return build_hmatrix(root, fill)


def mixed_matrix(n=192, leafsize=16, eta=0.5, seed=3, shift=None):
    """Random H-matrix over a kernel-style structure, diagonally dominated."""
    tree = build_cluster_tree(np.linspace(0.0, 1.0, n), leafsize)
    root = build_block_tree(tree, tree, eta)
    rng = np.random.default_rng(seed)
    shift = n if shift is None else shift

    def fill(block):
        if block.kind == "admissible":
            k = int(rng.integers(1, 4))
            return LowRank(
                rng.standard_normal((block.rows, k)) / n,
                rng.standard_normal((block.cols, k)),
            )
        m = rng.standard_normal((block.rows, block.cols))
        if block.row_range == block.col_range:
            m += shift * np.eye(block.rows)
        return m

    return build_hmatrix(root, fill)


def lowrank_leaf(block, k, seed):
    """A one-leaf H-matrix holding a random rank-k block over ``block``'s clusters."""
    rng = np.random.default_rng(seed)
    leaf = BlockNode(block.row, block.col, ADMISSIBLE)
    data = LowRank(rng.standard_normal((block.rows, k)), rng.standard_normal((block.cols, k)))
    return HMatrix(leaf, LOWRANK, data)


def solve_rhs(nb, seed, lowrank, like):
    """Right-hand side of the solve oracles: a mixed H-matrix, or one low-rank leaf."""
    if lowrank:
        return lowrank_leaf(like.block, 3, seed)
    return mixed_matrix(nb, leafsize=16, eta=0.25, seed=seed)


# the last case solves a single low-rank leaf panel by panel
SOLVE_CASES = pytest.mark.parametrize(
    "nb, lowrank", [(64, False), (96, False), (96, True)], ids=["64", "96", "lowrank-leaf"]
)


def unpivoted_lu_oracle(a):
    """Textbook right-looking elimination, no pivoting, no blocking."""
    b = a.copy()
    n = b.shape[0]
    for j in range(n - 1):
        b[j + 1 :, j] /= b[j, j]
        b[j + 1 :, j + 1 :] -= np.outer(b[j + 1 :, j], b[j, j + 1 :])
    return b


def lu_split(f):
    return np.tril(f, -1) + np.eye(f.shape[0]), np.triu(f)


class TestSequentialDense:
    def test_identity_noop(self):
        h = build_hmatrix(build_diagonal_2x2_tree(16, 2)[0])
        for leaf in h.leaves():
            r0, r1 = leaf.row_range
            c0, c1 = leaf.col_range
            leaf.data[:] = np.eye(16)[r0:r1, c0:c1]
        hlu_factorize(make_plan(h))
        assert np.array_equal(flatten(h), np.eye(16))

    @pytest.mark.parametrize("n,r", [(64, 3), (96, 2)])
    def test_reconstruction_and_flat_oracle(self, n, r):
        h = dense2x2_matrix(n, r)
        a = flatten(h)
        hlu_factorize(make_plan(h))
        f = flatten(h)
        l, u = lu_split(f)
        assert np.linalg.norm(l @ u - a) <= 1e-11 * np.linalg.norm(a)
        oracle = unpivoted_lu_oracle(a)
        assert np.linalg.norm(f - oracle) <= 1e-11 * np.linalg.norm(oracle)

    def test_singular_pivot_names_block(self):
        h = build_hmatrix(build_diagonal_2x2_tree(8, 1)[0])  # all zeros
        with pytest.raises(SingularBlockError) as err:
            hlu_factorize(make_plan(h))
        assert "lu[0:4)" in str(err.value)

    def test_non_square_rejected(self):
        tree_r = build_cluster_tree(np.linspace(0, 1, 32), 8)
        tree_c = build_cluster_tree(np.linspace(0, 1, 24), 8)
        root = build_block_tree(tree_r, tree_c, eta=1e-9)
        h = build_hmatrix(root)
        with pytest.raises(StructureError):
            hlu_factorize(make_plan(h))


class TestSequentialMixed:
    def test_reconstruction_with_truncation(self):
        h = mixed_matrix(192)
        a = flatten(h)
        hlu_factorize(make_plan(h, TruncationControl(1e-8)))
        f = flatten(h)
        l, u = lu_split(f)
        assert np.linalg.norm(l @ u - a) <= 1e-6 * np.linalg.norm(a)

    def test_bem_case_residual(self, rng):
        case = make_bem_case(1, 1024, eta=1.0, leafsize=32, eps=1e-6)
        original = case.hmatrix.copy()
        plan = make_plan(case.hmatrix, TruncationControl(1e-6))
        hlu_factorize(plan)
        worst = 0.0
        for _ in range(10):
            x = rng.standard_normal(1024)
            ax = hmatvec(original, x)
            lux = lower_unit_matvec(case.hmatrix, upper_matvec(case.hmatrix, x))
            worst = max(worst, np.linalg.norm(ax - lux) / np.linalg.norm(ax))
        assert worst <= 1e-4

    def test_skeleton_unchanged_by_factorization(self):
        h = mixed_matrix(128)
        sk = build_skeleton(h)
        before = sk.fingerprint()
        hlu_factorize(make_plan(h, TruncationControl(1e-8)))
        assert sk.fingerprint() == before

    def test_rank_cap_respected(self):
        h = mixed_matrix(192)
        hlu_factorize(make_plan(h, TruncationControl(1e-12, kmax=3)))
        for leaf in h.leaves():
            if leaf.kind == LOWRANK:
                assert leaf.data.k <= 3


class TestSolves:
    def test_lower_solve_identity(self):
        l = dense2x2_matrix(32, 1, seed=1)
        for leaf in l.leaves():
            r0, r1 = leaf.row_range
            c0, c1 = leaf.col_range
            leaf.data[:] = np.eye(32)[r0:r1, c0:c1]
        b = dense2x2_matrix(32, 1, seed=2)
        want = flatten(b).copy()
        solve_lower_hmatrix(l, b)
        assert np.allclose(flatten(b), want)

    @SOLVE_CASES
    def test_lower_solve_vs_dense_oracle(self, nb, lowrank):
        # factor and right-hand side over the same cluster tree
        h = mixed_matrix(nb, leafsize=16, eta=0.5, seed=5)
        hlu_factorize(make_plan(h, TruncationControl(1e-12)))
        lfull, _ = lu_split(flatten(h))
        b = solve_rhs(nb, 8, lowrank, h)
        bfull = flatten(b).copy()
        solve_lower_hmatrix(h, b, TruncationControl(1e-10))
        want = np.linalg.solve(lfull, bfull)
        got = flatten(b)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @SOLVE_CASES
    def test_upper_solve_vs_dense_oracle(self, nb, lowrank):
        h = mixed_matrix(nb, leafsize=16, eta=0.5, seed=5)
        hlu_factorize(make_plan(h, TruncationControl(1e-12)))
        _, ufull = lu_split(flatten(h))
        b = solve_rhs(nb, 9, lowrank, h)
        bfull = flatten(b).copy()
        solve_upper_hmatrix(b, h, TruncationControl(1e-10))
        want = bfull @ np.linalg.inv(ufull)
        got = flatten(b)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_update_vs_dense_oracle(self):
        c = mixed_matrix(128, leafsize=16, eta=0.5, seed=10)
        a = mixed_matrix(128, leafsize=16, eta=0.5, seed=11)
        b = mixed_matrix(128, leafsize=16, eta=0.5, seed=12)
        want = flatten(c) - flatten(a) @ flatten(b)
        update_hmatrix(c, a, b, TruncationControl(1e-10))
        got = flatten(c)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_lowrank_right_solve_flops(self):
        # rank-k leaf, n columns, 2x2 upper factor: two trsm of (n/2)^2 k
        # each plus one panel update of 2 k (n/2)^2
        n, k = 32, 3
        u = dense2x2_matrix(n, 1, seed=4)
        hlu_factorize(make_plan(u))
        _, ufull = lu_split(flatten(u))
        b = lowrank_leaf(u.block, k, seed=6)
        want = flatten(b) @ np.linalg.inv(ufull)
        assert solve_upper_hmatrix(b, u) == n * n * k
        assert np.linalg.norm(flatten(b) - want) <= 1e-12 * np.linalg.norm(want)

    def test_update_dense_only_vs_flat_gemm(self):
        c = dense2x2_matrix(128, 3, seed=20)
        a = dense2x2_matrix(128, 3, seed=21)
        b = dense2x2_matrix(128, 3, seed=22)
        want = flatten(c) - flatten(a) @ flatten(b)
        update_hmatrix(c, a, b)
        assert np.linalg.norm(flatten(c) - want) <= 1e-12 * np.linalg.norm(want)

    def test_lower_solve_dense_only_vs_oracle(self):
        h = dense2x2_matrix(256, 3, seed=23)
        hlu_factorize(make_plan(h))
        lfull, _ = lu_split(flatten(h))
        b = dense2x2_matrix(256, 3, seed=24)
        bfull = flatten(b).copy()
        solve_lower_hmatrix(h, b)
        want = np.linalg.solve(lfull, bfull)
        assert np.linalg.norm(flatten(b) - want) <= 1e-11 * np.linalg.norm(want)

    def test_update_with_zero_rank_operand_is_noop(self):
        c = mixed_matrix(96, leafsize=16, eta=0.5, seed=13)
        tree = build_cluster_tree(np.linspace(0.0, 1.0, 96), 16)
        root = build_block_tree(tree, tree, 1e9)  # single admissible leaf
        zero = build_hmatrix(root)  # rank 0
        before = flatten(c).copy()
        update_hmatrix(c, zero, zero, TruncationControl(1e-10))
        assert np.array_equal(flatten(c), before)


class TestTaskEmission:
    def test_top_level_five_tasks_and_edges(self):
        h = dense2x2_matrix(64, 2)
        graph = emit_task_graph(make_plan(h, mode="parallel", wd_er=True))
        root = [t for t in graph.tasks if t.parent is None]
        assert len(root) == 1
        top = [t for t in graph.tasks if t.parent is root[0]]
        kinds = [t.label.split("[")[0] for t in top]
        assert kinds == ["lu", "lsolve", "rsolve", "update", "lu"]
        o1, o2, o3, o4, o5 = top
        edges = {
            (e.src.id, e.dst.id) for e in graph.edges if e.src in top and e.dst in top
        }
        assert edges == {
            (o1.id, o2.id),
            (o1.id, o3.id),
            (o2.id, o4.id),
            (o3.id, o4.id),
            (o4.id, o5.id),
        }

    def test_single_leaf_matrix_single_task(self):
        tree = build_cluster_tree(np.linspace(0, 1, 16), 16)
        root = build_block_tree(tree, tree, 1.0)
        h = build_hmatrix(root)
        h.data += 16 * np.eye(16)
        graph = emit_task_graph(make_plan(h, mode="parallel"))
        assert len(graph.tasks) == 1
        assert graph.edges == []

    def test_solve_expansion_six_subtasks(self):
        # both factor and right-hand side 2x2-partitioned: the solve splits
        # into two solves per column chain with the cross updates between
        h = dense2x2_matrix(64, 2, upper_right_split=True)
        hlu_factorize(make_plan(h))
        l = h.child(0, 0)
        b = h.child(0, 1)
        sk = build_skeleton(h)
        rt = Runtime(slots=sk.size, collect=True)
        solve_lower_hmatrix(l, b, TruncationControl(1e-10), runtime=rt, skeleton=sk)
        tasks = rt.tasks
        parent = tasks[0]
        subs = [t for t in tasks if t.parent is parent]
        assert len(subs) == 6
        kinds = [t.label.split("[")[0] for t in subs]
        assert kinds == ["lsolve", "lsolve", "update", "update", "lsolve", "lsolve"]
        # chain structure: solve(0,j) -> update(1,j) -> solve(1,j) per column
        edges = {(e.src.id, e.dst.id) for e in rt.task_graph().edges}
        s00, s01, u10, u11, s10, s11 = subs
        assert (s00.id, u10.id) in edges
        assert (u10.id, s10.id) in edges
        assert (s01.id, u11.id) in edges
        assert (u11.id, s11.id) in edges
        assert (s00.id, s01.id) not in edges

    def test_granularity_cutoff(self):
        # operations whose operands all span at most n // (2 workers) rows
        # and columns run as one strong task; at 16 workers the grain (16)
        # is below the leaf size (32), so that graph expands every level
        n = 512
        case = make_bem_case(1, n, eta=0.5, leafsize=32, eps=1e-6)

        def graph(workers):
            ctl = TruncationControl(1e-6)
            return emit_task_graph(make_plan(case.hmatrix, ctl, mode="parallel", workers=workers))

        def extent(task):
            # the label names every operand's row and column range
            spans = re.findall(r"\[(\d+):(\d+)\)", task.label)
            return max(int(hi) - int(lo) for lo, hi in spans)

        def accesses(task):
            return [(r.lo, r.hi, r.mode) for r in task.regions]

        full = graph(16)
        spawners = {t.label: t for t in full.tasks if t.spawns}
        kernels = {t.label for t in full.tasks if not t.spawns}
        counts = []
        for workers in (1, 2, 3):
            grain = n // (2 * workers)
            g = graph(workers)
            counts.append(len(g.tasks))
            assert all(extent(t) > grain for t in g.tasks if t.spawns)
            collapsed = [t for t in g.tasks if not t.spawns and t.label not in kernels]
            assert collapsed
            for t in collapsed:
                assert t.label in spawners
                assert extent(t) <= grain
                assert accesses(t) == accesses(spawners[t.label])
                assert not any(r.weak for r in t.regions)
        assert counts[0] < counts[1] < counts[2] < len(full.tasks)

    def test_emitted_graph_runs_like_sequential(self):
        h_seq = mixed_matrix(160, leafsize=16)
        h_par = mixed_matrix(160, leafsize=16)
        hlu_factorize(make_plan(h_seq, TruncationControl(1e-8)))
        trace = hlu_factorize(
            make_plan(h_par, TruncationControl(1e-8), mode="parallel", workers=2)
        )
        assert trace is not None
        assert np.array_equal(flatten(h_par), flatten(h_seq))


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers,wd_er", [(1, True), (3, True), (3, False)])
    def test_dense_bitwise(self, workers, wd_er):
        h_seq = dense2x2_matrix(256, 3)
        hlu_factorize(make_plan(h_seq))
        h_par = dense2x2_matrix(256, 3)
        hlu_factorize(
            make_plan(h_par, mode="parallel", workers=workers, wd_er=wd_er)
        )
        assert np.array_equal(flatten(h_par), flatten(h_seq))

    def test_circle_geometry_bitwise(self):
        # d=2 structures mix partitioned/low-rank patterns the 1-d cases miss
        case = make_bem_case(2, 384, eta=0.5, leafsize=32, eps=1e-6)
        h_seq = case.hmatrix.copy()
        hlu_factorize(make_plan(h_seq, TruncationControl(1e-6)))
        h_par = case.hmatrix.copy()
        hlu_factorize(
            make_plan(h_par, TruncationControl(1e-6), mode="parallel", workers=2)
        )
        assert np.array_equal(flatten(h_par), flatten(h_seq))

    def test_sphere_geometry_residual(self, rng):
        case = make_bem_case(3, 512, eta=1.0, leafsize=48, eps=1e-6)
        original = case.hmatrix.copy()
        hlu_factorize(make_plan(case.hmatrix, TruncationControl(1e-6)))
        x = rng.standard_normal(512)
        ax = hmatvec(original, x)
        lux = lower_unit_matvec(case.hmatrix, upper_matvec(case.hmatrix, x))
        assert np.linalg.norm(ax - lux) <= 1e-4 * np.linalg.norm(ax)

    @pytest.mark.parametrize("workers,wd_er", [(1, True), (3, True), (3, False)])
    def test_mixed_bitwise(self, workers, wd_er):
        case = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6)
        h_seq = case.hmatrix.copy()
        hlu_factorize(make_plan(h_seq, TruncationControl(1e-6)))
        h_par = case.hmatrix.copy()
        hlu_factorize(
            make_plan(
                h_par,
                TruncationControl(1e-6),
                mode="parallel",
                workers=workers,
                wd_er=wd_er,
            )
        )
        assert np.array_equal(flatten(h_par), flatten(h_seq))


class TestCrossing:
    def test_early_release_lets_solve_start_inside_factor(self):
        n = 256
        lab_o1 = f"lu[0:{n // 2})x[0:{n // 2})"
        lab_o21 = f"lsolve[0:{n // 4})x[{n // 2}:{3 * n // 4})"
        h = dense2x2_matrix(n, 2, upper_right_split=True)
        trace = hlu_factorize(make_plan(h, mode="parallel", workers=2, wd_er=True))
        o1 = trace.find_one(lab_o1)
        o21 = trace.find_one(lab_o21)
        assert o21.start_t < o1.end_t

    def test_taskwait_mode_serializes(self):
        n = 256
        lab_o1 = f"lu[0:{n // 2})x[0:{n // 2})"
        lab_o21 = f"lsolve[0:{n // 4})x[{n // 2}:{3 * n // 4})"
        h = dense2x2_matrix(n, 2, upper_right_split=True)
        trace = hlu_factorize(make_plan(h, mode="parallel", workers=2, wd_er=False))
        o1 = trace.find_one(lab_o1)
        o21 = trace.find_one(lab_o21)
        assert o21.start_t >= o1.end_t


class TestDagSoundness:
    def test_edges_match_pairwise_oracle_on_hlu_graph(self):
        # 4 workers give a grain of 12, the smallest leaf here, so the graph keeps
        # its nested levels (at 1 worker it collapses to 6 tasks)
        h = mixed_matrix(96, leafsize=16)
        graph = emit_task_graph(
            make_plan(h, TruncationControl(1e-8), mode="parallel", workers=4)
        )
        assert any(t.spawns and t.parent is not None for t in graph.tasks)
        # brute-force within each sibling group
        by_parent = {}
        for t in graph.tasks:
            by_parent.setdefault(id(t.parent), []).append(t)
        want = set()
        for group in by_parent.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    hit = any(
                        ra.domain is rb.domain
                        and max(ra.lo, rb.lo) < min(ra.hi, rb.hi)
                        and (ra.writes or rb.writes)
                        for ra in a.regions
                        for rb in b.regions
                    )
                    if hit:
                        want.add((a.id, b.id))
        got = {(e.src.id, e.dst.id) for e in graph.edges}
        assert got == want

    def test_wd_er_dominates_taskwait_in_simulation(self):
        h = dense2x2_matrix(128, 3)
        sk = build_skeleton(h)
        spans = {}
        for wd_er in (True, False):
            rt = Runtime(slots=sk.size, workers=4, wd_er=wd_er)
            plan = make_plan(h.copy(), mode="parallel", workers=4, wd_er=wd_er)
            from hluflow.hlu import _Emit, _factor

            _factor(_Emit(rt, plan), plan.matrix, plan.truncation, plan.flops)
            spans[wd_er] = rt.run_virtual().makespan
        assert spans[True] <= spans[False]
        assert spans[True] < spans[False]  # strictly better on this structure


def test_sequential_mode_uses_no_runtime(monkeypatch):
    import hluflow.hlu as hlu_module

    def forbidden(*a, **k):
        raise AssertionError("sequential mode must not construct a Runtime")

    monkeypatch.setattr(hlu_module, "Runtime", forbidden)
    h = dense2x2_matrix(64, 2)
    hlu_factorize(make_plan(h))

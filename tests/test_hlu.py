import functools
import hashlib
import re
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import find_one
from graphgen import oracle_edges
from hluflow.blocks import (
    ADMISSIBLE,
    INADMISSIBLE,
    PARTITIONED,
    BlockNode,
    build_block_tree,
    build_diagonal_2x2_tree,
)
from hluflow.clustering import Cluster, build_cluster_tree
from hluflow.hmatrix import (
    DENSE,
    LOWRANK,
    HMatrix,
    StructureError,
    _Window,
    build_hmatrix,
    build_skeleton,
    flatten,
    hmatvec,
)
from hluflow.hlu import (
    FlopCounter,
    HluPlan,
    _Emit,
    _factor,
    _flush,
    _Inline,
    _solve,
    _Sum,
    _update,
    emit_task_graph,
    hlu_factorize,
    lower_unit_matvec,
    make_plan,
    upper_matvec,
)
from hluflow.kernels import make_bem_case
from hluflow.lowrank import (
    BLAS_LIBRARY,
    LowRank,
    SingularBlockError,
    TruncationControl,
    recompress,
)
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

    @pytest.mark.parametrize("wd_er", [True, False])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_singular_pivot_in_parallel_run(self, workers, wd_er, bounded):
        h = build_hmatrix(build_diagonal_2x2_tree(256, 3)[0])  # all zeros
        before = threading.active_count()
        plan = make_plan(h, mode="parallel", workers=workers, wd_er=wd_er)
        err = bounded(lambda: hlu_factorize(plan))
        assert isinstance(err, SingularBlockError)
        # the first diagonal 2x2 of 32-point leaves is one coalesced block
        assert err.block_path == "lu[0:64)x[0:64)"
        assert "row 0 of block lu[0:64)x[0:64)" in str(err)
        assert threading.active_count() == before  # every worker joined

    def test_non_square_rejected(self):
        tree_r = build_cluster_tree(np.linspace(0, 1, 32), 8)
        tree_c = build_cluster_tree(np.linspace(0, 1, 24), 8)
        root = build_block_tree(tree_r, tree_c, eta=1e-9)
        h = build_hmatrix(root)
        with pytest.raises(StructureError):
            hlu_factorize(make_plan(h))


def tree(*sons):
    """A hand-built cluster over its sons, each a cluster or the (lo, hi) of a leaf cluster."""
    box = np.zeros(1)  # the recursion never reads a bounding box
    sons = tuple(c if isinstance(c, Cluster) else Cluster(*c, box, box) for c in sons)
    return Cluster(sons[0].start, sons[-1].end, box, box, sons=sons)


def grid(t, s, cells=None):
    """A block over t x s partitioned into its sons' pairs: dense leaves, except
    where ``cells`` maps (i, j) to another kind or to a block."""

    def son(i, j):
        k = (cells or {}).get((i, j), INADMISSIBLE)
        return k if isinstance(k, BlockNode) else BlockNode(t.sons[i], s.sons[j], k)

    sons = [[son(i, j) for j in range(len(s.sons))] for i in range(len(t.sons))]
    return BlockNode(t, s, PARTITIONED, sons)


def identity(block):
    """The leaves of the identity, so every pivot the recursion meets is 1."""
    if block.kind == ADMISSIBLE:
        return LowRank.zeros(block.rows, block.cols)
    return np.eye(block.rows, block.cols, block.row.start - block.col.start)


def structure_case(name):
    """A hand-built H-matrix the recursion rejects, and the block its error names."""
    if name == "lowrank-diagonal":
        t = tree((0, 4), (4, 8))
        return build_hmatrix(grid(t, t, {(0, 0): ADMISSIBLE}), identity), "lu[0:4)x[0:4)"
    if name == "non-square-dense-diagonal":
        t, s = tree((0, 3), (3, 8)), tree((0, 5), (5, 8))
        return build_hmatrix(grid(t, s), identity), "lu[0:3)x[0:5)"
    if name == "non-square-grid":
        t = tree(tree((0, 4), (4, 8)), (8, 16))
        s = tree(tree((0, 2), (2, 4), (4, 8)), (8, 16))
        inner = grid(t.sons[0], s.sons[0])  # 2 x 3
        return build_hmatrix(grid(t, s, {(0, 0): inner}), identity), "lu[0:8)x[0:8)"
    # mismatched inner partitions: h(1, 0) splits its columns at 1, h(0, 1) its rows at 2
    t = tree(tree((0, 2), (2, 4)), tree((4, 6), (6, 8)))
    s = tree(tree((0, 1), (1, 4)), tree((4, 6), (6, 8)))
    cells = {(0, 1): grid(t.sons[0], s.sons[1]), (1, 0): grid(t.sons[1], s.sons[0])}
    return build_hmatrix(grid(t, s, cells), identity), "[4:8)x[0:4) @ [0:4)x[4:8)"


LU_STRUCTURE_CASES = [
    "lowrank-diagonal",
    "non-square-dense-diagonal",
    "non-square-grid",
]


class TestStructureErrors:
    """Each structure error of the recursion is a StructureError naming its block,
    raised inline, by make_plan's format walk and from a worker of a parallel run."""

    @pytest.mark.parametrize("name", LU_STRUCTURE_CASES)
    def test_inline(self, name):
        h, block = structure_case(name)
        with pytest.raises(StructureError, match=re.escape(block)):
            _factor(_Inline(TruncationControl(), FlopCounter()), h)

    @pytest.mark.parametrize("name", LU_STRUCTURE_CASES)
    def test_make_plan(self, name):
        h, block = structure_case(name)
        with pytest.raises(StructureError, match=re.escape(block)):
            make_plan(h)

    def test_make_plan_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            make_plan(dense2x2_matrix(64, 2), mode="bogus")

    @pytest.mark.parametrize("name", LU_STRUCTURE_CASES)
    def test_parallel_run(self, name, bounded):
        # a hand-built plan skips make_plan's walk, so a worker meets the error
        h, block = structure_case(name)
        before = threading.active_count()
        plan = HluPlan(h, build_skeleton(h), TruncationControl(), mode="parallel", workers=2)
        err = bounded(lambda: hlu_factorize(plan))
        assert isinstance(err, StructureError) and block in str(err)
        assert threading.active_count() == before  # every worker joined

    def test_mismatched_inner_partitions(self, bounded):
        # an LU solves both panels against the dense h(0, 0), then meets the
        # mismatch in its update; the update is also driven directly, inline
        # and on 2 workers
        h, block = structure_case("mismatched-inner-partitions")
        c, a, b = h.child(1, 1), h.child(1, 0), h.child(0, 1)
        with pytest.raises(StructureError, match=re.escape(block)):
            _update(_Inline(TruncationControl(), FlopCounter()), c, a, b)
        with pytest.raises(StructureError, match=re.escape(block)):
            make_plan(h)
        sk = build_skeleton(h)
        rt = Runtime(slots=sk.size, workers=2)
        _update(_Emit(rt, HluPlan(h, sk, TruncationControl())), c, a, b)
        before = threading.active_count()
        err = bounded(rt.run)
        assert isinstance(err, StructureError) and block in str(err)
        assert threading.active_count() == before


@pytest.mark.parametrize("emit", [False, True], ids=["inline", "2-workers"])
@pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
def test_dense_factor_against_partitioned_rhs_vs_oracle(right, emit):
    # the solve a coalesced diagonal block meets: the dense h(0, 0) solves the
    # partitioned h(0, 1) (left) or h(1, 0) (right) block by block, cut into
    # windows at its splits; n // 4 = 8, so make_plan coalesces no node here
    t = tree(tree((0, 8), (8, 16)), tree((16, 24), (24, 32)))
    cell = (1, 0) if right else (0, 1)
    rng = np.random.default_rng(41)

    def fill(block):
        shift = 32 * np.eye(block.rows, block.cols, block.row.start - block.col.start)
        return rng.standard_normal((block.rows, block.cols)) + shift

    h = build_hmatrix(grid(t, t, {cell: grid(t.sons[cell[0]], t.sons[cell[1]])}), fill)
    a = flatten(h)
    plan = make_plan(h, mode="parallel" if emit else "sequential", workers=2)
    assert plan.coarse.leaves() == h.leaves() and h.child(*cell).kind == PARTITIONED
    hlu_factorize(plan)
    oracle = unpivoted_lu_oracle(a)
    assert np.linalg.norm(flatten(h) - oracle) <= 1e-11 * np.linalg.norm(oracle)


def coalesced_pairs(m, c):
    """(matrix node, coarse node) over each leaf block of the coarse tree ``c``."""
    assert m.block is c.block
    if c.kind != PARTITIONED:
        yield m, c
        return
    for m_row, c_row in zip(m.data, c.data, strict=True):
        for mm, cc in zip(m_row, c_row, strict=True):
            yield from coalesced_pairs(mm, cc)


class TestCoalescing:
    """make_plan stores each small all-dense node as one array that the recursion
    factors as one dense leaf; the block tree and the dependencies stay."""

    def test_matrix_leaves_are_views_of_coalesced_nodes(self):
        case = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6)
        template = case.hmatrix
        h = template.copy()
        plan = make_plan(h, TruncationControl(1e-6))
        assert plan.matrix is h
        assert [leaf.block for leaf in h.leaves()] == [leaf.block for leaf in template.leaves()]
        assert np.array_equal(flatten(h), flatten(template))
        nodes = [(m, c) for m, c in coalesced_pairs(h, plan.coarse) if m is not c]
        assert len(nodes) == 22
        for m, c in nodes:
            assert m.kind == PARTITIONED and c.kind == DENSE
            assert max(c.rows, c.cols) <= 512 // 4 and c.data.flags.c_contiguous
            r0, c0 = c.row_range[0], c.col_range[0]
            for leaf in m.leaves():
                assert leaf.kind == DENSE and max(leaf.rows, leaf.cols) < 128
                assert leaf.data.base is c.data
                (i0, i1), (j0, j1) = leaf.row_range, leaf.col_range
                assert np.shares_memory(leaf.data, c.data[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0])
        # every other leaf of the coarse tree is the matrix's own
        rest = [m for m, c in coalesced_pairs(h, plan.coarse) if m is c]
        assert len(rest) == len(plan.coarse.leaves()) - len(nodes)
        assert any(leaf.kind == LOWRANK for leaf in rest)

    @pytest.mark.parametrize(
        "d, n, leafsize, eta, slots",
        [(2, 1024, 32, 0.5, 547), (3, 1024, 64, 1.0, 37), (1, 2048, 64, 0.5, 334)],
        ids=["d2-1024", "bem3d", "bem1d"],
    )
    def test_coarse_tree_is_the_coalescing_of_the_final_formats(self, d, n, leafsize, eta, slots):
        # a walk over the coarse tree can store further leaves dense; planning
        # repeats coalescing until it stores none, so coalescing again changes nothing
        import hluflow.hlu as hlu_module

        template = make_bem_case(d, n, eta=eta, leafsize=leafsize, eps=1e-6).hmatrix
        plan = make_plan(template.copy(), TruncationControl(1e-6))
        assert plan.skeleton.size == slots
        assert build_skeleton(hlu_module._coalesce(plan.matrix, n // 4)).size == slots

    @pytest.mark.parametrize(
        "d, n, leafsize, eta, stored_dense",
        [(3, 1024, 64, 1.0, 20), (2, 512, 32, 0.5, 18)],
        ids=["bem3d", "d2"],
    )
    def test_dense_leaves_hold_arrays_throughout_planning(
        self, monkeypatch, d, n, leafsize, eta, stored_dense
    ):
        # the format walk stores a low-rank leaf's product when it decides the
        # leaf is dense, so no dense leaf holds factors when _coalesce or a run meets it
        import hluflow.hlu as hlu_module

        coalesce = hlu_module._coalesce

        def checked(h, side):
            assert all(isinstance(y.data, np.ndarray) for y in h.leaves() if y.kind == DENSE)
            return coalesce(h, side)

        monkeypatch.setattr(hlu_module, "_coalesce", checked)
        template = make_bem_case(d, n, eta=eta, leafsize=leafsize, eps=1e-6).hmatrix
        plan = make_plan(template.copy(), TruncationControl(1e-6))
        pairs = list(zip(template.leaves(), plan.matrix.leaves(), strict=True))
        assert sum(t.kind == LOWRANK and m.kind == DENSE for t, m in pairs) == stored_dense
        assert all(isinstance(m.data, np.ndarray) for _, m in pairs if m.kind == DENSE)

    @pytest.mark.parametrize("n, coalesced", [(512, 4), (1024, 0)], ids=["64-point", "128-point"])
    def test_leaves_of_128_points_stay(self, n, coalesced):
        # dense2x2's diagonal 2x2 of n / 8-point leaves qualifies only below 128 points
        h = dense2x2_matrix(n, 3)
        payloads = [leaf.data for leaf in h.leaves()]
        plan = make_plan(h)
        nodes = [m for m, c in coalesced_pairs(h, plan.coarse) if m is not c]
        assert len(nodes) == coalesced
        if not coalesced:
            assert plan.coarse.leaves() == h.leaves()
            assert all(leaf.data is x for leaf, x in zip(h.leaves(), payloads, strict=True))

    def test_factors_bitwise_across_workers(self):
        case = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6)
        ctl = TruncationControl(1e-6)
        h_seq = case.hmatrix.copy()
        plan = make_plan(h_seq, ctl)
        assert len(plan.coarse.leaves()) < len(h_seq.leaves())
        hlu_factorize(plan)
        for workers in (1, 2, 4, 16):
            for wd_er in (True, False):
                h = case.hmatrix.copy()
                hlu_factorize(make_plan(h, ctl, mode="parallel", workers=workers, wd_er=wd_er))
                for got, want in zip(h.leaves(), h_seq.leaves(), strict=True):
                    assert got.kind == want.kind, (workers, wd_er)
                    if got.kind == DENSE:
                        assert np.array_equal(got.data, want.data), (workers, wd_er)
                    else:
                        assert np.array_equal(got.data.a, want.data.a), (workers, wd_er)
                        assert np.array_equal(got.data.b, want.data.b), (workers, wd_er)

    def test_edges_match_pairwise_oracle(self):
        # a coalesced node is one leaf task over its skeleton interval: the
        # edges the chains enforce are still exactly the pairwise conflicts
        h = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6).hmatrix
        plan = make_plan(h, TruncationControl(1e-6), mode="parallel", workers=4)
        graph = emit_task_graph(plan)
        lu = find_one(graph, "lu[0:128)x[0:128)")
        node = h.child(0, 0).child(0, 0)
        assert node.kind == PARTITIONED and not lu.spawns
        assert [(r.lo, r.hi) for r in lu.regions] == [plan.skeleton.ranges[node.block]]
        assert any(t.spawns and t.parent is not None for t in graph.tasks)
        got = {(e.src.id, e.dst.id) for e in graph.edges}
        assert got == oracle_edges(graph.tasks)

    def test_plan_rejects_a_skeleton_without_its_coarse_leaves(self):
        # the skeleton make_plan builds numbers a coalesced node as one slot, so it
        # has no interval for the matrix's leaves below that node
        h = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6).hmatrix
        plan = make_plan(h, TruncationControl(1e-6))
        node = h.child(0, 0).child(0, 0)
        assert node.kind == PARTITIONED and node.block in plan.skeleton.ranges
        (r0, r1), (c0, c1) = node.leaves()[0].row_range, node.leaves()[0].col_range
        text = f"skeleton of {plan.skeleton.size} slots has no interval for leaf[{r0}:{r1})x[{c0}:{c1})"
        with pytest.raises(StructureError, match=re.escape(text)):
            HluPlan(h, plan.skeleton, plan.truncation)
        # nor has the skeleton of a matrix over another block tree
        other = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6).hmatrix
        with pytest.raises(StructureError, match="has no interval for leaf"):
            HluPlan(other, plan.skeleton, plan.truncation)


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

    @pytest.mark.parametrize("apply", [hmatvec, lower_unit_matvec, upper_matvec])
    @pytest.mark.parametrize("length", [126, 130])
    def test_matvec_rejects_wrong_length(self, apply, length):
        h = make_bem_case(1, 128, eta=0.5, leafsize=16, eps=1e-6).hmatrix
        hlu_factorize(make_plan(h, TruncationControl(1e-6)))
        with pytest.raises(ValueError, match="length mismatch"):
            apply(h, np.ones(length))
        with pytest.raises(ValueError, match="length mismatch"):
            apply(h, np.ones((length, 2)))

    def test_skeleton_unchanged_by_factorization(self):
        h = mixed_matrix(128)
        sk = build_skeleton(h)
        before = (sk.size, dict(sk.ranges))
        hlu_factorize(make_plan(h, TruncationControl(1e-8)))
        assert (sk.size, sk.ranges) == before

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
        _solve(_Inline(TruncationControl(), FlopCounter()), l, b, False)
        assert np.allclose(flatten(b), want)

    @SOLVE_CASES
    def test_lower_solve_vs_dense_oracle(self, nb, lowrank):
        # factor and right-hand side over the same cluster tree
        h = mixed_matrix(nb, leafsize=16, eta=0.5, seed=5)
        hlu_factorize(make_plan(h, TruncationControl(1e-12)))
        lfull, _ = lu_split(flatten(h))
        b = solve_rhs(nb, 8, lowrank, h)
        bfull = flatten(b).copy()
        _solve(_Inline(TruncationControl(1e-10), FlopCounter()), h, b, False)
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
        _solve(_Inline(TruncationControl(1e-10), FlopCounter()), h, b, True)
        want = bfull @ np.linalg.inv(ufull)
        got = flatten(b)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_update_vs_dense_oracle(self):
        c = mixed_matrix(128, leafsize=16, eta=0.5, seed=10)
        a = mixed_matrix(128, leafsize=16, eta=0.5, seed=11)
        b = mixed_matrix(128, leafsize=16, eta=0.5, seed=12)
        want = flatten(c) - flatten(a) @ flatten(b)
        _update(_Inline(TruncationControl(1e-10), FlopCounter()), c, a, b)
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
        flops = FlopCounter()
        _solve(_Inline(TruncationControl(), flops), u, b, True)
        assert flops.total == n * n * k
        assert np.linalg.norm(flatten(b) - want) <= 1e-12 * np.linalg.norm(want)

    def test_lowrank_update_flops(self):
        # a dense 16x16 leaf minus (rank-3 16x32) @ (dense 32x16): forming the
        # pair costs 2 k n inner, applying it to the dense leaf 2 m n k
        box = np.zeros(1)
        t, s = Cluster(0, 16, box, box), Cluster(16, 48, box, box)
        c = dense_leaf(BlockNode(t, t, INADMISSIBLE), seed=7)
        a = lowrank_leaf(BlockNode(t, s, ADMISSIBLE), 3, seed=8)
        b = dense_leaf(BlockNode(s, t, INADMISSIBLE), seed=9)
        want = flatten(c) - flatten(a) @ flatten(b)
        flops = FlopCounter()
        _update(_Inline(TruncationControl(), flops), c, a, b)
        assert flops.total == 2 * 3 * 16 * 32 + 2 * 16 * 16 * 3 == 4608
        assert np.linalg.norm(flatten(c) - want) <= 1e-13 * np.linalg.norm(want)

    def test_partitioned_update_forms_product_once(self, monkeypatch):
        # a 2x2 c, dense diagonal and low-rank off-diagonal leaves, minus (rank-3
        # 32x32) @ (partitioned 32x32) is one op: the pair is formed once, at
        # 2 k n inner, each dense leaf subtracts its slices at 2 m n k and each
        # low-rank leaf appends its own
        import hluflow.hlu as hlu_module

        box = np.zeros(1)

        def split(lo):
            halves = (Cluster(lo, lo + 16, box, box), Cluster(lo + 16, lo + 32, box, box))
            return Cluster(lo, lo + 32, box, box, sons=halves)

        def grid(rows, cols, seed):
            rng = np.random.default_rng(seed)
            sons = [[BlockNode(r, c, INADMISSIBLE if i == j else ADMISSIBLE) for j, c in enumerate(cols.sons)]
                    for i, r in enumerate(rows.sons)]

            def fill(block):
                if block.kind == ADMISSIBLE:
                    return LowRank(rng.standard_normal((block.rows, 2)), rng.standard_normal((block.cols, 2)))
                return rng.standard_normal((block.rows, block.cols))

            return build_hmatrix(BlockNode(rows, cols, PARTITIONED, sons), fill)

        t, s = split(0), split(32)
        c, b = grid(t, t, seed=7), grid(s, t, seed=9)
        a = lowrank_leaf(BlockNode(t, s, ADMISSIBLE), 3, seed=8)
        want = flatten(c) - flatten(a) @ flatten(b)
        product, calls = hlu_module._product, []
        monkeypatch.setattr(hlu_module, "_product", lambda a, b: calls.append(1) or product(a, b))
        flops = FlopCounter()
        _update(_Inline(TruncationControl(), flops), c, a, b)
        assert len(calls) == 1
        assert [isinstance(leaf.data, _Sum) for leaf in c.leaves()] == [False, True, True, False]
        assert flops.total == 2 * 3 * 32 * 32 + 2 * (2 * 16 * 16 * 3) == 9216
        assert np.linalg.norm(flatten(c) - want) <= 1e-12 * np.linalg.norm(want)

    def test_update_dense_only_vs_flat_gemm(self):
        c = dense2x2_matrix(128, 3, seed=20)
        a = dense2x2_matrix(128, 3, seed=21)
        b = dense2x2_matrix(128, 3, seed=22)
        want = flatten(c) - flatten(a) @ flatten(b)
        _update(_Inline(TruncationControl(), FlopCounter()), c, a, b)
        assert np.linalg.norm(flatten(c) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    def test_solve_dense_only_vs_oracle(self, right):
        h = dense2x2_matrix(256, 3, seed=23)
        hlu_factorize(make_plan(h))
        lfull, ufull = lu_split(flatten(h))
        b = dense2x2_matrix(256, 3, seed=24)
        bfull = flatten(b).copy()
        _solve(_Inline(TruncationControl(), FlopCounter()), h, b, right)
        if right:
            want = bfull @ np.linalg.inv(ufull)
        else:
            want = np.linalg.solve(lfull, bfull)
        assert np.linalg.norm(flatten(b) - want) <= 1e-11 * np.linalg.norm(want)

    def test_update_with_zero_rank_operand_is_noop(self):
        c = mixed_matrix(96, leafsize=16, eta=0.5, seed=13)
        tree = build_cluster_tree(np.linspace(0.0, 1.0, 96), 16)
        root = build_block_tree(tree, tree, 1e9)  # single admissible leaf
        zero = build_hmatrix(root)  # rank 0
        before = flatten(c).copy()
        _update(_Inline(TruncationControl(1e-10), FlopCounter()), c, zero, zero)
        assert np.array_equal(flatten(c), before)


class TestAccumulatedUpdates:
    """Low-rank leaves sum their updates exactly and are truncated once, before their solve."""

    @pytest.mark.parametrize("emit", [False, True], ids=["inline", "tasks"])
    @pytest.mark.parametrize(
        "ctl", [TruncationControl(1e-12, kmax=2), TruncationControl(1e-1)], ids=["kmax", "eps"]
    )
    def test_update_leaves_lowrank_truncated(self, ctl, emit):
        # emitted tasks name their operands' slots, so all three share one matrix
        h = mixed_matrix(256, leafsize=16, eta=0.5, seed=10)
        c, a, b = h.child(1, 1), h.child(1, 0), h.child(0, 1)
        if emit:
            sk = build_skeleton(h)
            rt = Runtime(slots=sk.size, workers=2)
            _update(_Emit(rt, HluPlan(c, sk, ctl)), c, a, b)
            rt.run()
        else:
            _update(_Inline(ctl, FlopCounter()), c, a, b)
        lowrank = [leaf for leaf in c.leaves() if leaf.kind == LOWRANK]
        assert lowrank
        for leaf in lowrank:
            _flush(leaf, ctl, FlopCounter())
            x = leaf.data
            again = recompress(x, ctl)
            assert ctl.kmax is None or x.k <= ctl.kmax
            assert again.k == x.k
            assert np.linalg.norm(again.value() - x.value()) <= 1e-12 * np.linalg.norm(x.value())

    def test_truncations_fewer_than_updates(self, monkeypatch):
        # each leaf's sum is flushed by its solve at most once, and apart from that
        # by an update whose sum reaches half its size; appends counts the pairs
        # the update bodies append to low-rank leaves' sums.  98 is the count of
        # truncations when every window of a cut operand formed its own product
        import hluflow.hlu as hlu_module

        case = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6)
        h = case.hmatrix.copy()
        lowrank = [leaf for leaf in h.leaves() if leaf.kind == LOWRANK]
        flushed, counts = record_flushes(monkeypatch), {"appends": 0, "truncations": 0}

        def recompress_counted(x, ctl):
            counts["truncations"] += 1
            return recompress(x, ctl)

        sub = _Sum.sub

        def sub_counted(self, u, vt, owned):
            counts["appends"] += 1
            return sub(self, u, vt, owned)

        monkeypatch.setattr(hlu_module, "recompress", recompress_counted)
        monkeypatch.setattr(_Sum, "sub", sub_counted)
        hlu_factorize(make_plan(h, TruncationControl(1e-6)))
        assert counts["truncations"] == len(flushed) <= 98
        assert counts["truncations"] < counts["appends"]
        by_solve = [id(leaf) for leaf, d in flushed if not at_bound(d)]
        assert by_solve and len(set(by_solve)) == len(by_solve)
        assert all(any(leaf is x for x in lowrank) for leaf, _ in flushed)
        for leaf in lowrank:
            assert recompress(leaf.data, TruncationControl(1e-6)).k == leaf.data.k

    @pytest.mark.parametrize("mode, workers", [("sequential", 1), ("parallel", 3)])
    def test_solve_kernels_see_truncated_leaves(self, monkeypatch, mode, workers):
        # the flush runs before the solve's kernels: a triangular solve on a
        # low-rank leaf's factors sees at most kmax columns, or the leaf's
        # assembled rank if no update reached it
        import hluflow.hlu as hlu_module

        kmax = 2
        h = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6).hmatrix
        lowrank = [(leaf, max(kmax, leaf.data.k)) for leaf in h.leaves() if leaf.kind == LOWRANK]
        excess = []

        def seen(kernel):
            def wrapper(f, x):
                for leaf, bound in lowrank:
                    if np.may_share_memory(x, leaf.data.a) or np.may_share_memory(x, leaf.data.b):
                        excess.append(leaf.data.k - bound)
                return kernel(f, x)

            return wrapper

        for name in ("trsm_lower_unit", "trsm_upper_right"):
            monkeypatch.setattr(hlu_module, name, seen(getattr(hlu_module, name)))
        hlu_factorize(make_plan(h, TruncationControl(1e-6, kmax), mode=mode, workers=workers))
        assert excess and max(excess) <= 0


def record_flushes(monkeypatch):
    """Wrap ``hlu._flush`` to list (leaf, sum) for every unflushed sum it truncates."""
    import hluflow.hlu as hlu_module

    flush, flushed = hlu_module._flush, []

    def flush_recorded(b, ctl, flops):
        leaf = b.leaf if isinstance(b, _Window) else b
        if isinstance(leaf.data, _Sum):
            flushed.append((leaf, leaf.data))
        return flush(b, ctl, flops)

    monkeypatch.setattr(hlu_module, "_flush", flush_recorded)
    return flushed


def at_bound(d):
    """True iff the flushed sum ``d`` reached the half-block bound, so an update body flushed it."""
    return d.k >= min(d.shape) / 2


def graded(shape, seed):
    """Random columns scaled from 1 down to 1e-14, so a truncated product loses digits."""
    return np.random.default_rng(seed).standard_normal(shape) * np.logspace(0, -14, shape[1])


def dense_leaf(block, seed):
    """A one-leaf H-matrix holding a graded dense block over ``block``'s clusters."""
    leaf = BlockNode(block.row, block.col, INADMISSIBLE)
    return HMatrix(leaf, DENSE, graded((block.rows, block.cols), seed))


def graded_mixed(n, seed):
    """``mixed_matrix`` with every dense leaf replaced by a graded one."""
    h = mixed_matrix(n, leafsize=16, eta=0.5, seed=seed)
    for leaf in h.leaves():
        if leaf.kind == DENSE:
            leaf.data = graded(leaf.data.shape, seed)
    return h


def payloads(h):
    """Every array an H-matrix's leaves hold; of a window, its leaf's."""
    for leaf in h.leaf.leaves() if isinstance(h, _Window) else h.leaves():
        yield from (leaf.data,) if leaf.kind == DENSE else (leaf.data.a, leaf.data.b)


def dense_value(op):
    """The dense value of an H-operand or a leaf window."""
    if not isinstance(op, _Window):
        return flatten(op)
    r0, c0 = op.leaf.row_range[0], op.leaf.col_range[0]
    (i0, i1), (j0, j1) = op.row_range, op.col_range
    return flatten(op.leaf)[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0]


class TestExactProducts:
    """Products are exact; a low-rank leaf is truncated only by its flush or at the half-block bound."""

    @pytest.mark.parametrize(
        "kind_a, kind_b",
        [
            ("lowrank", "dense"),
            ("dense", "lowrank"),
            ("dense", "dense"),
            ("partitioned", "partitioned"),
            ("lowrank", "lowrank"),
            ("dense_window", "lowrank"),
            ("lowrank_window", "dense"),
            ("dense", "lowrank_window"),
            ("lowrank", "dense_window"),
        ],
    )
    def test_multiply_lowrank_is_exact(self, kind_a, kind_b):
        # _product's factor pair is the exact product; a window keeps its leaf's
        # first half of the rows (as a) or of the columns (as b)
        from hluflow.hlu import _product

        block = mixed_matrix(64, leafsize=16, eta=0.5, seed=30).block
        half = block.sons[0][0]
        make = {
            "lowrank": lambda seed: lowrank_leaf(block, 3, seed),
            "dense": lambda seed: dense_leaf(block, seed),
            "partitioned": lambda seed: graded_mixed(64, seed),
        }
        a, b = make[kind_a.removesuffix("_window")](31), make[kind_b.removesuffix("_window")](32)
        rows, cols = block.row, block.col
        if kind_a.endswith("_window"):
            a, rows = _Window(a, half.row_range, a.col_range), half.row
        if kind_b.endswith("_window"):
            b, cols = _Window(b, b.row_range, half.col_range), half.col
        want = dense_value(a) @ dense_value(b)
        u, vt = _product(a, b)
        assert np.linalg.norm(u @ vt - want) <= 1e-13 * np.linalg.norm(want)

        # the stored sum itself, before any flush, holds none of the operands' memory:
        # none of its factor parts, which it concatenates only when truncated (a
        # product of rank 32 or more takes the half-block bound at once)
        c = lowrank_leaf(BlockNode(rows, cols, ADMISSIBLE), 2, seed=33)
        _update(_Inline(TruncationControl(1e-10), FlopCounter()), c, a, b)
        d = c.data
        parts = (*d.a_parts, *d.b_parts) if isinstance(d, _Sum) else (d.a, d.b)
        assert isinstance(d, _Sum) == any(k.startswith("lowrank") for k in (kind_a, kind_b))
        for x in parts:
            assert not any(np.shares_memory(x, y) for y in (*payloads(a), *payloads(b)))

    @pytest.mark.parametrize("kind_b", ["dense", "lowrank"])
    @pytest.mark.parametrize("kind_a", ["dense", "lowrank"])
    def test_sum_keeps_its_value_when_an_operand_changes(self, kind_a, kind_b):
        # a sum may hold a pair's vt only where the product formed it: after an
        # append, writing into every payload of both operands leaves its value as it was
        box = np.zeros(1)
        t, s = Cluster(0, 32, box, box), Cluster(32, 40, box, box)
        make = {"dense": dense_leaf, "lowrank": lambda block, seed: lowrank_leaf(block, 3, seed)}
        a = make[kind_a](BlockNode(t, s, INADMISSIBLE), 31)
        b = make[kind_b](BlockNode(s, t, INADMISSIBLE), 32)
        c = lowrank_leaf(BlockNode(t, t, ADMISSIBLE), 2, seed=33)
        _update(_Inline(TruncationControl(), FlopCounter()), c, a, b)
        assert isinstance(c.data, _Sum)  # rank 5 or 10, below the bound of 16
        before = c.data.value()
        for x in (*payloads(a), *payloads(b)):
            x += 1.0
        assert np.array_equal(c.data.value(), before)

    def test_factorization_compresses_no_dense_product(self, monkeypatch):
        # dense x dense products reach a low-rank leaf's sum exact, and the sums
        # that reach the half-block bound are flushed by recompress: no dense SVD
        import hluflow.hlu as hlu_module
        import hluflow.lowrank as lowrank_module

        svds, flushed = [], record_flushes(monkeypatch)
        compress_dense = lowrank_module.compress_dense

        def compress_counted(d, ctl):
            svds.append(d.shape)
            return compress_dense(d, ctl)

        case = make_bem_case(2, 256, eta=0.5, leafsize=16, eps=1e-6)
        for module in (lowrank_module, hlu_module):
            monkeypatch.setattr(module, "compress_dense", compress_counted)
        h_seq, h_par = case.hmatrix.copy(), case.hmatrix.copy()
        hlu_factorize(make_plan(h_seq, TruncationControl(1e-6)))
        hlu_factorize(make_plan(h_par, TruncationControl(1e-6), mode="parallel", workers=2))
        assert any(at_bound(d) for _, d in flushed)
        assert svds == []
        assert np.array_equal(flatten(h_par), flatten(h_seq))

    @pytest.mark.parametrize(
        "d, n, leafsize",
        [(3, 512, 32), (2, 256, 16), (2, 1024, 32)],
        ids=["d3", "d2", "d2-coalesced"],
    )
    def test_planned_run_sends_no_dense_pair_to_the_bound(self, monkeypatch, d, n, leafsize):
        # a dense x dense pair whose inner dimension reaches half a low-rank
        # destination's smaller side would take the half-block bound alone;
        # planning stores such destinations dense, so only a run that skips
        # make_plan meets one, while the bound itself stays reached
        import hluflow.hlu as hlu_module

        kernel, flushed = hlu_module._kernel, record_flushes(monkeypatch)
        seen = {"pairs": 0}

        def kernel_counted(op, ctl, flops):
            kind, c, a, b = op
            if kind == "update" and c.kind == LOWRANK and a.kind == b.kind == DENSE:
                inner = a.col_range[1] - a.col_range[0]
                side = min(a.row_range[1] - a.row_range[0], b.col_range[1] - b.col_range[0])
                seen["pairs"] += inner >= side / 2
            return kernel(op, ctl, flops)

        case = make_bem_case(d, n, eta=1.0 if d == 3 else 0.5, leafsize=leafsize, eps=1e-6)
        monkeypatch.setattr(hlu_module, "_kernel", kernel_counted)
        counts = {}
        for planned in (False, True):
            h, ctl = case.hmatrix.copy(), TruncationControl(1e-6)
            plan = make_plan(h, ctl) if planned else HluPlan(h, build_skeleton(h), ctl)
            seen["pairs"] = 0
            flushed.clear()
            hlu_factorize(plan)
            counts[planned] = (seen["pairs"], sum(at_bound(d) for _, d in flushed))
        assert counts[False][0] > 0
        assert counts[True][0] == 0
        assert 0 < counts[True][1] < counts[False][1]


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

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    def test_solve_expansion_six_subtasks(self, right):
        # both factor and right-hand side 2x2-partitioned: the solve splits
        # into two solves per block column (left) or block row (right) chain
        # with the cross updates between
        h = dense2x2_matrix(64, 2, upper_right_split=True)
        hlu_factorize(make_plan(h))
        sk = build_skeleton(h)
        rt = Runtime(slots=sk.size, collect=True)
        ctl = TruncationControl(1e-10)
        b = h.child(0, 1)
        f = h.child(1, 1) if right else h.child(0, 0)
        _solve(_Emit(rt, HluPlan(b, sk, ctl)), f, b, right)
        tasks = rt.tasks
        parent = tasks[0]
        subs = [t for t in tasks if t.parent is parent]
        assert len(subs) == 6
        kinds = [t.label.split("[")[0] for t in subs]
        solve = "rsolve" if right else "lsolve"
        assert kinds == [solve, solve, "update", "update", solve, solve]
        # chain structure per column (left) or row (right) of b:
        # first solve -> update -> second solve
        edges = {(e.src.id, e.dst.id) for e in rt.task_graph().edges}
        s0, s1, u0, u1, t0, t1 = subs
        assert (s0.id, u0.id) in edges
        assert (u0.id, t0.id) in edges
        assert (s1.id, u1.id) in edges
        assert (u1.id, t1.id) in edges
        assert (s0.id, s1.id) not in edges

    @pytest.mark.parametrize("workers", [1, 4])
    def test_emission_leaves_payloads_unchanged(self, workers):
        # collect mode runs no kernel, so a traced run may factorize the
        # matrix a graph export was emitted from
        h = mixed_matrix(96, leafsize=16)
        before = h.copy()
        emit_task_graph(make_plan(h, TruncationControl(1e-8), mode="parallel", workers=workers))
        assert any(leaf.kind == LOWRANK for leaf in h.leaves())
        for got, want in zip(h.leaves(), before.leaves(), strict=True):
            if got.kind == LOWRANK:
                assert np.array_equal(got.data.a, want.data.a)
                assert np.array_equal(got.data.b, want.data.b)
            else:
                assert np.array_equal(got.data, want.data)

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

    @pytest.mark.parametrize("workers", [4, 16])
    def test_emitted_labels_are_unique(self, workers):
        # one task per operation: a low-rank leaf is flushed inside its first solve body
        h = make_bem_case(1, 2048, eta=0.5, leafsize=64, eps=1e-6).hmatrix
        plan = make_plan(h, TruncationControl(1e-6), mode="parallel", workers=workers)
        labels = Counter(t.label for t in emit_task_graph(plan).tasks)
        assert [label for label, count in labels.items() if count > 1] == []

    def test_emitted_graph_runs_like_sequential(self):
        h_seq = mixed_matrix(160, leafsize=16)
        h_par = mixed_matrix(160, leafsize=16)
        hlu_factorize(make_plan(h_seq, TruncationControl(1e-8)))
        trace = hlu_factorize(
            make_plan(h_par, TruncationControl(1e-8), mode="parallel", workers=2)
        )
        assert trace is not None
        assert np.array_equal(flatten(h_par), flatten(h_seq))

    @pytest.mark.parametrize("wd_er", [True, False], ids=["wd_er", "taskwait"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", ["dense2x2", "bem1d"])
    def test_executed_graph_is_exported_graph(self, case, workers, wd_er):
        # a run executes the tasks and edges that graph-export writes; as in
        # the command, the graph is emitted from the matrix that is factorized
        if case == "dense2x2":
            h = dense2x2_matrix(256, 3)
        else:
            h = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6).hmatrix

        def shape(graph):
            tasks = Counter(t.label for t in graph.tasks)
            edges = Counter((e.src.label, e.dst.label, e.weak) for e in graph.edges)
            return tasks, edges

        def plan():
            return make_plan(
                h, TruncationControl(1e-6), mode="parallel", workers=workers, wd_er=wd_er
            )

        exported = emit_task_graph(plan())
        executed = hlu_factorize(plan())
        assert len(executed.tasks) > 1
        assert shape(executed) == shape(exported)


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
        for workers, wd_er in [(1, True), (2, True), (3, True), (3, False)]:
            h_par = case.hmatrix.copy()
            ctl = TruncationControl(1e-6)
            hlu_factorize(make_plan(h_par, ctl, mode="parallel", workers=workers, wd_er=wd_er))
            assert np.array_equal(flatten(h_par), flatten(h_seq)), (workers, wd_er)

    def test_sphere_geometry_residual(self, rng):
        case = make_bem_case(3, 512, eta=1.0, leafsize=48, eps=1e-6)
        original = case.hmatrix.copy()
        hlu_factorize(make_plan(case.hmatrix, TruncationControl(1e-6)))
        x = rng.standard_normal(512)
        ax = hmatvec(original, x)
        lux = lower_unit_matvec(case.hmatrix, upper_matvec(case.hmatrix, x))
        assert np.linalg.norm(ax - lux) <= 1e-4 * np.linalg.norm(ax)

    def test_planned_formats_independent_of_run(self):
        # the walk in make_plan follows program order, so the formats it fixes do
        # not depend on the mode, the worker count or early release
        case = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6)
        template = case.hmatrix
        kinds_before = [leaf.kind for leaf in template.leaves()]
        h_seq = template.copy()
        make_plan(h_seq, TruncationControl(1e-6))
        kinds = [leaf.kind for leaf in h_seq.leaves()]
        converted = [
            (t, p) for t, p in zip(template.leaves(), h_seq.leaves()) if t.kind != p.kind
        ]
        assert len(converted) == 18
        for t, p in converted:
            assert (t.kind, p.kind) == (LOWRANK, DENSE)
            assert np.array_equal(p.data, t.data.value())
        assert [leaf.kind for leaf in template.leaves()] == kinds_before

        # a planned matrix converts nothing; coalescing copies its leaves into new arrays
        values = flatten(h_seq)
        plan = make_plan(h_seq, TruncationControl(1e-6))
        assert [leaf.kind for leaf in h_seq.leaves()] == kinds
        assert np.array_equal(flatten(h_seq), values)
        hlu_factorize(plan)
        for workers in (1, 2, 4, 16):
            for wd_er in (True, False):
                h = template.copy()
                ctl = TruncationControl(1e-6)
                plan = make_plan(h, ctl, mode="parallel", workers=workers, wd_er=wd_er)
                assert [leaf.kind for leaf in h.leaves()] == kinds, (workers, wd_er)
                hlu_factorize(plan)
                assert np.array_equal(flatten(h), flatten(h_seq)), (workers, wd_er)

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

    @pytest.mark.parametrize("wd_er", [True, False], ids=["wd_er", "taskwait"])
    @pytest.mark.parametrize("workers", [2, 3, 8, 16])
    @pytest.mark.parametrize("case", ["bem1d-512", "bem2d-512"])
    def test_lowrank_operand_updates_bitwise(self, case, workers, wd_er):
        # an update with a low-rank operand is one op at every grain, so each worker
        # count runs the sequential op sequence: the same payloads bit for bit, the same flops
        ctl = TruncationControl(1e-6)
        seq = make_plan(bem_graph_matrix(case).copy(), ctl)
        hlu_factorize(seq)
        par = make_plan(bem_graph_matrix(case).copy(), ctl, mode="parallel", workers=workers, wd_er=wd_er)
        hlu_factorize(par)
        assert par.flops.total == seq.flops.total
        for x, y in zip(payloads(par.matrix), payloads(seq.matrix), strict=True):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("case", ["dense2x2", "bem"])
    def test_flop_totals_exact(self, case):
        # integer estimates sum to the same total in any task completion order
        if case == "dense2x2":
            build, ctl = (lambda: dense2x2_matrix(256, 3)), TruncationControl()
        else:
            build, ctl = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6).hmatrix.copy, TruncationControl(1e-6)
        totals = []
        for mode, workers in [("sequential", 1), ("parallel", 1)] + [("parallel", 2)] * 3:
            plan = make_plan(build(), ctl, mode=mode, workers=workers)
            hlu_factorize(plan)
            totals.append(plan.flops.total)
        assert isinstance(totals[0], int) and totals[0] > 0
        assert totals == [totals[0]] * 5


class TestCrossing:
    def test_early_release_lets_solve_start_inside_factor(self):
        n = 256
        lab_o1 = f"lu[0:{n // 2})x[0:{n // 2})"
        lab_o21 = f"lsolve[0:{n // 4})x[{n // 2}:{3 * n // 4})"
        h = dense2x2_matrix(n, 2, upper_right_split=True)
        trace = hlu_factorize(make_plan(h, mode="parallel", workers=2, wd_er=True))
        o1 = find_one(trace, lab_o1)
        o21 = find_one(trace, lab_o21)
        assert o21.start_t < o1.end_t

    def test_taskwait_mode_serializes(self):
        n = 256
        lab_o1 = f"lu[0:{n // 2})x[0:{n // 2})"
        lab_o21 = f"lsolve[0:{n // 4})x[{n // 2}:{3 * n // 4})"
        h = dense2x2_matrix(n, 2, upper_right_split=True)
        trace = hlu_factorize(make_plan(h, mode="parallel", workers=2, wd_er=False))
        o1 = find_one(trace, lab_o1)
        o21 = find_one(trace, lab_o21)
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
        got = {(e.src.id, e.dst.id) for e in graph.edges}
        assert got == oracle_edges(graph.tasks)

    def test_wd_er_dominates_taskwait_in_simulation(self):
        h = dense2x2_matrix(128, 3)
        sk = build_skeleton(h)
        spans = {}
        for wd_er in (True, False):
            rt = Runtime(slots=sk.size, workers=4, wd_er=wd_er)
            # a hand-built plan skips make_plan's coalescing: the uncoalesced graph
            plan = HluPlan(h.copy(), sk, TruncationControl(), mode="parallel", workers=4, wd_er=wd_er)
            _factor(_Emit(rt, plan), plan.coarse)
            spans[wd_er] = rt.run_virtual().makespan
        assert spans[True] <= spans[False]
        assert spans[True] < spans[False]  # strictly better on this structure

# (tasks, spawners, edges, weak edges) with wd_er, then the sha256 of the sorted
# "src -> dst (weak)" edge lines with wd_er and without; without it no edge is weak.
# make_plan coalesces the all-dense nodes of at most n // 4 = 64 rows (dense2x2's
# diagonal 64-blocks, bem1d's diagonal 64-blocks): at 1 worker, and for bem1d at 2,
# every coalesced node lies inside a collapsed task, so those graphs are unchanged.
# An update with a low-rank operand is one task whatever its target's partition.
GRAPH_SHAPES = {
    ("dense2x2", 1): (
        (6, 1, 5, 0),
        "459359ce16833993f5e25c5d01c011c83361478a1af9c5ebf3724c72958904e7",
        "459359ce16833993f5e25c5d01c011c83361478a1af9c5ebf3724c72958904e7",
    ),
    ("dense2x2", 2): (
        (26, 6, 21, 5),
        "49d5385f92de2a91e1e98d4f8a64cf4455a806f0756590f9f3d9f79bb4018f79",
        "b01c690c5706edcd16fea3c0b07222cab9e2a868c805a8bc21fc8336f0b6e27a",
    ),
    ("dense2x2", 4): (
        (26, 6, 21, 5),
        "49d5385f92de2a91e1e98d4f8a64cf4455a806f0756590f9f3d9f79bb4018f79",
        "b01c690c5706edcd16fea3c0b07222cab9e2a868c805a8bc21fc8336f0b6e27a",
    ),
    ("dense2x2", 16): (
        (26, 6, 21, 5),
        "49d5385f92de2a91e1e98d4f8a64cf4455a806f0756590f9f3d9f79bb4018f79",
        "b01c690c5706edcd16fea3c0b07222cab9e2a868c805a8bc21fc8336f0b6e27a",
    ),
    ("bem1d-512", 1): (
        (6, 1, 5, 0),
        "15ba01dd3066548f67c4fa9bf5547f5f793f06050461485e34fe64d53fc09c0a",
        "15ba01dd3066548f67c4fa9bf5547f5f793f06050461485e34fe64d53fc09c0a",
    ),
    ("bem1d-512", 2): (
        (36, 6, 27, 5),
        "c895155aadfc913bd64842f4fb297a9e6631b559989f58e39bb50cd09d5e48ef",
        "f3bba7747de15cf572965dd7c4cb1e73d6236448028fd705173d636e71dd4a57",
    ),
    ("bem1d-512", 4): (
        (194, 31, 129, 27),
        "50fc1f0cbb27554cb432bac2011ea32746d1ed59729d1ade5c67a3e7a3ae4928",
        "a6c1925add287ec34a2cb5e9d83d15358038104daa05f85cb20795e5ede4ccd4",
    ),
    ("bem1d-512", 16): (
        (550, 82, 645, 77),
        "47707605471a7faf42444653a1ed7cbf2985c7c6be9abdf4ff20d656974500a5",
        "d35d93f274f4f5a31a58c55de72f11333d7db506a56e4b13eee46188fca0e054",
    ),
    # every partitioned node of bem3d's coarse tree (37 leaves) has a side above
    # 256 = n // 4, the 2-worker grain, so from 2 workers on every level spawns
    ("bem3d", 1): (
        (31, 5, 22, 5),
        "5113d6cb0fd3eccb7e83c3a4586ffd44ec5c00049170904430f4e3953f956f1b",
        "98693572a383cb20a308dca43af8f06d2c34f034c466be68edd5b3b50752a08d",
    ),
    ("bem3d", 2): (
        (149, 22, 116, 17),
        "01418f764f06fa2643e56c9e15341a153c9a51ecfe60bf6c92fdc55f7ab017cc",
        "97e6068b9d9741d7515a5e0edc5ba51cfac18185fb4ad589d21a2c69fb1831f8",
    ),
    ("bem3d", 4): (
        (149, 22, 116, 17),
        "01418f764f06fa2643e56c9e15341a153c9a51ecfe60bf6c92fdc55f7ab017cc",
        "97e6068b9d9741d7515a5e0edc5ba51cfac18185fb4ad589d21a2c69fb1831f8",
    ),
    ("bem3d", 16): (
        (149, 22, 116, 17),
        "01418f764f06fa2643e56c9e15341a153c9a51ecfe60bf6c92fdc55f7ab017cc",
        "97e6068b9d9741d7515a5e0edc5ba51cfac18185fb4ad589d21a2c69fb1831f8",
    ),
}

# (d, n, leafsize, eta) of the bem cases the graph tests emit
BEM_GRAPH_CASES = {"bem1d-512": (1, 512, 32, 0.5), "bem2d-512": (2, 512, 32, 0.5), "bem3d": (3, 1024, 64, 1.0)}


@functools.lru_cache(maxsize=None)
def bem_graph_matrix(case):
    """The assembled matrix of a bem graph case; callers plan a copy."""
    d, n, leafsize, eta = BEM_GRAPH_CASES[case]
    return make_bem_case(d, n, eta=eta, leafsize=leafsize, eps=1e-6).hmatrix


def edge_lines(graph):
    return sorted(f"{e.src.label} -> {e.dst.label} ({e.weak})" for e in graph.edges)


@pytest.mark.parametrize("wd_er", [True, False], ids=["wd_er", "taskwait"])
@pytest.mark.parametrize("case, workers", list(GRAPH_SHAPES))
def test_emitted_graph_shape(case, workers, wd_er):
    # the emitted graph, edge for edge, of the tree make_plan coalesced
    if case == "dense2x2":
        h = dense2x2_matrix(256, 3)
    else:
        h = bem_graph_matrix(case).copy()
    graph = emit_task_graph(
        make_plan(h, TruncationControl(1e-6), mode="parallel", workers=workers, wd_er=wd_er)
    )
    counts, with_er, without_er = GRAPH_SHAPES[case, workers]
    lines = edge_lines(graph)
    assert (
        len(graph.tasks),
        sum(t.spawns for t in graph.tasks),
        len(graph.edges),
        sum(e.weak for e in graph.edges),
    ) == (counts if wd_er else counts[:3] + (0,))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (with_er if wd_er else without_er)


@pytest.mark.parametrize("wd_er", [True, False], ids=["wd_er", "taskwait"])
@pytest.mark.parametrize("workers", [1, 2, 4, 16])
@pytest.mark.parametrize("case", ["bem3d", "bem2d-512"])
def test_coarse_skeleton_orders_the_same_tasks(case, workers, wd_er):
    # every access declares whole leaves of the coarse tree, so numbering its
    # leaves instead of the matrix's enforces the same edges with fewer nodes:
    # each access puts one chain node on every slot of its region
    plan = make_plan(
        bem_graph_matrix(case).copy(), TruncationControl(1e-6),
        mode="parallel", workers=workers, wd_er=wd_er,
    )
    fine = HluPlan(
        plan.matrix, build_skeleton(plan.matrix), plan.truncation,
        mode="parallel", workers=workers, wd_er=wd_er, coarse=plan.coarse,
    )
    assert plan.skeleton.size == len(plan.coarse.leaves()) < fine.skeleton.size
    graphs = [emit_task_graph(p) for p in (plan, fine)]
    assert edge_lines(graphs[0]) == edge_lines(graphs[1])
    nodes = [sum(r.hi - r.lo for t in g.tasks for r in t.regions) for g in graphs]
    assert nodes[0] < nodes[1]


def test_sequential_mode_uses_no_runtime(monkeypatch):
    import hluflow.hlu as hlu_module

    def forbidden(*a, **k):
        raise AssertionError("sequential mode must not construct a Runtime")

    monkeypatch.setattr(hlu_module, "Runtime", forbidden)
    h = dense2x2_matrix(64, 2)
    hlu_factorize(make_plan(h))


def test_sequential_run_formats_labels_only_for_lu_bodies(monkeypatch):
    # only emitted tasks carry a label; inline, the one label formatted is the
    # block path each LU body hands its kernel for a singular-pivot error
    import hluflow.hlu as hlu_module

    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    h = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6).hmatrix
    for name in ("_lbl", "lu_nopivot"):
        monkeypatch.setattr(hlu_module, name, counting(name, getattr(hlu_module, name)))
    hlu_factorize(make_plan(h, TruncationControl(1e-6)))
    assert counts["lu_nopivot"] > 0
    assert counts["_lbl"] == counts["lu_nopivot"]


def test_kernels_looked_up_at_call_time(monkeypatch):
    # a traced run counts kernels by wrapping these module globals; a kernel
    # bound into a local or a table at import time would escape the wrappers
    import hluflow.hlu as hlu_module

    names = [
        "lu_nopivot",
        "trsm_lower_unit",
        "trsm_upper_right",
        "gemm_update",
        "recompress",
    ]
    lock = threading.Lock()
    counts = {}

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(hlu_module, name, counting(name, getattr(hlu_module, name)))
    runs = []
    for mode, workers in (("sequential", 1), ("parallel", 2)):
        counts.update(dict.fromkeys(names, 0))
        hlu_factorize(make_plan(mixed_matrix(), TruncationControl(1e-8), mode=mode, workers=workers))
        runs.append(dict(counts))
    assert all(runs[0][name] > 0 for name in names)
    assert runs[0] == runs[1]


@pytest.mark.skipif(BLAS_LIBRARY == "scipy", reason="numpy ships no OpenBLAS here")
def test_factorization_calls_no_scipy_kernel(monkeypatch):
    # with numpy's OpenBLAS loaded every dense kernel runs on it: scipy's
    # triangular solve, the only scipy kernel left, is never reached
    import hluflow.lowrank as lowrank_module

    def forbidden(*a, **k):
        raise AssertionError("scipy.linalg.solve_triangular called")

    monkeypatch.setattr(lowrank_module.scipy.linalg, "solve_triangular", forbidden)
    case = make_bem_case(1, 256, eta=0.5, leafsize=32, eps=1e-6)
    factors = []
    for mode, workers in (("sequential", 1), ("parallel", 2)):
        h = case.hmatrix.copy()
        hlu_factorize(make_plan(h, TruncationControl(1e-6), mode=mode, workers=workers))
        factors.append(flatten(h))
    assert np.array_equal(factors[0], factors[1])

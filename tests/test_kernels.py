import math
from collections import Counter

import numpy as np
import pytest

from hluflow import kernels
from hluflow.blocks import ADMISSIBLE, INADMISSIBLE, PARTITIONED, BlockNode, build_block_tree
from hluflow.clustering import build_cluster_tree
from hluflow.hmatrix import DENSE, LOWRANK, build_hmatrix, flatten, hmatvec
from hluflow.kernels import (
    KernelConfig,
    assemble_dense_block,
    assemble_hmatrix,
    assemble_lowrank_block,
    chebyshev_nodes,
    geometry_points,
    kernel_eval,
    lagrange_basis,
    make_bem_case,
    mesh_width,
)
from hluflow.lowrank import LowRank, TruncationControl, recompress


class TestKernelEval:
    def test_d1_log(self):
        assert kernel_eval([0.0], [1.0], 1) == 0.0

    def test_d3_quarter_pi(self):
        got = kernel_eval([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 3)
        assert abs(got - 0.0795774715) < 1e-9
        assert got == 1.0 / (4.0 * math.pi)

    def test_d2_at_e(self):
        got = kernel_eval([0.0, 0.0], [math.e, 0.0], 2)
        assert abs(got - (-0.1591549431)) < 1e-9

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            kernel_eval([0.5], [0.5], 1)

    def test_dimension_outside_one_to_three_raises(self):
        with pytest.raises(ValueError, match="kernel dimension must be 1, 2 or 3"):
            kernel_eval([0.0] * 4, [1.0, 0.0, 0.0, 0.0], 4)
        with pytest.raises(ValueError, match="kernel dimension must be 1, 2 or 3"):
            kernel_eval([0.0], [1.0], 0)


class TestDenseAssembly:
    def test_single_entry(self):
        pts = np.array([[0.0], [2.0]])
        tree = build_cluster_tree(pts, 1)
        t, s = tree.root.sons
        cfg = KernelConfig(d=1)
        block = assemble_dense_block(tree.points, t, s, cfg)
        assert block.shape == (1, 1)
        assert block[0, 0] == kernel_eval(tree.points[0], tree.points[1], 1)

    def test_symmetric_block(self):
        pts = geometry_points(2, 24)
        tree = build_cluster_tree(pts, 32)
        cfg = KernelConfig(d=2, diag_distance=0.5 * mesh_width(2, 24))
        block = assemble_dense_block(tree.points, tree.root, tree.root, cfg)
        assert np.array_equal(block, block.T)

    def test_matches_double_loop_oracle(self):
        pts = geometry_points(3, 32)
        tree = build_cluster_tree(pts, 32)
        cfg = KernelConfig(d=3, diag_distance=0.5 * mesh_width(3, 32))
        block = assemble_dense_block(tree.points, tree.root, tree.root, cfg)
        for i in range(32):
            for j in range(32):
                if i == j:
                    want = 1.0 / (4.0 * math.pi * cfg.diag_distance)
                else:
                    want = kernel_eval(tree.points[i], tree.points[j], 3)
                assert block[i, j] == want

    def test_coincident_without_regularization(self):
        pts = np.array([[0.0], [1.0]])
        tree = build_cluster_tree(pts, 4)
        cfg = KernelConfig(d=1)
        with pytest.raises(ValueError):
            assemble_dense_block(tree.points, tree.root, tree.root, cfg)


class TestInterpolation:
    def test_chebyshev_nodes_inside_interval(self):
        nodes = chebyshev_nodes(-2.0, 3.0, 6)
        assert np.all(nodes > -2.0) and np.all(nodes < 3.0)
        assert len(set(nodes.tolist())) == 6

    def test_lagrange_partition_of_unity(self, rng):
        nodes = chebyshev_nodes(0.0, 1.0, 5)
        x = rng.random(40)
        basis = lagrange_basis(nodes, x)
        assert np.allclose(basis.sum(axis=1), 1.0)

    def test_lagrange_cardinal_at_nodes(self):
        nodes = chebyshev_nodes(0.0, 1.0, 5)
        basis = lagrange_basis(nodes, nodes)
        assert np.array_equal(basis, np.eye(5))

    def test_lagrange_reproduces_polynomials(self, rng):
        nodes = chebyshev_nodes(-1.0, 1.0, 5)
        x = rng.uniform(-1, 1, 30)
        basis = lagrange_basis(nodes, x)
        for coeffs in (np.array([1.0, -2.0, 0.5, 0.0, 0.0]),):
            want = np.polyval(coeffs, x)
            got = basis @ np.polyval(coeffs, nodes)
            assert np.allclose(got, want, atol=1e-12)

    def test_order_one_is_constant(self):
        pts = geometry_points(1, 64)
        tree = build_cluster_tree(pts, 8)
        root = build_block_tree(tree, tree, eta=1.0)
        adm = [h.block for h in build_hmatrix(root).leaves() if h.block.kind == ADMISSIBLE]
        assert adm
        b = adm[0]
        cfg = KernelConfig(d=1, order=1, truncation=TruncationControl(0.0))
        block = assemble_lowrank_block(tree.points, b.row, b.col, cfg)
        assert block.k == 1
        center_t = 0.5 * (b.row.bbox_min + b.row.bbox_max)
        center_s = 0.5 * (b.col.bbox_min + b.col.bbox_max)
        want = kernel_eval(center_t, center_s, 1)
        assert np.allclose(block.value(), want)


class TestLowrankAssembly:
    def test_separated_leaves_interpolation_error(self):
        pts = geometry_points(1, 256)
        tree = build_cluster_tree(pts, 32)
        root = build_block_tree(tree, tree, eta=1.0)
        adm = [h.block for h in build_hmatrix(root).leaves() if h.block.kind == ADMISSIBLE]
        assert adm
        cfg = KernelConfig(d=1, order=6, truncation=TruncationControl(1e-6))
        worst = 0.0
        for b in adm[:6]:
            block = assemble_lowrank_block(tree.points, b.row, b.col, cfg)
            exact = assemble_dense_block(tree.points, b.row, b.col, cfg)
            err = np.max(np.abs(block.value() - exact))
            worst = max(worst, err / np.max(np.abs(exact)))
        assert worst <= 1e-4

    def test_rank_bounded_by_tensor_order(self):
        for d, n in ((1, 256), (2, 256), (3, 512)):
            case = make_bem_case(d, n, eta=1.0, leafsize=32)
            for leaf in case.hmatrix.leaves():
                if leaf.kind == LOWRANK:
                    assert leaf.data.k <= case.cfg.order**d


class TestAssembleHmatrix:
    def test_all_inadmissible_equals_dense(self):
        pts = geometry_points(1, 96)
        tree = build_cluster_tree(pts, 16)
        root = build_block_tree(tree, tree, eta=1e-9)  # nothing admissible
        cfg = KernelConfig(d=1, diag_distance=0.5 * mesh_width(1, 96))
        h = assemble_hmatrix(root, tree.points, cfg)
        dense = assemble_dense_block(tree.points, tree.root, tree.root, cfg)
        assert np.array_equal(flatten(h), dense)

    def test_structure_small_eta_dense_near_diagonal(self):
        case = make_bem_case(1, 256, eta=0.25, leafsize=32)
        for leaf in case.hmatrix.leaves():
            r0, r1 = leaf.row_range
            c0, c1 = leaf.col_range
            if r0 == c0 and r1 == c1:
                assert leaf.kind == "dense"
        kinds = {leaf.kind for leaf in case.hmatrix.leaves()}
        assert kinds == {"dense", "lowrank"}

    def test_assembly_accuracy_and_matvec(self, rng):
        case = make_bem_case(1, 512, eta=0.5, leafsize=32, eps=1e-6)
        cfg = case.cfg
        dense = assemble_dense_block(case.points, case.tree.root, case.tree.root, cfg)
        h = case.hmatrix
        err = np.linalg.norm(flatten(h) - dense) / np.linalg.norm(dense)
        assert err <= 100 * 1e-6
        x = rng.standard_normal(512)
        got = hmatvec(h, x)
        want = dense @ x
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 10 * 1e-4

    def test_symmetry_of_assembled_matrix(self):
        case = make_bem_case(2, 192, eta=0.5, leafsize=24, eps=1e-6)
        full = flatten(case.hmatrix)
        sym = np.linalg.norm(full - full.T) / np.linalg.norm(full)
        assert sym <= 1e-5


class TestGeometry:
    def test_interval(self):
        pts = geometry_points(1, 11)
        assert pts.shape == (11, 1)
        assert pts[0, 0] == 0.0 and pts[-1, 0] == 1.0

    def test_circle_on_unit_radius(self):
        pts = geometry_points(2, 50)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_sphere_on_unit_radius(self):
        pts = geometry_points(3, 200)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        # reasonably uniform: mean z close to 0
        assert abs(pts[:, 2].mean()) < 1e-9

    def test_kernel_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(d=4)
        with pytest.raises(ValueError):
            KernelConfig(d=1, order=-1)
        assert KernelConfig(d=3).order == 4
        assert KernelConfig(d=1).order == 5

    @pytest.mark.parametrize("order", [2.5, True, False, 4.0, "4"])
    def test_kernel_config_rejects_non_integer_order(self, order):
        with pytest.raises(ValueError, match=f"got {order!r}"):
            KernelConfig(d=1, order=order)

    def test_bem_case_rejects_fractional_order(self):
        with pytest.raises(ValueError, match="2.5"):
            make_bem_case(1, 256, 0.5, 32, order=2.5)

    def test_kernel_config_accepts_numpy_integer_order(self):
        assert KernelConfig(d=1, order=np.int64(4)).order == 4
        assert KernelConfig(d=2, order=np.int32(0)).order == 5
        ref = make_bem_case(1, 256, 0.5, 32, order=4).hmatrix
        got = make_bem_case(1, 256, 0.5, 32, order=np.int64(4)).hmatrix
        assert np.array_equal(flatten(got), flatten(ref))


def _old_lagrange_basis(nodes, x):
    """lagrange_basis with its weights taken node by node through np.delete."""
    m = nodes.shape[0]
    if m == 1:
        return np.ones((x.shape[0], 1))
    w = np.empty(m)
    for mu in range(m):
        w[mu] = 1.0 / np.prod(nodes[mu] - np.delete(nodes, mu))
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    safe = np.where(hit, 1.0, diff)
    terms = w[None, :] / safe
    out = terms / np.sum(terms, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        out[rows] = 0.0
        out[hit] = 1.0
    return out


def _old_pairwise_distance(xs, ys):
    """_pairwise_distance through a 3-D broadcast and a sum over its last axis."""
    diff = xs[:, None, :] - ys[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _payload_equal(leaf, want):
    if leaf.kind == DENSE:
        return np.array_equal(leaf.data, want)
    return np.array_equal(leaf.data.a, want.a) and np.array_equal(leaf.data.b, want.b)


class TestClusterBases:
    """Assembly builds each cluster's basis once and keeps every payload
    bitwise equal to assembling its block alone with the unrolled formulas."""

    @pytest.mark.parametrize("order", range(1, 9))
    def test_lagrange_weights_bitwise_old_formula(self, rng, order):
        for a, b in ((0.0, 1.0), (-3.7, 2.2), (1e-3, 1.0 + 1e-3)):
            nodes = chebyshev_nodes(a, b, order)
            x = np.concatenate((rng.uniform(a, b, 50), nodes))
            assert np.array_equal(lagrange_basis(nodes, x), _old_lagrange_basis(nodes, x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("order", range(1, 9))
    def test_distances_bitwise_old_formula(self, rng, d, order):
        xs = rng.standard_normal((order**d, d)) * 10.0
        ys = rng.standard_normal((37, d)) + 0.5
        got = kernels._pairwise_distance(xs, ys)
        assert np.array_equal(got, _old_pairwise_distance(xs, ys))
        pts = geometry_points(d, 64)
        assert np.array_equal(kernels._pairwise_distance(pts, pts), _old_pairwise_distance(pts, pts))

    @pytest.mark.parametrize("d, eta", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_leaves_bitwise_equal_block_by_block(self, d, eta):
        case = make_bem_case(d, 512, eta, 32)
        leaves = list(case.hmatrix.leaves())
        assert {leaf.kind for leaf in leaves} == {DENSE, LOWRANK}
        arrays = []
        for leaf in leaves:
            b = leaf.block
            alone = assemble_lowrank_block if leaf.kind == LOWRANK else assemble_dense_block
            assert _payload_equal(leaf, alone(case.points, b.row, b.col, case.cfg)), b
            arrays += [leaf.data] if leaf.kind == DENSE else [leaf.data.a, leaf.data.b]
        # no two payloads share memory, through a basis or otherwise
        bases = {id(a.base if a.base is not None else a) for a in arrays}
        assert len(bases) == len(arrays)

    @pytest.mark.parametrize("d, eta", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_one_basis_per_cluster(self, monkeypatch, d, eta):
        calls = Counter()
        cluster_basis = kernels._cluster_basis

        def counting(points, cluster, order):
            calls[id(cluster)] += 1
            return cluster_basis(points, cluster, order)

        monkeypatch.setattr(kernels, "_cluster_basis", counting)
        case = make_bem_case(d, 512, eta, 32)
        lowrank = [leaf.block for leaf in case.hmatrix.leaves() if leaf.kind == LOWRANK]
        clusters = {id(c) for b in lowrank for c in (b.row, b.col)}
        assert 2 * len(lowrank) > len(clusters)
        assert set(calls) == clusters and set(calls.values()) == {1}
        calls.clear()
        make_bem_case(d, 512, eta, 32)
        assert sum(calls.values()) == len(clusters)  # the cache lives in one call


def _old_dense_block(points, t, s, cfg):
    """assemble_dense_block as one kernel evaluation per block."""
    r = _old_pairwise_distance(points[t.start : t.end], points[s.start : s.end])
    r = np.where(r == 0.0, cfg.diag_distance, r)
    return kernels._kernel_of_distance(r, cfg.d)


def _old_lowrank_block(points, t, s, cfg):
    """assemble_lowrank_block as one recompression per block: the interpolant
    u_t core u_s^T through two thin QRs and an SVD."""
    (grid_t, u_t), (grid_s, u_s) = (kernels._cluster_basis(points, c, cfg.order) for c in (t, s))
    core = kernels._kernel_of_distance(_old_pairwise_distance(grid_t, grid_s), cfg.d)
    return recompress(LowRank(u_t @ core, u_s), cfg.truncation)


def _spectral_gap(x, ref):
    """||x - ref||_2 / ||ref||_2 of two LowRank blocks."""
    want = ref.value()
    return np.linalg.norm(x.value() - want, 2) / np.linalg.norm(want, 2)


def _pair(d, *kinds, diag_distance=0.5):
    """Two one-point clusters at 0 and 1 on the first axis, and a 2x2 block tree
    over them whose four blocks have the given kinds, row-major."""
    pts = np.zeros((2, d))
    pts[1, 0] = 1.0
    tree = build_cluster_tree(pts, 1)
    sons = tree.root.sons
    grid = [[BlockNode(t, s, kinds[2 * i + j]) for j, s in enumerate(sons)] for i, t in enumerate(sons)]
    cfg = KernelConfig(d=d, diag_distance=diag_distance)
    return BlockNode(tree.root, tree.root, PARTITIONED, grid), tree.points, cfg


class TestBatchedAssembly:
    """assemble_hmatrix fills leaves in groups (one QR per cluster basis, one
    stacked SVD per core shape, one kernel evaluation per block row); the
    block-by-block formulas above are its reference."""

    @pytest.mark.parametrize("d, eta", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_leaves_match_block_by_block_reference(self, d, eta):
        case = make_bem_case(d, 512, eta, 32)
        lowrank = 0
        for leaf in case.hmatrix.leaves():
            b = leaf.block
            if leaf.kind == DENSE:
                assert np.array_equal(leaf.data, _old_dense_block(case.points, b.row, b.col, case.cfg)), b
                continue
            ref = _old_lowrank_block(case.points, b.row, b.col, case.cfg)
            assert leaf.data.k == ref.k, b
            assert _spectral_gap(leaf.data, ref) <= 1e-13, b
            lowrank += 1
        assert lowrank > 0

    def test_kmax_caps_the_rank(self):
        case = make_bem_case(1, 512, 0.5, 32, kmax=2)
        ranks = Counter(leaf.data.k for leaf in case.hmatrix.leaves() if leaf.kind == LOWRANK)
        assert set(ranks) == {2}  # every block has rank 3 uncapped
        for leaf in case.hmatrix.leaves():
            if leaf.kind == LOWRANK:
                b = leaf.block
                ref = _old_lowrank_block(case.points, b.row, b.col, case.cfg)
                assert ref.k == 2 and _spectral_gap(leaf.data, ref) <= 1e-13

    def test_zero_kernel_gives_rank_zero_leaves(self):
        # -log 1 = 0: both admissible blocks' cores vanish, so sigma_1 is 0
        root, points, cfg = _pair(1, INADMISSIBLE, ADMISSIBLE, ADMISSIBLE, INADMISSIBLE)
        h = assemble_hmatrix(root, points, cfg)
        lowrank = [leaf for leaf in h.leaves() if leaf.kind == LOWRANK]
        assert len(lowrank) == 2
        assert all(leaf.data.k == 0 and leaf.data.shape == (1, 1) for leaf in lowrank)
        assert np.array_equal(flatten(h), np.array([[-math.log(0.5), 0.0], [0.0, -math.log(0.5)]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coincident_grids_raise(self, d):
        # an admissible diagonal block puts a cluster's grid against itself
        root, points, cfg = _pair(d, ADMISSIBLE, ADMISSIBLE, INADMISSIBLE, INADMISSIBLE)
        with pytest.raises(ValueError, match="interpolation grids coincide"):
            assemble_hmatrix(root, points, cfg)
        t = root.sons[0][0].row
        with pytest.raises(ValueError, match="interpolation grids coincide"):
            assemble_lowrank_block(points, t, t, cfg)

    def test_coincident_points_without_regularization_raise(self):
        # the row's off-diagonal block is regular, its diagonal block is not
        root, points, cfg = _pair(2, INADMISSIBLE, INADMISSIBLE, ADMISSIBLE, INADMISSIBLE, diag_distance=None)
        with pytest.raises(ValueError, match="no regularization distance"):
            assemble_hmatrix(root, points, cfg)

    def test_long_block_rows_are_evaluated_in_runs(self, monkeypatch):
        # bem3d's 64-point block rows span up to 1,024 columns: several runs each
        calls = Counter()
        distance = kernels._pairwise_distance

        def counting(xs, ys):
            calls[xs.ndim] += 1
            return distance(xs, ys)

        monkeypatch.setattr(kernels, "_pairwise_distance", counting)
        case = make_bem_case(3, 1024, 1.0, 64)
        dense = [leaf for leaf in case.hmatrix.leaves() if leaf.kind == DENSE]
        rows = {leaf.block.row for leaf in dense}
        assert len(rows) < calls[2] < len(dense)

    @pytest.mark.parametrize("d, eta", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_one_qr_per_cluster_basis(self, monkeypatch, d, eta):
        factors, factored = Counter(), Counter()
        cluster_basis, qr = kernels._cluster_basis, np.linalg.qr

        def basis(points, cluster, order):
            grid, u = cluster_basis(points, cluster, order)
            factors[u.tobytes()] += 1
            return grid, u

        def counting_qr(a, *args, **kwargs):
            for u in a if a.ndim == 3 else [a]:
                factored[np.ascontiguousarray(u).tobytes()] += 1
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(kernels, "_cluster_basis", basis)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        case = make_bem_case(d, 512, eta, 32)
        clusters = {c for leaf in case.hmatrix.leaves() if leaf.kind == LOWRANK for c in (leaf.block.row, leaf.block.col)}
        assert sum(factors.values()) == len(clusters)
        assert factored == factors


def test_make_bem_case_calls_the_perfbench_seams_once(monkeypatch):
    # perfbench's traced run wraps these kernels-module names to time each layer
    calls = Counter()
    for name in ("build_cluster_tree", "build_block_tree", "assemble_hmatrix"):
        fn = getattr(kernels, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counting)
    make_bem_case(1, 256, 0.5, 32)
    assert calls == {"build_cluster_tree": 1, "build_block_tree": 1, "assemble_hmatrix": 1}

import numpy as np
import pytest

from hluflow.blocks import build_block_tree, build_diagonal_2x2_tree
from hluflow.clustering import build_cluster_tree
from hluflow.hmatrix import (
    DENSE,
    LOWRANK,
    StructureError,
    build_hmatrix,
    build_skeleton,
    flatten,
    hmatvec,
    load_hmatrix,
    save_hmatrix,
    structure_dump,
    _matvec_into,
    _Window,
)
from hluflow.lowrank import LowRank, gemm_update


def bem_structure(n=128, leafsize=16, eta=1.0):
    tree = build_cluster_tree(np.linspace(0.0, 1.0, n), leafsize)
    return build_block_tree(tree, tree, eta)


def random_fill(rng):
    def policy(block):
        if block.kind == "admissible":
            k = 2
            return LowRank(
                rng.standard_normal((block.rows, k)),
                rng.standard_normal((block.cols, k)),
            )
        return rng.standard_normal((block.rows, block.cols))

    return policy


class TestBuild:
    def test_zero_init_dense_tree(self):
        root, _ = build_diagonal_2x2_tree(8, 1)
        h = build_hmatrix(root)
        leaves = h.leaves()
        assert len(leaves) == 4
        assert all(leaf.kind == DENSE for leaf in leaves)
        assert all(np.all(leaf.data == 0.0) for leaf in leaves)

    def test_rank_zero_init_admissible(self):
        root = bem_structure()
        h = build_hmatrix(root)
        rk = [leaf for leaf in h.leaves() if leaf.kind == LOWRANK]
        assert rk and all(leaf.data.k == 0 for leaf in rk)
        assert np.all(flatten(h) == 0.0)

    def test_payload_sets_leaf_format(self):
        root = bem_structure()
        h = build_hmatrix(root, lambda b: np.ones((b.rows, b.cols)))
        assert all(leaf.kind == DENSE for leaf in h.leaves())
        assert any(leaf.block.kind == "admissible" for leaf in h.leaves())
        assert np.all(flatten(h) == 1.0)
        with pytest.raises(StructureError, match="LowRank"):
            build_hmatrix(root, lambda b: LowRank.zeros(b.rows, b.cols))
        with pytest.raises(StructureError, match="list"):
            build_hmatrix(root, lambda b: [])

    def test_rebuilds_planned_matrix(self):
        # a plan stores admissible leaves dense; the builder takes those payloads as they are
        from hluflow.hlu import make_plan
        from hluflow.kernels import make_bem_case
        from hluflow.lowrank import TruncationControl

        h = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6).hmatrix
        make_plan(h, TruncationControl(1e-6))
        payloads = {leaf.block: leaf.data for leaf in h.leaves()}
        h2 = build_hmatrix(h.block, payloads.__getitem__)
        assert sum(l.kind == DENSE and l.block.kind == "admissible" for l in h2.leaves()) == 18
        assert structure_dump(h2) == structure_dump(h)
        assert all(a.data is b.data for a, b in zip(h.leaves(), h2.leaves(), strict=True))

    def test_leaf_enumeration_order(self):
        # depth-first row-major over the 2x2 grid
        root, _ = build_diagonal_2x2_tree(8, 2)
        h = build_hmatrix(root)
        ranges = [(leaf.row_range, leaf.col_range) for leaf in h.leaves()]
        assert ranges == [
            ((0, 2), (0, 2)),
            ((0, 2), (2, 4)),
            ((2, 4), (0, 2)),
            ((2, 4), (2, 4)),
            ((0, 4), (4, 8)),
            ((4, 8), (0, 4)),
            ((4, 6), (4, 6)),
            ((4, 6), (6, 8)),
            ((6, 8), (4, 6)),
            ((6, 8), (6, 8)),
        ]


class TestSkeleton:
    def test_figure_layout_intervals(self):
        root, _ = build_diagonal_2x2_tree(8, 2)
        sk = build_skeleton(build_hmatrix(root))
        assert sk.size == 10
        assert sk.ranges[root.sons[0][0]] == (0, 4)
        assert sk.ranges[root.sons[0][0].sons[0][0]] == (0, 1)
        assert sk.ranges[root] == (0, 10)

    def test_single_leaf(self):
        tree = build_cluster_tree(np.linspace(0, 1, 8), 8)
        root = build_block_tree(tree, tree, eta=1.0)
        sk = build_skeleton(build_hmatrix(root))
        assert sk.size == 1
        assert sk.ranges[root] == (0, 1)

    def test_parent_intervals_concatenate_children(self, rng):
        root = bem_structure(256, 16, 0.5)
        sk = build_skeleton(build_hmatrix(root))

        def check(b):
            if b.kind != "partitioned":
                lo, hi = sk.ranges[b]
                assert hi - lo == 1
                return
            lo, hi = sk.ranges[b]
            cursor = lo
            for row in b.sons:
                for c in row:
                    clo, chi = sk.ranges[c]
                    assert clo == cursor
                    cursor = chi
                    check(c)
            assert cursor == hi

        check(root)

    def test_nested_or_disjoint(self):
        root = bem_structure(128, 16, 1.0)
        sk = build_skeleton(build_hmatrix(root))
        ivals = list(sk.ranges.values())
        for a in ivals:
            for b in ivals:
                overlap = not (a[1] <= b[0] or b[1] <= a[0])
                if overlap:
                    nested = (a[0] <= b[0] and b[1] <= a[1]) or (
                        b[0] <= a[0] and a[1] <= b[1]
                    )
                    assert nested

    def test_ranges_stable_under_data_change(self, rng):
        root = bem_structure()
        h = build_hmatrix(root, random_fill(rng))
        sk = build_skeleton(h)
        before = (sk.size, dict(sk.ranges))
        for leaf in h.leaves():
            if leaf.kind == LOWRANK:
                leaf.data = LowRank(
                    rng.standard_normal((leaf.rows, 5)),
                    rng.standard_normal((leaf.cols, 5)),
                )
        assert (sk.size, sk.ranges) == before
        again = build_skeleton(h)
        assert (again.size, again.ranges) == before


class TestMatvec:
    def test_identity(self):
        root, _ = build_diagonal_2x2_tree(8, 1)
        h = build_hmatrix(root)
        for leaf in h.leaves():
            r0, r1 = leaf.row_range
            c0, c1 = leaf.col_range
            eye = np.eye(8)[r0:r1, c0:c1]
            leaf.data[:] = eye
        x = np.arange(8.0)
        assert np.array_equal(hmatvec(h, x), x)

    def test_rank_one_leaf(self, rng):
        tree = build_cluster_tree(np.linspace(0, 1, 6), 8)
        root = build_block_tree(tree, tree, eta=1.0)
        h = build_hmatrix(root)
        a = rng.standard_normal((6, 1))
        b = rng.standard_normal((6, 1))
        h.data = a @ b.T  # single dense leaf
        x = rng.standard_normal(6)
        assert np.allclose(hmatvec(h, x), a[:, 0] * (b[:, 0] @ x))

    def test_against_flatten_oracle(self, rng):
        root = bem_structure(200, 16, 0.5)
        h = build_hmatrix(root, random_fill(rng))
        full = flatten(h)
        x = rng.standard_normal(200)
        got = hmatvec(h, x)
        want = full @ x
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_linearity(self, rng):
        root = bem_structure(96, 16, 1.0)
        h = build_hmatrix(root, random_fill(rng))
        x = rng.standard_normal(96)
        y = rng.standard_normal(96)
        lhs = hmatvec(h, 2.0 * x + 3.0 * y)
        rhs = 2.0 * hmatvec(h, x) + 3.0 * hmatvec(h, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_length_mismatch(self, rng):
        root, _ = build_diagonal_2x2_tree(8, 1)
        h = build_hmatrix(root)
        with pytest.raises(ValueError):
            hmatvec(h, np.zeros(9))


def walk_operand(name, rng):
    """An operand of the block walker and its dense value."""
    h = build_hmatrix(bem_structure(), random_fill(rng))
    if name == "hmatrix":
        return h, flatten(h)
    leaf = next(l for l in h.leaves() if l.kind == (DENSE if name == "dense-window" else LOWRANK))
    (r0, r1), (c0, c1) = leaf.row_range, leaf.col_range
    return _Window(leaf, (r0 + 1, r1), (c0, c1 - 2)), flatten(leaf)[1:, : c1 - c0 - 2]


WALKS = [
    (op, right, acc, None)
    for op in ("hmatrix", "dense-window", "lowrank-window")
    for right in (False, True)
    for acc in (None, gemm_update)
] + [("hmatrix", right, None, tri) for tri in "LU" for right in (False, True)]


def walk_id(case):
    op, right, acc, tri = case
    side = "right" if right else "left"
    how = f"tri{tri}" if tri else ("subtract" if acc else "add")
    return f"{op}-{side}-{how}"


@pytest.mark.parametrize("operand, right, acc, tri", WALKS, ids=[walk_id(c) for c in WALKS])
def test_walker_vs_flatten(rng, operand, right, acc, tri):
    op, full = walk_operand(operand, rng)
    if tri == "L":
        full = np.tril(full, -1) + np.eye(full.shape[0])
    elif tri == "U":
        full = np.triu(full)
    m, n = full.shape
    x = rng.standard_normal((3, m) if right else (n, 3))
    y = rng.standard_normal((3, n) if right else (m, 3))
    prod = x @ full if right else full @ x
    want = y - prod if acc else y + prod
    _matvec_into(op, x, y, right, acc, tri)
    assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)


def test_triangular_walk_rejects_lowrank_diagonal_leaf():
    leaf = next(l for l in build_hmatrix(bem_structure()).leaves() if l.kind == LOWRANK)
    with pytest.raises(StructureError, match="low-rank diagonal"):
        _matvec_into(leaf, np.ones(leaf.cols), np.zeros(leaf.rows), tri="L")


class TestFlatten:
    def test_scatter_oracle(self, rng):
        root = bem_structure(64, 8, 1.0)
        h = build_hmatrix(root, random_fill(rng))
        full = flatten(h)
        want = np.zeros((64, 64))
        for leaf in h.leaves():
            r0, r1 = leaf.row_range
            c0, c1 = leaf.col_range
            block = leaf.data if leaf.kind == DENSE else leaf.data.value()
            want[r0:r1, c0:c1] += block
        assert np.array_equal(full, want)

    def test_size_guard(self):
        root, _ = build_diagonal_2x2_tree(8192, 1)
        h = build_hmatrix(root)
        with pytest.raises(ValueError):
            flatten(h)


def test_save_load_round_trip(tmp_path, rng):
    root = bem_structure(96, 16, 0.5)
    h = build_hmatrix(root, random_fill(rng))
    path = tmp_path / "h.npz"
    save_hmatrix(path, h)
    h2 = load_hmatrix(path)
    assert np.array_equal(flatten(h2), flatten(h))
    assert structure_dump(h2) == structure_dump(h)


def test_save_load_round_trip_of_planned_matrix(tmp_path):
    # a plan stores some admissible leaves dense; loading follows the saved arrays
    from hluflow.hlu import make_plan
    from hluflow.kernels import make_bem_case
    from hluflow.lowrank import TruncationControl

    h = make_bem_case(3, 512, eta=1.0, leafsize=32, eps=1e-6).hmatrix
    make_plan(h, TruncationControl(1e-6))
    assert any(leaf.kind == DENSE and leaf.block.kind == "admissible" for leaf in h.leaves())
    path = tmp_path / "h.npz"
    save_hmatrix(path, h)
    h2 = load_hmatrix(path)
    assert structure_dump(h2) == structure_dump(h)
    assert np.array_equal(flatten(h2), flatten(h))

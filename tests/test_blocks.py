import numpy as np
import pytest

from hluflow import blocks
from hluflow.blocks import (
    ADMISSIBLE,
    INADMISSIBLE,
    PARTITIONED,
    BlockNode,
    admissible,
    build_block_tree,
    build_diagonal_2x2_tree,
)
from hluflow.clustering import Cluster, build_cluster_tree, diam, dist
from hluflow.hmatrix import build_hmatrix, structure_dump
from hluflow.kernels import geometry_points


def line_tree(coords, leafsize):
    return build_cluster_tree(np.asarray(coords, dtype=float), leafsize)


def leaf_blocks(root):
    return [h.block for h in build_hmatrix(root).leaves()]


def test_admissible_same_cluster_is_false():
    t = line_tree([0.0, 1.0], 4).root
    assert not admissible(t, t, 1.0)


def test_admissible_direct_substitution():
    a = line_tree([0.0, 1.0], 4).root  # diam 1
    b = line_tree([11.0, 12.0], 4).root  # diam 1, dist 10
    assert admissible(a, b, 1.0)
    c = line_tree([3.0, 4.0], 4).root  # dist(a, c) = 2
    assert not admissible(a, c, 0.25)  # 1 > 0.25 * 2


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
def test_admissible_rejects_non_positive_eta(eta):
    a = line_tree([0.0, 1.0], 4).root
    b = line_tree([11.0, 12.0], 4).root
    with pytest.raises(ValueError, match="eta must be positive"):
        admissible(a, b, eta)


def test_leaf_cases():
    a = line_tree([0.0, 1.0], 4).root
    b = line_tree([1.5, 2.5], 4).root

    class FakeTree:
        def __init__(self, root):
            self.root = root

    node = build_block_tree(FakeTree(a), FakeTree(b), eta=0.25)
    assert node.kind == INADMISSIBLE and not node.sons

    far = line_tree([30.0, 31.0], 4)
    node = build_block_tree(FakeTree(a), far, eta=1.0)
    assert node.kind == ADMISSIBLE and not node.sons


def test_block_tree_traversal_oracle():
    tree = line_tree(np.linspace(0.0, 1.0, 256), 32)
    root = build_block_tree(tree, tree, eta=1.0)

    def check(b):
        adm = admissible(b.row, b.col, 1.0)
        if b.kind == ADMISSIBLE:
            assert adm
        elif b.kind == PARTITIONED:
            assert not adm and b.row.sons and b.col.sons
            assert len(b.sons) == len(b.row.sons)
            assert all(len(row) == len(b.col.sons) for row in b.sons)
            for i, tc in enumerate(b.row.sons):
                for j, sc in enumerate(b.col.sons):
                    child = b.sons[i][j]
                    assert child.row is tc and child.col is sc
                    check(child)
        else:
            assert not adm
            assert not (b.row.sons and b.col.sons)
        if b.row is b.col:
            assert b.kind != ADMISSIBLE

    check(root)

    # leaves tile the index square exactly once
    n = tree.root.size
    cover = np.zeros((n, n), dtype=int)
    for leaf in leaf_blocks(root):
        r0, r1 = leaf.row_range
        c0, c1 = leaf.col_range
        cover[r0:r1, c0:c1] += 1
    assert np.all(cover == 1)


def test_symmetric_geometry_symmetric_structure():
    tree = line_tree(np.linspace(0.0, 1.0, 128), 16)
    root = build_block_tree(tree, tree, eta=0.5)
    kinds = {}
    for leaf in leaf_blocks(root):
        kinds[(leaf.row_range, leaf.col_range)] = leaf.kind
    for (rr, cc), kind in kinds.items():
        assert kinds[(cc, rr)] == kind


def test_diagonal_2x2_small():
    root, _ = build_diagonal_2x2_tree(8, 1)
    assert root.kind == PARTITIONED
    leaves = leaf_blocks(root)
    assert len(leaves) == 4
    assert all(leaf.kind == INADMISSIBLE for leaf in leaves)
    assert all(leaf.rows == 4 and leaf.cols == 4 for leaf in leaves)


def test_diagonal_2x2_reference_sizes():
    root, _ = build_diagonal_2x2_tree(10000, 4)
    diag = [b for b in leaf_blocks(root) if b.row_range == b.col_range]
    assert {b.rows for b in diag} == {625}
    root, _ = build_diagonal_2x2_tree(10000, 7)
    diag = [b for b in leaf_blocks(root) if b.row_range == b.col_range]
    assert min(b.rows for b in diag) == 78


def test_diagonal_2x2_depth_guard():
    with pytest.raises(ValueError):
        build_diagonal_2x2_tree(8, 4)


def test_structure_dump_lists_every_leaf():
    root, _ = build_diagonal_2x2_tree(16, 2)
    dump = structure_dump(build_hmatrix(root))
    assert len(dump.strip().split("\n")) == len(leaf_blocks(root))
    assert "[0:4) [0:4) dense dense" in dump


def _old_block_tree(rows, cols, eta):
    """build_block_tree with ``admissible`` evaluated afresh for every pair."""

    def build(t, s):
        if admissible(t, s, eta):
            return BlockNode(t, s, ADMISSIBLE)
        if t.sons and s.sons:
            return BlockNode(t, s, PARTITIONED, [[build(tc, sc) for sc in s.sons] for tc in t.sons])
        return BlockNode(t, s, INADMISSIBLE)

    return build(rows.root, cols.root)


def _same_kinds(got, want):
    assert got.row is want.row and got.col is want.col and got.kind == want.kind, (got, want)
    assert len(got.sons) == len(want.sons)
    for got_row, want_row in zip(got.sons, want.sons):
        for g, w in zip(got_row, want_row, strict=True):
            _same_kinds(g, w)


class FakeTree:
    def __init__(self, root):
        self.root = root


@pytest.mark.parametrize(
    "d, n, leafsize, eta",
    [
        (1, 2048, 64, 0.5),  # bem1d
        (3, 1024, 64, 1.0),  # bem3d
        (2, 2048, 64, 0.5),
        (1, 512, 32, 0.5),
        (2, 512, 32, 0.5),
        (2, 1024, 32, 0.5),
        (3, 512, 32, 1.0),
        (2, 192, 24, 0.5),
    ],
)
def test_cached_geometry_gives_the_kinds_of_admissible(d, n, leafsize, eta):
    tree = build_cluster_tree(geometry_points(d, n), leafsize)
    _same_kinds(build_block_tree(tree, tree, eta), _old_block_tree(tree, tree, eta))


def _abutting_tree(n, depth):
    """Bisection of [0, n) whose boxes [lo, hi] share their ends: a box of width
    w is w / eta from the box 1 / eta + 1 boxes on, a tie for eta 1, 1/2, 1/4."""

    def build(lo, hi, level):
        mid = (lo + hi) // 2
        sons = () if level == depth else (build(lo, mid, level + 1), build(mid, hi, level + 1))
        return Cluster(lo, hi, np.array([float(lo)]), np.array([float(hi)]), sons=sons, level=level)

    return FakeTree(build(0, n, 0))


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
def test_cached_geometry_decides_exact_ties_by_admissible(monkeypatch, eta):
    tree = _abutting_tree(256, 6)
    ties = []
    exact = blocks.admissible

    def recording(t, s, eta):
        if min(diam(t), diam(s)) == eta * dist(t, s):
            ties.append((t, s))
        return exact(t, s, eta)

    monkeypatch.setattr(blocks, "admissible", recording)
    got = build_block_tree(tree, tree, eta)
    monkeypatch.undo()
    _same_kinds(got, _old_block_tree(tree, tree, eta))
    assert len(ties) > 1 and all(exact(t, s, eta) for t, s in ties)


@pytest.mark.parametrize(
    "a, b, eta",
    [
        ([[0.0], [1.0]], [[3.0], [4.0]], 0.5),  # diam 1, dist 2
        ([[0.0, 0.0], [3.0, 4.0]], [[9.0, 12.0], [12.0, 16.0]], 0.5),  # diam 5, dist 10
    ],
)
def test_tie_stays_admissible(a, b, eta):
    t, s = line_tree(a, 4).root, line_tree(b, 4).root
    assert min(diam(t), diam(s)) == eta * dist(t, s)
    assert build_block_tree(FakeTree(t), FakeTree(s), eta).kind == ADMISSIBLE
    nudged = np.nextafter(eta, 0.0)
    assert build_block_tree(FakeTree(t), FakeTree(s), nudged).kind == INADMISSIBLE


def test_mismatched_dimensions_raise():
    a = line_tree([[0.0], [1.0]], 4).root
    b = line_tree([[9.0, 0.0], [10.0, 0.0]], 4).root
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_block_tree(FakeTree(a), FakeTree(b), 1.0)

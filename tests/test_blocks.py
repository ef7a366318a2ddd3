import numpy as np
import pytest

from hluflow.blocks import (
    ADMISSIBLE,
    INADMISSIBLE,
    PARTITIONED,
    admissible,
    build_block_tree,
    build_diagonal_2x2_tree,
)
from hluflow.clustering import build_cluster_tree, diam, dist
from hluflow.hmatrix import build_hmatrix, structure_dump


def line_tree(coords, leafsize):
    return build_cluster_tree(np.asarray(coords, dtype=float), leafsize)


def test_admissible_same_cluster_is_false():
    t = line_tree([0.0, 1.0], 4).root
    assert not admissible(t, t, 1.0)


def test_admissible_direct_substitution():
    a = line_tree([0.0, 1.0], 4).root  # diam 1
    b = line_tree([11.0, 12.0], 4).root  # diam 1, dist 10
    assert admissible(a, b, 1.0)
    c = line_tree([3.0, 4.0], 4).root  # dist(a, c) = 2
    assert not admissible(a, c, 0.25)  # 1 > 0.25 * 2


def test_leaf_cases():
    a = line_tree([0.0, 1.0], 4).root
    b = line_tree([1.5, 2.5], 4).root

    class FakeTree:
        def __init__(self, root):
            self.root = root

    node = build_block_tree(FakeTree(a), FakeTree(b), eta=0.25)
    assert node.kind == INADMISSIBLE and node.is_leaf

    far = line_tree([30.0, 31.0], 4)
    node = build_block_tree(FakeTree(a), far, eta=1.0)
    assert node.kind == ADMISSIBLE and node.is_leaf


def test_block_tree_traversal_oracle():
    tree = line_tree(np.linspace(0.0, 1.0, 256), 32)
    root = build_block_tree(tree, tree, eta=1.0)

    def check(b):
        adm = admissible(b.row, b.col, 1.0)
        if b.kind == ADMISSIBLE:
            assert adm
        elif b.kind == PARTITIONED:
            assert not adm and b.row.sons and b.col.sons
            assert b.rsons == len(b.row.sons) and b.csons == len(b.col.sons)
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
    for leaf in root.leaves():
        r0, r1 = leaf.row_range
        c0, c1 = leaf.col_range
        cover[r0:r1, c0:c1] += 1
    assert np.all(cover == 1)


def test_symmetric_geometry_symmetric_structure():
    tree = line_tree(np.linspace(0.0, 1.0, 128), 16)
    root = build_block_tree(tree, tree, eta=0.5)
    kinds = {}
    for leaf in root.leaves():
        kinds[(leaf.row_range, leaf.col_range)] = leaf.kind
    for (rr, cc), kind in kinds.items():
        assert kinds[(cc, rr)] == kind


def test_diagonal_2x2_small():
    root, _ = build_diagonal_2x2_tree(8, 1)
    assert root.kind == PARTITIONED
    leaves = root.leaves()
    assert len(leaves) == 4
    assert all(leaf.kind == INADMISSIBLE for leaf in leaves)
    assert all(leaf.rows == 4 and leaf.cols == 4 for leaf in leaves)


def test_diagonal_2x2_reference_sizes():
    root, _ = build_diagonal_2x2_tree(10000, 4)
    diag = [b for b in root.leaves() if b.row_range == b.col_range]
    assert {b.rows for b in diag} == {625}
    root, _ = build_diagonal_2x2_tree(10000, 7)
    diag = [b for b in root.leaves() if b.row_range == b.col_range]
    assert min(b.rows for b in diag) == 78


def test_diagonal_2x2_depth_guard():
    with pytest.raises(ValueError):
        build_diagonal_2x2_tree(8, 4)


def test_structure_dump_lists_every_leaf():
    root, _ = build_diagonal_2x2_tree(16, 2)
    dump = structure_dump(build_hmatrix(root))
    assert len(dump.strip().split("\n")) == len(root.leaves())
    assert "[0:4) [0:4) dense dense" in dump

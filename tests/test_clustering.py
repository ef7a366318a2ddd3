import numpy as np
import pytest

from hluflow.clustering import build_cluster_tree, diam, dist


def collect(root):
    out = []
    stack = [root]
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(c.sons)
    return out


def test_eight_collinear_points_leafsize_two():
    tree = build_cluster_tree(np.arange(8.0), leafsize=2)
    nodes = collect(tree.root)
    assert max(c.level for c in nodes) == 2
    leaves = [c for c in nodes if c.is_leaf]
    assert len(leaves) == 4
    assert all(c.size == 2 for c in leaves)
    assert tree.root.bbox_min[0] == 0.0
    assert tree.root.bbox_max[0] == 7.0


def test_small_set_single_leaf():
    tree = build_cluster_tree(np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]]), leafsize=4)
    assert tree.root.is_leaf
    assert tree.root.size == 3


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        build_cluster_tree(np.zeros((0, 2)), leafsize=4)
    with pytest.raises(ValueError):
        build_cluster_tree(np.array([[np.nan, 0.0]]), leafsize=4)
    with pytest.raises(ValueError):
        build_cluster_tree(np.zeros((3, 1)), leafsize=0)


def test_random_tree_traversal_oracle(rng):
    pts = rng.random((100, 2))
    tree = build_cluster_tree(pts, leafsize=10)

    # permutation is a bijection and tree.points is pts reordered by it
    perm = tree.permutation
    assert sorted(perm.tolist()) == list(range(100))
    assert np.array_equal(tree.points[perm], pts)

    def check(c):
        sub = tree.points[c.start : c.end]
        assert np.all(sub >= c.bbox_min) and np.all(sub <= c.bbox_max)
        assert np.array_equal(sub.min(axis=0), c.bbox_min)
        assert np.array_equal(sub.max(axis=0), c.bbox_max)
        if c.is_leaf:
            assert c.size <= 10
        else:
            a, b = c.sons
            # sibling ranges partition the parent's range, contiguously
            assert (a.start, b.end) == (c.start, c.end)
            assert a.end == b.start
            assert a.size > 0 and b.size > 0
            check(a)
            check(b)

    check(tree.root)


def test_duplicate_coordinates_terminate():
    pts = np.zeros((17, 2))
    tree = build_cluster_tree(pts, leafsize=2)
    leaves = [c for c in collect(tree.root) if c.is_leaf]
    assert sum(c.size for c in leaves) == 17
    assert all(c.size <= 2 for c in leaves)


def test_diam_examples():
    tree = build_cluster_tree(np.array([[0.0, 0.0], [3.0, 4.0]]), leafsize=4)
    assert diam(tree.root) == 5.0
    point = build_cluster_tree(np.array([[2.0, 2.0]]), leafsize=1)
    assert diam(point.root) == 0.0
    seg = build_cluster_tree(np.array([0.0, 2.0]), leafsize=2)
    assert diam(seg.root) == 2.0


def test_dist_examples():
    a = build_cluster_tree(np.array([0.0, 1.0]), leafsize=4).root
    b = build_cluster_tree(np.array([3.0, 4.0]), leafsize=4).root
    assert dist(a, b) == 2.0
    assert dist(a, a) == 0.0

    c = build_cluster_tree(np.array([[0.0, 0.0], [1.0, 1.0]]), leafsize=4).root
    d = build_cluster_tree(np.array([[3.0, 0.0], [5.0, 1.0]]), leafsize=4).root
    assert dist(c, d) == 2.0
    assert dist(c, d) == dist(d, c)

    with pytest.raises(ValueError):
        dist(a, c)


def test_tree_is_deterministic(rng):
    pts = rng.random((40, 3))

    def nodes(tree):
        return [
            (c.level, c.start, c.end, c.bbox_min.tolist(), c.bbox_max.tolist())
            for c in collect(tree.root)
        ]

    t1 = build_cluster_tree(pts, leafsize=8)
    t2 = build_cluster_tree(pts, leafsize=8)
    assert nodes(t1) == nodes(t2)
    assert np.array_equal(t1.permutation, t2.permutation)

"""Random nested task-graph generator shared by runtime and acceptance tests.

A plan is a pure-data task forest with per-task regions; materializing it on
a Runtime submits root tasks whose bodies recursively submit their children,
exactly like a real nested workload.  Parent regions are weak when
materialized for early-release mode and strong otherwise; leaf regions are
always strong.  Parents read-write so any child access is covered.
"""

import time

from hluflow.runtime import Region


class PlanTask:
    def __init__(self, label, regions, children, spin):
        self.label = label
        self.regions = regions  # list of (lo, hi, mode) tuples
        self.children = children
        self.spin = spin


def random_plan(rng, max_tasks=200, slots=None, spin_scale=0.0):
    """Random nested plan with at most ``max_tasks`` tasks."""
    slots = int(slots if slots is not None else rng.integers(6, 40))
    budget = [int(rng.integers(2, max_tasks + 1))]
    counter = [0]

    def sub_interval(lo, hi):
        a = int(rng.integers(lo, hi))
        b = int(rng.integers(a + 1, hi + 1))
        return a, b

    def make(level, lo, hi):
        budget[0] -= 1
        label = f"t{counter[0]}"
        counter[0] += 1
        a, b = sub_interval(lo, hi)
        children = []
        if level < 3 and budget[0] > 0 and rng.random() < 0.45:
            for _ in range(int(rng.integers(1, 5))):
                if budget[0] <= 0:
                    break
                children.append(make(level + 1, a, b))
        mode = "rw" if children or rng.random() < 0.6 else "r"
        spin = float(rng.random()) * spin_scale
        return PlanTask(label, [(a, b, mode)], children, spin)

    roots = []
    while budget[0] > 0:
        roots.append(make(0, 0, slots))
    return slots, roots


def materialize(rt, roots, weak_parents=True):
    """Submit a plan onto a runtime; parents spawn children in their bodies."""

    def submit(p):
        weak = weak_parents and bool(p.children)
        regions = [Region(lo, hi, mode, weak=weak) for lo, hi, mode in p.regions]
        if p.children:

            def body(p=p):
                for c in p.children:
                    submit(c)

            return rt.submit(regions, body, label=p.label, spawns=True)

        def body(p=p):
            if p.spin:
                time.sleep(p.spin)

        return rt.submit(regions, body, label=p.label)

    for p in roots:
        submit(p)


def count_plan(roots):
    total = 0
    stack = list(roots)
    while stack:
        p = stack.pop()
        total += 1
        stack.extend(p.children)
    return total


def oracle_edges(rt_tasks):
    """Brute-force O(T^2) sibling region-intersection oracle.

    Independent of the runtime's own inference: works directly off the
    per-task region lists, pair by pair, in submission order.
    """
    by_parent = {}
    for t in rt_tasks:
        by_parent.setdefault(id(t.parent), []).append(t)
    pairs = set()
    for group in by_parent.values():
        group = sorted(group, key=lambda t: t.id)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                for ra in a.regions:
                    for rb in b.regions:
                        lo = max(ra.lo, rb.lo)
                        hi = min(ra.hi, rb.hi)
                        if lo < hi and (ra.writes or rb.writes):
                            pairs.add((a.id, b.id))
    return pairs

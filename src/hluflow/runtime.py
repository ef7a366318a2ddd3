"""Nested data-flow task runtime with region dependencies over a slot array.

Tasks declare half-open slot intervals (regions) with a read/write mode and a
strength.  Weak accesses never gate the task's own readiness; they are the
declaration that child tasks will touch the region, and they are what lets a
dependency cross nesting boundaries.  Every access inserts one bookkeeping
node per slot into a per-slot chain; chains nest following the task tree, and
two monotone frontiers per chain (writes-done and fully-released prefixes)
drive read/write satisfiability down the chain in submission order.

With early release enabled a finished body releases every slot no child still
uses, slot by slot, as descendants complete.  Without it a task's accesses
are only released once the task and all of its descendants have finished,
which reproduces the taskwait-at-end nesting model.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

READ = "r"
WRITE = "w"
READWRITE = "rw"

_MODES = {READ: (True, False), WRITE: (False, True), READWRITE: (True, True)}


class RegionError(ValueError):
    """Region outside its domain, malformed, or self-overlapping."""


class SubsetRuleError(ValueError):
    """A child access is not covered by any access of its parent."""


class DeadlockError(RuntimeError):
    """No task can run but unfinished tasks remain."""

    def __init__(self, message, report=""):
        super().__init__(message)
        self.report = report


class Domain:
    """A slot space accesses can refer to."""

    __slots__ = ("size", "name", "_chains")

    def __init__(self, size, name="global"):
        if size < 0:
            raise RegionError("domain size must be >= 0")
        self.size = size
        self.name = name
        self._chains = {}

    def root_chain(self, slot):
        chain = self._chains.get(slot)
        if chain is None:
            chain = _Chain(None)
            self._chains[slot] = chain
        return chain

    def __repr__(self):
        return f"Domain({self.name}, size={self.size})"


@dataclass(frozen=True)
class Region:
    """Half-open slot interval with access mode and strength."""

    lo: int
    hi: int
    mode: str = READWRITE
    weak: bool = False
    domain: Domain | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise RegionError(f"unknown access mode {self.mode!r}")
        if not (0 <= self.lo < self.hi):
            raise RegionError(f"bad interval [{self.lo}, {self.hi})")

    @property
    def reads(self):
        return _MODES[self.mode][0]

    @property
    def writes(self):
        return _MODES[self.mode][1]

    def covers(self, other):
        return self.lo <= other.lo and other.hi <= self.hi


class _Chain:
    """Ordered accesses of sibling tasks on one slot, nested under a node."""

    __slots__ = ("parent", "nodes", "wd_frontier", "rel_frontier", "next_rsat", "next_wsat")

    def __init__(self, parent):
        self.parent = parent
        self.nodes = []
        self.wd_frontier = 0
        self.rel_frontier = 0
        self.next_rsat = 0
        self.next_wsat = 0


class _Node:
    """One (task, slot) access; lives in a chain, may hold a child chain."""

    __slots__ = (
        "task",
        "slot",
        "domain",
        "reads",
        "writes",
        "weak",
        "chain",
        "index",
        "child_chain",
        "rsat",
        "wsat",
        "writes_done",
        "released",
        "open_children",
        "open_writers",
    )

    def __init__(self, task, slot, domain, reads, writes, weak, chain):
        self.task = task
        self.slot = slot
        self.domain = domain
        self.reads = reads
        self.writes = writes
        self.weak = weak
        self.chain = chain
        self.index = len(chain.nodes)
        self.child_chain = None
        self.rsat = False
        self.wsat = False
        self.writes_done = not writes
        self.released = False
        self.open_children = 0
        self.open_writers = 0


class Task:
    """A submitted unit of work with its accesses and lifecycle bookkeeping."""

    __slots__ = (
        "id",
        "label",
        "parent",
        "regions",
        "body",
        "spawns",
        "cost",
        "nodes",
        "pending",
        "enqueued",
        "body_open",
        "body_done",
        "deep_done",
        "open_child_tasks",
        "submit_t",
        "ready_t",
        "start_t",
        "body_end_t",
        "end_t",
        "worker",
    )

    def __init__(self, tid, label, parent, regions, body, spawns, cost):
        self.id = tid
        self.label = label
        self.parent = parent
        self.regions = regions
        self.body = body
        self.spawns = spawns
        self.cost = cost
        self.nodes = []
        self.pending = 1  # submission guard
        self.enqueued = False
        self.body_open = False
        self.body_done = False
        self.deep_done = False
        self.open_child_tasks = 0
        self.submit_t = None
        self.ready_t = None
        self.start_t = None
        self.body_end_t = None
        self.end_t = None
        self.worker = None

    @property
    def state(self):
        if self.deep_done:
            return "released"
        if self.body_done:
            return "finished"
        if self.start_t is not None:
            return "running"
        if self.ready_t is not None:
            return "ready"
        return "created"

    def __repr__(self):
        return f"Task({self.id}, {self.label!r}, {self.state})"


@dataclass
class Edge:
    """Inferred dependency between sibling tasks, with the causing regions."""

    src: Task
    dst: Task
    src_region: Region
    dst_region: Region

    @property
    def weak(self):
        return self.src_region.weak or self.dst_region.weak


def sibling_edges(tasks):
    """All pairwise dependencies among sibling tasks in submission order.

    A pair conflicts when two of their regions share a domain, intersect,
    and at least one side writes; read-read pairs produce no edge.
    """
    edges = []
    for i, a in enumerate(tasks):
        for b in tasks[i + 1 :]:
            for ra in a.regions:
                for rb in b.regions:
                    if ra.domain is not rb.domain:
                        continue
                    if ra.lo < rb.hi and rb.lo < ra.hi and (ra.writes or rb.writes):
                        edges.append(Edge(a, b, ra, rb))
    return edges


class TaskGraph:
    """Static view of submitted tasks with per-domain inferred edges."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        self._edges = None

    @property
    def edges(self):
        if self._edges is None:
            groups = {}
            for t in self.tasks:
                groups.setdefault(id(t.parent), []).append(t)
            edges = []
            for group in groups.values():
                edges.extend(sibling_edges(group))
            self._edges = edges
        return self._edges

    def to_dot(self):
        """DOT export; weak edges are dashed."""
        lines = ["digraph tasks {"]
        for t in self.tasks:
            shape = "box" if t.spawns else "ellipse"
            lines.append(f'  t{t.id} [label="{t.label}", shape={shape}];')
        seen = set()
        for e in self.edges:
            key = (e.src.id, e.dst.id, e.weak)
            if key in seen:
                continue
            seen.add(key)
            style = " [style=dashed]" if e.weak else ""
            lines.append(f"  t{e.src.id} -> t{e.dst.id}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class ExecutionTrace:
    """Per-task timing records of one runtime execution."""

    def __init__(self, tasks):
        self.tasks = sorted(tasks, key=lambda t: t.id)
        self._by_label = None

    def find(self, label):
        if self._by_label is None:
            self._by_label = {}
            for t in self.tasks:
                self._by_label.setdefault(t.label, []).append(t)
        return self._by_label.get(label, [])

    def find_one(self, label):
        hits = self.find(label)
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} tasks labeled {label!r}")
        return hits[0]

    @property
    def makespan(self):
        starts = [t.start_t for t in self.tasks if t.start_t is not None]
        ends = [t.end_t for t in self.tasks if t.end_t is not None]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    def to_csv(self):
        def fmt(v):
            return "" if v is None else "%.9f" % v

        lines = ["task,parent,label,worker,submit,ready,start,body_end,end"]
        for t in self.tasks:
            pid = "" if t.parent is None else t.parent.id
            lines.append(
                f"{t.id},{pid},{t.label},{'' if t.worker is None else t.worker},"
                f"{fmt(t.submit_t)},{fmt(t.ready_t)},{fmt(t.start_t)},"
                f"{fmt(t.body_end_t)},{fmt(t.end_t)}"
            )
        return "\n".join(lines) + "\n"


class Runtime:
    """Scheduler for nested tasks with region dependencies.

    Parameters
    ----------
    slots : int
        Size of the global slot domain (a skeleton's slot count).
    workers : int
        Worker thread count for :meth:`run`.
    wd_er : bool
        Early release of finished tasks' regions.  When False a task's
        accesses stay held until the task and all descendants finish.
    seed : int
        Seed for the work-stealing victim order.
    collect : bool
        Structure-only mode: spawner bodies expand at submission and nothing
        executes; use :meth:`task_graph` afterwards.
    """

    def __init__(self, slots, workers=1, wd_er=True, seed=0, collect=False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.global_domain = Domain(slots, "global")
        self.workers = workers
        self.wd_er = wd_er
        self.seed = seed
        self.collect = collect
        self.tasks = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._current = threading.local()
        self._deques = [deque() for _ in range(workers)]
        self._unfinished = 0
        self._idle = 0
        self._deadlock = None
        self._error = None
        self._running = False
        self._virtual_ready = None
        self._slot_owner = {}
        self._clock = time.perf_counter

    # -- submission ----------------------------------------------------------

    def current_task(self):
        return getattr(self._current, "task", None)

    def submit(self, regions, body, label="task", spawns=False, cost=None, parent=None):
        """Register a task; returns it.  Callable from inside running bodies."""
        regions = [r if isinstance(r, Region) else Region(*r) for r in regions]
        with self._lock:
            if parent is None:
                parent = self.current_task()
            if parent is not None and parent.body_done:
                raise RuntimeError(
                    f"child of {parent.label!r} submitted after its body finished"
                )
            task = Task(len(self.tasks), label, parent, regions, body, spawns, cost)
            covers = self._validate(task)
            self.tasks.append(task)
            self._unfinished += 1
            if parent is not None:
                parent.open_child_tasks += 1
            task.submit_t = self._now()
            for region, cover in zip(regions, covers):
                self._attach(task, region, cover)
            task.pending -= 1
            if task.pending == 0:
                self._became_ready(task)
        if self.collect and spawns:
            self._expand(task)
        return task

    def _validate(self, task):
        """Check the task's regions; returns the index of each one's covering
        parent region (None for a root task)."""
        by_domain = {}
        for r in task.regions:
            dom = r.domain if r.domain is not None else self.global_domain
            if r.hi > dom.size:
                raise RegionError(f"region [{r.lo},{r.hi}) outside {dom}")
            by_domain.setdefault(id(dom), []).append(r)
        for group in by_domain.values():
            group.sort(key=lambda r: r.lo)
            for a, b in zip(group, group[1:]):
                if b.lo < a.hi:
                    raise RegionError(
                        f"task {task.label!r} declares overlapping regions "
                        f"[{a.lo},{a.hi}) and [{b.lo},{b.hi})"
                    )
        parent = task.parent
        if parent is None:
            return [None] * len(task.regions)
        covers = []
        for r in task.regions:
            dom = r.domain if r.domain is not None else self.global_domain
            cover = self._covering(parent, r, dom)
            if cover is None:
                raise SubsetRuleError(
                    f"access [{r.lo},{r.hi}) mode={r.mode} of {task.label!r} is not "
                    f"covered by any access of parent {parent.label!r}"
                )
            covers.append(cover)
        return covers

    def _covering(self, parent, region, dom):
        for i, pr in enumerate(parent.regions):
            pdom = pr.domain if pr.domain is not None else self.global_domain
            if pdom is dom and pr.covers(region):
                if region.writes and not pr.writes:
                    continue
                return i
        return None

    def _attach(self, task, region, cover):
        dom = region.domain if region.domain is not None else self.global_domain
        parent = task.parent
        reads, writes = _MODES[region.mode]
        strong = not region.weak
        nodes = []
        for slot in range(region.lo, region.hi):
            if cover is None:
                chain = dom.root_chain(slot)
            else:
                pregion = parent.regions[cover]
                pnode = parent.nodes[cover][slot - pregion.lo]
                if pnode.child_chain is None:
                    pnode.child_chain = _Chain(pnode)
                chain = pnode.child_chain
                pnode.open_children += 1
                if writes:
                    pnode.open_writers += 1
            node = _Node(task, slot, dom, reads, writes, region.weak, chain)
            chain.nodes.append(node)
            nodes.append(node)
            if strong:
                task.pending += 1
            self._advance_wd(chain)
            self._advance_sat(chain)
        task.nodes.append(nodes)

    # -- chain algebra ---------------------------------------------------------

    def _advance_wd(self, chain):
        nodes = chain.nodes
        i = chain.wd_frontier
        while i < len(nodes) and nodes[i].writes_done:
            i += 1
        chain.wd_frontier = i

    def _advance_rel(self, chain):
        nodes = chain.nodes
        i = chain.rel_frontier
        while i < len(nodes) and nodes[i].released:
            i += 1
        chain.rel_frontier = i

    def _advance_sat(self, chain):
        parent = chain.parent
        nodes = chain.nodes
        p_rsat = parent is None or parent.rsat
        while p_rsat and chain.next_rsat < len(nodes) and chain.next_rsat <= chain.wd_frontier:
            node = nodes[chain.next_rsat]
            chain.next_rsat += 1
            node.rsat = True
            if not node.weak and node.reads and not node.writes:
                self._sat_arrived(node.task)
            if node.child_chain is not None:
                self._advance_sat(node.child_chain)
        p_wsat = parent is None or parent.wsat
        while p_wsat and chain.next_wsat < len(nodes) and chain.next_wsat <= chain.rel_frontier:
            node = nodes[chain.next_wsat]
            chain.next_wsat += 1
            node.wsat = True
            if not node.weak and node.writes:
                self._sat_arrived(node.task)
            if node.child_chain is not None:
                self._advance_sat(node.child_chain)

    def _sat_arrived(self, task):
        task.pending -= 1
        if task.pending == 0:
            self._became_ready(task)

    def _try_writes_done(self, node):
        if node.writes_done:
            return
        task = node.task
        if self.wd_er:
            ok = task.body_done and node.open_writers == 0
        else:
            ok = task.deep_done
        if not ok:
            return
        node.writes_done = True
        parent = node.chain.parent
        if parent is not None and node.writes:
            parent.open_writers -= 1
            self._try_writes_done(parent)
        if node.index == node.chain.wd_frontier:
            self._advance_wd(node.chain)
            self._advance_sat(node.chain)

    def _try_release(self, node):
        if node.released:
            return
        task = node.task
        if self.wd_er:
            ok = task.body_done and node.open_children == 0
        else:
            ok = task.deep_done
        if not ok:
            return
        if not node.writes_done:
            self._try_writes_done(node)
            if not node.writes_done:
                return
        node.released = True
        parent = node.chain.parent
        if parent is not None:
            parent.open_children -= 1
            self._try_release(parent)
        if node.index == node.chain.rel_frontier:
            self._advance_rel(node.chain)
            self._advance_sat(node.chain)

    # -- lifecycle ---------------------------------------------------------------

    def _now(self):
        return self._clock()

    def _became_ready(self, task):
        if task.enqueued:
            raise RuntimeError("internal: task readied twice")
        task.enqueued = True
        task.ready_t = self._now()
        if self.collect:
            return
        if self._virtual_ready is not None:
            heapq.heappush(self._virtual_ready, (task.ready_t, task.id, task))
            return
        wid = getattr(self._current, "worker", 0)
        self._deques[wid].append(task)
        self._cond.notify(1)

    def _claim_slots(self, task):
        if task.spawns:
            return  # spawner bodies only submit children, they touch no data
        for region, nodes in zip(task.regions, task.nodes):
            if region.weak or not region.writes:
                continue
            for node in nodes:
                key = (id(node.domain), node.slot)
                other = self._slot_owner.get(key)
                if other is not None:
                    raise RuntimeError(
                        f"exclusive-writer violation on slot {node.slot}: "
                        f"{task.label!r} vs {other.label!r}"
                    )
                self._slot_owner[key] = task

    def _release_slots(self, task):
        if task.spawns:
            return
        for region, nodes in zip(task.regions, task.nodes):
            if region.weak or not region.writes:
                continue
            for node in nodes:
                self._slot_owner.pop((id(node.domain), node.slot), None)

    def _body_finished(self, task):
        task.body_done = True
        task.body_end_t = self._now()
        self._release_slots(task)
        if self.wd_er:
            for nodes in task.nodes:
                for node in nodes:
                    self._try_writes_done(node)
                    self._try_release(node)
        if task.open_child_tasks == 0:
            self._deep_finished(task)

    def _deep_finished(self, task):
        task.deep_done = True
        task.end_t = self._now()
        if not self.wd_er:
            for nodes in task.nodes:
                for node in nodes:
                    self._try_writes_done(node)
                    self._try_release(node)
        self._unfinished -= 1
        parent = task.parent
        if parent is not None:
            parent.open_child_tasks -= 1
            if parent.body_done and parent.open_child_tasks == 0:
                self._deep_finished(parent)
        if self._unfinished == 0:
            self._cond.notify_all()

    def _expand(self, task):
        # collect mode: run spawner bodies synchronously to build the graph
        prev = self.current_task()
        self._current.task = task
        task.body_open = True
        try:
            task.body()
        finally:
            task.body_open = False
            self._current.task = prev

    # -- threaded execution --------------------------------------------------------

    def run(self):
        """Execute all submitted tasks; returns the ExecutionTrace."""
        if self.collect:
            raise RuntimeError("collect-mode runtime cannot execute")
        with self._lock:
            if self._running:
                raise RuntimeError("runtime already ran")
            self._running = True
            if self._unfinished == 0:
                return ExecutionTrace(self.tasks)
        threads = [
            threading.Thread(target=self._worker_loop, args=(w,), daemon=True)
            for w in range(self.workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._error is not None:
            raise self._error
        if self._deadlock is not None:
            raise DeadlockError("no runnable task but work remains", self._deadlock)
        return ExecutionTrace(self.tasks)

    def _steal(self, wid, rng):
        victims = [w for w in range(self.workers) if w != wid]
        rng.shuffle(victims)
        for v in victims:
            if self._deques[v]:
                return self._deques[v].popleft()
        return None

    def _worker_loop(self, wid):
        rng = random.Random((self.seed << 8) ^ wid)
        self._current.worker = wid
        while True:
            with self._lock:
                task = None
                while task is None:
                    if (
                        self._unfinished == 0
                        or self._deadlock is not None
                        or self._error is not None
                    ):
                        return
                    if self._deques[wid]:
                        task = self._deques[wid].popleft()
                    else:
                        task = self._steal(wid, rng)
                    if task is None:
                        self._idle += 1
                        if self._idle == self.workers:
                            self._deadlock = self._deadlock_report()
                            self._cond.notify_all()
                            return
                        self._cond.wait()
                        self._idle -= 1
                try:
                    task.start_t = self._now()
                    task.worker = wid
                    self._claim_slots(task)
                except BaseException as exc:  # noqa: BLE001 - propagate to run()
                    self._error = exc
                    self._cond.notify_all()
                    return
            self._current.task = task
            task.body_open = True
            try:
                task.body()
            except BaseException as exc:  # noqa: BLE001 - propagate to run()
                with self._lock:
                    if self._error is None:
                        self._error = exc
                    self._cond.notify_all()
            finally:
                task.body_open = False
                self._current.task = None
                with self._lock:
                    self._body_finished(task)

    def _deadlock_report(self):
        lines = ["deadlock: unresolved region dependencies", "pending tasks:"]
        for t in self.tasks:
            if t.deep_done or t.start_t is not None:
                continue
            blockers = []
            for region, nodes in zip(t.regions, t.nodes):
                if region.weak:
                    continue
                for node in nodes:
                    satisfied = node.wsat if node.writes else node.rsat
                    if satisfied:
                        continue
                    chain = node.chain
                    frontier = chain.rel_frontier if node.writes else chain.wd_frontier
                    if frontier < len(chain.nodes) and chain.nodes[frontier].task is not t:
                        holder = chain.nodes[frontier].task
                        blockers.append(f"slot {node.slot} held by {holder.label!r}")
                    else:
                        blockers.append(f"slot {node.slot} awaiting enclosing release")
                    break
            lines.append(f"  {t.label!r}: " + ("; ".join(blockers) or "not ready"))
        return "\n".join(lines)

    # -- virtual execution -----------------------------------------------------------

    def run_virtual(self):
        """Deterministic single-threaded simulation with per-task costs.

        Bodies execute for real when their task starts (nested submission
        happens at the start event); completion is scheduled ``cost`` later
        on the virtual clock.  Spawner tasks default to cost 0, others to 1.
        """
        if self.collect:
            raise RuntimeError("collect-mode runtime cannot execute")
        with self._lock:
            if self._running:
                raise RuntimeError("runtime already ran")
            self._running = True
        clock = 0.0
        self._clock = lambda: clock
        self._virtual_ready = ready = []
        with self._lock:
            for t in self.tasks:
                if t.enqueued:
                    t.ready_t = 0.0
                    heapq.heappush(ready, (0.0, t.id, t))
        free = [(0.0, w) for w in range(self.workers)]
        heapq.heapify(free)
        events = []
        seq = 0
        while True:
            if ready and free:
                start = max(clock, free[0][0], ready[0][0])
                if not events or events[0][0] > start:
                    _, wid = heapq.heappop(free)
                    _, _, task = heapq.heappop(ready)
                    clock = start
                    task.start_t = start
                    task.worker = wid
                    with self._lock:
                        self._claim_slots(task)
                    prev = self.current_task()
                    self._current.task = task
                    task.body_open = True
                    try:
                        task.body()
                    finally:
                        task.body_open = False
                        self._current.task = prev
                    cost = task.cost
                    if cost is None:
                        cost = 0.0 if task.spawns else 1.0
                    seq += 1
                    heapq.heappush(events, (start + cost, seq, task, wid))
                    continue
            if events:
                etime, _, task, wid = heapq.heappop(events)
                clock = max(clock, etime)
                with self._lock:
                    self._body_finished(task)
                heapq.heappush(free, (clock, wid))
                continue
            break
        if self._unfinished > 0:
            raise DeadlockError(
                "no runnable task but work remains", self._deadlock_report()
            )
        return ExecutionTrace(self.tasks)

    # -- graph --------------------------------------------------------------------

    def task_graph(self):
        return TaskGraph(self.tasks)

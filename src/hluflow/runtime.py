"""Nested data-flow task runtime with region dependencies over one slot space.

Tasks declare half-open intervals (regions) of the runtime's slots, ``[0,
slots)``, with a read/write mode and a strength.  Weak accesses never gate the
task's own readiness; they are the declaration that child tasks will touch
the region, and they are what lets a dependency cross nesting boundaries.
Every access inserts one bookkeeping node per slot into a per-slot chain: root
tasks into the runtime's table of root chains, children into the chain under
their parent's node.  Two pointers per chain mark how far down it, in
submission order, accesses are read- and write-satisfied: a pointer passes a
node once the node before it has its writes done (read) or is released
(write), and the node enclosing the chain is satisfied the same way.  The
chains are the one record of dependencies: the task graph's edges are read
off them.

With early release enabled a finished body releases every slot no child still
uses, slot by slot, as descendants complete.  Without it a task's accesses
are only released once the task and all of its descendants have finished,
which reproduces the taskwait-at-end nesting model.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass

READ = "r"
WRITE = "w"
READWRITE = "rw"

_WRITES = {READ: False, WRITE: True, READWRITE: True}


class RegionError(ValueError):
    """Region outside the slot space, malformed, or self-overlapping."""


class SubsetRuleError(ValueError):
    """A child access is not covered by any access of its parent."""


class DeadlockError(RuntimeError):
    """No task can run but unfinished tasks remain."""

    def __init__(self, message, report=""):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Region:
    """Half-open slot interval with access mode and strength."""

    lo: int
    hi: int
    mode: str = READWRITE
    weak: bool = False

    def __post_init__(self):
        if self.mode not in _WRITES:
            raise RegionError(f"unknown access mode {self.mode!r}")
        if not (0 <= self.lo < self.hi):
            raise RegionError(f"bad interval [{self.lo}, {self.hi})")

    @property
    def writes(self):
        return _WRITES[self.mode]

    def covers(self, other):
        return self.lo <= other.lo and other.hi <= self.hi


class _Chain:
    """Ordered accesses of sibling tasks on one slot, nested under a node.
    The nodes below ``next_rsat`` are read-satisfied, those below ``next_wsat``
    write-satisfied; ``Runtime._advance_sat`` moves both pointers forward."""

    __slots__ = ("parent", "nodes", "next_rsat", "next_wsat")

    def __init__(self, parent):
        self.parent = parent
        self.nodes = []
        self.next_rsat = 0
        self.next_wsat = 0


class _Node:
    """One (task, slot) access; lives in a chain, may hold a child chain.
    It is read- or write-satisfied while ``index`` is below its chain's pointer."""

    __slots__ = (
        "task",
        "writes",
        "weak",
        "chain",
        "index",
        "child_chain",
        "writes_done",
        "released",
        "open_children",
        "open_writers",
    )

    def __init__(self, task, writes, weak, chain):
        self.task = task
        self.writes = writes
        self.weak = weak
        self.chain = chain
        self.index = len(chain.nodes)
        self.child_chain = None
        self.writes_done = not writes
        self.released = False
        self.open_children = 0
        self.open_writers = 0


class Task:
    """A submitted unit of work with its accesses and lifecycle bookkeeping.
    Its timestamps are its lifecycle: ready, body done, subtree done (end)."""

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
        self.open_child_tasks = 0
        self.submit_t = None
        self.ready_t = None
        self.start_t = None
        self.body_end_t = None
        self.end_t = None
        self.worker = None

    def __repr__(self):
        return f"Task({self.id}, {self.label!r})"


@dataclass
class Edge:
    """Dependency between sibling tasks; weak if either access is weak."""

    src: Task
    dst: Task
    weak: bool


class TaskGraph:
    """The tasks of one runtime in id order, the edges their chains record and,
    once the runtime has executed them, each task's timings."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        self._edges = None

    @property
    def edges(self):
        """One Edge per (src, dst, weak) from each earlier/later pair of nodes
        in one chain, at least one of them writing.  A chain holds the accesses
        of sibling tasks to one slot, so every edge joins two siblings."""
        if self._edges is None:
            edges = {}
            for t in self.tasks:
                for nodes in t.nodes:
                    for first in nodes:
                        if first.index:
                            continue  # visit each chain once, from its first node
                        chain = first.chain.nodes
                        for i, a in enumerate(chain):
                            for b in chain[i + 1 :]:
                                if a.writes or b.writes:
                                    key = (a.task.id, b.task.id, a.weak or b.weak)
                                    if key not in edges:
                                        edges[key] = Edge(a.task, b.task, key[2])
            self._edges = list(edges.values())
        return self._edges

    def to_dot(self):
        """DOT export; weak edges are dashed."""
        lines = ["digraph tasks {"]
        for t in self.tasks:
            shape = "box" if t.spawns else "ellipse"
            lines.append(f'  t{t.id} [label="{t.label}", shape={shape}];')
        for e in self.edges:
            style = " [style=dashed]" if e.weak else ""
            lines.append(f"  t{e.src.id} -> t{e.dst.id}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    @property
    def makespan(self):
        starts = [t.start_t for t in self.tasks if t.start_t is not None]
        ends = [t.end_t for t in self.tasks if t.end_t is not None]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    def to_csv(self):
        """One row of timings per task; empty cells for what did not happen."""

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
        Size of the slot space regions index (a skeleton's slot count).
    workers : int
        Worker threads for :meth:`run`; each takes the oldest task of one FIFO ready queue.
    wd_er : bool
        Early release of finished tasks' regions.  When False a task's
        accesses stay held until the task and all descendants finish.
    collect : bool
        Structure-only mode: spawner bodies expand at submission and nothing
        executes; use :meth:`task_graph` afterwards.
    """

    def __init__(self, slots, workers=1, wd_er=True, collect=False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slots < 0:
            raise RegionError("slot count must be >= 0")
        self._roots = [_Chain(None) for _ in range(slots)]
        self.workers = workers
        self.wd_er = wd_er
        self.collect = collect
        self.tasks = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._current = threading.local()
        self._ready = deque()
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

    def submit(self, regions, body, label="task", spawns=False, cost=None):
        """Register a task; returns it.  Called from inside a running body it
        submits a child of that body's task."""
        with self._lock:
            parent = self.current_task()
            task = Task(len(self.tasks), label, parent, regions, body, spawns, cost)
            covers = self._validate(task)
            self.tasks.append(task)
            self._unfinished += 1
            if parent is not None:
                parent.open_child_tasks += 1
            task.submit_t = self._clock()
            for region, cover in zip(regions, covers):
                self._attach(task, region, cover)
            task.pending -= 1
            if task.pending == 0:
                self._became_ready(task)
        if self.collect and spawns:
            self._run_body(task)  # expand spawner bodies to build the graph
        return task

    def _validate(self, task):
        """Check the task's regions; returns the index of each one's covering
        parent region (None for a root task)."""
        size = len(self._roots)
        for r in task.regions:
            if r.hi > size:
                raise RegionError(f"region [{r.lo},{r.hi}) outside the {size} slots")
        ordered = sorted(task.regions, key=lambda r: r.lo)
        for a, b in zip(ordered, ordered[1:]):
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
            for i, pr in enumerate(parent.regions):
                if pr.covers(r) and (pr.writes or not r.writes):
                    covers.append(i)
                    break
            else:
                raise SubsetRuleError(
                    f"access [{r.lo},{r.hi}) mode={r.mode} of {task.label!r} is not "
                    f"covered by any access of parent {parent.label!r}"
                )
        return covers

    def _attach(self, task, region, cover):
        parent = task.parent
        writes = region.writes
        strong = not region.weak
        nodes = []
        for slot in range(region.lo, region.hi):
            if cover is None:
                chain = self._roots[slot]
            else:
                pregion = parent.regions[cover]
                pnode = parent.nodes[cover][slot - pregion.lo]
                if pnode.child_chain is None:
                    pnode.child_chain = _Chain(pnode)
                chain = pnode.child_chain
                pnode.open_children += 1
                if writes:
                    pnode.open_writers += 1
            node = _Node(task, writes, region.weak, chain)
            chain.nodes.append(node)
            nodes.append(node)
            if strong:
                task.pending += 1
            self._advance_sat(chain)
        task.nodes.append(nodes)

    # -- chain algebra ---------------------------------------------------------

    def _advance_sat(self, chain):
        """Pass each pointer over the nodes whose predecessor has its writes done
        (read) or is released (write), while the enclosing node is satisfied."""
        parent = chain.parent
        nodes = chain.nodes
        if parent is None or parent.index < parent.chain.next_rsat:
            i = chain.next_rsat
            while i < len(nodes) and (i == 0 or nodes[i - 1].writes_done):
                node = nodes[i]
                i = chain.next_rsat = i + 1
                if not node.weak and not node.writes:
                    self._sat_arrived(node.task)
                if node.child_chain is not None:
                    self._advance_sat(node.child_chain)
        if parent is None or parent.index < parent.chain.next_wsat:
            i = chain.next_wsat
            while i < len(nodes) and (i == 0 or nodes[i - 1].released):
                node = nodes[i]
                i = chain.next_wsat = i + 1
                if not node.weak and node.writes:
                    self._sat_arrived(node.task)
                if node.child_chain is not None:
                    self._advance_sat(node.child_chain)

    def _sat_arrived(self, task):
        task.pending -= 1
        if task.pending == 0:
            self._became_ready(task)

    def _may_release(self, task, open_nodes):
        """Early release: the body is done and no child access under the node
        is open.  The taskwait model also holds it until the subtree is done."""
        deep_done = task.end_t is not None
        return task.body_end_t is not None and open_nodes == 0 and (self.wd_er or deep_done)

    def _try_writes_done(self, node):
        if node.writes_done or not self._may_release(node.task, node.open_writers):
            return
        node.writes_done = True
        parent = node.chain.parent
        if parent is not None and node.writes:
            parent.open_writers -= 1
            self._try_writes_done(parent)
        if node.index + 1 == node.chain.next_rsat:
            self._advance_sat(node.chain)

    def _try_release(self, node):
        """Release once no child access is open; the writes are done by then, as
        ``open_writers <= open_children`` and ``_release_nodes`` tries them first."""
        if node.released or not self._may_release(node.task, node.open_children):
            return
        node.released = True
        parent = node.chain.parent
        if parent is not None:
            parent.open_children -= 1
            self._try_release(parent)
        if node.index + 1 == node.chain.next_wsat:
            self._advance_sat(node.chain)

    # -- lifecycle ---------------------------------------------------------------

    def _became_ready(self, task):
        if task.ready_t is not None:
            raise RuntimeError("internal: task readied twice")
        task.ready_t = self._clock()
        if self.collect:
            return
        if self._virtual_ready is not None:
            heapq.heappush(self._virtual_ready, (task.ready_t, task.id, task))
            return
        self._ready.append(task)
        self._cond.notify(1)

    def _strong_written_slots(self, task):
        if task.spawns:
            return  # spawner bodies only submit children, they touch no data
        for region in task.regions:
            if region.writes and not region.weak:
                yield from range(region.lo, region.hi)

    def _claim_slots(self, task):
        for slot in self._strong_written_slots(task):
            other = self._slot_owner.get(slot)
            if other is not None:
                raise RuntimeError(
                    f"exclusive-writer violation on slot {slot}: "
                    f"{task.label!r} vs {other.label!r}"
                )
            self._slot_owner[slot] = task

    def _body_finished(self, task):
        task.body_end_t = self._clock()
        for slot in self._strong_written_slots(task):
            self._slot_owner.pop(slot, None)
        if self.wd_er:
            self._release_nodes(task)
        if task.open_child_tasks == 0:
            self._deep_finished(task)

    def _release_nodes(self, task):
        """One pass over the task's nodes: once its body is done under early
        release, once its subtree is done under the taskwait model."""
        for nodes in task.nodes:
            for node in nodes:
                self._try_writes_done(node)
                self._try_release(node)

    def _deep_finished(self, task):
        task.end_t = self._clock()
        if not self.wd_er:
            self._release_nodes(task)
        self._unfinished -= 1
        parent = task.parent
        if parent is not None:
            parent.open_child_tasks -= 1
            if parent.body_end_t is not None and parent.open_child_tasks == 0:
                self._deep_finished(parent)
        if self._unfinished == 0:
            self._cond.notify_all()

    def _run_body(self, task):
        """Run the body with ``task`` as the current task, for its submissions."""
        prev = self.current_task()
        self._current.task = task
        try:
            task.body()
        finally:
            self._current.task = prev

    # -- threaded execution --------------------------------------------------------

    def _start(self):
        """The guard of both executors: run once, and never in collect mode."""
        if self.collect:
            raise RuntimeError("collect-mode runtime cannot execute")
        with self._lock:
            if self._running:
                raise RuntimeError("runtime already ran")
            self._running = True

    def run(self):
        """Execute all submitted tasks; returns their TaskGraph with timings."""
        self._start()
        if self._unfinished == 0:
            return self.task_graph()
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
        return self.task_graph()

    def _worker_loop(self, wid):
        while True:
            with self._lock:
                while True:
                    if (
                        self._unfinished == 0
                        or self._deadlock is not None
                        or self._error is not None
                    ):
                        return
                    if self._ready:
                        break
                    self._idle += 1
                    if self._idle == self.workers:
                        self._deadlock = self._deadlock_report()
                        self._cond.notify_all()
                        return
                    self._cond.wait()
                    self._idle -= 1
                task = self._ready.popleft()
                try:
                    task.start_t = self._clock()
                    task.worker = wid
                    self._claim_slots(task)
                except BaseException as exc:  # noqa: BLE001 - propagate to run()
                    self._error = exc
                    self._cond.notify_all()
                    return
            try:
                self._run_body(task)
            except BaseException as exc:  # noqa: BLE001 - propagate to run()
                with self._lock:
                    if self._error is None:
                        self._error = exc
                    self._cond.notify_all()
            finally:
                with self._lock:
                    self._body_finished(task)

    def _deadlock_report(self):
        lines = ["deadlock: unresolved region dependencies", "pending tasks:"]
        for t in self.tasks:
            if t.start_t is not None:
                continue  # running or done
            blockers = []
            for region, nodes in zip(t.regions, t.nodes):
                if region.weak:
                    continue
                for slot, node in enumerate(nodes, region.lo):
                    chain = node.chain
                    if node.index < (chain.next_wsat if node.writes else chain.next_rsat):
                        continue
                    flag = "released" if node.writes else "writes_done"
                    holder = next((n.task for n in chain.nodes if not getattr(n, flag)), t)
                    if holder is not t:
                        blockers.append(f"slot {slot} held by {holder.label!r}")
                    else:
                        blockers.append(f"slot {slot} awaiting enclosing release")
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
        self._start()
        clock = 0.0
        self._clock = lambda: clock
        self._virtual_ready = ready = []
        with self._lock:
            for t in self.tasks:
                if t.ready_t is not None:
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
                    self._run_body(task)
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
            raise DeadlockError("no runnable task but work remains", self._deadlock_report())
        return self.task_graph()

    # -- graph --------------------------------------------------------------------

    def task_graph(self):
        return TaskGraph(self.tasks)

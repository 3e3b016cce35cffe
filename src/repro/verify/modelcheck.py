"""Small-heap model checking of collector invariants.

The executable analogue of the Alloy ``marksweepgc`` checks: enumerate
*every* heap shape up to a bounded scope — N objects, E edges, R roots,
reduced modulo graph isomorphism — run every (collector × sweep-mode ×
gc-workers × assertion-config) cell on each shape, and assert the three
soundness/completeness properties against a brute-force reachability
oracle computed in plain Python:

* **Soundness1** — no live (root-reachable) object is freed;
* **Soundness2** — the post-GC heap contains *exactly* the root-reachable
  subgraph (same nodes, same labelled edges, roots resolved to the right
  nodes);
* **Completeness** — every unreachable cell is reclaimed: its address
  leaves the heap table, and the freed-object counter advances by exactly
  the garbage count.

The collection's mark set (``heap.marks``) is collector state with
per-step invariants of its own, checked after the pause and again after
the debt is repaid (``Marks:`` findings): empty once nothing is owed; while
chunks are unswept, a superset of the oracle's reachable set that names
only tabled objects the trace could have seen.

On top of the collector properties, the paper-level invariants: an
``assert_dead`` verdict must equal the oracle's reachability verdict in
every cell, and the full assert-dead/unshared/ownedby verdict set must be
*identical across all cells* on the same shape — the collector being
eager, lazy, parallel, or copying must never change what an assertion
observes.

Scope defaults (N=4, E=3, R=2) mirror ``check Soundness1 for 3``-style
Alloy scopes: small enough to exhaust in CI, large enough for cycles,
diamonds, self-loops, shared substructure, and dead subgraphs hanging
off live ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterator, Optional, Sequence

#: Heap budget per model VM.  Shapes hold <= N tiny nodes; 256 KiB keeps
#: every collector (including the generational nursery minimum) roomy
#: enough that no allocation-triggered GC interleaves with the scripted one.
MODEL_HEAP_BYTES = 256 << 10

NODE_CLASS = "MCNode"
NODE_FIELDS = (("left", "ref"), ("right", "ref"), ("tag", "int"))
SLOT_NAMES = ("left", "right")


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeapShape:
    """One canonical small-heap configuration.

    ``slots[i]`` is the ``(left, right)`` target pair of node *i* (``None``
    = null); ``roots`` are the node indices held by static roots.
    """

    n: int
    slots: tuple  # tuple[tuple[Optional[int], Optional[int]], ...]
    roots: tuple  # tuple[int, ...]

    def edge_count(self) -> int:
        return sum((l is not None) + (r is not None) for l, r in self.slots)

    def edges(self) -> list:
        """Labelled edges ``(src, slot_name, dst)``."""
        out = []
        for i, (l, r) in enumerate(self.slots):
            if l is not None:
                out.append((i, "left", l))
            if r is not None:
                out.append((i, "right", r))
        return out

    def min_edge(self):
        """Lexicographically smallest ``(src, dst)`` edge, or None."""
        edges = [(i, dst) for i, _, dst in self.edges()]
        return min(edges) if edges else None

    def reachable(self) -> set:
        """Brute-force reachability oracle: BFS from the root set."""
        seen = set()
        work = list(dict.fromkeys(self.roots))
        while work:
            i = work.pop()
            if i in seen:
                continue
            seen.add(i)
            for target in self.slots[i]:
                if target is not None and target not in seen:
                    work.append(target)
        return seen

    def describe(self) -> str:
        cells = ",".join(
            f"{i}({'.' if l is None else l}/{'.' if r is None else r})"
            for i, (l, r) in enumerate(self.slots)
        )
        return f"n={self.n} roots={list(self.roots)} {cells}"


def _slot_assignments(n: int, budget: int) -> Iterator[tuple]:
    """All per-node (left, right) target assignments with <= budget edges."""
    targets = (None, *range(n))

    def rec(i: int, budget: int):
        if i == n:
            yield ()
            return
        for l in targets:
            cost_l = 0 if l is None else 1
            if cost_l > budget:
                break  # None sorts first; every later option costs 1
            for r in targets:
                cost = cost_l + (0 if r is None else 1)
                if cost > budget:
                    break
                for rest in rec(i + 1, budget - cost):
                    yield ((l, r), *rest)

    yield from rec(0, budget)


def _root_sets(n: int, max_roots: int) -> list:
    """All root sets of size 0..max_roots (0 = everything is garbage)."""
    sets = [()]
    frontier = [()]
    for _ in range(min(max_roots, n)):
        nxt = []
        for prefix in frontier:
            start = prefix[-1] + 1 if prefix else 0
            for i in range(start, n):
                nxt.append((*prefix, i))
        sets.extend(nxt)
        frontier = nxt
    return sets


def canonical_form(n: int, slots: tuple, roots: tuple, owners: tuple = ()) -> tuple:
    """Canonical representative of the shape's isomorphism class.

    Nodes are first partitioned by a relabelling-invariant key
    ``(is_root, has_left, has_right, in_degree)`` — plus, for a shape
    labelled with ``(owner, ownee)`` pairs, which side of one it is; only
    permutations that respect the partition can be isomorphisms, so the
    canonical form is the minimum serialization over within-block
    permutations — exact, and cheap because root/degree constraints shatter
    the blocks.
    """
    rootset = set(roots)
    indeg = [0] * n
    for l, r in slots:
        if l is not None:
            indeg[l] += 1
        if r is not None:
            indeg[r] += 1

    def invariant(i: int) -> tuple:
        l, r = slots[i]
        role = sorted((i == owner, i == ownee) for owner, ownee in owners)
        return (i in rootset, l is not None, r is not None, indeg[i], role)

    order = sorted(range(n), key=lambda i: (invariant(i), i))
    blocks: list[list[int]] = []
    for i in order:
        if blocks and invariant(blocks[-1][0]) == invariant(i):
            blocks[-1].append(i)
        else:
            blocks.append([i])

    def serialize(perm_map: dict) -> tuple:
        new_slots = [None] * n
        for old, new in perm_map.items():
            l, r = slots[old]
            new_slots[new] = (
                None if l is None else perm_map[l],
                None if r is None else perm_map[r],
            )
        new_roots = tuple(sorted(perm_map[i] for i in roots))
        new_owners = tuple(sorted((perm_map[o], perm_map[e]) for o, e in owners))
        return (tuple(new_slots), new_roots, new_owners)

    best = None
    for perm_blocks in _block_permutations(blocks):
        perm_map = {}
        position = 0
        for block in perm_blocks:
            for old in block:
                perm_map[old] = position
                position += 1
        form = serialize(perm_map)
        if best is None or form < best:
            best = form
    return best


def _block_permutations(blocks: Sequence[Sequence[int]]) -> Iterator[list]:
    """Cartesian product of within-block permutations."""

    def rec(idx: int):
        if idx == len(blocks):
            yield []
            return
        for perm in permutations(blocks[idx]):
            for rest in rec(idx + 1):
                yield [perm, *rest]

    yield from rec(0)


def enumerate_shapes(
    max_objects: int = 4, max_edges: int = 3, max_roots: int = 2
) -> list:
    """All canonical shapes within scope, smallest heaps first."""
    shapes = []
    for n in range(1, max_objects + 1):
        seen = set()
        root_sets = None
        for slots in _slot_assignments(n, max_edges):
            if root_sets is None:
                root_sets = _root_sets(n, max_roots)
            for roots in root_sets:
                key = canonical_form(n, slots, roots)
                if key in seen:
                    continue
                seen.add(key)
                shapes.append(HeapShape(n, slots, roots))
    return shapes


#: Ownership labellings stay on shapes of at most this many objects: there
#: are O(N^4) of them per shape.
OWNERSHIP_MAX_OBJECTS = 4


def enumerate_ownership_shapes(
    max_objects: int = 4, max_edges: int = 3, max_roots: int = 2
) -> list:
    """All canonical ``(shape, owners)``: a shape in scope carrying two
    ``assert-ownedby`` pairs ``(owner, ownee)``.

    Two different ownees (the registry's rule: a second owner for one
    object is an ``AssertionUsageError``), each below some owner (the
    ownership phase never meets one that is not).  That covers an ownee
    below its own owner, below the other one only (*foreign*) or below both
    (*shared*); an owner inside the other's region (*nested*); one owner of
    both; an owner only its own region keeps reachable; owners that own or
    point at each other (*cycles*); and owners that are garbage.
    """
    out = []
    for shape in enumerate_shapes(
        min(max_objects, OWNERSHIP_MAX_OBJECTS), max_edges, max_roots
    ):
        nodes = range(shape.n)
        below = [
            HeapShape(shape.n, shape.slots, tuple(t for t in pair if t is not None)).reachable()
            for pair in shape.slots
        ]
        seen = set()
        for owners in combinations([(o, e) for o in nodes for e in nodes if o != e], 2):
            (owner_a, ownee_a), (owner_b, ownee_b) = owners
            region = below[owner_a] | below[owner_b]
            if ownee_a == ownee_b or not {ownee_a, ownee_b} <= region:
                continue
            key = canonical_form(shape.n, shape.slots, shape.roots, owners)
            if key not in seen:
                seen.add(key)
                out.append((shape, owners))
    return out


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One (collector, sweep-mode, workers, assertion-config) configuration."""

    collector: str
    sweep_mode: str
    gc_workers: int
    assertions: bool

    @property
    def label(self) -> str:
        battery = "asserted" if self.assertions else "base"
        return f"{self.collector}/{self.sweep_mode}/w{self.gc_workers}/{battery}"


def default_cells() -> list:
    """The full matrix: 9 collector configs x 2 assertion configs.

    Semispace has no sweep modes and no parallel mark phase, so it
    contributes one collector config; mark-sweep and generational cross
    {eager, lazy} x workers {0, 2}.
    """
    cells = []
    for assertions in (False, True):
        for collector in ("marksweep", "generational"):
            for sweep_mode in ("eager", "lazy"):
                for workers in (0, 2):
                    cells.append(Cell(collector, sweep_mode, workers, assertions))
        cells.append(Cell("semispace", "eager", 0, assertions))
    return cells


def _default_vm_factory(cell: Cell):
    from repro.runtime.vm import VirtualMachine

    kwargs = dict(
        heap_bytes=MODEL_HEAP_BYTES,
        collector=cell.collector,
        assertions=cell.assertions,
        telemetry=False,
    )
    if cell.collector in ("marksweep", "generational"):
        kwargs["sweep_mode"] = cell.sweep_mode
        if cell.gc_workers:
            kwargs["gc_workers"] = cell.gc_workers
    return VirtualMachine(**kwargs)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass
class ModelCheckReport:
    """Everything one exhaustive run established (or refuted)."""

    max_objects: int
    max_edges: int
    max_roots: int
    shape_count: int = 0
    shapes_by_n: dict = field(default_factory=dict)
    cell_labels: list = field(default_factory=list)
    runs: int = 0
    ownership_shape_count: int = 0
    ownership_runs: int = 0
    violations: list = field(default_factory=list)
    verdict_mismatches: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.verdict_mismatches == 0

    def render(self) -> str:
        lines = [
            f"model check: scope N<={self.max_objects} E<={self.max_edges} "
            f"R<={self.max_roots}",
            f"  shapes: {self.shape_count} canonical "
            f"({', '.join(f'n={n}: {c}' for n, c in sorted(self.shapes_by_n.items()))})",
            f"  cells:  {len(self.cell_labels)} "
            f"({self.runs} shape-cell runs)",
            f"  ownership: {self.ownership_shape_count} labelled shapes "
            f"({self.ownership_runs} runs in asserted cells)",
        ]
        if self.ok:
            lines.append(
                "  PASS: Soundness1, Soundness2, Completeness hold in every "
                "cell; assertion verdicts identical across cells"
            )
        else:
            lines.append(
                f"  FAIL: {len(self.violations)} violation(s), "
                f"{self.verdict_mismatches} cross-cell verdict mismatch(es)"
            )
            for violation in self.violations[:20]:
                lines.append(f"    {violation}")
            if len(self.violations) > 20:
                lines.append(f"    ... {len(self.violations) - 20} more")
        return "\n".join(lines)


#: Stop collecting per-run violations past this bound — a broken collector
#: fails on thousands of shapes; the first few localize the bug.
MAX_RECORDED_VIOLATIONS = 50


def _run_shape(vm, node_cls, shape: HeapShape, assertions: bool, owners: tuple = ()):
    """Build ``shape``, run one scripted GC, check S1/S2/Completeness.

    Returns ``(problems, verdicts)`` where ``verdicts`` is the sorted
    assertion outcome set (empty for base cells).  The VM is left holding
    the live subgraph; :func:`_teardown_shape` empties it for reuse.

    With ``owners`` (an ownership labelling) those pairs are asserted
    instead of the smallest edge, and the oracle allows for what §2.5.2
    concedes — a dead owner's ownees float through this collection:
    survivors and ``assert-dead`` verdicts must *include* the oracle's,
    Completeness gives way to ``verify_heap`` finding nothing wrong.
    """
    from repro.gc.verify import mark_set_problems, verify_heap
    from repro.heap.layout import NULL

    heap = vm.heap
    collector = vm.collector
    stats = vm.stats
    problems: list[str] = []

    left_slot = node_cls.field("left").slot
    right_slot = node_cls.field("right").slot
    tag_slot = node_cls.field("tag").slot

    base_freed = stats.objects_freed
    if vm.engine is not None:
        vm.engine.log.clear()

    with vm.scope("model-shape"):
        handles = [vm.new(node_cls, tag=i) for i in range(shape.n)]
        for i, (l, r) in enumerate(shape.slots):
            if l is not None:
                handles[i]["left"] = handles[l]
            if r is not None:
                handles[i]["right"] = handles[r]
        for k, i in enumerate(shape.roots):
            vm.statics.set_ref(f"r{k}", handles[i].address)
        addresses = [h.address for h in handles]
        if assertions:
            api = vm.assertions
            for i, h in enumerate(handles):
                api.assert_dead(h, site=f"n{i}")
                api.assert_unshared(h, site=f"n{i}")
            for owner, ownee in owners:
                api.assert_ownedby(handles[owner], handles[ownee], site=f"own{ownee}")
            owned = shape.min_edge()
            if (
                not owners
                and owned is not None
                and owned[0] != owned[1]
                and owned[0] in shape.reachable()
            ):
                # Self-edges are legal heap shapes but self-ownership is an
                # AssertionUsageError by design.  Garbage owners are also
                # skipped: the §2.5.2 ownership phase deliberately marks a
                # dying owner's ownees (they float for exactly one extra
                # collection), which would make the strict S2/Completeness
                # oracle wrong by design rather than by defect.
                api.assert_ownedby(handles[owned[0]], handles[owned[1]], site="own")

    vm.gc("model-check")

    reachable = shape.reachable()
    agrees = set.__ge__ if owners else set.__eq__

    # Lazy cells: before repaying sweep debt, the pending-garbage view must
    # already agree with the oracle (dead-but-unswept objects are invisible
    # to every consumer that honours the predicate).
    problems.extend(f"Marks: {p}" for p in mark_set_problems(collector))
    if collector.sweep_debt() > 0:
        table = heap.address_table()
        marked = {table[a].slots[tag_slot] for a in heap.marks if a in table}
        if not marked >= reachable:
            problems.append(
                f"Marks: unswept chunks are judged by marks {sorted(marked)}, "
                f"which miss reachable {sorted(reachable - marked)}"
            )
        pending = collector.pending_garbage_predicate()
        visible = {
            obj.slots[tag_slot]
            for obj in heap
            if pending is None or not pending(obj)
        }
        if not agrees(visible, reachable):
            problems.append(
                f"lazy view: visible tags {sorted(visible)} != "
                f"reachable {sorted(reachable)}"
            )
    collector.sweep_all()
    problems.extend(f"Marks: {p}" for p in mark_set_problems(collector))

    # Soundness2 (and 1): walk the post-GC heap from the roots and compare
    # the labelled graph with the oracle subgraph.  Walking by tag keeps
    # the comparison exact across moving collectors.
    walked_nodes: dict[int, object] = {}
    walked_edges = set()
    work = []
    for k, i in enumerate(shape.roots):
        address = vm.statics.get_ref(f"r{k}")
        if address == NULL or not heap.contains(address):
            problems.append(f"Soundness1: root r{k} (node {i}) dangles post-GC")
            continue
        obj = heap.maybe(address)
        if obj.slots[tag_slot] != i:
            problems.append(
                f"Soundness2: root r{k} resolves to tag {obj.slots[tag_slot]}, "
                f"expected {i}"
            )
        work.append(obj)
    while work:
        obj = work.pop()
        tag = obj.slots[tag_slot]
        if tag in walked_nodes:
            continue
        walked_nodes[tag] = obj
        for slot, name in ((left_slot, "left"), (right_slot, "right")):
            ref = obj.slots[slot]
            if ref == NULL:
                continue
            if not heap.contains(ref):
                problems.append(
                    f"Soundness1: node {tag}.{name} dangles at {ref:#x} post-GC"
                )
                continue
            target = heap.maybe(ref)
            walked_edges.add((tag, name, target.slots[tag_slot]))
            work.append(target)

    missing = reachable - set(walked_nodes)
    extra = set(walked_nodes) - reachable
    if missing:
        problems.append(
            f"Soundness1: live node(s) {sorted(missing)} freed or unreachable post-GC"
        )
    if extra:
        problems.append(f"Soundness2: unreachable node(s) {sorted(extra)} survived")
    oracle_edges = {
        (i, name, dst) for i, name, dst in shape.edges() if i in reachable
    }
    if walked_edges != oracle_edges:
        problems.append(
            f"Soundness2: edges {sorted(walked_edges)} != oracle "
            f"{sorted(oracle_edges)}"
        )

    # Soundness2, table side: exactly the reachable nodes remain live.
    live_tags = {obj.slots[tag_slot] for obj in heap}
    if not agrees(live_tags, reachable):
        problems.append(
            f"Soundness2: table tags {sorted(live_tags)} != reachable "
            f"{sorted(reachable)}"
        )

    # Completeness: every unreachable cell was actually reclaimed.
    for i in range(shape.n):
        if not owners and i not in reachable and heap.contains(addresses[i]):
            problems.append(
                f"Completeness: garbage node {i} still in table at "
                f"{addresses[i]:#x}"
            )
    freed = stats.objects_freed - base_freed
    garbage = shape.n - len(reachable)
    if owners:
        problems.extend(f"verify_heap: {p}" for p in verify_heap(vm, raise_on_error=False))
    elif freed != garbage:
        problems.append(
            f"Completeness: freed counter advanced {freed}, expected {garbage}"
        )

    verdicts = ()
    if assertions:
        log = vm.engine.log
        # Named by the node they are about where the site is an address
        # (``assert-ownedby`` reports "owner 0x..."), which cells disagree on.
        node = {address: f"n{i}" for i, address in enumerate(addresses)}
        verdicts = tuple(
            sorted((v.kind.name, node.get(v.address, v.site)) for v in log.violations)
        )
        # assert_dead oracle: a DEAD verdict fires exactly on the nodes the
        # oracle proves reachable.
        dead_sites = {site for kind, site in verdicts if kind == "DEAD"}
        expected = {f"n{i}" for i in reachable}
        if not agrees(dead_sites, expected):
            problems.append(
                f"assert-dead: verdicts {sorted(dead_sites)} != oracle "
                f"{sorted(expected)}"
            )
    return problems, verdicts


def _teardown_shape(vm, shape: HeapShape, owners: int = 1) -> bool:
    """Drop the shape's roots and reclaim everything; True if heap emptied.

    Two collections, not one: when the shape carried an ownership
    assertion, the ownee floats for exactly one extra collection after its
    owner dies (the §2.5.2 memory-pressure effect) — the second GC is the
    one that proves nothing *stays* floating.  One more per further owner:
    a dead owner's region can float the next owner, whose ownees then float
    in turn.
    """
    from repro.heap.layout import NULL

    for k in range(len(shape.roots)):
        vm.statics.set_ref(f"r{k}", NULL)
    vm.gc("model-check teardown")
    vm.collector.sweep_all()
    for _ in range(owners):
        if len(vm.heap):
            vm.gc("model-check teardown (floating ownees)")
            vm.collector.sweep_all()
    if vm.engine is not None:
        vm.engine.log.clear()
    return len(vm.heap) == 0


def run_model_check(
    max_objects: int = 4,
    max_edges: int = 3,
    max_roots: int = 2,
    *,
    cells: Optional[Sequence[Cell]] = None,
    vm_factory: Optional[Callable[[Cell], object]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ModelCheckReport:
    """Exhaust the scope: every canonical shape through every cell.

    ``vm_factory`` lets tests substitute a deliberately broken collector;
    it receives the :class:`Cell` and must return an attached
    ``VirtualMachine``.  One VM is reused across all shapes of a cell
    (heap emptiness is re-proven after every shape), so the sweep also
    exercises allocator reuse — addresses recycled across thousands of
    heap configurations.
    """
    from repro.errors import ReproError
    from repro.heap.object_model import FieldKind

    cells = list(cells) if cells is not None else default_cells()
    factory = vm_factory or _default_vm_factory
    report = ModelCheckReport(max_objects, max_edges, max_roots)
    report.cell_labels = [cell.label for cell in cells]

    shapes = enumerate_shapes(max_objects, max_edges, max_roots)
    report.shape_count = len(shapes)
    for shape in shapes:
        report.shapes_by_n[shape.n] = report.shapes_by_n.get(shape.n, 0) + 1
    labelled = enumerate_ownership_shapes(max_objects, max_edges, max_roots)
    report.ownership_shape_count = len(labelled)
    unlabelled = [(shape, ()) for shape in shapes]

    fields = [
        (name, FieldKind.REF if kind == "ref" else FieldKind.INT)
        for name, kind in NODE_FIELDS
    ]

    # verdicts[run_index] -> (first_cell_label, verdict_tuple)
    reference_verdicts: dict[int, tuple] = {}

    def convict(where: str, problem: str) -> None:
        if len(report.violations) < MAX_RECORDED_VIOLATIONS:
            report.violations.append(f"{where}: {problem}")

    for cell in cells:
        # Asserted cells go on through the ownership labellings.
        runs = unlabelled + labelled if cell.assertions else unlabelled
        if progress is not None:
            progress(f"cell {cell.label}: {len(runs)} shapes")
        vm = factory(cell)
        node_cls = vm.define_class(NODE_CLASS, fields)
        for index, (shape, owners) in enumerate(runs):
            where = f"[{cell.label}] {shape.describe()}"
            if owners:
                where += f" owners={list(owners)}"
            problems, verdicts = _run_shape(vm, node_cls, shape, cell.assertions, owners)
            if owners:
                report.ownership_runs += 1
            else:
                report.runs += 1
            for problem in problems:
                convict(where, problem)
            if cell.assertions:
                reference = reference_verdicts.setdefault(index, (cell.label, verdicts))
                if verdicts != reference[1]:
                    report.verdict_mismatches += 1
                    convict(
                        where, f"verdicts {list(verdicts)} != {reference[0]} {list(reference[1])}"
                    )
            try:
                wreck = None
                if not _teardown_shape(vm, shape, max(1, len(owners))):
                    wreck = f"heap not empty after teardown ({len(vm.heap)} objects)"
            except ReproError as exc:  # e.g. the dangling edge a bad sweep left
                wreck = f"teardown raised {type(exc).__name__}: {exc}"
            if wreck is not None:
                convict(where, wreck)
                vm = factory(cell)  # quarantine the wreckage, keep sweeping
                node_cls = vm.define_class(NODE_CLASS, fields)
    return report

"""Heap snapshot subsystem: format, dominators, retained sizes, diff, policy.

The analysis layer is validated against a brute-force oracle: the retained
size of ``o`` is the live bytes lost when the traversal refuses to enter
``o`` — computed straight off the snapshot graph, independently of the
dominator machinery under test.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines.cork import TypeGrowthProfiler
from repro.core.reporting import AssertionKind
from repro.core.reactions import Reaction
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.snapshot import (
    SUPER_ROOT,
    SnapshotFormatError,
    SnapshotPolicy,
    build_dominator_tree,
    diff_snapshots,
    load_snapshot,
    retained_sizes,
    top_retained,
    why_alive,
)
from repro.telemetry.census import ClassCensus
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak
from tests.conftest import ALL_COLLECTORS, build_chain, make_node_class

# -- graph scaffolding ------------------------------------------------------------------

#: Crafted graphs: {node: (children...)} plus the root node names.
DIAMOND = ({"A": ("B", "C"), "B": ("D",), "C": ("D",), "D": ()}, ["A"])
CYCLE = ({"X": ("Y",), "Y": ("Z",), "Z": ("X",)}, ["X"])
SHARED = ({"A": ("S",), "B": ("S",), "S": ()}, ["A", "B"])
SELF_LOOP = ({"L": ("L",)}, ["L"])
GRAPHS = {"diamond": DIAMOND, "cycle": CYCLE, "shared": SHARED, "self_loop": SELF_LOOP}


def build_graph(vm, edges: dict, roots: list[str]) -> dict[str, int]:
    """Materialize a named graph on the heap, rooted via statics."""
    cls = vm.classes.maybe("GraphNode") or vm.define_class(
        "GraphNode",
        [("a", FieldKind.REF), ("b", FieldKind.REF), ("c", FieldKind.REF)],
    )
    slots = ["a", "b", "c"]
    with vm.scope("build_graph"):
        handles = {name: vm.new(cls) for name in edges}
        for name, children in edges.items():
            assert len(children) <= len(slots)
            for slot, child in zip(slots, children):
                handles[name][slot] = handles[child]
        for name in roots:
            vm.statics.set_ref(f"root-{name}", handles[name].address)
        return {name: handle.address for name, handle in handles.items()}


def snapshot_graph(tmp_path, edges: dict, roots: list[str]):
    vm = VirtualMachine(heap_bytes=1 << 20)
    addresses = build_graph(vm, edges, roots)
    path = str(tmp_path / "graph.jsonl")
    vm.capture_snapshot(path)
    return load_snapshot(path), addresses


def reachable_bytes(snapshot, skip: int | None = None) -> int:
    """Oracle traversal: live bytes when refusing to enter ``skip``."""
    seen: set[int] = set()
    stack = [a for a in snapshot.root_addresses() if a != skip]
    total = 0
    while stack:
        addr = stack.pop()
        if addr in seen:
            continue
        seen.add(addr)
        record = snapshot.objects[addr]
        total += record.size
        for edge in record.edges:
            if edge != skip and edge not in seen:
                stack.append(edge)
    return total


def oracle_retained(snapshot, addr: int) -> int:
    return reachable_bytes(snapshot) - reachable_bytes(snapshot, skip=addr)


# -- dominators and retained sizes ------------------------------------------------------


class TestDominatorsRetained:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_retained_matches_brute_force_oracle(self, tmp_path, name):
        edges, roots = GRAPHS[name]
        snapshot, addresses = snapshot_graph(tmp_path, edges, roots)
        retained = retained_sizes(snapshot)
        for node, addr in addresses.items():
            assert retained[addr] == oracle_retained(snapshot, addr), node
        # The synthetic super-root retains the whole reachable heap.
        assert retained[SUPER_ROOT] == reachable_bytes(snapshot)

    def test_diamond_dominator_chain(self, tmp_path):
        edges, roots = DIAMOND
        snapshot, a = snapshot_graph(tmp_path, edges, roots)
        tree = build_dominator_tree(snapshot)
        # D is reached via B and via C, so its immediate dominator is A.
        assert tree.idom[a["D"]] == a["A"]
        assert tree.chain(a["D"]) == [a["A"], a["D"]]

    def test_cycle_collapses_onto_entry(self, tmp_path):
        edges, roots = CYCLE
        snapshot, a = snapshot_graph(tmp_path, edges, roots)
        tree = build_dominator_tree(snapshot)
        assert tree.chain(a["Z"]) == [a["X"], a["Y"], a["Z"]]
        retained = retained_sizes(snapshot, tree)
        # The entry node holds the whole cycle.
        assert retained[a["X"]] == reachable_bytes(snapshot)

    def test_shared_subtree_is_retained_by_neither_root(self, tmp_path):
        edges, roots = SHARED
        snapshot, a = snapshot_graph(tmp_path, edges, roots)
        tree = build_dominator_tree(snapshot)
        # S is reachable from both roots: only the super-root dominates it.
        assert tree.idom[a["S"]] == SUPER_ROOT
        retained = retained_sizes(snapshot, tree)
        assert retained[a["A"]] == snapshot.objects[a["A"]].size

    def test_why_alive_renders_chain(self, tmp_path):
        edges, roots = DIAMOND
        snapshot, a = snapshot_graph(tmp_path, edges, roots)
        answer = why_alive(snapshot, a["D"])
        text = answer.render()
        assert "GraphNode" in text
        assert "Retained size:" in text
        assert "(roots)" in text
        assert answer.retained_bytes == oracle_retained(snapshot, a["D"])

    def test_why_alive_unreachable_address_raises(self, tmp_path):
        edges, roots = DIAMOND
        snapshot, _ = snapshot_graph(tmp_path, edges, roots)
        with pytest.raises(KeyError):
            why_alive(snapshot, 0xDEAD)

    def test_top_retained_is_sorted_and_complete(self, tmp_path):
        edges, roots = DIAMOND
        snapshot, _ = snapshot_graph(tmp_path, edges, roots)
        rows = top_retained(snapshot, limit=100)
        assert len(rows) == len(snapshot)
        sizes = [nbytes for _a, _t, nbytes in rows]
        assert sizes == sorted(sizes, reverse=True)


# -- round trip and capture equivalence -------------------------------------------------


class TestRoundTrip:
    def test_capture_load_matches_live_heap(self, tmp_path):
        """Snapshot contents == a direct walk of the VM's live heap."""
        vm = VirtualMachine(heap_bytes=1 << 20)
        build_graph(vm, *DIAMOND)
        path = str(tmp_path / "rt.jsonl")
        vm.capture_snapshot(path)
        snapshot = load_snapshot(path)

        from repro.heap.layout import NULL

        expected_objects: set[int] = set()
        expected_edges: dict[tuple[int, int], int] = {}
        stack = [addr for _d, addr in vm.root_entries() if addr != NULL]
        while stack:
            addr = stack.pop()
            if addr in expected_objects:
                continue
            expected_objects.add(addr)
            obj = vm.heap.get(addr)
            for child in obj.reference_slots():
                if child == NULL:
                    continue
                key = (addr, child)
                expected_edges[key] = expected_edges.get(key, 0) + 1
                stack.append(child)
        assert set(snapshot.objects) == expected_objects
        assert snapshot.edge_multiset() == expected_edges
        for addr in expected_objects:
            obj = vm.heap.get(addr)
            record = snapshot.objects[addr]
            assert record.type_name == obj.cls.name
            assert record.size == obj.size_bytes
            assert record.alloc_seq == obj.alloc_seq

    @pytest.mark.parametrize("collector", ALL_COLLECTORS)
    def test_piggyback_matches_standalone(self, tmp_path, collector):
        """The in-pause capture equals a standalone pre-GC walk.

        Pre-GC because the piggybacked rows are frozen at mark end: for
        the copying collectors they carry from-space addresses, i.e. the
        addresses the heap had *before* the collection.
        """
        vm = VirtualMachine(heap_bytes=4 << 20, collector=collector)
        build_graph(vm, *DIAMOND)
        policy = SnapshotPolicy(str(tmp_path / "pig"), every_n_gcs=1).attach(vm)
        standalone = str(tmp_path / "standalone.jsonl")
        vm.capture_snapshot(standalone)
        vm.gc("piggyback capture")
        assert len(policy.captured) == 1
        piggy = load_snapshot(policy.captured[0])
        stand = load_snapshot(standalone)
        assert set(piggy.objects) == set(stand.objects)
        assert piggy.edge_multiset() == stand.edge_multiset()
        assert piggy.type_summary() == stand.type_summary()
        assert piggy.identities() == stand.identities()
        assert piggy.meta["trigger"] == "interval"
        assert piggy.meta["collector"] == collector

    @pytest.mark.parametrize("collector", ALL_COLLECTORS)
    def test_capture_does_not_perturb_the_collector(self, tmp_path, collector):
        """Work counters are identical with and without a snapshot policy."""

        def leg(policy_dir):
            vm = VirtualMachine(heap_bytes=256 << 10, collector=collector)
            if policy_dir is not None:
                SnapshotPolicy(policy_dir, every_n_gcs=1).attach(vm)
            run_swapleak(
                vm,
                SwapLeakConfig(swaps=48, gc_every_swaps=8, assert_dead_swapped=False),
            )
            return vm.stats

        plain = leg(None)
        captured = leg(str(tmp_path / "cap"))
        for counter in (
            "collections",
            "objects_traced",
            "edges_traced",
            "path_entries_tagged",
            "objects_freed",
            "bytes_freed",
        ):
            assert getattr(plain, counter) == getattr(captured, counter), counter

    # -- "a piggybacked snapshot is the heap the mutator resumes with" -----------------
    #
    # Each shape is a heap on which what the root-scan drain *pops* differs
    # from what the collection *keeps*; all of them leave every survivor
    # root reachable, so a standalone walk after the pause is the oracle.

    def _shape_ownership(self, collector):
        """``owner -> mid -> ownee -> below``: phase 1 marks everything
        under the owner, and the root scan prunes at marks."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
        nodes = build_chain(vm, make_node_class(vm), 4, root_name="owner")
        vm.assertions.assert_ownedby(nodes[0], nodes[2], site="own")
        return vm

    def _shape_force(self, collector):
        """A reachable ``assert_dead`` victim under FORCE: ``post_mark``
        unmarks it and severs the edge, after the drain has been there."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
        vm.engine.policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
        nodes = build_chain(vm, make_node_class(vm), 4)
        vm.assertions.assert_dead(nodes[3], site="forced")
        return vm

    def _shape_demoted_cycle(self, collector):
        """A root-less ``{owner -> ownee -> owner}`` beside a live chain:
        phase 1 marks the cycle, ``post_mark`` takes the marks back."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
        cls = make_node_class(vm)
        build_chain(vm, cls, 3)
        with vm.scope("cycle"):
            owner, ownee = vm.new(cls), vm.new(cls)
            owner["next"], ownee["next"] = ownee, owner
            vm.assertions.assert_ownedby(owner, ownee, site="cycle")
        return vm

    def _shape_hardened_retry(self, collector):
        """The armed slow hook raises once mid-drain; the retry's marks
        are the collection's, so they are what gets captured."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector, hardened=True)
        nodes = build_chain(vm, make_node_class(vm), 6)
        vm.assertions.assert_dead(nodes[3], site="arms the slow hook")
        engine = vm.engine

        def raises_once(*args):
            del engine.on_first_encounter_slow
            raise RuntimeError("injected mid-drain fault")

        engine.on_first_encounter_slow = raises_once
        return vm

    def _shape_workers2(self, collector):
        """Marks land in the same set whichever drain put them there."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector, gc_workers=2)
        build_graph(vm, *DIAMOND)
        return vm

    @pytest.mark.parametrize(
        "collector,shape",
        [
            (collector, shape)
            for shape in ("ownership", "force", "demoted_cycle", "hardened_retry", "workers2")
            for collector in ALL_COLLECTORS
            if shape != "workers2" or collector == "marksweep"  # the one parallel mark
        ],
    )
    def test_piggyback_is_the_heap_the_mutator_resumes_with(self, tmp_path, collector, shape):
        vm = getattr(self, f"_shape_{shape}")(collector)
        policy = SnapshotPolicy(str(tmp_path / "pig"), every_n_gcs=1).attach(vm)
        vm.gc("piggyback capture")
        vm.collector.sweep_all()
        recovery = vm.collector.recovery
        assert len(policy.captured) == 1 and recovery.snapshot_failures == 0
        if shape == "hardened_retry":
            assert recovery.engine_degradations == 1
        if shape == "workers2":
            assert vm.collector.last_parallel_mark is not None

        piggy = load_snapshot(policy.captured[0])
        standalone = str(tmp_path / "after.jsonl")
        vm.capture_snapshot(standalone)
        after = load_snapshot(standalone)
        assert len(after) == len(vm.heap.address_table())  # the oracle's premise
        if collector == "marksweep":
            assert set(piggy.objects) == set(vm.heap.address_table())
            assert piggy.identities() == after.identities()
            assert piggy.edge_multiset() == after.edge_multiset()
            assert piggy.roots == after.roots
        else:
            # The rows carry from-space addresses; compare what survives a move.
            assert len(piggy) == len(after)
            assert piggy.type_summary() == after.type_summary()
            assert sum(piggy.edge_multiset().values()) == sum(after.edge_multiset().values())
            assert [desc for desc, _ in piggy.roots] == [desc for desc, _ in after.roots]
        # Closed under its own edges and roots.
        named = {dst for _src, dst in piggy.edge_multiset()} | {a for _d, a in piggy.roots}
        assert named <= set(piggy.objects)

    def test_uninstalled_vm_has_no_snapshot_hooks(self):
        vm = VirtualMachine(heap_bytes=1 << 20)
        assert vm.snapshot_policy is None
        assert vm.collector.snapshot_policy is None
        vm.gc()
        assert vm.collector._snapshot_pending is None


# -- the file format --------------------------------------------------------------------


class TestFormat:
    def _capture(self, tmp_path):
        vm = VirtualMachine(heap_bytes=1 << 20)
        addresses = build_graph(vm, *DIAMOND)
        path = str(tmp_path / "fmt.jsonl")
        vm.capture_snapshot(path)
        return path, addresses

    def test_schema_drift_is_rejected(self, tmp_path):
        path, _ = self._capture(tmp_path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "repro-heap-snapshot/999"
        drifted = str(tmp_path / "drifted.jsonl")
        with open(drifted, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write("\n".join(lines[1:]) + "\n")
        with pytest.raises(SnapshotFormatError, match="unsupported snapshot schema"):
            load_snapshot(drifted)

    def test_missing_header_is_rejected(self, tmp_path):
        path, _ = self._capture(tmp_path)
        headerless = str(tmp_path / "headerless.jsonl")
        with open(headerless, "w") as handle:
            handle.write("\n".join(open(path).read().splitlines()[1:]) + "\n")
        with pytest.raises(SnapshotFormatError, match="missing snapshot header"):
            load_snapshot(headerless)

    def test_unknown_line_kind_is_rejected(self, tmp_path):
        path, _ = self._capture(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "mystery"}\n')
        with pytest.raises(SnapshotFormatError, match="unknown line kind"):
            load_snapshot(path)

    def test_truncated_body_is_rejected(self, tmp_path):
        """A snapshot is closed by definition: dropping one ``obj`` line
        leaves an edge naming nothing, and that must not load."""
        path, addresses = self._capture(tmp_path)
        lines = open(path).read().splitlines()
        d_line = {"kind": "obj", "addr": addresses["D"]}.items()
        kept = [line for line in lines if not d_line <= json.loads(line).items()]
        assert len(kept) == len(lines) - 1
        truncated = str(tmp_path / "truncated.jsonl")
        with open(truncated, "w") as handle:
            handle.write("\n".join(kept) + "\n")
        with pytest.raises(SnapshotFormatError, match=rf"1 address.*no obj line.*{addresses['D']:#x}"):
            load_snapshot(truncated)

    def test_summary_matches_body(self, tmp_path):
        path, _ = self._capture(tmp_path)
        snapshot = load_snapshot(path)
        assert snapshot.summary["objects"] == len(snapshot)
        assert snapshot.summary["total_bytes"] == snapshot.total_bytes
        assert snapshot.summary["types"] == {
            name: [count, nbytes]
            for name, (count, nbytes) in snapshot.type_summary().items()
        }


# -- diffing and leak triage ------------------------------------------------------------


def _bracket_swapleak(tmp_path, static_rep: bool):
    """Run swapleak with per-GC captures; returns (vm, policy)."""
    vm = VirtualMachine(heap_bytes=4 << 20)
    policy = SnapshotPolicy(str(tmp_path / "leak"), every_n_gcs=1).attach(vm)
    run_swapleak(
        vm,
        SwapLeakConfig(
            swaps=64,
            gc_every_swaps=8,
            static_rep=static_rep,
            assert_dead_swapped=False,
        ),
    )
    # every_n_gcs=1: the capture rode on every collection there was.
    assert len(policy.captured) == vm.stats.full_collections >= 2
    return vm, policy


class TestDiff:
    def test_leaky_variant_ranks_sobject_first(self, tmp_path):
        _vm, policy = _bracket_swapleak(tmp_path, static_rep=False)
        first = load_snapshot(policy.captured[0])
        last = load_snapshot(policy.captured[-1])
        diff = diff_snapshots(first, last)
        ranked = diff.ranked()
        assert ranked, "the leaky variant must produce growth candidates"
        assert ranked[0].type_name == "SObject"
        assert ranked[0].bytes_delta > 0
        assert ranked[0].survivors > 0
        assert "SObject" in diff.render()

    def test_repaired_variant_has_no_sobject_growth(self, tmp_path):
        _vm, policy = _bracket_swapleak(tmp_path, static_rep=True)
        first = load_snapshot(policy.captured[0])
        last = load_snapshot(policy.captured[-1])
        diff = diff_snapshots(first, last)
        assert all(c.type_name != "SObject" for c in diff.ranked())

    def test_survivors_are_identity_matched(self, tmp_path):
        """Address recycling must not inflate survivor counts: identity is
        (addr, alloc_seq), not the address alone."""
        _vm, policy = _bracket_swapleak(tmp_path, static_rep=False)
        first = load_snapshot(policy.captured[0])
        last = load_snapshot(policy.captured[-1])
        diff = diff_snapshots(first, last)
        assert diff.survivor_identities == first.identities() & last.identities()


# -- policy triggers and violation annotation -------------------------------------------


class TestPolicy:
    def test_every_n_gcs_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotPolicy(str(tmp_path), every_n_gcs=0)

    def test_request_capture_is_one_shot(self, tmp_path):
        vm = VirtualMachine(heap_bytes=1 << 20)
        build_graph(vm, *DIAMOND)
        policy = SnapshotPolicy(str(tmp_path / "manual")).attach(vm)
        vm.gc()
        assert policy.captured == []
        policy.request_capture()
        vm.gc()
        assert len(policy.captured) == 1
        assert load_snapshot(policy.captured[0]).meta["trigger"] == "manual"
        vm.gc()
        assert len(policy.captured) == 1

    def test_on_violation_annotates_report(self, tmp_path):
        vm = VirtualMachine(heap_bytes=4 << 20)
        policy = SnapshotPolicy(str(tmp_path / "viol"), on_violation=True).attach(vm)
        run_swapleak(vm, SwapLeakConfig(swaps=8, assert_dead_swapped=True))
        log = vm.engine.log
        assert len(log) > 0
        assert any("violation" in path for path in policy.captured)
        violation = log.violations[0]
        assert violation.details["snapshot"] in policy.captured
        assert violation.details["retained_bytes"] > 0
        assert violation.details["dominator_chain"]
        rendered = log.lines[0]
        assert "Retained size:" in rendered
        assert "Dominator chain:" in rendered
        assert "Snapshot:" in rendered

    def test_violation_reports_carry_alloc_epoch_and_site(self, tmp_path):
        """Satellite: the failing object's allocation epoch and site tag."""
        vm = VirtualMachine(heap_bytes=4 << 20)
        run_swapleak(vm, SwapLeakConfig(swaps=8, assert_dead_swapped=True))
        log = vm.engine.log
        assert len(log) > 0
        violation = log.violations[0]
        assert violation.alloc_seq is not None
        assert violation.alloc_site == "SwapLeak.swap loop"
        assert "Allocated: epoch" in log.lines[0]
        assert "SwapLeak.swap loop" in log.lines[0]

    def test_snapshot_events_reach_telemetry(self, tmp_path):
        vm = VirtualMachine(heap_bytes=1 << 20)
        build_graph(vm, *DIAMOND)
        policy = SnapshotPolicy(str(tmp_path / "tel"), every_n_gcs=1).attach(vm)
        vm.gc()
        assert len(vm.telemetry.snapshots) == 1
        event = vm.telemetry.snapshots[0]
        assert event.event == "snapshot_written"
        assert event.path == policy.captured[0]
        assert event.objects == len(load_snapshot(event.path))
        assert os.path.getsize(event.path) == event.file_bytes
        assert "snapshot" in vm.telemetry.render()


# -- census slopes (shared with the Cork baseline) --------------------------------------


class TestCensusSlopes:
    def test_linear_growth_has_exact_slope(self):
        census = ClassCensus()
        for i in range(6):
            census.observe({"Leak": (i, 100 * i), "Flat": (3, 300)}, gc_number=i)
        assert census.slope("Leak") == pytest.approx(100.0)
        assert census.slope("Flat") == pytest.approx(0.0)
        assert census.slope("Unknown") == 0.0
        assert census.slopes()["Leak"] == pytest.approx(100.0)

    def test_profiler_ranked_slopes(self, tmp_path):
        vm = VirtualMachine(heap_bytes=4 << 20)
        profiler = TypeGrowthProfiler(vm)
        run_swapleak(
            vm,
            SwapLeakConfig(swaps=64, gc_every_swaps=8, assert_dead_swapped=False),
        )
        ranked = profiler.ranked_slopes()
        assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))
        names = [name for name, _slope in ranked]
        assert names.index("SObject") < names.index("SArray")

"""QVM-style heap probes: immediate checking semantics and sampling."""

import pytest

from repro.core.probes import HeapProbes
from tests.conftest import build_chain, make_node_class


class TestProbeDead:
    def test_dead_object_probes_true(self, vm, node_class):
        with vm.scope():
            doomed = vm.new(node_class)
        probes = HeapProbes(vm)
        assert probes.probe_dead(doomed) is True
        assert probes.stats.gcs_triggered == 1

    def test_live_object_probes_false(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        probes = HeapProbes(vm)
        assert probes.probe_dead(nodes[1]) is False

    def test_answers_at_exact_program_point(self, vm, node_class):
        """The QVM advantage: the probe sees the state *now*, catching a
        transient condition a deferred assertion would miss."""
        nodes = build_chain(vm, node_class, 2)
        probes = HeapProbes(vm)
        # Transiently detach, probe, reattach.
        nodes[0]["next"] = None
        was_dead = probes.probe_dead(nodes[1])
        assert was_dead is True
        # A deferred assert-dead placed and *resolved later* would have
        # been satisfied too here — but if the mutator had reattached
        # before the next scheduled GC, the assertion would miss what the
        # probe caught.  (GC assertions "can miss a transient error if it
        # does not persist across a GC cycle.")

    def test_every_probe_triggers_a_collection(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        probes = HeapProbes(vm)
        for _ in range(5):
            probes.probe_dead(nodes[0])
        assert vm.stats.collections == 5


class TestProbeInstances:
    def test_counts_live_instances(self, vm, node_class):
        build_chain(vm, node_class, 4)
        with vm.scope():
            vm.new(node_class)  # garbage — collected by the probe's GC
        probes = HeapProbes(vm)
        assert probes.probe_instances(node_class) == 4

    def test_by_name_and_subclasses(self, vm):
        parent = vm.define_class("Parent", [("x", "int")])
        child = vm.define_class("Child", superclass=parent)
        with vm.scope():
            vm.statics.set_ref("a", vm.new(parent).address)
            vm.statics.set_ref("b", vm.new(child).address)
        probes = HeapProbes(vm)
        assert probes.probe_instances("Parent") == 2
        assert probes.probe_instances("Child") == 1


class TestProbeUnshared:
    def test_single_parent(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        probes = HeapProbes(vm)
        assert probes.probe_unshared(nodes[1]) is True

    def test_shared(self, vm, node_class):
        with vm.scope():
            a = vm.new(node_class)
            b = vm.new(node_class)
            target = vm.new(node_class)
            a["next"] = target
            b["next"] = target
            vm.statics.set_ref("a", a.address)
            vm.statics.set_ref("b", b.address)
        probes = HeapProbes(vm)
        assert probes.probe_unshared(target) is False


class TestProbeReachability:
    def test_reachable(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        probes = HeapProbes(vm)
        assert probes.probe_reachable_from(nodes[0], nodes[3]) is True

    def test_unreachable(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        with vm.scope():
            stranger = vm.new(node_class)
            vm.statics.set_ref("s", stranger.address)
        probes = HeapProbes(vm)
        assert probes.probe_reachable_from(nodes[0], stranger) is False


class TestSampling:
    def test_sampling_executes_one_in_n(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        probes = HeapProbes(vm, sampling=4)
        results = [probes.probe_dead(nodes[1]) for _ in range(8)]
        executed = [r for r in results if r is not None]
        assert len(executed) == 2
        assert probes.stats.requested == 8
        assert probes.stats.executed == 2
        assert probes.stats.sampled_out == 6
        assert vm.stats.collections == 2

    def test_invalid_sampling_rejected(self, vm):
        with pytest.raises(ValueError):
            HeapProbes(vm, sampling=0)

    def test_cost_contrast_with_batched_assertions(self, vm, node_class):
        """The §4.1 trade-off in one test: N immediate probes trigger N
        collections; N batched GC assertions are checked by a single one."""
        nodes = build_chain(vm, node_class, 8)
        probes = HeapProbes(vm)
        for node in nodes:
            probes.probe_dead(node)
        probe_gcs = vm.stats.collections

        from repro.runtime.vm import VirtualMachine

        vm2 = VirtualMachine(heap_bytes=4 << 20)
        cls2 = make_node_class(vm2)
        nodes2 = build_chain(vm2, cls2, 8)
        for node in nodes2:
            vm2.assertions.assert_dead(node)
        vm2.gc()
        assert probe_gcs == 8
        assert vm2.stats.collections == 1
        assert len(vm2.engine.log) == 8  # all checked in that single pass


# -- a lazy sweep ends the probe's collection with the dead still tabled ----------------------


def _probe_vm(sweep_mode):
    from repro.runtime.vm import VirtualMachine

    vm = VirtualMachine(heap_bytes=4 << 20, sweep_mode=sweep_mode)
    return vm, make_node_class(vm)


@pytest.mark.parametrize("sweep_mode", ["eager", "lazy"])
class TestProbesOweNothingToTheSweep:
    """Each probe answers what its collection found, whether or not the
    sweep has reclaimed the dead yet."""

    def test_garbage_probes_dead(self, sweep_mode):
        vm, node = _probe_vm(sweep_mode)
        with vm.scope():
            garbage = vm.new(node)
        assert HeapProbes(vm).probe_dead(garbage) is True

    def test_garbage_instances_are_not_counted(self, sweep_mode):
        vm, node = _probe_vm(sweep_mode)
        with vm.scope():
            vm.statics.set_ref("keep", vm.new(node).address)
            vm.new(node), vm.new(node)
        assert HeapProbes(vm).probe_instances(node) == 1

    def test_garbage_holders_do_not_share(self, sweep_mode):
        vm, node = _probe_vm(sweep_mode)
        with vm.scope():
            keep = vm.new(node)
            vm.statics.set_ref("keep", keep.address)
            for _ in range(2):
                vm.new(node)["next"] = keep
        assert HeapProbes(vm).probe_unshared(keep) is True

    def test_nothing_is_reachable_from_garbage(self, sweep_mode):
        vm, node = _probe_vm(sweep_mode)
        with vm.scope():
            keep = vm.new(node)
            vm.statics.set_ref("keep", keep.address)
            garbage = vm.new(node)
            garbage["next"] = keep
        assert HeapProbes(vm).probe_reachable_from(garbage, keep) is False
        assert vm.collector.sweep_debt() == (sweep_mode == "lazy")

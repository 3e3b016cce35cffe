"""A zombie — a tabled object that carries ``FREED`` — met by a collection.

The hardened sentinel walks no object before the trace: the trace trips
over a zombie at whichever edge discovers it, and the mid-mark recovery
walks, evicts, fences and retraces.  These tests pin that every way a
trace can reach a zombie agrees, on every collector:

* unhardened, a zombie reached from a root, by phase 1 and by a drain edge
  raises the same :class:`UseAfterFreeError` (a drain edge used to mark it
  and keep it);
* hardened, each of the three ends in one mid-mark recovery: the zombie
  evicted and fenced, one heap degradation, a clean heap;
* a zombie nothing reaches is fenced by the sweep, and its cell is never
  handed out again;
* a zombie owner nothing roots has its record dropped before the trace,
  so its rooted ownee is not reported as unowned;
* a violation the aborted trace staged is reported and counted once.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import UseAfterFreeError
from repro.gc.verify import verify_heap
from repro.heap import header as hdr
from repro.heap.layout import NULL
from repro.runtime.vm import VirtualMachine

from tests.conftest import build_chain, make_node_class

CONFIGS = [
    dict(collector="marksweep", sweep_mode="eager"),
    dict(collector="marksweep", sweep_mode="lazy"),
    dict(collector="semispace"),
    dict(collector="generational"),
    dict(collector="marksweep", gc_workers=2),
]
CONFIG_IDS = ["-".join(str(v) for v in config.values()) for config in CONFIGS]

#: The sweeping configurations, by id; generational sweeps eagerly, its
#: one discipline.
SWEEPING = {
    "marksweep-eager": dict(collector="marksweep", sweep_mode="eager"),
    "marksweep-lazy": dict(collector="marksweep", sweep_mode="lazy"),
    "generational-eager": dict(collector="generational"),
}


def _zombie_vm(path: str, hardened: bool, config: dict):
    """A settled heap whose one zombie the next trace reaches by ``path``.

    ``head -> a`` is rooted, and an ``assert-unshared`` on ``head`` arms the
    drain's header reads without ever firing.  ``"root"``: a static holds
    the zombie.  ``"phase1"``: an owner's ownee holds it, so the ownership
    phase meets it.  ``"drain"``: ``a`` holds it.
    """
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=hardened, telemetry=False, **config)
    cls = make_node_class(vm)
    with vm.scope("zombie"):
        head, a, zombie = vm.new(cls), vm.new(cls), vm.new(cls)
        vm.statics.set_ref("head", head.address)
        head["next"] = a
        vm.assertions.assert_unshared(head, site="arms the drain")
        if path == "root":
            vm.statics.set_ref("zombie", zombie.address)
        elif path == "phase1":
            owner, ownee = vm.new(cls), vm.new(cls)
            vm.statics.set_ref("owner", owner.address)
            owner["next"] = ownee
            ownee["next"] = zombie
            vm.assertions.assert_ownedby(owner, ownee, site="region")
        else:
            a["next"] = zombie
    vm.gc("settle")
    zombie.obj.status |= hdr.FREED_BIT
    return vm, zombie.obj


def _sentinel_phases(vm) -> list:
    phases: list = []
    check = vm.collector._sentinel_check

    def recorded(phase):
        phases.append(phase)
        return check(phase)

    vm.collector._sentinel_check = recorded
    return phases


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_unhardened_every_path_to_a_zombie_raises_the_same_error(config):
    for path in ("root", "phase1", "drain"):
        vm, zombie = _zombie_vm(path, hardened=False, config=config)
        with pytest.raises(UseAfterFreeError) as raised:
            vm.gc(f"reach the zombie by {path}")
        assert str(raised.value) == f"object at {zombie.address:#x} was reclaimed", path


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("path", ["root", "phase1", "drain"])
def test_hardened_every_path_to_a_zombie_ends_in_one_mid_mark_recovery(config, path):
    vm, zombie = _zombie_vm(path, hardened=True, config=config)
    phases = _sentinel_phases(vm)
    vm.gc(f"trip over the zombie by {path}")
    assert phases == ["pre-gc", "mid-mark"]
    collector = vm.collector
    assert vm.heap.maybe(zombie.address) is None
    assert zombie.address in collector.quarantine
    assert collector.recovery.objects_quarantined == 1
    assert collector.recovery.heap_degradations == 1
    assert verify_heap(vm, raise_on_error=False) == []
    del phases[:]
    vm.gc("the next collection finds nothing")
    assert phases == ["pre-gc"] and collector.recovery.heap_degradations == 1
    assert vm.violation_lines() == []


@pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
@pytest.mark.parametrize("config", list(SWEEPING.values()), ids=list(SWEEPING))
def test_an_unreachable_zombie_is_fenced_by_the_sweep(config, hardened):
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=hardened, telemetry=False, **config)
    cls = make_node_class(vm)
    with vm.scope("zombie"):
        zombie = vm.new(cls)
        vm.statics.set_ref("zombie", zombie.address)
    vm.gc("settle: a generational zombie lives in a mature cell")
    vm.statics.set_ref("zombie", NULL)
    zombie = zombie.obj
    zombie.status |= hdr.FREED_BIT
    vm.gc("nothing reaches the zombie")
    vm.collector.sweep_all()
    collector = vm.collector
    assert vm.heap.maybe(zombie.address) is None
    assert zombie.address in collector.quarantine
    assert collector.recovery.objects_quarantined == 1
    assert collector.recovery.heap_degradations == 0  # no trace tripped
    assert verify_heap(vm, raise_on_error=False) == []
    with vm.scope("pressure"):
        addresses = {vm.new(cls).address for _ in range(2000)}
    vm.gc("recycle")
    with vm.scope("pressure again"):
        addresses |= {vm.new(cls).address for _ in range(2000)}
    assert zombie.address not in addresses


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_an_unrooted_zombie_owner_leaves_no_unowned_ownee(config):
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=True, telemetry=False, **config)
    cls = make_node_class(vm)
    with vm.scope("pair"):
        owner, ownee = vm.new(cls), vm.new(cls)
        owner["next"] = ownee
        vm.statics.set_ref("owner", owner.address)
        vm.statics.set_ref("ownee", ownee.address)
    vm.assertions.assert_ownedby(owner, ownee, site="pair")
    vm.gc("clean")
    vm.statics.set_ref("owner", NULL)
    owner.obj.status |= hdr.FREED_BIT
    phases = _sentinel_phases(vm)
    for round_no in range(3):
        vm.gc(f"round {round_no}")
    # The pass before the trace dropped the record, as the full walk did:
    # no trace ever meets the owner, so there is no recovery.
    assert phases == ["pre-gc"] * 3
    assert vm.violation_lines() == []
    assert not ownee.obj.status & hdr.OWNEE_BIT
    assert owner.obj.address not in vm.engine.registry.owners
    assert vm.collector.recovery.registry_scrubbed == 1
    assert vm.collector.recovery.heap_degradations == 1
    assert re.search(r"sentinel\[pre-gc\]: 1 problem", "\n".join(vm.collector.gc_log))
    assert verify_heap(vm, raise_on_error=False) == []


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_a_retrace_counts_each_violation_once(config):
    # The aborted trace staged the planted violation before it tripped;
    # the retrace stages it again, and only one is reported and counted.
    vm = VirtualMachine(heap_bytes=1 << 20, hardened=True, **config)
    cls = make_node_class(vm)
    nodes = build_chain(vm, cls, 8)
    vm.assertions.assert_dead(nodes[2], site="planted")
    vm.gc("settle")
    vm.engine.log.clear()
    counted = vm.stats.violations_detected
    nodes[6].obj.slots[cls.field("next").slot] = 0xBAD000
    vm.gc("trip over the dangling slot")
    assert vm.collector.recovery.heap_degradations == 1
    assert [v.site for v in vm.engine.log.violations] == ["planted"]
    assert vm.stats.violations_detected - counted == 1

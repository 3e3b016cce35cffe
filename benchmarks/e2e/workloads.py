"""The five workloads.

Each one repeats a *cycle* of fixed work until the run's seconds are spent,
so a run of any length measures the same thing.  A cycle holds units of the
measured leg, units of its base leg, and ends with a calibration sample
(see ``calibrate.py``); calibrated times are formed inside the cycle, where
sample and calibration saw the same machine, and the run reports their
medians over cycles.

A direct cycle is measured, base, measured on this thread.  A served cycle
is one wave — every client runs one seeded shuffle of the session kinds —
then, with the clients idle, the same kinds run directly as the base.

Inputs are made from the seed; the program only ever sees generated
graphs, profiles, configs and session orders.
"""

from __future__ import annotations

import random
import statistics
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.errors import ReproError
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.service import AssertionService, ServiceClient, ServiceConfig
from repro.service.session import resolve_workload
from repro.workloads.containers import Vector
from repro.workloads.db import ENTRY, DbConfig, run_db
from repro.workloads.synthetic import SyntheticProfile, run_synthetic

from benchmarks.e2e import env, oracle, spans
from benchmarks.e2e.calibrate import Calibration

MEASURED, BASE = "measured", "base"

#: A session that has not finished after this long is a counted failure.
SESSION_TIMEOUT_S = 20.0

SIZES = {
    "full": {
        "live_graph": dict(nodes=60_000, garbage=12_000, heap_bytes=32 << 20, cal_nodes=40_000),
        "churn": dict(iterations=40, heap_bytes=256 << 10, cal_nodes=2_000),
        "asserted_db": dict(initial_entries=800, operations=400, gc_every=20,
                            heap_bytes=8 << 20, planted=(8, 8, 8), cal_nodes=2_000),
        "served_mix": dict(clients=2, swaps=32, passes=1, base_runs=1, cal_nodes=2_000),
        "served_stream": dict(clients=1, swaps=64, passes=3, base_runs=3, cal_nodes=2_000),
    },
    "smoke": {
        "live_graph": dict(nodes=4_000, garbage=800, heap_bytes=8 << 20, cal_nodes=4_000),
        "churn": dict(iterations=6, heap_bytes=64 << 10, cal_nodes=2_000),
        "asserted_db": dict(initial_entries=120, operations=80, gc_every=20,
                            heap_bytes=8 << 20, planted=(3, 4, 2), cal_nodes=2_000),
        "served_mix": dict(clients=2, swaps=8, passes=1, base_runs=1, cal_nodes=2_000),
        "served_stream": dict(clients=1, swaps=12, passes=3, base_runs=1, cal_nodes=2_000),
    },
}


@dataclass
class Unit:
    leg: str
    wall_s: float
    pauses: list
    problems: list
    #: GcStats work counters of this unit ("inner" layer metrics read them).
    counters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Cycle:
    units: list
    #: ``collect`` calls inside the measured units (a served wave's tenant
    #: VMs collect on executor threads, so they are pooled per cycle).
    pauses: list
    #: Wall time of the measured part: the wave, or the measured units.
    wall_s: float
    #: Seconds per calibration pass, mean of the samples before and after.
    cal_s: float = 0.0

    def measured(self) -> list:
        return [u for u in self.units if u.leg == MEASURED]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: dict, pauses: list):
        self.seed = seed
        self.sizes = sizes
        #: The list the one ``collect`` timer appends to.
        self.pauses = pauses
        self.calibration = Calibration(sizes["cal_nodes"])

    def setup(self) -> None: ...

    def teardown(self) -> None: ...

    def cycle(self, recorder=None) -> Cycle:
        raise NotImplementedError

    def base_ratios(self, cycles: list) -> tuple[list, list]:
        """Samples of (GC time, wall time) of the measured leg over its base;
        the run reports the median of each list."""
        raise NotImplementedError

    def finish(self) -> list:
        return []

    def run(self, seconds: float, recorder=None) -> list[Cycle]:
        cycles = []
        deadline = perf_counter() + seconds
        before = self.calibration.sample()
        while not cycles or perf_counter() < deadline:
            cycle = self.cycle(recorder)
            after = self.calibration.sample()
            cycle.cal_s = (before + after) / 2
            before = after
            cycles.append(cycle)
        return cycles


# -- direct workloads -----------------------------------------------------------------------


class DirectWorkload(Workload):
    """Units run one after another on this thread."""

    legs = (MEASURED, BASE, MEASURED)

    def unit(self, leg: str):
        raise NotImplementedError

    def check(self, leg: str, token) -> tuple[list, dict]:
        """Untimed: (problems, GcStats counters of the unit)."""
        raise NotImplementedError

    def run_one(self, leg: str, recorder=None) -> Unit:
        pauses = self.pauses
        first = len(pauses)
        root = recorder.begin(spans.ROOT, leg) if recorder is not None else None
        start = perf_counter()
        token = self.unit(leg)
        wall = perf_counter() - start
        if root is not None:
            recorder.end(root)
        mine = pauses[first:]
        problems, counters = self.check(leg, token)
        return Unit(leg, wall, mine, problems, counters)

    def cycle(self, recorder=None) -> Cycle:
        units = [self.run_one(leg, recorder) for leg in self.legs]
        measured = [u for u in units if u.leg == MEASURED]
        return Cycle(units, [p for u in measured for p in u.pauses],
                     sum(u.wall_s for u in measured))

    def base_ratios(self, cycles: list) -> tuple[list, list]:
        # One ratio per cycle: its legs ran within a second of each other
        # on the same inputs, so the machine's drift cancels inside it.
        gc, wall = [], []
        for cycle in cycles:
            measured = cycle.measured()
            base = [u for u in cycle.units if u.leg == BASE]
            gc.append(_ratio(statistics.fmean(sum(u.pauses) for u in measured),
                             statistics.fmean(sum(u.pauses) for u in base)))
            wall.append(_ratio(statistics.fmean(u.wall_s for u in measured),
                               statistics.fmean(u.wall_s for u in base)))
        return gc, wall


def build_graph(vm: VirtualMachine, nodes: int, seed: int):
    """A spine through every node, one random cross link per node, and
    64-wide reference arrays as static roots.  Returns the node class."""
    rng = random.Random(seed)
    node = vm.define_class(
        "e2e.Node",
        [("next", FieldKind.REF), ("cross", FieldKind.REF), ("id", FieldKind.INT)],
    )
    allocate = vm.collector.allocate
    addresses: list[int] = []
    previous = None
    for index in range(nodes):
        obj = allocate(node)
        obj.slots[2] = index
        if previous is not None:
            previous.slots[0] = obj.address
            obj.slots[1] = addresses[rng.randrange(index)]
        addresses.append(obj.address)
        previous = obj
    array_cls = vm.array_class(node)
    for number in range(max(1, nodes // 512)):
        array = allocate(array_cls, 64)
        array.slots[:] = [addresses[rng.randrange(nodes)] for _ in range(64)]
        if number == 0:
            array.slots[0] = addresses[0]
        vm.statics.set_ref(f"e2e.roots.{number}", array.address)
    return node


def _counters(vm: VirtualMachine) -> dict:
    return vm.stats.snapshot()["counters"]


def _diff(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


class LiveGraph(DirectWorkload):
    name = "live_graph"

    def setup(self) -> None:
        sizes = self.sizes
        self.vms = {}
        self.expected = {}
        self.last = {}
        for leg in (BASE, MEASURED):
            vm = VirtualMachine(heap_bytes=sizes["heap_bytes"], assertions=leg == MEASURED)
            cls = build_graph(vm, sizes["nodes"], self.seed)
            self.vms[leg] = (vm, cls)
            self.expected[leg] = len(oracle.reachable(vm))
            self.last[leg] = _counters(vm)

    def unit(self, leg: str):
        vm, cls = self.vms[leg]
        allocate = vm.collector.allocate
        for _ in range(self.sizes["garbage"]):
            allocate(cls)  # never rooted
        vm.gc("e2e round")
        return vm

    def check(self, leg: str, vm) -> tuple[list, dict]:
        now = _counters(vm)
        delta = _diff(now, self.last[leg])
        self.last[leg] = now
        expected = self.expected[leg]
        problems = []
        if delta["objects_traced"] != expected:
            problems.append(f"{leg}: traced {delta['objects_traced']}, reference walk reaches {expected}")
        if vm.heap.stats.objects_live != expected:
            problems.append(f"{leg}: {vm.heap.stats.objects_live} live after GC, expected {expected}")
        if delta["objects_freed"] != self.sizes["garbage"]:
            problems.append(f"{leg}: freed {delta['objects_freed']}, allocated {self.sizes['garbage']} unrooted")
        return problems, delta

    def finish(self) -> list:
        # The rounds never touch the graph, so the walk made in set-up must
        # still hold; one more walk proves the collector left it intact.
        problems = []
        for leg, (vm, _cls) in self.vms.items():
            problems += oracle.live_set_problems(vm, f"{leg} final")
            if len(oracle.reachable(vm)) != self.expected[leg]:
                problems.append(f"{leg}: the reachable set changed during the run")
        return problems


class Churn(DirectWorkload):
    name = "churn"

    def setup(self) -> None:
        self.profile = SyntheticProfile(
            "e2e-churn", iterations=self.sizes["iterations"], clusters_per_iteration=200,
            cluster_size=3, promote_every=20, retained_cap=400, payload_ints=3,
            seed=self.seed, heap_bytes=self.sizes["heap_bytes"],
        )
        self.run_one(MEASURED)  # first call defines classes and fills caches

    def unit(self, leg: str):
        vm = VirtualMachine(heap_bytes=self.profile.heap_bytes, assertions=leg == MEASURED)
        return vm, run_synthetic(vm, self.profile)

    def check(self, leg: str, token) -> tuple[list, dict]:
        vm, result = token
        counters = _counters(vm)
        profile = self.profile
        problems = []
        planned = profile.iterations * profile.clusters_per_iteration * (profile.cluster_size + 1)
        if result.objects_allocated != planned:
            problems.append(f"{leg}: allocated {result.objects_allocated} objects, profile plans {planned}")
        allocated = vm.heap.stats.objects_allocated
        vm.gc("e2e oracle")
        problems += oracle.live_set_problems(vm, leg)
        freed, live = vm.stats.objects_freed, len(oracle.reachable(vm))
        if freed != allocated - live:
            problems.append(f"{leg}: swept {freed}, but {allocated} allocated and {live} reachable")
        return problems, counters


class AssertedDb(DirectWorkload):
    name = "asserted_db"

    def setup(self) -> None:
        sizes = self.sizes
        self.config = DbConfig(
            initial_entries=sizes["initial_entries"], operations=sizes["operations"],
            key_space=10 * sizes["initial_entries"], add_weight=5, delete_weight=5,
            find_weight=1, sort_every=0, gc_every=sizes["gc_every"], seed=self.seed,
        )
        self.work = None
        self.scripts = random.Random(self.seed)
        self.run_one(MEASURED)

    def cycle(self, recorder=None) -> Cycle:
        # A new operation script every cycle (both legs run the same one), so
        # a run's medians do not hang on one script's share of finds and deletes.
        self.config = replace(self.config, seed=self.scripts.getrandbits(32))
        self.work = None
        return super().cycle(recorder)

    def unit(self, leg: str):
        asserted = leg == MEASURED
        vm = VirtualMachine(heap_bytes=self.sizes["heap_bytes"], assertions=asserted)
        config = replace(self.config, assert_ownedby_entries=asserted,
                         assert_dead_on_delete=asserted)
        return vm, run_db(vm, config)

    def check(self, leg: str, token) -> tuple[list, dict]:
        vm, result = token
        counters = _counters(vm)
        problems = []
        # Assertions observe; the mutator's work must not depend on them.
        work = (result.adds, result.deletes, result.finds, result.sorts, result.final_size,
                counters["collections"], vm.heap.stats.objects_allocated)
        if self.work is None:
            self.work = work
        elif work != self.work:
            problems.append(f"{leg}: work counters {work} differ from the other leg's {self.work}")
        if leg == MEASURED:
            if result.violations:
                problems.append(f"a correct program reported {result.violations} violations")
            problems += self._planted_verdicts(vm)
        return problems, counters

    def _planted_verdicts(self, vm: VirtualMachine) -> list:
        """Plant assertions with a known answer and collect once more:
        ``rooted`` dead objects that are still reachable (must be reported),
        ``unrooted`` dead objects (must not), and ``outside`` ownees held by
        a static outside their owner and not by the owner (must be reported)."""
        rooted, unrooted, outside = self.sizes["planted"]
        database = vm.handle(vm.statics.get_ref("spec.db.database"))
        keep = Vector.new(vm, capacity=rooted + outside)
        vm.statics.set_ref("e2e.planted", keep.handle.address)
        with vm.scope("e2e.plant"):
            for index in range(rooted):
                entry = vm.new(ENTRY, id=-1 - index)
                keep.append(entry)
                vm.assertions.assert_dead(entry, site="e2e.rooted")
            for index in range(unrooted):
                vm.assertions.assert_dead(vm.new(ENTRY, id=-1000 - index), site="e2e.unrooted")
            for index in range(outside):
                entry = vm.new(ENTRY, id=-2000 - index)
                keep.append(entry)
                vm.assertions.assert_ownedby(database, entry, site="e2e.outside")
        vm.gc("e2e planted verdicts")
        found = [(v.kind.value, v.site) for v in vm.engine.log]
        dead = sum(1 for kind, site in found if kind == "assert-dead" and site == "e2e.rooted")
        owned = sum(1 for kind, _site in found if kind == "assert-ownedby")
        if (dead, owned, len(found)) != (rooted, outside, rooted + outside):
            return [f"planted {rooted} rooted-dead + {outside} outside ownees (and {unrooted} "
                    f"truly dead); reported {dead} + {owned} of {len(found)} violations"]
        return []


# -- served workloads -----------------------------------------------------------------------


class ServedWorkload(Workload):
    """Closed loop: ``clients`` callers, each waiting for its reply before
    its next session, quiesced at the end of every wave.  The service is
    hosted in this process."""

    def __init__(self, seed: int, sizes: dict, pauses: list):
        super().__init__(seed, sizes, pauses)
        self.clients = max(1, min(sizes["clients"], env.nproc()))
        self.service = None
        self._gate = threading.Lock()
        self._active = 0
        self.peak_active = 0
        self._rngs = [random.Random(f"{seed}/{number}") for number in range(self.clients)]
        self._serial = 0
        self.reference = None

    def kinds(self) -> list[tuple[str, dict | None]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.teardown()
        self.kind_list = [
            (name, overrides, *resolve_workload(name, asserted=True, overrides=overrides))
            for name, overrides in self.kinds()
        ]
        #: The answer every served session (and every later direct run) must give.
        self.reference = [self._direct(kind).counters for kind in range(len(self.kind_list))]
        self.service = AssertionService(ServiceConfig(http_port=None)).start()
        for kind in range(len(self.kind_list)):
            self._session(f"warmup-{kind}", kind)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def _direct(self, kind: int) -> Unit:
        """The tenant configuration (hardened, 2x growth ceiling), no service."""
        name, _overrides, heap_bytes, runner = self.kind_list[kind]
        first = len(self.pauses)
        start = perf_counter()
        vm = VirtualMachine(heap_bytes=heap_bytes, assertions=True, telemetry=True,
                            hardened=True, max_heap_bytes=heap_bytes * 2)
        runner(vm)
        vm.collector.sweep_all()
        wall = perf_counter() - start
        answer = dict(_counters(vm), violations=len(vm.violation_lines()))
        problems = []
        if self.reference is not None and answer != self.reference[kind]:
            problems.append(f"direct runs of {name} disagree with each other")
        return Unit(BASE, wall, self.pauses[first:], problems, answer, {"kind": name})

    def _session(self, tenant: str, kind: int) -> Unit:
        name, overrides, _heap_bytes, _runner = self.kind_list[kind]
        problems: list = []
        counters: dict = {}
        extra = {"tenant": tenant, "kind": name}
        with self._gate:
            self._active += 1
            self.peak_active = max(self.peak_active, self._active)
        start = perf_counter()
        client = None
        try:
            client = ServiceClient(self.service.config.host, self.service.port,
                                   timeout=SESSION_TIMEOUT_S)
            client.hello()
            welcomed = perf_counter()
            opened = client.open(tenant, name, overrides=overrides, wait=True)
            opened_at = perf_counter()
            if opened.get("type") != "opened":
                problems.append(f"open answered {opened.get('type')}: {opened.get('reason') or opened.get('error')}")
            else:
                streamed: list = []
                result = client.submit(opened["session"], collect=streamed)
                result_at = perf_counter()
                closed = client.close_session(opened["session"], collect=streamed)
                closed_at = perf_counter()
                counters = result.get("counters") or {}
                problems += self._verdict(self.reference[kind], result, closed, client)
                extra.update(
                    stamps=(start, welcomed, opened_at, result_at, closed_at),
                    server_wall_s=result.get("wall_s", 0.0),
                    frames=client.seq.frames_seen,
                    missed=client.frames_missed,
                )
        except (OSError, ReproError) as exc:  # a timeout is an OSError
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if client is not None:
                client.close()
            with self._gate:
                self._active -= 1
        return Unit(MEASURED, perf_counter() - start, [], problems, counters, extra)

    @staticmethod
    def _verdict(reference: dict, result: dict, closed: dict, client) -> list:
        problems = []
        if result.get("type") != "result" or result.get("outcome") != "completed":
            return [f"submit answered {result.get('type')}/{result.get('outcome')}: {result.get('error')}"]
        if dict(result["counters"], violations=len(result["violations"])) != reference:
            problems.append("served GC counters or violation count differ from the direct run's")
        if closed.get("type") != "closed":
            problems.append(f"close answered {closed.get('type')}")
        elif client.frames_missed != closed.get("dropped_frames"):
            problems.append(f"client saw {client.frames_missed} sequence gaps, "
                            f"server dropped {closed.get('dropped_frames')} frames")
        return problems

    def _client(self, number: int, serial: int, out: list) -> None:
        order = list(range(len(self.kind_list))) * self.sizes["passes"]
        self._rngs[number].shuffle(order)
        for index, kind in enumerate(order):
            tenant = f"c{number}-{serial}-{index}-{self.kind_list[kind][0]}"
            out.append(self._session(tenant, kind))

    def cycle(self, recorder=None) -> Cycle:
        self._serial += 1
        first = len(self.pauses)
        outs: list[list] = [[] for _ in range(self.clients)]
        threads = [
            threading.Thread(target=self._client, args=(number, self._serial, outs[number]),
                             name=f"e2e-client-{number}")
            for number in range(self.clients)
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()  # bounded: every socket operation times out
        wall = perf_counter() - start
        pauses = self.pauses[first:]
        units = [unit for out in outs for unit in out]
        # The base leg: clients idle, the same kinds run directly.  This
        # thread slept through the wave; a discarded sample first, so neither
        # the base nor the calibration is timed on a core that just woke up.
        self.calibration.sample()
        root = recorder.begin(spans.ROOT, BASE) if recorder is not None else None
        units += [self._direct(kind) for kind in range(len(self.kind_list))
                  for _ in range(self.sizes["base_runs"])]
        if root is not None:
            recorder.end(root)
        return Cycle(units, pauses, wall)

    def base_ratios(self, cycles: list) -> tuple[list, list]:
        # A direct run is a twentieth of a wave, so one burst on the host
        # distorts it; each kind's base is its median over the run's cycles,
        # and every cycle's wave is compared with that.
        runs: dict[str, list] = {}
        for cycle in cycles:
            for unit in cycle.units:
                if unit.leg == BASE:
                    runs.setdefault(unit.extra["kind"], []).append(unit)
        base_gc = {kind: statistics.median(sum(u.pauses) for u in units) for kind, units in runs.items()}
        base_wall = {kind: statistics.median(u.wall_s for u in units) for kind, units in runs.items()}
        gc, wall = [], []
        for cycle in cycles:
            sessions = cycle.measured()
            gc.append(_ratio(sum(cycle.pauses), sum(base_gc[u.extra["kind"]] for u in sessions)))
            wall.append(_ratio(sum(u.wall_s for u in sessions),
                               sum(base_wall[u.extra["kind"]] for u in sessions)))
        return gc, wall

    def finish(self) -> list:
        if self.peak_active > env.nproc():
            return [f"the generator held {self.peak_active} connections on {env.nproc()} cores"]
        return []


class ServedMix(ServedWorkload):
    name = "served_mix"

    def kinds(self):
        return [("swapleak", {"swaps": self.sizes["swaps"]}), ("mpegaudio", None),
                ("pseudojbb", None), ("mtrt", None), ("jython", None)]


class ServedStream(ServedWorkload):
    name = "served_stream"

    def kinds(self):
        # Stay at 64 swaps: at 96 and above, one collection per swap, the
        # service never sends a result frame (see README, known limits).
        return [("swapleak", {"swaps": self.sizes["swaps"], "gc_every_swaps": 1, "array_size": 32})]


WORKLOADS = {cls.name: cls for cls in (LiveGraph, Churn, AssertedDb, ServedMix, ServedStream)}

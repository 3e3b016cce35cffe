"""The calibration kernel: the benchmark's own unit of time.

This box's speed drifts by a fifth from one minute to the next (a shared
host: the vCPU is never descheduled, it just runs slower), so a wall-clock
median repeats no better than that however long the run.  What does repeat
is a time *relative to fixed work measured right beside it*.  The kernel is
that work: a mark loop over 20k slotted objects in a dict — pointer chasing
through Python objects, the same kind of work as the program's collector —
that shares no code with the program, so no change to the program moves it.

One ``cal`` is the kernel's run time.  Every time-valued end-to-end metric
is reported in ``cal``: the sample divided by the mean of the calibration
samples taken just before and just after its cycle.
"""

from __future__ import annotations

from time import perf_counter

#: Nodes marked per calibration sample, whatever the table size (about 40 ms).
SAMPLE_NODES = 80_000


class _Node:
    __slots__ = ("left", "right", "marked")

    def __init__(self) -> None:
        self.left = 0
        self.right = 0
        self.marked = False


class Calibration:
    def __init__(self, nodes: int) -> None:
        table = {key: _Node() for key in range(1, nodes + 1)}
        for key in range(1, nodes):
            table[key].left = key + 1
            table[key].right = (key * 7919) % nodes + 1
        self._table = table
        self._passes = max(1, SAMPLE_NODES // nodes)

    def _mark(self) -> int:
        table = self._table
        for node in table.values():
            node.marked = False
        stack = [1]
        table[1].marked = True
        marked = 1
        while stack:
            node = table[stack.pop()]
            for child in (node.left, node.right):
                if child:
                    target = table[child]
                    if not target.marked:
                        target.marked = True
                        marked += 1
                        stack.append(child)
        return marked

    def sample(self) -> float:
        """Seconds per 20k nodes marked, now: one ``cal``."""
        start = perf_counter()
        for _ in range(self._passes):
            if self._mark() != len(self._table):
                raise AssertionError("the calibration kernel lost nodes")
        return (perf_counter() - start) * 20_000 / (self._passes * len(self._table))

"""Host-speed normalisation of measured times.

The shared hosts this benchmark runs on change speed by 20-40% for
minutes at a time, well beyond any bound a regression check could use.
Every timed operation is therefore bracketed by a fixed calibration
kernel, and its time is rescaled to a reference host: one on which the
kernel takes :data:`REFERENCE_S`.  The kernel is benchmark code that no
simulator change touches.  Like the simulator's hot loop it is
interpreter-bound pointer chasing over slotted objects, a dict, a heap
and a deque, so it slows down with the host in the same way.  (A
smaller kernel that fits in the first-level caches tracked the host
markedly worse.)
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Callable, List, Tuple

#: Kernel time on the reference host; measured times are rescaled to it.
REFERENCE_S = 0.006
_NODE_COUNT = 1 << 16
_STEPS = 10_000


class _Node:
    __slots__ = ("key", "next", "value", "state")


class HostSpeed:
    """The calibration kernel and the kernel times seen so far."""

    def __init__(self):
        self.kernel_s: List[float] = []
        self._nodes = [_Node() for _ in range(_NODE_COUNT)]
        for index, node in enumerate(self._nodes):
            node.key = index
            node.value = (index * 2654435761) & 0xFFFF
            node.state = 0
            node.next = self._nodes[(index * 40503 + 12345) % _NODE_COUNT]
        self._table = {}

    def kernel(self) -> float:
        """Run the kernel once; returns (and records) its seconds."""
        started = time.perf_counter()
        node = self._nodes[0]
        table = self._table
        heap: list = []
        fifo: deque = deque()
        total = 0
        for step in range(_STEPS):
            node = node.next
            total = (total + node.value) & 0xFFFFFF
            node.state = (node.state + 1) & 3
            table[node.key & 0x3FFF] = node
            if node.state == 2:
                heapq.heappush(heap, (total & 0xFF, step, node))
            if len(heap) > 16:
                fifo.append(heapq.heappop(heap)[2])
            if len(fifo) > 8:
                fifo.popleft()
        elapsed = time.perf_counter() - started
        self.kernel_s.append(elapsed)
        return elapsed

    def timed(self, function: Callable, *args) -> Tuple[object, float]:
        """``function(*args)`` and a factor that rescales host seconds
        measured during the call to reference seconds."""
        before = self.kernel()
        result = function(*args)
        after = self.kernel()
        return result, 2.0 * REFERENCE_S / (before + after)

    def seconds(self, function: Callable, *args) -> Tuple[object, float]:
        """``function(*args)`` and its duration in reference seconds."""
        (result, elapsed), factor = self.timed(clocked, function, *args)
        return result, elapsed * factor


def clocked(function: Callable, *args) -> Tuple[object, float]:
    """``function(*args)`` and its duration in host seconds."""
    started = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - started

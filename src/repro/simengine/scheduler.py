"""The simulator's event queue.

Entries are ``(time, priority, seq, event)`` tuples and drain in exactly
``(time, priority, seq)`` order, so a run is a function of its schedule alone
(pinned by the property test in ``tests/simengine/test_heap_queue.py``).
Cancelled timers are discarded lazily when their entry reaches the top of the
heap, so ``Timer.cancel`` is O(1).
"""

from __future__ import annotations

from heapq import heappop, heappush

_INF = float("inf")


class HeapQueue:
    """Binary heap of pending events with lazy cancellation."""

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time, priority, seq, event) -> None:
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1

    def pop(self):
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[3]._cancelled:
                continue
            self._live -= 1
            return entry
        raise IndexError("pop from an empty event queue")

    def peek(self) -> float:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
        return heap[0][0] if heap else _INF

    def note_cancel(self) -> None:
        self._live -= 1

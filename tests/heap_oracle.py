"""Reference oracles for the engine's event order.

:class:`HeapQueue` is the plain ``heapq`` queue the engine ran on before
the calendar queue: the calendar queue must pop the same entries in the
same order.  :class:`HeapEngine` is a minimal process/timeout engine on
top of it, with the engine's scheduling rules (a process starts with an
``URGENT`` event at the current instant; timeouts and process
completions are ``NORMAL``), so a generator workload can be replayed on
both and their traces compared.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generator, Iterable, List, Optional

from repro.sim.calendar import Entry
from repro.sim.core import NORMAL, URGENT


class HeapQueue:
    """Min-queue over ``(time, priority, eid, event)`` entries on ``heapq``.

    Same interface as :class:`repro.sim.calendar.CalendarQueue`.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, entry: Entry, now: float) -> None:
        heappush(self._heap, entry)

    def push_sorted(self, entries: Iterable[Entry], now: float) -> None:
        self._heap.extend(entries)
        heapify(self._heap)

    def pop(self) -> Entry:
        return heappop(self._heap)

    def head(self) -> Optional[Entry]:
        return self._heap[0] if self._heap else None


class HeapEngine:
    """Generator processes waiting on timeouts, ordered by a heap.

    Only what the oracle workloads use: ``now``, ``timeout(delay)``
    (yield it to wait), ``process(generator)``, ``run()`` and
    ``events_processed``.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue = HeapQueue()
        self._eid = 0

    def _schedule(self, delay: float, priority: int, generator) -> None:
        self._eid += 1
        entry = (self.now + delay, priority, self._eid, generator)
        self._queue.push(entry, self.now)

    def timeout(self, delay: float) -> float:
        return delay

    def process(self, generator: Generator) -> None:
        self._schedule(0.0, URGENT, generator)

    def run(self) -> None:
        while self._queue:
            self.now, _, _, generator = self._queue.pop()
            self.events_processed += 1
            if generator is None:
                continue  # a completion nobody waits on
            try:
                delay = next(generator)
            except StopIteration:
                self._schedule(0.0, NORMAL, None)
            else:
                self._schedule(delay, NORMAL, generator)

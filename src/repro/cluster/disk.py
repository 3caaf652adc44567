"""Disk model: a FIFO device with fixed per-operation overhead and bandwidth."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simengine import Simulator


class Disk:
    """A single storage device attached to a node.

    Concurrent I/O requests on the same disk are served one at a time in
    arrival order; each request costs ``overhead + nbytes / bandwidth`` of
    simulated time.  Aggregate counters feed the benchmark reports.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, overhead: float,
                 name: str = "disk"):
        if bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        if overhead < 0:
            raise ValueError("disk overhead must be non-negative")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.overhead = float(overhead)
        self.name = name
        #: when the last reserved I/O finishes (analytic FIFO queue)
        self.free_at: float = 0.0
        #: total bytes read + written through this disk
        self.bytes_transferred: int = 0
        #: number of I/O operations served
        self.operations: int = 0
        #: total busy time of the device
        self.busy_time: float = 0.0

    def io_time(self, nbytes: int) -> float:
        """Service time of a single ``nbytes`` I/O (excluding queueing)."""
        return self.overhead + nbytes / self.bandwidth

    def io(self, nbytes: int):
        """Simulated-process generator performing one I/O of ``nbytes``.

        The device's FIFO queue is reserved analytically (``free_at``), and
        the caller sleeps once until its I/O completes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        service = self.overhead + nbytes / self.bandwidth
        now = sim.now
        start = self.free_at if self.free_at > now else now
        finish = start + service
        self.free_at = finish
        self.busy_time += service
        self.bytes_transferred += nbytes
        self.operations += 1
        yield sim.sleep(finish - now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the device was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

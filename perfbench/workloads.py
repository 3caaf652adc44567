"""The benchmark's three workloads, as lists of job points.

A *point* is one MPI-I/O job on one backend at one client count.  Every
point goes through four phases — ``setup`` (cluster, deployment and
seeded inputs), ``run`` (the simulated job), ``read_back`` (a simulated
read of the whole file the job wrote) and ``check`` (the per-byte check
of what was read) — and keeps the simulated results the metrics need.

Every workload is a closed-loop batch job: each rank issues its next
MPI-I/O call only after the previous one returned, and the whole job runs
in one single-threaded process.  The workload seed generates every input:
the payload bytes of every rank and the ``Cluster`` seed.  With
``network_jitter=0`` and round-robin placement the seed changes no
simulated timing, so a second seed checks byte content, not timing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from repro.bench.environment import build_environment
from repro.bench.harness import read_back_file, run_atomic_write_job
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import operation_report
from repro.obs.views import collect_all
from repro.vstore.client import VectoredClient
from repro.workloads.overlap_stress import OverlapStressWorkload
from repro.workloads.tile_io import TileIOWorkload

MIB = 1024 * 1024

#: ``payload(rank, nbytes) -> bytes`` for one job point
PayloadFn = Callable[[int, int], bytes]


def seeded_payload(workload: str, seed: int, clients: int) -> PayloadFn:
    """Payload bytes of every rank of one point, derived from the seed alone."""
    def payload(rank: int, nbytes: int) -> bytes:
        return random.Random(f"{workload}:{seed}:{clients}:{rank}").randbytes(nbytes)
    return payload


@dataclass
class CheckResult:
    """What the per-round check of one point found."""

    digest: str
    byte_ok: bool
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return not self.byte_ok or bool(self.problems)


class Point:
    """One job of a workload.  Subclasses fill the simulated results."""

    def __init__(self, workload: str, backend: str, clients: int, seed: int,
                 headline: bool = False) -> None:
        self.workload = workload
        self.backend = backend
        self.clients = clients
        self.seed = seed
        self.headline = headline
        self.writers: List[checks.Pairs] = []
        self.observed = b""
        self.write_latencies: List[float] = []
        self.read_latencies: List[float] = []
        self.write_mib_s = 0.0
        self.read_mib_s = 0.0
        self.lock_wait_s = 0.0
        self.cluster: Optional[Cluster] = None
        self.deployment = None
        self.drivers: List = []
        self.comms: List = []
        self.read_problems: List[str] = []

    @property
    def label(self) -> str:
        return f"{self.backend}/{self.clients}"

    def setup(self, config: ClusterConfig) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def read_back(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def check(self) -> CheckResult:
        """The per-byte check, plus the registry's partition identities."""
        result = CheckResult(digest=hashlib.sha256(self.observed).hexdigest(),
                             byte_ok=checks.byte_check(self.observed, self.writers),
                             problems=list(self.read_problems))
        self.registry().assert_identities()
        return result

    def registry(self):
        return collect_all(self.cluster.obs.registry, cluster=self.cluster,
                           deployment=self.deployment, drivers=self.drivers,
                           comms=self.comms, complete_clients=False)

    def sim_signature(self) -> Dict[str, object]:
        """Every simulated value and count of the point (tracing-invariant)."""
        return {
            "sim_now": self.cluster.sim.now,
            "events": self.cluster.sim.processed_events,
            "digest": hashlib.sha256(self.observed).hexdigest(),
            "write_latencies": list(self.write_latencies),
            "read_latencies": list(self.read_latencies),
            "lock_wait_s": self.lock_wait_s,
            "metrics": self.cluster.obs.registry.snapshot(),
        }

    def critpath(self) -> Optional[Dict[str, object]]:
        if not self.cluster.obs.tracing:
            return None
        return operation_report(self.cluster.obs.tracer)


# ----------------------------------------------------------------------
# collective_checkpoint: the simcore headline shape
# ----------------------------------------------------------------------
class CollectiveCheckpointPoint(Point):
    """64 ranks x 256 interleaved 1 KiB blocks: one ``write_at_all``, a
    ``sync``, then three ``read_at_all`` of the rank's own blocks.

    Mirrors ``repro.bench.simcore.run_collective_io_point`` (same
    deployment, node names and verifier read-back), so its simulated values
    match the simcore headline exactly.  Phase timestamps are taken per
    rank around each call; no barrier is added.
    """

    PATH = "/simcore"
    NUM_RANKS = 64
    BLOCKS_PER_RANK = 256
    BLOCK_SIZE = 1024
    READ_ROUNDS = 3
    NUM_AGGREGATORS = 16
    STRIDE = NUM_RANKS * BLOCK_SIZE
    FILE_SIZE = BLOCKS_PER_RANK * STRIDE

    def __init__(self, seed: int, payload: Optional[PayloadFn] = None) -> None:
        super().__init__("collective_checkpoint", "versioning", self.NUM_RANKS,
                         seed, headline=True)
        self.payload_fn = payload or seeded_payload(self.workload, seed,
                                                    self.NUM_RANKS)
        self.verifier: Optional[VectoredClient] = None

    def setup(self, config: ClusterConfig) -> None:
        self.cluster = Cluster(config=config, seed=self.seed)
        self.deployment = BlobSeerDeployment(
            self.cluster, num_providers=8, num_metadata_providers=2,
            chunk_size=16 * 1024, node_prefix="sc")
        self.payloads = [self.payload_fn(rank, self.BLOCKS_PER_RANK * self.BLOCK_SIZE)
                         for rank in range(self.clients)]
        self.writers = [
            [(index * self.STRIDE + rank * self.BLOCK_SIZE,
              payload[index * self.BLOCK_SIZE:(index + 1) * self.BLOCK_SIZE])
             for index in range(self.BLOCKS_PER_RANK)]
            for rank, payload in enumerate(self.payloads)]

    def run(self) -> None:
        nbytes = self.BLOCKS_PER_RANK * self.BLOCK_SIZE
        write_spans: Dict[int, Tuple[float, float]] = {}
        read_spans: List[Tuple[float, float]] = []

        def rank_main(ctx):
            driver = VersioningDriver(
                self.deployment, ctx.node, rank_name=f"sc{ctx.rank}",
                write_coalescing=True, collective_buffering=True,
                collective_aggregators=self.NUM_AGGREGATORS)
            self.drivers.append(driver)
            if ctx.rank == 0:
                self.comms.append(ctx.comm)
            handle = yield from File.open(driver, self.PATH, rank=ctx.rank,
                                          comm=ctx.comm, size_hint=self.FILE_SIZE)
            displacements = [index * self.STRIDE + ctx.rank * self.BLOCK_SIZE
                             for index in range(self.BLOCKS_PER_RANK)]
            handle.set_view(0, BYTE, Indexed([self.BLOCK_SIZE] * self.BLOCKS_PER_RANK,
                                             displacements, base=BYTE))
            payload = self.payloads[ctx.rank]
            started = ctx.sim.now
            yield from handle.write_at_all(0, payload)
            write_spans[ctx.rank] = (started, ctx.sim.now)
            yield from handle.sync()
            for _ in range(self.READ_ROUNDS):
                started = ctx.sim.now
                data = yield from handle.read_at_all(0, nbytes)
                read_spans.append((started, ctx.sim.now))
                if data != payload:
                    self.read_problems.append(
                        f"rank {ctx.rank}: read_at_all returned wrong bytes")
            yield from handle.close()

        run_mpi_job(self.cluster, self.clients, rank_main, node_prefix="sc-rank")
        writes = [write_spans[rank] for rank in sorted(write_spans)]
        self.write_latencies = [end - start for start, end in writes]
        self.read_latencies = [end - start for start, end in read_spans]
        self.write_mib_s = _throughput(self.clients * nbytes, writes)
        self.read_mib_s = _throughput(len(read_spans) * nbytes, read_spans)

    def read_back(self) -> None:
        self.verifier = VectoredClient(
            self.deployment, self.cluster.add_node("sc-verify"), name="sc-verify")

        def read():
            pieces = yield from self.verifier.vread(self.PATH, [(0, self.FILE_SIZE)])
            return pieces[0]

        process = self.cluster.sim.process(read())
        self.observed = self.cluster.sim.run(stop_event=process)

    def registry(self):
        return collect_all(
            self.cluster.obs.registry, cluster=self.cluster,
            deployment=self.deployment,
            clients=[driver.client for driver in self.drivers] + [self.verifier],
            drivers=self.drivers, comms=self.comms, complete_clients=True)


def _throughput(total_bytes: int, spans: Sequence[Tuple[float, float]]) -> float:
    elapsed = max(end for _, end in spans) - min(start for start, _ in spans)
    return total_bytes / elapsed / MIB if elapsed > 0 else 0.0


# ----------------------------------------------------------------------
# atomic_overlap and tile_atomicity: run_atomic_write_job points
# ----------------------------------------------------------------------
class AtomicWritePoint(Point):
    """One atomic ``write_at_all`` job through ``run_atomic_write_job``.

    ``regions(rank)`` gives the byte regions each rank writes; the payload
    of each rank is seeded and split over its regions.
    """

    def __init__(self, workload: str, backend: str, clients: int, seed: int,
                 regions: Callable[[int], Sequence], file_size: int,
                 headline: bool = False) -> None:
        super().__init__(workload, backend, clients, seed, headline)
        self.regions = regions
        self.file_size = file_size

    def setup(self, config: ClusterConfig) -> None:
        self.environment = build_environment(self.backend, num_storage_nodes=8,
                                             config=config, seed=self.seed)
        self.cluster = self.environment.cluster
        if self.backend == "versioning":
            self.deployment = self.environment.deployment
            make_driver = self.environment.driver_factory

            def capture(ctx):
                driver = make_driver(ctx)
                self.drivers.append(driver)
                return driver
            self.environment.driver_factory = capture
        payload = seeded_payload(self.workload, self.seed, self.clients)
        self.writers = []
        for rank in range(self.clients):
            regions = list(self.regions(rank))
            data = payload(rank, sum(region.size for region in regions))
            pairs, cursor = [], 0
            for region in regions:
                pairs.append((region.offset, data[cursor:cursor + region.size]))
                cursor += region.size
            self.writers.append(pairs)

    def run(self) -> None:
        result = run_atomic_write_job(self.environment, self.clients,
                                      lambda rank: self.writers[rank],
                                      file_size=self.file_size, atomic=True)
        self.result = result
        self.write_latencies = list(result.per_rank_elapsed)
        self.write_mib_s = result.throughput_mib
        self.lock_wait_s = result.lock_wait_time

    def read_back(self) -> None:
        """The job itself reads nothing, so this read-back is what the
        point's ``sim_read_*`` values measure."""
        started = self.cluster.sim.now
        self.observed = read_back_file(self.environment, self.result.path,
                                       self.file_size)
        elapsed = self.cluster.sim.now - started
        self.read_latencies = [elapsed]
        self.read_mib_s = self.file_size / elapsed / MIB if elapsed > 0 else 0.0


BACKENDS = ("versioning", "posix-locking")


def atomic_overlap(seed: int) -> List[Point]:
    """Paper EXP1: 8..64 clients x 8 regions x 64 KiB, 50% neighbour overlap."""
    points: List[Point] = []
    for clients in (8, 16, 32, 64):
        shape = OverlapStressWorkload(num_clients=clients, regions_per_client=8,
                                      region_size=64 * 1024, overlap_fraction=0.5)
        for backend in BACKENDS:
            points.append(AtomicWritePoint(
                "atomic_overlap", backend, clients, seed,
                regions=shape.client_regions, file_size=shape.file_size,
                headline=clients == 64))
    return points


def tile_atomicity(seed: int) -> List[Point]:
    """Paper EXP2: 1..8 tiles of 64x64 x 32 B elements, 8-element overlap."""
    base = TileIOWorkload(sz_tile_x=64, sz_tile_y=64, sz_element=32,
                          overlap_x=8, overlap_y=8)
    points: List[Point] = []
    for tiles in (1, 2, 4, 8):
        shape = base.scaled_to(tiles)
        for backend in BACKENDS:
            points.append(AtomicWritePoint(
                "tile_atomicity", backend, shape.num_processes, seed,
                regions=shape.rank_regions, file_size=shape.file_size,
                headline=tiles == 8))
    return points


def collective_checkpoint(seed: int) -> List[Point]:
    """The simcore headline: one 64-rank collective write/read point."""
    return [CollectiveCheckpointPoint(seed)]


WORKLOADS: Dict[str, Callable[[int], List[Point]]] = {
    "collective_checkpoint": collective_checkpoint,
    "atomic_overlap": atomic_overlap,
    "tile_atomicity": tile_atomicity,
}

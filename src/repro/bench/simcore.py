"""Simulator-core benchmark: host cost and end-to-end speedup.

Two kinds of measurement feed ``BENCH_simcore.json``:

* **collective I/O points** — the fine-grained interleaved collective
  checkpoint (every rank writes ``blocks_per_rank`` blocks of
  ``block_size`` bytes at stride ``num_ranks * block_size``, then reads its
  slice back ``read_rounds`` times through ``read_at_all``), the workload on
  which the seed tree spent almost all of its host time.  Each point records
  wall-clock seconds, processed simulator events, events/sec and a SHA-256
  digest of the final file contents (the cross-``network_model``
  byte-identity witness).
* **scale points** — larger rank counts under the queued network model,
  including the 4096-rank smoke point the acceptance criteria ask for.

The headline speedup compares the current tree against the growth seed
(commit ``0473493``).  The suite carries a *pinned* seed measurement with
provenance; set ``REPRO_BENCH_SEED_SRC`` to a checkout of the seed's
``src`` directory to re-measure it live on the current host instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import operation_report
from repro.obs.digest import digest_columns
from repro.obs.export import dump_chrome_trace
from repro.obs.views import collect_all
from repro.vstore.client import VectoredClient

PATH = "/simcore"

#: Pinned measurement of the growth seed (commit 0473493) on the headline
#: workload, taken with a git worktree of that commit on the same host,
#: python and methodology (min of interleaved runs) as the current-tree
#: number it was compared against (1.76 s, i.e. ~15x).  ``processed_events``
#: differs from the current tree because the seed's bottleneck network and
#: dense exchanges schedule a different (smaller) event population — the
#: workload results are byte-identical.
SEED_REFERENCE: Dict[str, object] = {
    "commit": "0473493",
    "workload": ("collective_io num_ranks=64 blocks_per_rank=256 "
                 "block_size=1024 read_rounds=3 num_aggregators=16"),
    "wall_clock_s": 27.94,
    "processed_events": 10456,
    "method": ("min of 2 interleaved runs, git worktree of the seed commit, "
               "same host/python as the current-tree measurement"),
}

#: Workload shape the pinned reference was measured on.  ``speedup_vs_seed``
#: is only reported when the suite's headline point matches this shape.
_REFERENCE_SHAPE = (64, 256, 1024, 3, 16)


@dataclass
class SimcoreSettings:
    """Workload and deployment knobs of the simulator-core benchmark."""

    num_ranks: int = 64
    blocks_per_rank: int = 256
    block_size: int = 1024
    read_rounds: int = 3
    num_aggregators: int = 16
    num_providers: int = 8
    num_metadata_providers: int = 2
    chunk_size: int = 16 * 1024
    seed: int = 0
    #: larger points run under ``network_model="queued"``:
    #: (num_ranks, blocks_per_rank, block_size, read_rounds)
    scale_points: Tuple[Tuple[int, int, int, int], ...] = ((512, 16, 4096, 1),)
    #: the completion smoke point (write-only at the largest rank count)
    smoke_point: Optional[Tuple[int, int, int, int]] = (4096, 1, 4096, 0)

    def scaled_down(self) -> "SimcoreSettings":
        """Smoke-mode variant for CI: same shapes, a fraction of the work."""
        return replace(
            self,
            num_ranks=16,
            blocks_per_rank=16,
            read_rounds=1,
            num_aggregators=4,
            num_providers=4,
            scale_points=((64, 4, 2048, 1),),
            smoke_point=(128, 1, 2048, 0),
        )


# ----------------------------------------------------------------------
# collective I/O point
# ----------------------------------------------------------------------
def run_collective_io_point(num_ranks: int, blocks_per_rank: int,
                            block_size: int, read_rounds: int,
                            num_aggregators: int, config: ClusterConfig,
                            num_providers: int = 8,
                            num_metadata_providers: int = 2,
                            chunk_size: int = 16 * 1024,
                            seed: int = 0,
                            trace_path: Optional[str] = None,
                            flight_path: Optional[str] = None,
                            critpath_path: Optional[str] = None,
                            ) -> Dict[str, object]:
    """Run one interleaved collective write/read point; return its row.

    Every rank owns ``blocks_per_rank`` blocks of ``block_size`` bytes at
    stride ``num_ranks * block_size`` (fully interleaved), writes them with
    one ``write_at_all``, syncs, then performs ``read_rounds`` collective
    reads of its slice — each asserted against the written payload.  The
    row's ``read_digest`` hashes the final file contents read back by an
    independent client, so two runs moved the same bytes iff their digests
    match (regardless of ``network_model``).

    The row's ``metrics`` embeds the unified registry snapshot (collected
    *after* the run — pull-based, so it never perturbs the measurement)
    with every partition identity re-asserted.  ``trace_path`` dumps the
    run's Chrome trace and ``critpath_path`` its per-operation
    critical-path layer breakdown when ``config.tracing`` is on;
    ``flight_path`` dumps the flight-recorder ring (available whenever
    the recorder is enabled, tracing or not).
    """
    stride = num_ranks * block_size
    file_size = blocks_per_rank * stride
    cluster = Cluster(config=config, seed=seed)
    deployment = BlobSeerDeployment(
        cluster, num_providers=num_providers,
        num_metadata_providers=num_metadata_providers,
        chunk_size=chunk_size, node_prefix="sc")
    drivers: List[VersioningDriver] = []
    comms: List[object] = []

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"sc{ctx.rank}",
            write_coalescing=True, collective_buffering=True,
            collective_aggregators=num_aggregators)
        drivers.append(driver)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        displacements = [index * stride + ctx.rank * block_size
                         for index in range(blocks_per_rank)]
        handle.set_view(0, BYTE, Indexed([block_size] * blocks_per_rank,
                                         displacements, base=BYTE))
        payload = bytes([(ctx.rank + 1) % 251]) * (blocks_per_rank * block_size)
        yield from handle.write_at_all(0, payload)
        yield from handle.sync()
        for _ in range(read_rounds):
            data = yield from handle.read_at_all(0, blocks_per_rank * block_size)
            if data != payload:
                raise AssertionError(
                    f"rank {ctx.rank}: collective read returned wrong bytes")
        yield from handle.close()

    wall_started = time.perf_counter()
    run_mpi_job(cluster, num_ranks, rank_main, node_prefix="sc-rank")
    wall = time.perf_counter() - wall_started

    verifier = VectoredClient(deployment, cluster.add_node("sc-verify"),
                              name="sc-verify")

    def read_back():
        pieces = yield from verifier.vread(PATH, [(0, file_size)])
        return pieces[0]

    process = cluster.sim.process(read_back())
    content = cluster.sim.run(stop_event=process)

    # pull the scattered stats surfaces into the unified registry and
    # re-assert the partition identities on this run's values.  The
    # verifier client is included, so the collected client set is complete.
    registry = collect_all(
        cluster.obs.registry, cluster=cluster, deployment=deployment,
        clients=[driver.client for driver in drivers] + [verifier],
        drivers=drivers, comms=comms, complete_clients=True)
    registry.assert_identities()

    if trace_path and cluster.obs.tracing:
        dump_chrome_trace(cluster.obs.tracer, trace_path,
                          telemetry=cluster.obs.link_telemetry)
    if flight_path and cluster.obs.flight is not None:
        cluster.obs.flight.dump(flight_path)

    events = cluster.sim.processed_events
    row: Dict[str, object] = {
        "kind": "collective_io",
        "num_ranks": num_ranks,
        "blocks_per_rank": blocks_per_rank,
        "block_size": block_size,
        "read_rounds": read_rounds,
        "num_aggregators": num_aggregators,
        "network_model": config.network_model,
        "wall_clock_s": round(wall, 3),
        "sim_elapsed_s": round(cluster.sim.now, 6),
        "processed_events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "read_digest": hashlib.sha256(content).hexdigest(),
        "tracing": config.tracing,
        "metrics": registry.snapshot(),
    }
    if config.latency_digests:
        # promoted percentile columns (the full digest catalog is in
        # ``metrics``): RPC round-trip latency of the whole run
        row.update(digest_columns(registry))
    if cluster.obs.tracing:
        report = operation_report(cluster.obs.tracer)
        row["critpath"] = report
        if critpath_path:
            with open(critpath_path, "w") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return row


# ----------------------------------------------------------------------
# seed reference (pinned or live)
# ----------------------------------------------------------------------
_SEED_SCRIPT = r"""
import json, sys, time
from repro.cluster.cluster import Cluster
from repro.blobseer.deployment import BlobSeerDeployment
from repro.mpiio.file import File
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpi.launcher import run_mpi_job
from repro.mpi.datatypes import BYTE, Indexed

ranks, blocks, bsize, rounds, agg = (int(arg) for arg in sys.argv[1:6])
stride = ranks * bsize
file_size = blocks * stride
cluster = Cluster(seed=0)
deployment = BlobSeerDeployment(cluster, num_providers=8,
                                num_metadata_providers=2, chunk_size=16 * 1024,
                                node_prefix="sc")

def rank_main(ctx):
    driver = VersioningDriver(deployment, ctx.node, rank_name=f"sc{ctx.rank}",
                              write_coalescing=True, collective_buffering=True,
                              collective_aggregators=agg)
    handle = yield from File.open(driver, "/simcore", rank=ctx.rank,
                                  comm=ctx.comm, size_hint=file_size)
    displacements = [index * stride + ctx.rank * bsize for index in range(blocks)]
    handle.set_view(0, BYTE, Indexed([bsize] * blocks, displacements, base=BYTE))
    payload = bytes([(ctx.rank + 1) % 251]) * (blocks * bsize)
    yield from handle.write_at_all(0, payload)
    yield from handle.sync()
    for _ in range(rounds):
        data = yield from handle.read_at_all(0, blocks * bsize)
        assert data == payload
    yield from handle.close()

started = time.perf_counter()
run_mpi_job(cluster, ranks, rank_main, node_prefix="sc-rank")
print(json.dumps({"wall_clock_s": round(time.perf_counter() - started, 3),
                  "processed_events": cluster.sim.processed_events}))
"""


def measure_seed_reference(settings: SimcoreSettings) -> Optional[Dict[str, object]]:
    """Re-measure the seed on this host, if ``REPRO_BENCH_SEED_SRC`` is set.

    The variable must point at the ``src`` directory of a checkout of the
    seed commit (e.g. a git worktree).  Returns the live measurement row, or
    ``None`` when the variable is unset (callers fall back to the pinned
    :data:`SEED_REFERENCE`).
    """
    seed_src = os.environ.get("REPRO_BENCH_SEED_SRC")
    if not seed_src:
        return None
    env = dict(os.environ, PYTHONPATH=seed_src)
    result = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT,
         str(settings.num_ranks), str(settings.blocks_per_rank),
         str(settings.block_size), str(settings.read_rounds),
         str(settings.num_aggregators)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------
def run_simcore_suite(settings: SimcoreSettings) -> Dict[str, object]:
    """Run every simulator-core point; return rows plus derived metrics."""
    rows: List[Dict[str, object]] = []
    point_kwargs = dict(
        blocks_per_rank=settings.blocks_per_rank,
        block_size=settings.block_size,
        read_rounds=settings.read_rounds,
        num_aggregators=settings.num_aggregators,
        num_providers=settings.num_providers,
        num_metadata_providers=settings.num_metadata_providers,
        chunk_size=settings.chunk_size,
        seed=settings.seed,
    )

    # latency digests ride in *both* the headline and its traced twin so
    # the tracing invariant keeps comparing identical metric sets
    headline = run_collective_io_point(
        settings.num_ranks, config=ClusterConfig(latency_digests=True),
        **point_kwargs)
    headline["label"] = "headline"
    rows.append(headline)

    traced = run_collective_io_point(
        settings.num_ranks,
        config=ClusterConfig(tracing=True, latency_digests=True),
        **point_kwargs)
    traced["label"] = "headline-traced"
    rows.append(traced)

    queued = run_collective_io_point(
        settings.num_ranks,
        config=ClusterConfig(network_model="queued", latency_digests=True),
        **point_kwargs)
    queued["label"] = "headline-queued"
    rows.append(queued)

    scale_shapes = list(settings.scale_points)
    if settings.smoke_point is not None:
        scale_shapes.append(settings.smoke_point)
    for ranks, blocks, bsize, rounds in scale_shapes:
        point = run_collective_io_point(
            ranks, blocks, bsize, rounds,
            num_aggregators=max(1, ranks // 4),
            config=ClusterConfig(network_model="queued",
                                 latency_digests=True),
            num_providers=settings.num_providers,
            num_metadata_providers=settings.num_metadata_providers,
            chunk_size=settings.chunk_size, seed=settings.seed)
        point["label"] = f"scale-{ranks}"
        rows.append(point)

    shape = (settings.num_ranks, settings.blocks_per_rank,
             settings.block_size, settings.read_rounds,
             settings.num_aggregators)
    live = measure_seed_reference(settings)
    seed_wall = float((live or SEED_REFERENCE)["wall_clock_s"])
    comparable = shape == _REFERENCE_SHAPE or live is not None
    speedup = (round(seed_wall / headline["wall_clock_s"], 2)
               if comparable and headline["wall_clock_s"] > 0 else None)

    overhead = (round((traced["wall_clock_s"] - headline["wall_clock_s"])
                      / headline["wall_clock_s"] * 100, 1)
                if headline["wall_clock_s"] > 0 else None)
    return {
        "rows": rows,
        "seed_reference": {
            **SEED_REFERENCE,
            "source": "live" if live else "pinned",
            "wall_clock_s_used": seed_wall,
        },
        "speedup_vs_seed": speedup,
        "digests_identical_across_network_models":
            headline["read_digest"] == queued["read_digest"],
        # tracing must not perturb the simulation: the traced headline
        # replays the identical timeline, event count, bytes and metrics
        "tracing_overhead_pct": overhead,
        "tracing_invariant": (
            traced["read_digest"] == headline["read_digest"]
            and traced["sim_elapsed_s"] == headline["sim_elapsed_s"]
            and traced["processed_events"] == headline["processed_events"]
            and traced["metrics"] == headline["metrics"]),
    }

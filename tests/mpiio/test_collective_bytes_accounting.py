"""Exact ``Communicator.bytes_moved`` accounting of a collective read.

The collective-read scatter ships never-written ranges as compact
``(offset, length)`` hole descriptors — :data:`EXTENT_DESCRIPTION_BYTES`
(16) bytes each — instead of their literal zero payload.  This suite pins
that pricing end to end: every collective charge of a sparse collective
read is recomputed from the raw exchanged items with a reference formula
and must equal, byte for byte, what the communicator charged into
``bytes_moved``.  A regression to literal-zero shipping (or any drift in
the descriptor constant) breaks the equality immediately.
"""

import pytest

from repro.mpi.launcher import run_mpi_job
from repro.mpi.simcomm import Communicator
from repro.mpiio.adio.collective import EXTENT_DESCRIPTION_BYTES
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File

from tests.mpiio._collective_testlib import make_quick_deployment

NUM_RANKS = 4
CHUNK = 1024
#: bytes each rank actually writes at the head of its block
WRITE = CHUNK
#: bytes each rank reads back — everything past WRITE is a hole
BLOCK = 4 * CHUNK
FILE_SIZE = NUM_RANKS * BLOCK


@pytest.fixture
def charge_log(monkeypatch):
    """Record ``(op, charged_bytes, contributions)`` per completed
    collective, with the charge resolved exactly as ``_enter`` does."""
    log = []
    real_enter = Communicator._enter

    def recording_enter(self, op, rank, contribution, payload_bytes,
                        finalize):
        def logging_finalize(contributions):
            resolved = payload_bytes(contributions) \
                if callable(payload_bytes) else payload_bytes
            log.append((op, resolved, dict(contributions)))
            return finalize(contributions)

        result = yield from real_enter(self, op, rank, contribution,
                                       payload_bytes, logging_finalize)
        return result

    monkeypatch.setattr(Communicator, "_enter", recording_enter)
    return log


def _item_wire_bytes(item, node_size):
    """Reference price of one scatter item: payload pieces with a
    16-byte header each, 16 bytes per hole descriptor, ``node_size``
    per piggybacked plan node (recomputed from the item's contents, not
    taken from the size its resolver shipped with it)."""
    pieces, piece_holes, plan, _nbytes = item
    return (sum(len(data) + EXTENT_DESCRIPTION_BYTES
                for _offset, data in pieces)
            + len(piece_holes) * EXTENT_DESCRIPTION_BYTES
            + len(plan) * node_size)


def _reference_bottleneck(contributions, node_size,
                          pricer=_item_wire_bytes):
    """The sparse alltoallv cost model, reimplemented independently."""
    load = [0] * NUM_RANKS
    for src in range(NUM_RANKS):
        for dst, item in contributions[src].items():
            if dst == src:
                continue
            nbytes = pricer(item, node_size)
            load[src] += nbytes
            load[dst] += nbytes
    return max(load)


def _item_literal_bytes(item, node_size):
    """Counterfactual price with holes shipped as literal zeros."""
    pieces, piece_holes, plan, _nbytes = item
    return (sum(len(data) + EXTENT_DESCRIPTION_BYTES
                for _offset, data in pieces)
            + sum(length for _offset, length in piece_holes)
            + len(plan) * node_size)


def test_collective_read_bytes_moved_exact(charge_log):
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    node_size = cluster.config.metadata_node_size
    marks = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"acct{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=1)
        handle = yield from File.open(driver, "/acct", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        payload = bytes([ctx.rank + 1]) * WRITE
        yield from handle.write_at_all(ctx.rank * BLOCK, payload)
        yield from handle.sync()
        yield from ctx.comm.barrier(ctx.rank)
        # safe point: no collective can complete until every rank enters
        # it, and each rank records before entering the next one
        marks.setdefault("start", (ctx.comm.bytes_moved, len(charge_log)))
        data = yield from handle.read_at_all(ctx.rank * BLOCK, BLOCK)
        assert data[:WRITE] == payload
        assert data[WRITE:] == b"\x00" * (BLOCK - WRITE)
        yield from ctx.comm.barrier(ctx.rank)
        marks.setdefault("end", (ctx.comm.bytes_moved, len(charge_log)))
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="acct-rank")

    start_bytes, start_idx = marks["start"]
    end_bytes, end_idx = marks["end"]
    window = charge_log[start_idx:end_idx]
    charged = [entry for entry in window if entry[0] != "barrier"]

    # the read is exactly describe → scatter → closing (version pinning
    # rides the describe allgather; the hint elides the latest RPC)
    assert [op for op, _, _ in charged] == \
        ["allgather", "alltoallv", "allgather"]
    (_, describe_bytes, describe_contribs) = charged[0]
    (_, scatter_bytes, scatter_contribs) = charged[1]
    (_, closing_bytes, _) = charged[2]

    # phase 1: one 16-byte extent description + 8-byte watermark per rank
    assert all(entry[0] == "ok" and len(entry[1]) == 1
               for entry in describe_contribs.values())
    assert describe_bytes == NUM_RANKS * (EXTENT_DESCRIPTION_BYTES + 8)

    # phase 3: the charge must equal the descriptor-priced bottleneck
    assert scatter_bytes == _reference_bottleneck(scatter_contribs,
                                                  node_size)

    # the scenario genuinely exercised hole elision: each rank's block is
    # three-quarters never-written, and shipping those zeros literally
    # would have cost strictly more than the descriptor pricing did
    hole_bytes = sum(length
                     for send_map in scatter_contribs.values()
                     for _pieces, holes, _plan, _nbytes in send_map.values()
                     for _offset, length in holes)
    assert hole_bytes >= (NUM_RANKS - 1) * (BLOCK - WRITE)
    assert scatter_bytes < _reference_bottleneck(
        scatter_contribs, node_size, pricer=_item_literal_bytes)

    # phase 4: the closing allgather uses the default 64-byte estimate
    assert closing_bytes == 64 * NUM_RANKS

    # and nothing else was charged into bytes_moved inside the window
    assert end_bytes - start_bytes == \
        describe_bytes + scatter_bytes + closing_bytes

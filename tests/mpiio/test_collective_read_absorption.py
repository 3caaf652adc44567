"""Collective-read plan absorption: once per collective, same cache effect.

Every rank of a ``read_at_all`` receives the same resolver plans.  The group
merges them once and each rank absorbs the merge in bulk, so the host cost
of warming the ranks' caches must not grow with the rank count — while the
caches end up exactly as warm as before: the same absorbed-entry and
insertion counts, and a non-resolver rank's independent re-read still costs
zero metadata RPCs.  The last test pins the ``File`` handle's read-vector
memo: a new view is never served the old view's vector.
"""

import random

import pytest

from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import aggregator_ranks
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.mpiio.flatten import FileView
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_clients
from repro.vstore.client import VectoredClient
from tests.mpiio._collective_testlib import make_quick_deployment

CHUNK = 1024
FILE_SIZE = 64 * CHUNK
BLOCK = 256
RESOLVERS = 2
PATH = "/absorption"

#: the absorbed-entry and private-cache insertion totals of one collective
#: read of the whole file, as the per-rank absorption loop produced them
#: before absorption was shared (``{ranks: (plan_nodes_absorbed,
#: metadata.cache.insertions)}``)
PINNED_TOTALS = {8: (1040, 1112), 32: (4160, 4448)}


def seed_versions(cluster, deployment):
    """Publish three overlapping versions (older subtrees are shadowed, so
    the plans carry exact-version aliases); returns the final bytes."""
    client = VectoredClient(deployment, cluster.add_node("seeder"),
                            name="seeder")
    rng = random.Random(5)
    content = bytearray(FILE_SIZE)
    writes = [[(0, rng.randbytes(FILE_SIZE))],
              [(5 * CHUNK + 100, rng.randbytes(3 * CHUNK))],
              [(40 * CHUNK, rng.randbytes(CHUNK)),
               (50 * CHUNK + 7, rng.randbytes(900))]]

    def scenario():
        yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        for regions in writes:
            yield from client.vwrite_and_wait(PATH, regions)

    cluster.sim.run(stop_event=cluster.sim.process(scenario()))
    for regions in writes:
        for offset, payload in regions:
            content[offset:offset + len(payload)] = payload
    return bytes(content)


def interleaved_view(rank, num_ranks):
    """Rank ``rank``'s share of the file: every ``num_ranks``-th block."""
    count = FILE_SIZE // (BLOCK * num_ranks)
    displacements = [(index * num_ranks + rank) * BLOCK
                     for index in range(count)]
    return Indexed([BLOCK] * count, displacements, base=BYTE), count * BLOCK


def expected_share(content, rank, num_ranks):
    return b"".join(content[(index * num_ranks + rank) * BLOCK:
                            (index * num_ranks + rank + 1) * BLOCK]
                    for index in range(FILE_SIZE // (BLOCK * num_ranks)))


def run_collective_read(num_ranks, monkeypatch, reread=False):
    """One collective read of the whole file, interleaved over the ranks.

    Returns ``(results, drivers, puts)``; ``puts`` counts
    ``MetadataNodeCache.put`` calls made during the collective read alone.
    With ``reread`` every rank then reads its share again independently
    and reports the metadata RPCs that re-read cost.
    """
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    content = seed_versions(cluster, deployment)
    calls = {"put": 0}
    original_put = MetadataNodeCache.put

    def counting_put(self, *args):
        calls["put"] += 1
        return original_put(self, *args)

    monkeypatch.setattr(MetadataNodeCache, "put", counting_put)
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True,
                                  collective_aggregators=RESOLVERS)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, total = interleaved_view(ctx.rank, num_ranks)
        handle.set_view(0, BYTE, filetype)
        data = yield from handle.read_at_all(0, total)
        reread_rpcs = None
        if reread:
            puts = calls["put"]
            before = driver.client.metadata_read_rpcs
            again = yield from handle.read_at(0, total)
            assert again == data
            reread_rpcs = driver.client.metadata_read_rpcs - before
            calls["put"] = puts
        yield from handle.close()
        return data, reread_rpcs

    result = run_mpi_job(cluster, num_ranks, rank_main)
    for rank, (data, _rpcs) in enumerate(result.results):
        assert data == expected_share(content, rank, num_ranks)
    return result.results, drivers, calls["put"]


def test_cache_puts_per_collective_read_do_not_grow_with_ranks(monkeypatch):
    _results, _drivers, puts_8 = run_collective_read(8, monkeypatch)
    _results, _drivers, puts_32 = run_collective_read(32, monkeypatch)
    # only the resolvers' own tree walks put entry by entry: the same file,
    # the same resolver count, the same stripes
    assert puts_8 > 0
    assert puts_32 <= puts_8


@pytest.mark.parametrize("num_ranks", sorted(PINNED_TOTALS))
def test_absorption_totals_are_unchanged(num_ranks, monkeypatch):
    _results, drivers, _puts = run_collective_read(num_ranks, monkeypatch)
    registry = MetricsRegistry()
    collect_clients(registry, [driver.client for driver in drivers.values()])
    metrics = registry.snapshot()
    assert (metrics["metadata.client.plan_nodes_absorbed"],
            metrics["metadata.cache.insertions"]) == PINNED_TOTALS[num_ranks]


def test_non_resolver_rereads_its_range_at_zero_metadata_rpcs(monkeypatch):
    """Bulk absorption still warms every rank: after the collective, a
    rank that resolved nothing itself re-reads its share independently
    without one metadata RPC."""
    num_ranks = 8
    results, drivers, _puts = run_collective_read(num_ranks, monkeypatch,
                                                  reread=True)
    resolvers = set(aggregator_ranks(num_ranks, RESOLVERS))
    bystanders = [rank for rank in range(num_ranks) if rank not in resolvers]
    assert bystanders
    for rank in bystanders:
        _data, reread_rpcs = results[rank]
        assert reread_rpcs == 0, f"rank {rank} re-read at a cold cache"
        assert drivers[rank].client.plan_nodes_absorbed > 0


def test_set_view_then_read_at_all_returns_the_new_views_bytes():
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    content = seed_versions(cluster, deployment)
    num_ranks = 2

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True,
                                  collective_aggregators=1)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, total = interleaved_view(ctx.rank, num_ranks)
        handle.set_view(0, BYTE, filetype)
        first = yield from handle.read_at_all(0, total)
        # same offset and size, new view: a displaced copy of the filetype
        handle.set_view(CHUNK, BYTE, filetype)
        second = yield from handle.read_at_all(0, total - CHUNK)
        # and a view installed by assignment instead of set_view
        handle.view = FileView(displacement=2 * CHUNK, etype=BYTE,
                               filetype=filetype)
        third = yield from handle.read_at_all(0, total - CHUNK)
        yield from handle.close()
        return first, second, third

    result = run_mpi_job(cluster, num_ranks, rank_main)
    for rank, (first, second, third) in enumerate(result.results):
        share = expected_share(content, rank, num_ranks)
        # displacing the view by CHUNK bytes skips CHUNK // num_ranks bytes
        # of the rank's own blocks
        skip = CHUNK // num_ranks
        assert first == share
        assert second == share[skip:skip + len(share) - CHUNK]
        assert third == share[2 * skip:]

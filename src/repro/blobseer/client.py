"""The BlobSeer client library: write and read protocols.

A client runs inside a simulated process (an MPI rank, in the paper's
setting) on a compute node.  Its methods are *generator methods*: they yield
simulation events while data moves over the network and through disks, and
finally return their result.

Write protocol (one vectored write = one snapshot):

1. split the payload into chunk-aligned pieces;
2. ask the provider manager where to place each piece (one small RPC);
3. upload all pieces to their data providers **in parallel and with no
   coordination with other writers** — this is the heavy, fully parallel part;
4. obtain a version ticket from the version manager (small RPC, overlapped
   with step 3 on the default pipelined path);
5. build the copy-on-write metadata nodes for the new snapshot and store them
   on the metadata providers (batched per shard, shipped in parallel);
6. report completion; the version manager publishes snapshots in ticket
   order.

The commit machinery lives in :mod:`repro.blobseer.writepath`: the
:class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine` executes
steps 2-6 (with or without overlap), and a
:class:`~repro.blobseer.writepath.coalescer.WriteCoalescer` can queue several
vectored writes and commit them as *one* merged snapshot batch — one
``allocate``, one ticket, one metadata build — behind an explicit
flush/barrier.

Read protocol: resolve the requested ranges against the snapshot's segment
tree (shadowed subtrees are followed to older versions), then fetch the
resolved chunk extents from the data providers in parallel.

The stock BlobSeer API exposes only *contiguous* :meth:`BlobClient.write` /
:meth:`BlobClient.read`; the non-contiguous extension of the paper is the
:class:`repro.vstore.client.VectoredClient` subclass, which reuses the
internal vectored machinery defined here.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKeyFactory
from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.blobseer.metadata.coopcache import PEER_MISS
from repro.blobseer.metadata.segment_tree import NodeRequest, ReadPlanner
from repro.blobseer.metadata.sharedcache import FETCH_FAILED
from repro.blobseer.metadata.store import PartitionedMetadataStore
from repro.blobseer.writepath.batch import WriteReceipt
from repro.blobseer.writepath.engine import PipelinedCommitEngine
from repro.core.listio import IOVector
from repro.core.regions import Region, RegionList
from repro.errors import StorageError, VersionNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.node import Node

__all__ = ["BlobClient", "WriteReceipt"]

#: sentinel distinguishing "capacity not given" (fall back to the cluster
#: config) from an explicit ``None`` (force an unbounded cache)
_UNSET_CAPACITY = object()

#: sentinel for boolean options that fall back to the cluster config
_UNSET = object()


class BlobClient:
    """Client-side access to a :class:`~repro.blobseer.deployment.BlobSeerDeployment`.

    The metadata read path is optimized by default: an immutable-node cache
    (:class:`~repro.blobseer.metadata.cache.MetadataNodeCache`) answers
    repeated lookups locally, and the remaining lookups of each tree level
    are shipped as one batched ``get_nodes`` RPC per metadata shard.  Both
    optimizations can be switched off (``enable_metadata_cache=False`` /
    ``metadata_batching=False``) to measure the one-RPC-per-node baseline.

    The write path is symmetric: commits route through a
    :class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine` that
    overlaps the version-ticket RPC with the chunk uploads, ships the
    per-shard ``put_nodes`` RPCs in parallel, and write-through-populates the
    metadata cache with the nodes it just published.  ``write_pipelining=
    False`` restores the serialized pre-subsystem write path and
    ``write_through_cache=False`` disables the cache priming, again for
    baseline measurements.  ``metadata_cache_capacity`` bounds the node
    cache (LRU); when not given it falls back to the cluster-wide
    ``ClusterConfig.metadata_cache_capacity``, and an explicit ``None``
    forces an unbounded cache even against a bounded cluster default.
    """

    #: queued-write coalescer; ``None`` on the stock client (the vectored
    #: subclass attaches one), checked by ``_vectored_write`` so immediate
    #: commits never overtake writes queued earlier in program order
    coalescer = None

    def __init__(self, deployment: "BlobSeerDeployment", node: "Node",
                 name: Optional[str] = None, *,
                 metadata_cache: Optional[MetadataNodeCache] = None,
                 enable_metadata_cache: bool = True,
                 metadata_batching: bool = True,
                 metadata_cache_capacity: object = _UNSET_CAPACITY,
                 shared_metadata_cache: object = _UNSET,
                 metadata_prefetch: object = _UNSET,
                 cooperative_cache: object = _UNSET,
                 write_pipelining: bool = True,
                 write_through_cache: bool = True):
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.node = node
        self.name = name or f"client:{node.name}"
        self._chunk_keys = ChunkKeyFactory(self.name)
        self._descriptors: Dict[str, BlobDescriptor] = {}
        if metadata_cache_capacity is _UNSET_CAPACITY:
            metadata_cache_capacity = self.cluster.config.metadata_cache_capacity
        if metadata_cache is not None:
            self.metadata_cache: Optional[MetadataNodeCache] = metadata_cache
        elif enable_metadata_cache:
            self.metadata_cache = MetadataNodeCache(capacity=metadata_cache_capacity)
        else:
            self.metadata_cache = None
        self.metadata_batching = metadata_batching
        if shared_metadata_cache is _UNSET:
            shared_metadata_cache = self.cluster.config.shared_metadata_cache
        if metadata_prefetch is _UNSET:
            metadata_prefetch = self.cluster.config.metadata_prefetch
        #: the node-local shared cache tier this client attaches to (one
        #: service per compute node, discovered through the deployment;
        #: ``None`` keeps the pre-subsystem private-cache-only behaviour)
        if shared_metadata_cache:
            self.shared_cache = deployment.node_cache(node)
            self.shared_cache.attach(self.name)
        else:
            self.shared_cache = None
        #: speculative child prefetch: a frontier ``get_nodes`` also returns
        #: the children of each resolved inner node (and the base version of
        #: partially-covered leaves) that the shard can answer
        #: authoritatively, shaving whole levels of round-trips.  Prefetch
        #: rides on the *batched* fetch RPC, so it is normalized off when
        #: ``metadata_batching=False`` (the one-RPC-per-node baseline) —
        #: the resolved flag stays introspectable instead of silently inert
        self.metadata_prefetch = bool(metadata_prefetch) and metadata_batching
        if cooperative_cache is _UNSET:
            cooperative_cache = self.cluster.config.cooperative_cache
        #: cross-node cooperative tier: on a shared-tier miss, probe the
        #: responsible peer node's pool over a real RPC before falling back
        #: to the authoritative shards (:mod:`repro.blobseer.metadata.
        #: coopcache`).  Effective only with a shared tier to route through
        #: and batched fetches to fan the probes out on; enabling it
        #: enrolls this compute node in the deployment's coop directory
        self.cooperative_cache = (bool(cooperative_cache)
                                  and self.shared_cache is not None
                                  and metadata_batching)
        self.coop_peer = (deployment.coop_peer(node)
                          if self.cooperative_cache else None)
        #: park simultaneous missers for one key on the leader's sim event
        #: (needs the shared tier's node-local in-flight table); engaged
        #: only with the cooperative tier, so cooperative-off
        #: configurations never park a miss
        self.fetch_coalescing = self.cooperative_cache
        self.write_pipelining = write_pipelining
        self.write_through_cache = write_through_cache
        #: the commit engine every write of this client routes through
        self.writepath = PipelinedCommitEngine(self)
        #: newest snapshot version this client knows to be published, per
        #: BLOB (fed by completion/publication responses; lets barriers and
        #: read-after-write paths skip redundant wait round-trips)
        self.version_hints: Dict[str, int] = {}
        #: one-shot *read* hints: versions a default (``version=None``) read
        #: may use instead of asking the version manager for ``latest``.
        #: Only sources that just synchronized with publication plant one —
        #: the coalescer's barrier after publishing this client's own writes,
        #: and collective commits piggybacking the group watermark — so a
        #: hinted read is read-your-writes-fresh by construction.  Consumed
        #: on use and dropped at every barrier, so it can never mask another
        #: writer's later synced data.
        self._read_hints: Dict[str, int] = {}
        #: client-side counters (aggregated by the benchmark harness)
        self.bytes_written: int = 0
        self.bytes_read: int = 0
        self.writes: int = 0
        self.reads: int = 0
        #: logical vectored writes accepted (equals ``writes`` unless a
        #: coalescer merged several of them into one snapshot)
        self.logical_writes: int = 0
        #: metadata read-path counters (RPC round-trips and nodes used)
        self.metadata_read_rpcs: int = 0
        self.metadata_nodes_fetched: int = 0
        #: ``latest`` round-trips actually issued to the version manager
        self.latest_rpcs: int = 0
        #: metadata nodes absorbed from a collective read's shipped plan
        #: (cache entries that cost MPI exchange bytes instead of RPCs)
        self.plan_nodes_absorbed: int = 0
        #: write-path counters: control-plane round-trips (allocate, ticket,
        #: complete, publication waits), per-shard put_nodes round-trips and
        #: nodes self-inserted into the cache by write-through population
        self.write_control_rpcs: int = 0
        self.metadata_put_rpcs: int = 0
        self.cache_primed_nodes: int = 0
        #: ``latest`` round-trips elided because a read consumed a hint
        self.latest_rpcs_elided: int = 0
        #: shared-tier (node-local) lookups answered after a private miss
        self.shared_cache_hits: int = 0
        #: deduplicated lookups neither cache tier answered (fetched over
        #: RPCs); with the tier hit counters this partitions every
        #: traversal's lookups exactly — the invariant the placement
        #: property suite pins
        self.metadata_lookup_fetches: int = 0
        #: extra nodes received through speculative child prefetch
        self.metadata_prefetched_nodes: int = 0
        #: lookups a cooperative peer node answered (admitted through this
        #: node's own watermark gate); part of the lookup partition
        self.peer_cache_hits: int = 0
        #: peer answers refused by the receiving-side watermark gate (the
        #: lookup then fell back to the authoritative shards)
        self.peer_rejections: int = 0
        #: probed lookups the peer could not answer
        self.peer_probe_misses: int = 0
        #: cooperative probe RPCs issued (one per responsible peer per level)
        self.peer_probe_rpcs: int = 0
        #: upstream fetches avoided by parking on an in-flight co-tenant
        #: fetch for the same key
        self.coalesced_fetches: int = 0
        #: per-rank span context (``None`` unless the cluster traces) — the
        #: single attribute test every instrumented site guards on
        tracer = self.cluster.obs.tracer
        self.trace_ctx = (tracer.context(("rank", self.name),
                                         node=node.name)
                          if tracer.enabled else None)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _rpc(self, service, method, request_bytes, response_bytes, *args,
             trace_parent=None):
        """Every RPC of this client funnels through here.

        When tracing, each call gets a detached span on the *serving
        shard's* lane (so Perfetto shows server-side occupancy), parented
        under ``trace_parent`` or the rank's current mainline span; the
        span id rides into the transport so the request/response link
        transfers attach to it.  Detached because RPCs fan out
        concurrently within a rank — they must never touch the mainline
        stack.
        """
        ctx = self.trace_ctx
        if ctx is None:
            result = yield from self.cluster.rpc.call(
                self.node, service, method, request_bytes, response_bytes,
                *args)
            return result
        span = ctx.begin_detached(
            f"rpc.{method}", cat="rpc", lane=("shard", service.node.name),
            parent=trace_parent if trace_parent is not None else ctx.current,
            service=service.name)
        try:
            result = yield from self.cluster.rpc.call(
                self.node, service, method, request_bytes, response_bytes,
                *args, _trace_parent=span.span_id)
        finally:
            ctx.end(span)
        return result

    def _rpc_batch(self, calls, name="rpc.batch"):
        """Concurrent RPC fan-out through :meth:`RpcTransport.call_batch`.

        When tracing, the whole batch gets one detached span whose id is
        threaded into every member call, so all the batch's request and
        response link transfers attach to the span the caller sees — the
        attribution the ``call_batch`` trace regression test pins.
        """
        ctx = self.trace_ctx
        if ctx is None:
            results = yield from self.cluster.rpc.call_batch(self.node, calls)
            return results
        span = ctx.begin_detached(name, cat="rpc", parent=ctx.current,
                                  calls=len(calls))
        try:
            results = yield from self.cluster.rpc.call_batch(
                self.node, calls, _trace_parent=span.span_id)
        finally:
            ctx.end(span)
        return results

    def _control(self, service, method, *args, trace_parent=None):
        size = self.cluster.config.control_message_size
        result = yield from self._rpc(service, method, size, size, *args,
                                      trace_parent=trace_parent)
        return result

    def _descriptor(self, blob_id: str):
        if blob_id not in self._descriptors:
            descriptor = yield from self._control(
                self.deployment.version_manager, "get_blob", blob_id)
            self._descriptors[blob_id] = descriptor
        return self._descriptors[blob_id]

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def create_blob(self, blob_id: str, size: int,
                    chunk_size: Optional[int] = None, exist_ok: bool = False):
        """Create a BLOB of ``size`` addressable bytes (snapshot 0 = zeros)."""
        descriptor = BlobDescriptor.create(
            blob_id, size, chunk_size or self.deployment.chunk_size)
        created = yield from self._control(
            self.deployment.version_manager, "create_blob", descriptor, exist_ok)
        self._descriptors[blob_id] = created
        return created

    def open_blob(self, blob_id: str):
        """Fetch (and cache) the descriptor of an existing BLOB."""
        descriptor = yield from self._descriptor(blob_id)
        return descriptor

    def latest_version(self, blob_id: str):
        """Newest published snapshot version."""
        self.latest_rpcs += 1
        version = yield from self._control(
            self.deployment.version_manager, "latest", blob_id)
        self.note_published(blob_id, version)
        return version

    def wait_published(self, blob_id: str, version: int):
        """Block until ``version`` is readable; returns the latest version."""
        self.write_control_rpcs += 1
        latest = yield from self._control(
            self.deployment.version_manager, "wait_published", blob_id, version)
        self.note_published(blob_id, latest)
        return latest

    def note_published(self, blob_id: str, version: int) -> None:
        """Record that ``version`` is known to be published (hint table).

        The observation is forwarded to the node-local shared cache: its
        admission gate opens for a version only once *some* co-located
        client saw it published.
        """
        if version > self.version_hints.get(blob_id, 0):
            self.version_hints[blob_id] = version
        if self.shared_cache is not None:
            self.shared_cache.note_published(blob_id, version)

    def detach(self) -> None:
        """Detach from the node-local shared cache (process teardown).

        Published entries this client contributed stay resident for the
        node's other tenants — that is safe precisely because the shared
        tier never admitted anything from an unpublished version.
        """
        if self.shared_cache is not None:
            self.shared_cache.detach(self.name)
            self.shared_cache = None

    def note_collective_commit(self, blob_id: str, version: int) -> None:
        """Absorb a collective write's published watermark.

        The aggregators of a collective write share the group's highest
        published version with every participating rank at no RPC cost (it
        rides on the closing exchange), so each rank's next default read can
        consume it instead of issuing a ``latest`` round-trip — and still
        observe everything the collective wrote.
        """
        self.note_published(blob_id, version)
        self.offer_read_hint(blob_id)

    def note_collective_read(self, blob_id: str, version: int) -> None:
        """Absorb a collective read's pinned snapshot version.

        Same contract as :meth:`note_collective_commit`: the group just
        synchronized on a published version (the pin every rank read from),
        so each rank may start its next default read there without asking
        the version manager — the one-shot hint the collective consumed in
        its opening phase is refreshed here, never silently lost.
        """
        self.note_collective_commit(blob_id, version)

    def absorb_plan_nodes(self, blob_id: str, entries) -> int:
        """Insert metadata nodes shipped by a collective read's resolver.

        ``entries`` are ``((offset, size, hint), node-or-None)`` pairs from a
        resolver's :class:`~repro.blobseer.metadata.segment_tree.ReadPlanner`
        trace — resolved lookups of a *published* snapshot, so they are
        permanently valid and inserting them is as safe as fetching them
        ourselves would have been.  Costs zero RPCs; returns how many entries
        were absorbed.
        """
        if self.metadata_cache is None and self.shared_cache is None:
            return 0
        for (offset, size, hint), node in entries:
            if self.metadata_cache is not None:
                self.metadata_cache.put(blob_id, offset, size, hint, node)
            if self.shared_cache is not None:
                # one collective warms the whole node: the plan resolves a
                # *published* pinned snapshot, so the watermark gate (fed by
                # the collective's own note_collective_read) admits it
                self.shared_cache.publish(blob_id, offset, size, hint, node)
        self.plan_nodes_absorbed += len(entries)
        return len(entries)

    def offer_read_hint(self, blob_id: str) -> None:
        """Let the next ``version=None`` read start from the known watermark.

        Only callers that *just* synchronized with publication may offer a
        hint (see ``_read_hints``); anything older must go through the
        version manager so other writers' synced data is never missed.
        """
        version = self.version_hints.get(blob_id, 0)
        if version > 0:
            self._read_hints[blob_id] = version

    def drop_read_hint(self, blob_id: str) -> None:
        """Invalidate a pending read hint (visibility fences must call this)."""
        self._read_hints.pop(blob_id, None)

    def has_unpublished_state(self, blob_id: str) -> bool:
        """Whether a read of ``blob_id`` could miss this client's own writes.

        True when the client holds write state publication has not caught up
        with: queued (uncommitted) writes, unjoined deferred completions, or
        a committed batch whose publication still lags the known watermark
        (an earlier ticket held by another writer delays it — the inline
        ``complete`` then returns a watermark below our own version).
        Read-your-writes paths — the driver's independent read fence and a
        collective read's phase 0 — must fence through the coalescer's
        barrier exactly when this is true.
        """
        if self.writepath.outstanding(blob_id):
            return True
        if self.coalescer is None:
            return False
        return bool(self.coalescer.pending_writes(blob_id)
                    or self.coalescer.last_committed_version(blob_id)
                    > self.version_hints.get(blob_id, 0))

    def hinted_blobs(self) -> List[str]:
        """BLOBs currently holding a pending one-shot read hint.

        Global fences iterate this in addition to their own commit targets:
        a hint may exist for a BLOB the fence's owner never committed to
        (e.g. planted by a collective commit on a non-aggregator rank).
        """
        return list(self._read_hints)

    def take_read_hint(self, blob_id: str) -> Optional[int]:
        """Consume the pending read hint, if any (one-shot).

        Resolved against the *current* publication watermark: the client may
        have observed a newer published version since the hint was planted
        (a deferred completion response, an explicit ``latest``/
        ``wait_published`` round-trip), and a default read must never return
        data older than a watermark this client already saw — monotonic
        reads within one client.  Every watermark source is a published
        version, so the resolved value is always safely readable.
        """
        hint = self._read_hints.pop(blob_id, None)
        if hint is None:
            return None
        return max(hint, self.version_hints.get(blob_id, 0))

    # ------------------------------------------------------------------
    # the classic (contiguous) BlobSeer interface
    # ------------------------------------------------------------------
    def write(self, blob_id: str, offset: int, data: bytes):
        """Contiguous write; returns a :class:`WriteReceipt` with the new version."""
        receipt = yield from self._vectored_write(
            blob_id, IOVector.contiguous_write(offset, data))
        return receipt

    def read(self, blob_id: str, offset: int, size: int,
             version: Optional[int] = None):
        """Contiguous read of a published snapshot (default: latest)."""
        pieces = yield from self._vectored_read(
            blob_id, IOVector.contiguous_read(offset, size), version)
        return pieces[0]

    # ------------------------------------------------------------------
    # vectored machinery (exposed publicly by repro.vstore.VectoredClient)
    # ------------------------------------------------------------------
    def _vectored_write(self, blob_id: str, vector: IOVector):
        """Write a whole vector as one snapshot (the paper's atomic unit).

        The commit protocol — placement, uncoordinated parallel uploads,
        version ticket, copy-on-write metadata, in-order publication — lives
        in :class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine`;
        this entry point always commits immediately and blocks on the
        ``complete`` RPC (queued/deferred commits go through a
        :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer`).

        Writes already queued for this BLOB are flushed first: they were
        issued earlier in program order, so they must take their ticket
        before this one does.
        """
        if self.coalescer is not None and self.coalescer.pending_writes(blob_id):
            yield from self.coalescer.flush(blob_id)
        receipt = yield from self.writepath.commit(blob_id, vector)
        return receipt

    def _vectored_read(self, blob_id: str, vector: IOVector,
                       version: Optional[int] = None, *,
                       trace: Optional[Dict] = None,
                       holes: Optional[List[Region]] = None):
        """Read the vector's ranges from one published snapshot.

        ``trace`` (optional) collects the metadata lookups the read resolved
        — the hook collective-read resolvers use to ship their traversal to
        peer ranks for cache warming.  ``holes`` (optional) collects the
        never-written ranges the plan zero-filled, so a collective resolver
        can ship them as compact descriptors instead of literal zero bytes.
        """
        blob = yield from self._descriptor(blob_id)
        if version is None:
            # a hint planted by this client's own barrier or a collective
            # commit names a published snapshot at least as new as anything
            # this client synchronized on — consuming it elides the
            # ``latest`` round-trip without weakening read-your-writes
            hint = self.take_read_hint(blob_id)
            if hint is not None:
                version = hint
                self.latest_rpcs_elided += 1
            else:
                version = yield from self.latest_version(blob_id)
        elif not self.deployment.version_manager.manager.is_published(blob_id, version):
            raise VersionNotFound(
                f"snapshot {version} of {blob_id!r} is not published")
        else:
            # the version was just validated as published: record the
            # observation so the shared tier's admission gate opens for the
            # nodes this traversal is about to resolve
            self.note_published(blob_id, version)

        regions = vector.region_list()
        plan = yield from self._resolve_metadata(blob, version, regions,
                                                 trace=trace)

        # parallel chunk-range fetches — one batched RPC per data provider
        fetched: List[Tuple[int, int, bytes]] = []
        per_provider: Dict[str, list] = {}
        for extent in plan.extents:
            if extent.is_zero:
                if holes is not None:
                    holes.append(Region(extent.offset, extent.length))
                fetched.append((extent.offset, extent.length, b"\x00" * extent.length))
            else:
                per_provider.setdefault(extent.provider_id, []).append(extent)

        def fetch_from(provider_id, extents):
            service = self.deployment.data_provider(provider_id)
            requests = [(extent.chunk, extent.chunk_offset, extent.length)
                        for extent in extents]
            total = sum(extent.length for extent in extents)
            pieces = yield from self._rpc(
                service, "get_chunk_ranges",
                self.cluster.config.control_message_size, total, requests)
            for extent, data in zip(extents, pieces):
                fetched.append((extent.offset, extent.length, data))

        if per_provider:
            yield self.cluster.sim.fanout(
                [fetch_from(provider_id, extents)
                 for provider_id, extents in sorted(per_provider.items())])

        results = self._assemble(vector, fetched)
        total = vector.total_bytes()
        self.bytes_read += total
        self.reads += 1
        return results

    # ------------------------------------------------------------------
    def _resolve_metadata(self, blob: BlobDescriptor, version: int, regions,
                          trace: Optional[Dict] = None):
        """Resolve a read's segment-tree traversal against the metadata shards.

        The traversal advances one tree level at a time.  On the optimized
        path every level's cache misses are grouped by metadata shard and
        fetched with one batched ``get_nodes`` RPC per shard, issued in
        parallel — O(levels × shards) round-trips.  With
        ``metadata_batching=False`` each node costs its own ``get_node`` RPC
        (the pre-optimization baseline the perf suite measures against).
        Cache hits skip the wire entirely.

        With ``fetch_coalescing`` each level's misses first fold into the
        node-local in-flight table (simultaneous missers share one fetch),
        and with ``cooperative_cache`` the fetches this client leads probe
        the responsible peer node's cache before falling back to the
        authoritative shards.
        """
        planner = ReadPlanner(blob, version, regions,
                              cache=self.metadata_cache,
                              shared=self.shared_cache, trace=trace)
        while not planner.done:
            requests = planner.pending()
            results: Dict[NodeRequest, object] = {}
            peer_answered: set = set()
            led: List[NodeRequest] = []
            parked: List[Tuple[NodeRequest, object]] = []
            if requests and self.fetch_coalescing:
                # split this level's misses into fetches this client will
                # lead and fetches already in flight on this node for the
                # same key — parked lookups share the leader's result and
                # never touch the wire
                for request in requests:
                    leader, _owner, event = self.shared_cache.coalesce(
                        self.cluster.sim, blob.blob_id, *request)
                    if leader:
                        led.append(request)
                    else:
                        self.coalesced_fetches += 1
                        self.shared_cache.stats.coalesced_fetches += 1
                        parked.append((request, event))
                fetchable = led
            else:
                fetchable = list(requests)
            try:
                if fetchable and self.cooperative_cache:
                    yield from self._probe_peers(blob, fetchable, results,
                                                 peer_answered)
                remaining = [request for request in fetchable
                             if request not in results]
                yield from self._fetch_authoritative(blob, planner, remaining,
                                                     results)
            except BaseException:
                # never leave this node's parked waiters hanging on a fetch
                # that died with this client
                for request in led:
                    self.shared_cache.coalesce_abort(blob.blob_id, *request)
                raise
            # resolve this client's leads before waiting on parked events:
            # the reverse order could park forever behind our own unresolved
            # leads
            for request in led:
                self.shared_cache.coalesce_resolve(blob.blob_id, *request,
                                                   results[request])
            for request, event in parked:
                ctx = self.trace_ctx
                park_span = None if ctx is None else ctx.begin(
                    "meta.park", cat="wait", blob=blob.blob_id,
                    key=list(request))
                try:
                    value = yield event
                finally:
                    if park_span is not None:
                        ctx.finish(park_span)
                if value is FETCH_FAILED:
                    raise StorageError(
                        f"coalesced metadata fetch {request} for blob "
                        f"{blob.blob_id!r} failed at its leader")
                results[request] = value
            planner.advance(results, peer_answered)
        plan = planner.plan()
        self.metadata_read_rpcs += plan.metadata_rpcs
        self.metadata_nodes_fetched += plan.nodes_fetched
        self.shared_cache_hits += plan.shared_hits
        self.peer_cache_hits += plan.peer_hits
        self.metadata_lookup_fetches += plan.requests_fetched
        return plan

    def _fetch_authoritative(self, blob: BlobDescriptor, planner, requests,
                             results) -> None:
        """Fetch one level's unresolved lookups from the metadata shards."""
        config = self.cluster.config
        node_size = config.metadata_node_size
        request_size = config.metadata_request_size
        if requests and self.metadata_batching:
            by_shard = self.deployment.metadata_store.group_by_shard(
                blob.blob_id, requests)

            def fetch_shard(index, shard_requests):
                service = self.deployment.metadata_providers[index]
                if self.metadata_prefetch:
                    # the shard also resolves the children it owns of
                    # every inner node it returns (and the base version
                    # of partially-covered leaves) — extra response
                    # bytes, priced from the actual result, for whole
                    # levels of saved round-trips
                    nodes, extras = yield from self._rpc(
                        service, "get_nodes",
                        len(shard_requests) * request_size,
                        lambda result: (len(result[0]) + len(result[1]))
                        * node_size,
                        blob.blob_id, shard_requests, True)
                    self._absorb_prefetched(blob.blob_id, extras)
                else:
                    nodes = yield from self._rpc(
                        service, "get_nodes",
                        len(shard_requests) * request_size,
                        len(shard_requests) * node_size,
                        blob.blob_id, shard_requests)
                for request, node in zip(shard_requests, nodes):
                    results[request] = node

            yield self.cluster.sim.fanout(
                [fetch_shard(index, shard_requests)
                 for index, shard_requests in sorted(by_shard.items())])
            planner.metadata_rpcs += len(by_shard)
        elif requests:
            shard_count = len(self.deployment.metadata_providers)
            for request in requests:
                offset, size, hint = request
                index = PartitionedMetadataStore.partition_index(
                    blob.blob_id, offset, size, shard_count)
                service = self.deployment.metadata_providers[index]
                node = yield from self._rpc(
                    service, "get_node", request_size, node_size,
                    blob.blob_id, offset, size, hint)
                results[request] = node
                planner.metadata_rpcs += 1

    def _probe_peers(self, blob: BlobDescriptor, requests, results,
                     peer_answered) -> None:
        """Ask responsible peers about this level's misses before the shards.

        Routes every pending lookup through the cooperative directory
        (custody hash, provider fallback when this node is custodian) and
        fans one ``probe`` RPC out per target peer.  Answers pass through
        *this* node's watermark gate before being trusted: a peer whose
        claimed version this client has never observed published is
        rejected (``peer_rejections``) and the lookup falls back to the
        authoritative shard.
        """
        directory = self.deployment.coop_directory
        groups: Dict[str, tuple] = {}
        for request in requests:
            offset, size, _hint = request
            target = directory.route(self.node.name, blob.blob_id, offset,
                                     size)
            if target is None:
                continue
            groups.setdefault(target.node.name, (target, []))[1].append(
                request)
        if not groups:
            return
        config = self.cluster.config
        node_size = config.metadata_node_size
        request_size = config.metadata_request_size
        control_size = config.control_message_size

        def response_size(answer):
            # a dead peer (None) or an all-miss answer still costs a
            # control message; hits ship one node each
            if not answer:
                return control_size
            hits = sum(1 for entry in answer if entry is not PEER_MISS)
            return max(hits * node_size, control_size)

        specs = []
        ordered = []
        watermark = self.shared_cache.watermark(blob.blob_id)
        for _name, (target, probe_requests) in sorted(groups.items()):
            specs.append((target, "probe",
                          len(probe_requests) * request_size, response_size,
                          (blob.blob_id, list(probe_requests), watermark)))
            ordered.append(probe_requests)
        self.peer_probe_rpcs += len(specs)
        answers = yield from self._rpc_batch(specs, name="rpc.coop_probe")
        for probe_requests, answer in zip(ordered, answers):
            if answer is None:
                # dead peer: treat the whole probe as a miss
                self.peer_probe_misses += len(probe_requests)
                continue
            for request, entry in zip(probe_requests, answer):
                if entry is PEER_MISS:
                    self.peer_probe_misses += 1
                    continue
                _offset, _size, hint = request
                if hint > self.shared_cache.watermark(blob.blob_id):
                    # admission gate on the *receiving* side: never trust
                    # a version this node has not itself observed published
                    self.peer_rejections += 1
                    continue
                results[request] = entry
                peer_answered.add(request)

    def _absorb_prefetched(self, blob_id: str, extras) -> None:
        """Insert speculatively prefetched lookups into both cache tiers.

        ``extras`` are ``((offset, size, hint), node-or-None)`` pairs the
        shard resolved *authoritatively* (it owns their range keys), so
        they are exactly as trustworthy as requested fetches.  The shared
        tier applies its usual watermark gate.
        """
        for (offset, size, hint), node in extras:
            if self.metadata_cache is not None:
                self.metadata_cache.put(blob_id, offset, size, hint, node)
            if self.shared_cache is not None:
                self.shared_cache.publish(blob_id, offset, size, hint, node)
        self.metadata_prefetched_nodes += len(extras)

    @staticmethod
    def _assemble(vector: IOVector, fetched: List[Tuple[int, int, bytes]]) -> List[bytes]:
        """Scatter fetched extents back into one buffer per vector request.

        Fetched extents never overlap each other (the read plan partitions
        the wanted ranges), so after sorting them by offset each request only
        needs the slice of extents its range intersects — found with a bisect
        instead of scanning the full extent list per request, which turned a
        whole-file verify read into an O(requests x extents) quadratic walk.
        """
        extents = sorted(fetched, key=lambda item: item[0])
        ends = [offset + length for offset, length, _data in extents]
        results: List[bytes] = []
        for request in vector:
            buffer = bytearray(request.size)
            req_start = request.offset
            req_end = req_start + request.size
            index = bisect_right(ends, req_start)
            while index < len(extents):
                offset, length, data = extents[index]
                if offset >= req_end:
                    break
                lo = max(req_start, offset)
                hi = min(req_end, offset + length)
                if hi > lo:
                    src_start = lo - offset
                    buffer[lo - req_start:hi - req_start] = \
                        data[src_start:src_start + (hi - lo)]
                index += 1
            results.append(bytes(buffer))
        return results

"""Network models: per-node NICs with latency + bandwidth costs.

Two switchable models (``ClusterConfig.network_model``):

* :class:`Network` (``"bottleneck"``) — the seed model: a full-bisection
  switch (as in a Grid'5000 cluster).  A transfer from ``src`` to ``dst``
  occupies the half-duplex sender NIC and then the receiver NIC for
  ``nbytes / bandwidth`` each, plus a one-way propagation latency.
  Serializing transfers on each NIC is what produces incast congestion at
  heavily used servers — the phenomenon that makes a single storage target a
  bottleneck and data striping worthwhile (design principle 2 of the paper).

* :class:`QueuedNetwork` (``"queued"``) — per-link FIFO queues carrying
  transmission + propagation delay over an explicit two-tier topology: nodes
  are grouped ``nodes_per_switch`` per leaf switch (in creation order, which
  matches the dense block placement of :func:`~repro.cluster.cluster.placement_map`);
  same-switch transfers pay NIC egress + propagation + NIC ingress, and
  cross-switch transfers additionally queue on the shared switch uplinks.
  NICs are full duplex here.  Every link runs a CoDel-style standing-queue
  detector: when the queueing delay a reservation experiences stays above
  ``codel_target`` for longer than ``codel_interval``, the link records a
  *mark* (no packets are dropped — the signal feeds the stats/reports, the
  way ECN marks would feed a transport).

Both models account FIFO queueing *analytically*: a link keeps a ``free_at``
scalar and each transfer reserves ``[max(now, free_at), ...+tx]`` in arrival
order, so a transfer costs a small constant number of pooled simulator
events however long the queues grow.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.config import ClusterConfig
    from repro.cluster.node import Node
    from repro.simengine import Simulator


class NIC:
    """A node's network interface: a FIFO queue with fixed bandwidth."""

    __slots__ = ("sim", "bandwidth", "name", "free_at",
                 "bytes_transferred", "busy_time")

    def __init__(self, sim: "Simulator", bandwidth: float, name: str):
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        #: when the last reserved transmission finishes (analytic FIFO queue)
        self.free_at: float = 0.0
        self.bytes_transferred: int = 0
        self.busy_time: float = 0.0

    def reserve(self, nbytes: int) -> float:
        """Reserve the next FIFO transmission slot; returns its finish time."""
        tx = nbytes / self.bandwidth
        now = self.sim.now
        start = self.free_at if self.free_at > now else now
        done = start + tx
        self.free_at = done
        self.busy_time += tx
        self.bytes_transferred += nbytes
        return done


class Network:
    """Switch-based cluster network connecting every node to every other."""

    model = "bottleneck"

    def __init__(self, sim: "Simulator", latency: float, bandwidth: float,
                 obs=None):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self._nics: Dict[str, NIC] = {}
        #: span recorder when the cluster traces (None when disabled, the
        #: zero-cost guard every transfer checks once)
        self.tracer = (obs.tracer if obs is not None and obs.tracer.enabled
                       else None)
        #: latency-digest taps (None when disabled)
        self.digests = obs.digests if obs is not None else None
        self._observed = self.tracer is not None or self.digests is not None
        #: total bytes moved across the network
        self.bytes_transferred: int = 0
        #: total messages moved across the network
        self.messages: int = 0

    def nic(self, node_name: str) -> NIC:
        """The (lazily created) NIC of ``node_name``."""
        nic = self._nics.get(node_name)
        if nic is None:
            nic = self._nics[node_name] = NIC(self.sim, self.bandwidth,
                                              name=f"nic:{node_name}")
        return nic

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded end-to-end time for a message of ``nbytes``."""
        return self.latency + 2 * (nbytes / self.bandwidth)

    def _reserve(self, nic: NIC, nbytes: int, span: str,
                 trace_parent: Optional[int]) -> float:
        """Reserve on an *observed* NIC: identical schedule to a plain
        ``nic.reserve``, plus one span and/or one digest sample recorded on
        values the reservation computed anyway."""
        now = self.sim.now
        start = nic.free_at if nic.free_at > now else now
        done = nic.reserve(nbytes)
        if self.tracer is not None:
            self.tracer.complete_span(span, "net", ("link", nic.name),
                                      start, done, parent_id=trace_parent,
                                      args={"bytes": nbytes})
        if self.digests is not None:
            self.digests.link(nic.name, start - now)
        return done

    def transfer(self, src: "Node", dst: "Node", nbytes: int,
                 trace_parent: Optional[int] = None):
        """Generator moving ``nbytes`` from ``src`` to ``dst``.

        Local (same-node) transfers cost nothing: services co-located with
        their client short-circuit the network, as a real loopback would.
        ``trace_parent`` is the span id the NIC-occupation spans attach to
        when the cluster traces.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src.name == dst.name:
            return
        sim = self.sim
        observed = self._observed
        # Sender NIC: reserved in initiation order, then one sleep to the
        # moment the message has fully arrived at the receiver NIC's queue.
        src_nic = self.nic(src.name)
        src_done = (self._reserve(src_nic, nbytes, "net.tx", trace_parent)
                    if observed else src_nic.reserve(nbytes))
        yield sim.sleep(src_done + self.latency - sim.now)
        # Receiver NIC: reserved in arrival order.
        dst_nic = self.nic(dst.name)
        dst_done = (self._reserve(dst_nic, nbytes, "net.rx", trace_parent)
                    if observed else dst_nic.reserve(nbytes))
        yield sim.sleep(dst_done - sim.now)
        self.bytes_transferred += nbytes
        self.messages += 1


class Link:
    """One FIFO transmission queue of the queued model, with a CoDel signal."""

    __slots__ = ("sim", "bandwidth", "name", "free_at", "bytes_transferred",
                 "busy_time", "codel_target", "codel_interval", "codel_marks",
                 "max_standing_delay", "_above_since", "_next_mark",
                 "_episode_marks")

    def __init__(self, sim: "Simulator", bandwidth: float, name: str,
                 codel_target: float, codel_interval: float):
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self.free_at: float = 0.0
        self.bytes_transferred: int = 0
        self.busy_time: float = 0.0
        self.codel_target = float(codel_target)
        self.codel_interval = float(codel_interval)
        #: standing-queue episodes flagged (the "ECN mark" counter)
        self.codel_marks: int = 0
        #: worst queueing delay any reservation experienced
        self.max_standing_delay: float = 0.0
        self._above_since: Optional[float] = None
        self._next_mark: float = 0.0
        self._episode_marks: int = 0

    def reserve(self, nbytes: int) -> float:
        """Reserve the next FIFO slot; returns its finish time."""
        tx = nbytes / self.bandwidth
        now = self.sim.now
        free_at = self.free_at
        start = free_at if free_at > now else now
        done = start + tx
        self.free_at = done
        self.busy_time += tx
        self.bytes_transferred += nbytes

        # CoDel-style standing-queue detection on the sojourn (queueing)
        # delay this reservation experiences.
        standing = start - now
        if standing > self.max_standing_delay:
            self.max_standing_delay = standing
        if standing <= self.codel_target:
            self._above_since = None
            self._episode_marks = 0
        elif self._above_since is None:
            self._above_since = now
            self._next_mark = now + self.codel_interval
        elif now >= self._next_mark:
            # Delay stayed above target for a full interval: mark, then mark
            # again on CoDel's sqrt-shrinking schedule while it persists.
            self.codel_marks += 1
            self._episode_marks += 1
            self._next_mark = now + self.codel_interval / (self._episode_marks ** 0.5)
        return done

    def stats(self) -> dict:
        return {
            "name": self.name,
            "bytes": self.bytes_transferred,
            "busy_time": self.busy_time,
            "codel_marks": self.codel_marks,
            "max_standing_delay": self.max_standing_delay,
        }


class QueuedNetwork:
    """Per-link FIFO network over a two-tier (leaf switch) topology."""

    model = "queued"

    def __init__(self, sim: "Simulator", config: "ClusterConfig", obs=None):
        if config.network_latency < 0:
            raise ValueError("latency must be non-negative")
        if config.network_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = float(config.network_latency)
        self.bandwidth = float(config.network_bandwidth)
        self.nodes_per_switch = max(1, int(config.nodes_per_switch))
        self.cross_switch_latency = (
            config.cross_switch_latency if config.cross_switch_latency is not None
            else 2.5 * self.latency)
        self.switch_bandwidth = (
            config.switch_bandwidth if config.switch_bandwidth is not None
            else 4.0 * self.bandwidth)
        self.codel_target = config.codel_target
        self.codel_interval = config.codel_interval
        #: fractional uniform jitter on propagation latency, drawn from the
        #: network RNG scope so workload streams are never perturbed
        self.jitter = float(config.network_jitter)
        self._jitter_stream = (
            sim.rng.scope("network").stream("jitter") if self.jitter else None)

        self._egress: Dict[str, Link] = {}
        self._ingress: Dict[str, Link] = {}
        self._uplinks: Dict[int, Link] = {}
        self._downlinks: Dict[int, Link] = {}
        self._switch_of: Dict[str, int] = {}
        #: span recorder / per-link sampler when the cluster observes its
        #: links; ``_observed`` is the single boolean every reservation
        #: site checks, so disabled runs pay one attribute test per hop
        self.tracer = (obs.tracer if obs is not None and obs.tracer.enabled
                       else None)
        self.telemetry = obs.link_telemetry if obs is not None else None
        self.digests = obs.digests if obs is not None else None
        self._observed = (self.tracer is not None
                          or self.telemetry is not None
                          or self.digests is not None)
        self.bytes_transferred: int = 0
        self.messages: int = 0
        self.cross_switch_messages: int = 0

    # ------------------------------------------------------------------
    def switch_of(self, node_name: str) -> int:
        """Leaf-switch index of a node (assigned in node-creation order)."""
        switch = self._switch_of.get(node_name)
        if switch is None:
            switch = len(self._switch_of) // self.nodes_per_switch
            self._switch_of[node_name] = switch
        return switch

    def _link(self, table: Dict, key, bandwidth: float, name: str) -> Link:
        link = table.get(key)
        if link is None:
            link = table[key] = Link(self.sim, bandwidth, name,
                                     self.codel_target, self.codel_interval)
        return link

    def nic(self, node_name: str) -> Link:
        """The egress link of ``node_name`` (kept for API compatibility)."""
        return self._link(self._egress, node_name, self.bandwidth,
                          f"egress:{node_name}")

    def _propagation(self) -> float:
        if self._jitter_stream is None:
            return self.latency
        return self.latency * (1.0 + float(
            self._jitter_stream.uniform(-self.jitter, self.jitter)))

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded same-switch end-to-end time for a message of ``nbytes``."""
        return self.latency + 2 * (nbytes / self.bandwidth)

    def _reserve(self, link: Link, nbytes: int,
                 trace_parent: Optional[int]) -> float:
        """Reserve on an *observed* link: identical schedule to a plain
        ``link.reserve``, plus one telemetry sample and/or one link span
        recorded on values the reservation computed anyway."""
        now = self.sim.now
        start = link.free_at if link.free_at > now else now
        done = link.reserve(nbytes)
        if self.telemetry is not None:
            self.telemetry.record(link, now, start - now, nbytes)
        if self.tracer is not None:
            self.tracer.complete_span("net.link", "net", ("link", link.name),
                                      start, done, parent_id=trace_parent,
                                      args={"bytes": nbytes})
        if self.digests is not None:
            self.digests.link(link.name, start - now)
        return done

    def transfer(self, src: "Node", dst: "Node", nbytes: int,
                 trace_parent: Optional[int] = None):
        """Generator moving ``nbytes`` from ``src`` to ``dst``.

        Same-node transfers are free (loopback).  Same-switch transfers pay
        NIC egress + propagation + NIC ingress; cross-switch transfers
        additionally queue on the source switch's uplink and the destination
        switch's downlink and pay the longer cross-switch propagation.
        ``trace_parent`` is the span id the per-link spans attach to when
        the cluster traces.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src.name == dst.name:
            return
        sim = self.sim
        observed = self._observed
        src_switch = self.switch_of(src.name)
        dst_switch = self.switch_of(dst.name)

        egress = self._link(self._egress, src.name, self.bandwidth,
                            f"egress:{src.name}")
        egress_done = (self._reserve(egress, nbytes, trace_parent) if observed
                       else egress.reserve(nbytes))

        if src_switch == dst_switch:
            yield sim.sleep(egress_done + self._propagation() - sim.now)
        else:
            # Hop 1: to the leaf switch, then queue on its shared uplink.
            yield sim.sleep(egress_done + self._propagation() / 2 - sim.now)
            uplink = self._link(self._uplinks, src_switch, self.switch_bandwidth,
                                f"uplink:sw{src_switch}")
            up_done = (self._reserve(uplink, nbytes, trace_parent) if observed
                       else uplink.reserve(nbytes))
            yield sim.sleep(up_done + self.cross_switch_latency - sim.now)
            # Hop 2: down through the destination switch's shared downlink.
            downlink = self._link(self._downlinks, dst_switch,
                                  self.switch_bandwidth, f"downlink:sw{dst_switch}")
            down_done = (self._reserve(downlink, nbytes, trace_parent)
                         if observed else downlink.reserve(nbytes))
            yield sim.sleep(down_done + self._propagation() / 2 - sim.now)
            self.cross_switch_messages += 1

        ingress = self._link(self._ingress, dst.name, self.bandwidth,
                             f"ingress:{dst.name}")
        ingress_done = (self._reserve(ingress, nbytes, trace_parent)
                        if observed else ingress.reserve(nbytes))
        yield sim.sleep(ingress_done - sim.now)

        self.bytes_transferred += nbytes
        self.messages += 1

    # ------------------------------------------------------------------
    def links(self) -> list:
        """Every link created so far (egress, ingress, up- and downlinks)."""
        return (list(self._egress.values()) + list(self._ingress.values())
                + list(self._uplinks.values()) + list(self._downlinks.values()))

    def codel_stats(self) -> dict:
        """Aggregate CoDel signal over all links (for benchmark reports)."""
        links = self.links()
        marks = sum(link.codel_marks for link in links)
        worst = max((link.max_standing_delay for link in links), default=0.0)
        return {
            "links": len(links),
            "codel_marks": marks,
            "max_standing_delay": worst,
            "cross_switch_messages": self.cross_switch_messages,
        }

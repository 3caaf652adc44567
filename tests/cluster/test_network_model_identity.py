"""Regression: the network model shapes *time*, never *bytes*.

Switching ``network_model`` between ``"bottleneck"`` and ``"queued"`` — or
perturbing the queued model's propagation latency with ``network_jitter`` —
must leave every workload result byte-identical.  This pins the RNG scope
split: timing noise draws from the ``network`` scope, so workload-visible
streams (placement, data) are never advanced by it.
"""

from repro.bench.simcore import run_collective_io_point
from repro.cluster.config import ClusterConfig

#: small but contended shape: 16 ranks, interleaved blocks, 4 aggregators,
#: 4 nodes per switch so cross-switch links (the queued model's per-hop
#: machinery) actually carry traffic
SHAPE = dict(num_ranks=16, blocks_per_rank=8, block_size=2048, read_rounds=1,
             num_aggregators=4, num_providers=3, num_metadata_providers=2,
             chunk_size=1024)


def _point(**config_kwargs):
    config_kwargs.setdefault("nodes_per_switch", 4)
    return run_collective_io_point(config=ClusterConfig(**config_kwargs),
                                   **SHAPE)


def test_bottleneck_and_queued_move_identical_bytes():
    bottleneck = _point(network_model="bottleneck")
    queued = _point(network_model="queued")
    assert bottleneck["read_digest"] == queued["read_digest"]
    # ...while genuinely simulating different machinery (per-hop events)
    assert bottleneck["processed_events"] != queued["processed_events"]


def test_jitter_perturbs_timing_but_not_bytes():
    calm = _point(network_model="queued", network_jitter=0.0)
    noisy = _point(network_model="queued", network_jitter=0.3)
    assert calm["read_digest"] == noisy["read_digest"]
    assert calm["sim_elapsed_s"] != noisy["sim_elapsed_s"]


"""collective_checkpoint reproduces the simcore headline's simulated values."""

import pytest

from perfbench import checks, measure
from perfbench.hostprof import LayerProfiler
from perfbench.workloads import CollectiveCheckpointPoint
from repro.cluster.config import ClusterConfig

#: the simcore headline (``repro.bench.simcore``, 64 ranks): simulated
#: seconds, processed events, plan nodes absorbed and read-back digest
HEADLINE_SIM_S = 0.606672
HEADLINE_EVENTS = 4812
HEADLINE_PLAN_NODES_ABSORBED = 393_024
HEADLINE_DIGEST = "9ed7f673291b747360236838cef45ec7375f4ef06fbe4141fa041df0fc877f84"


def _headline_payload(rank, nbytes):
    return bytes([(rank + 1) % 251]) * nbytes


def _run(point, config=ClusterConfig()):
    point.setup(config)
    point.run()
    point.read_back()
    result = point.check()
    assert result.byte_ok and not result.failed
    return point.sim_signature()


@pytest.fixture(scope="module")
def seeded():
    return _run(CollectiveCheckpointPoint(seed=3))


def test_headline_payload_reproduces_the_simcore_headline():
    signature = _run(CollectiveCheckpointPoint(seed=0, payload=_headline_payload))
    assert round(signature["sim_now"], 6) == HEADLINE_SIM_S
    assert signature["events"] == HEADLINE_EVENTS
    assert signature["metrics"]["metadata.client.plan_nodes_absorbed"] == \
        HEADLINE_PLAN_NODES_ABSORBED
    assert signature["digest"] == HEADLINE_DIGEST


def test_seed_changes_bytes_not_timing(seeded):
    assert round(seeded["sim_now"], 6) == HEADLINE_SIM_S
    assert seeded["events"] == HEADLINE_EVENTS
    assert seeded["metrics"]["metadata.client.plan_nodes_absorbed"] == \
        HEADLINE_PLAN_NODES_ABSORBED
    assert seeded["digest"] != HEADLINE_DIGEST


def test_traced_profiled_round_changes_no_simulated_value(seeded):
    tally = measure.Tally()
    profiler = LayerProfiler()
    round_ = measure.run_round(
        "collective_checkpoint", 3,
        ClusterConfig(tracing=True, latency_digests=True), tally,
        reference={"versioning/64": seeded}, keep_outputs=True,
        profiler=profiler)
    measure.verify_pass(round_.summaries, tally, profiler)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.verdicts == [checks.VERIFIED]
    traced = round_.summaries[0].signature
    assert measure._differences(seeded, traced) == []
    assert set(seeded["metrics"]) < set(traced["metrics"])
    assert round_.summaries[0].critpath["operations"]["file.read_at_all"]["count"] == 192
    fold = profiler.fold()
    assert sum(fold.layer_ticks.values()) == fold.total_ticks
    # the job's own puts; the unprofiled verifier read-back adds 2,047
    # more, for the 397,223 of the whole simcore point
    assert fold.entry_calls["MetadataNodeCache.put"] == 395_176

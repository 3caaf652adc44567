"""Generator properties: determinism, round-trip, structural validity.

A seed must map to exactly one scenario forever — the replay contract
starts here — and everything the generator emits must satisfy the
structural constraints the runner assumes (first phase writes, injectors
target phases that exist and have the right shape, the file extent covers
every workload, hot-spot windows actually confine).
"""

import json

import pytest

from repro.fuzz.generator import MAX_PHASES, MAX_RANKS, generate_scenario
from repro.fuzz.scenario import (
    INJECTOR_KINDS,
    PHASE_KINDS,
    READ_KINDS,
    WRITE_KINDS,
    Scenario,
    build_workload,
    workload_file_size,
)

SEEDS = range(120)


@pytest.mark.parametrize("seed", [0, 1, 17, 42, 123, 9999])
def test_same_seed_same_scenario(seed):
    assert (generate_scenario(seed).canonical_json()
            == generate_scenario(seed).canonical_json())


@pytest.mark.parametrize("seed", [0, 3, 19, 108])
def test_json_round_trip(seed):
    scenario = generate_scenario(seed)
    rebuilt = Scenario.from_dict(json.loads(scenario.canonical_json()))
    assert rebuilt == scenario
    assert rebuilt.canonical_json() == scenario.canonical_json()


def test_scenarios_differ_across_seeds():
    blueprints = {generate_scenario(seed).canonical_json()
                  for seed in range(40)}
    assert len(blueprints) > 30  # near-unique; collisions would be a bug


def test_structural_validity_over_a_seed_range():
    for seed in SEEDS:
        scenario = generate_scenario(seed)
        assert 2 <= scenario.num_ranks <= MAX_RANKS
        assert 1 <= scenario.num_aggregators <= scenario.num_ranks
        assert scenario.ranks_per_node in (1, 2)
        assert scenario.chunk_size in (512, 1024, 2048)
        assert 1 <= len(scenario.phases) <= MAX_PHASES + 2  # + probe/straggler
        assert scenario.phases[0].is_write
        assert scenario.file_size % scenario.chunk_size == 0
        for phase in scenario.phases:
            assert phase.kind in PHASE_KINDS
            assert workload_file_size(phase.workload, scenario.num_ranks) \
                <= scenario.file_size
            build_workload(phase.workload, scenario.num_ranks)  # materializes


def test_injector_constraints_over_a_seed_range():
    for seed in SEEDS:
        scenario = generate_scenario(seed)
        for injector in scenario.injectors:
            assert injector.kind in INJECTOR_KINDS
            assert 0 <= injector.phase < len(scenario.phases)
            phase = scenario.phases[injector.phase]
            if injector.kind == "aggregator_death":
                assert phase.kind == "collective_write"
                assert scenario.num_aggregators >= 2
                assert 0 <= injector.params["rank"] < scenario.num_ranks
                # a probe phase must follow the doomed one
                assert injector.phase + 1 < len(scenario.phases)
            elif injector.kind == "resolver_death":
                assert phase.kind == "collective_read"
                assert injector.phase + 1 < len(scenario.phases)
            elif injector.kind == "straggler":
                # only disjoint checkpoint phases: bytes must be
                # flush-order-independent under the watchdog
                assert phase.kind == "independent_write"
                assert phase.workload["family"] == "checkpoint"
                assert injector.params["delay"] \
                    > injector.params["max_delay"]
            elif injector.kind == "hot_spot":
                assert phase.is_write
                window = phase.workload["window"]
                assert window == injector.params["window"]
                lo, span = window
                assert 0 <= lo and lo + span <= phase.workload["file_size"]
                workload = build_workload(phase.workload, scenario.num_ranks)
                extent = workload.union_extent()
                if extent is not None:
                    assert lo <= extent[0] and extent[1] <= lo + span
            elif injector.kind == "cache_thrash":
                assert injector.params["reads"] >= 1


def test_generator_reaches_every_phase_and_injector_kind():
    phase_kinds, injector_kinds = set(), set()
    for seed in range(250):
        scenario = generate_scenario(seed)
        phase_kinds.update(phase.kind for phase in scenario.phases)
        injector_kinds.update(injector.kind
                              for injector in scenario.injectors)
    assert phase_kinds == set(PHASE_KINDS)
    assert injector_kinds == set(INJECTOR_KINDS)
    assert phase_kinds >= set(WRITE_KINDS) | set(READ_KINDS)


def test_cluster_overrides_stay_in_vocabulary():
    for seed in SEEDS:
        cluster = generate_scenario(seed).cluster
        assert cluster["network_model"] in ("bottleneck", "queued")
        if cluster.get("shared_metadata_cache"):
            assert cluster["shared_cache_policy"] in ("lru", "slru", "2q",
                                                      "level:2")

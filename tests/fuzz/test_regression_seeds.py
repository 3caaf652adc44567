"""Seed-pinned fuzzer regressions.

The first 2000-seed sweep of the finished fuzzer came back clean, so —
per the fuzzer's landing contract — these pin the lowest seeds whose
generated scenarios exercise each injected-hostility path that flagged
while the fuzzer itself was being brought up (mis-masked death windows,
watchdog flushes racing rank-order publication, adversary reads against
half-published versions).  If a future change reintroduces any of those
bugs, the matching seed flags again right here, with full replay:

    python -m repro.fuzz --replay <seed>

Each seed is the lowest one whose scenario *fires* the named injector —
dormant arms don't regress anything.
"""

import pytest

from repro.fuzz.generator import generate_scenario
from repro.fuzz.report import run_line
from repro.fuzz.runner import execute_scenario

#: seed -> the injector kind the scenario is pinned to fire
PINNED = {
    1: "straggler",          # watchdog flush out of rank order
    3: "cache_thrash",       # adversary churn against live metadata
    19: "aggregator_death",  # torn stripe commit, one ticket aborted
    24: "provider_death",    # peer daemon dies under a peer-miss storm
    108: "resolver_death",   # collective read dies, no ticket touched
}


@pytest.mark.parametrize("seed,kind", sorted(PINNED.items()))
def test_pinned_seed_fires_its_injector_and_stays_clean(seed, kind):
    scenario = generate_scenario(seed)
    assert kind in [injector.kind for injector in scenario.injectors], \
        f"seed {seed} no longer generates a {kind} scenario — the " \
        "generator's seed mapping changed; re-pin the regression seeds"
    result = execute_scenario(scenario)
    assert kind in result.fired, \
        f"seed {seed}: {kind} armed but never fired (containment untested)"
    assert not result.flagged, result.all_anomalies()


def test_pinned_seeds_replay_byte_identically():
    for seed in PINNED:
        scenario = generate_scenario(seed)
        assert run_line(execute_scenario(scenario)) \
            == run_line(execute_scenario(scenario)), f"seed {seed}"

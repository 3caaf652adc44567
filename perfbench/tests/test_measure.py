"""Failure accounting of a round, and the tail-latency rule."""

import json

import pytest

from perfbench import checks, measure, workloads
from perfbench.workloads import AtomicWritePoint
from repro.cluster.config import ClusterConfig
from repro.workloads.overlap_stress import OverlapStressWorkload


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail([float(value) for value in range(64)]) == (53.0, 84.375, 64)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _small_overlap(seed):
    shape = OverlapStressWorkload(num_clients=4, regions_per_client=2,
                                  region_size=4096, overlap_fraction=0.5)
    return [AtomicWritePoint("small", backend, 4, seed,
                             regions=shape.client_regions,
                             file_size=shape.file_size, headline=True)
            for backend in workloads.BACKENDS]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "small", _small_overlap)
    return "small"


def _run(workload, **kwargs):
    tally = measure.Tally()
    round_ = measure.run_round(workload, 7, ClusterConfig(), tally, **kwargs)
    return tally, round_


def test_correct_round_has_no_failure(small):
    tally, round_ = _run(small, keep_outputs=True)
    measure.verify_pass(round_.summaries, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert tally.verdicts == [checks.VERIFIED, checks.VERIFIED]
    assert len({summary.signature["digest"] for summary in round_.summaries}) == 1


def _tamper(monkeypatch, change):
    read_back = AtomicWritePoint.read_back

    def tampered(self):
        read_back(self)
        self.observed = change(self, bytearray(self.observed))
    monkeypatch.setattr(AtomicWritePoint, "read_back", tampered)


def test_tampered_byte_counts_as_failed(small, monkeypatch):
    def flip(point, image):
        offset, data = point.writers[0][0]
        image[offset] = data[0] ^ 0xFF
        return bytes(image)
    _tamper(monkeypatch, flip)
    tally, _ = _run(small)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_non_serializable_image_counts_as_failed(small, monkeypatch):
    def interleave(point, image):
        # rank 1 wins slot 0, rank 0 wins slot 1: every byte is some
        # writer's, but no serial order of the two writes produces it
        for slot, order in ((0, (0, 1)), (1, (1, 0))):
            for rank in order:
                offset, data = point.writers[rank][slot]
                image[offset:offset + len(data)] = data
        return bytes(image)
    _tamper(monkeypatch, interleave)
    tally, round_ = _run(small, keep_outputs=True)
    assert tally.failed == 0  # the per-byte check cannot see it
    measure.verify_pass(round_.summaries, tally)
    assert tally.verdicts == [checks.VIOLATED, checks.VIOLATED]
    assert tally.failed == 2


def test_changed_simulated_value_counts_as_failed(small):
    tally, reference = _run(small)
    signatures = {summary.label: dict(summary.signature, events=-1)
                  for summary in reference.summaries}
    measure.run_round(small, 7, ClusterConfig(), tally, reference=signatures)
    assert (tally.attempted, tally.failed) == (4, 2)


def test_crashed_job_counts_as_failed(small, monkeypatch):
    def crash(self):
        raise RuntimeError("injected")
    monkeypatch.setattr(AtomicWritePoint, "run", crash)
    tally, round_ = _run(small)
    assert (tally.attempted, tally.failed, round_.summaries) == (2, 2, [])


def test_run_reports_a_failed_check_and_exits_nonzero(small, monkeypatch, capsys):
    from perfbench import run

    def flip(point, image):
        offset, data = point.writers[0][0]
        image[offset] = data[0] ^ 0xFF
        return bytes(image)
    _tamper(monkeypatch, flip)
    monkeypatch.setattr(run, "WORKLOAD_NAMES", run.WORKLOAD_NAMES + (small,))
    code = run.main(["--workload", small, "--seed", "7", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["failed"]) == (False, result["attempted"])
    assert result["metrics"]["verified_share"] == {"value": 0.0, "unit": "share"}

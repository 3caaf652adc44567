"""Rounds of a workload, timed on the host clock, and the metrics they yield.

A *round* runs every point of a workload once, timing its ``setup`` and
its simulated job (``run``) separately, then, untimed, reading the file
back and running the per-byte ``check``.  The read-back only feeds the
check, so it stays out of ``host_s`` as simcore's verifier read-back stays
out of its ``wall_clock_s``.  Every round's simulated values, counts and
bytes must equal the first round's, so no point goes unchecked.

An end-to-end run measures rounds for ``seconds`` seconds (``host_s`` and
``setup_s`` are medians over them) and, interleaved with them, verifies
the first round's output with the exact MPI-atomicity checker in *passes*
over every point, for ``seconds / 2`` seconds and at least once
(``verify_s`` is the median pass).

A traced run measures untraced rounds for ``seconds`` seconds, then runs
one round and one verification pass with
``ClusterConfig(tracing=True, latency_digests=True)``.  The layer profiler
covers exactly the phases ``host_s`` and ``verify_s`` time: each job and
the verification pass.  The traced round must reproduce the untraced
simulated values exactly.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from perfbench import checks
from perfbench.hostprof import REPORTED_LAYERS, LayerProfiler
from perfbench.workloads import WORKLOADS, Point
from repro.cluster.config import ClusterConfig
from repro.core.atomicity import VectoredWrite, _conflict_groups
from repro.core.listio import IOVector
from repro.obs.critpath import LAYERS as CRITPATH_LAYERS

#: the per-layer critical-path operations (simulated clock)
CRITPATH_OPS = ("write_at_all", "read_at_all")

#: simulated metrics keep the host/simulated distinction in their unit
SIM_S, SIM_MS, SIM_MIB_S = "sim_s", "sim_ms", "sim_MiB/s"


class Metric(NamedTuple):
    """One reported value; ``note`` is printed, never part of the JSON."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Summary:
    """What is kept of a point after its round."""

    label: str
    backend: str
    clients: int
    headline: bool
    write_latencies: List[float]
    read_latencies: List[float]
    write_mib_s: float
    read_mib_s: float
    lock_wait_s: float
    signature: Dict[str, object]
    critpath: Optional[Dict[str, object]] = None
    #: the file image and the inputs, kept for exact verification
    observed: bytes = b""
    writers: Optional[list] = None


@dataclass
class Tally:
    """Operations attempted and failed, and the exact checker's verdicts."""

    attempted: int = 0
    failed: int = 0
    verdicts: List[str] = field(default_factory=list)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


@dataclass
class Round:
    setup_s: float
    job_s: float
    summaries: List[Summary]


@dataclass
class Outcome:
    """A run's metrics, its failure tally and one round's points."""

    metrics: Dict[str, Metric]
    tally: Tally
    summaries: List[Summary]


class Timed(NamedTuple):
    seconds: float
    value: object


def _timed(phase, *args, profiler: Optional[LayerProfiler] = None) -> Timed:
    """Host CPU seconds of one phase, started from a fully collected heap.

    CPU time of this single-threaded process, not wall time: on a shared
    host, time the process spends descheduled is not its cost.  Collecting
    first makes the garbage collector's work inside the phase depend on
    the phase alone, not on what earlier rounds left behind.  A
    ``profiler`` is enabled for the phase alone.
    """
    gc.collect()
    started = time.process_time()
    with profiler or contextlib.nullcontext():
        value = phase(*args)
    return Timed(time.process_time() - started, value)


def run_round(workload: str, seed: int, config: ClusterConfig, tally: Tally,
              reference: Optional[Dict[str, Dict]] = None,
              keep_outputs: bool = False,
              profiler: Optional[LayerProfiler] = None) -> Round:
    """Run every point of ``workload`` once; count failures into ``tally``.

    A ``profiler`` profiles each point's timed job and nothing else.
    """
    setup_s = job_s = 0.0
    summaries: List[Summary] = []
    for point in WORKLOADS[workload](seed):
        tally.attempted += 1
        try:
            setup = _timed(point.setup, config)
            job = _timed(point.run, profiler=profiler)
            point.read_back()
            check = point.check()
        except Exception:  # a crashed job is a failed operation, not a crash
            tally.fail(point.label, traceback.format_exc())
            continue
        setup_s += setup.seconds
        job_s += job.seconds
        summary = _summarize(point, keep_outputs)
        summaries.append(summary)
        problems = list(check.problems)
        if not check.byte_ok:
            problems.append("a byte holds no writer's value, or an untouched "
                            "byte is not zero")
        if reference is not None and point.label in reference:
            problems += _differences(reference[point.label], summary.signature)
        if problems:
            tally.fail(point.label, "; ".join(problems))
    return Round(setup_s, job_s, summaries)


def _summarize(point: Point, keep_outputs: bool) -> Summary:
    return Summary(
        label=point.label, backend=point.backend, clients=point.clients,
        headline=point.headline,
        write_latencies=point.write_latencies,
        read_latencies=point.read_latencies,
        write_mib_s=point.write_mib_s, read_mib_s=point.read_mib_s,
        lock_wait_s=point.lock_wait_s, signature=point.sim_signature(),
        critpath=point.critpath(),
        observed=point.observed if keep_outputs else b"",
        writers=point.writers if keep_outputs else None)


def _differences(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Simulated values that differ; metrics only ``actual`` has are skipped
    (latency digests exist only when the config enables them)."""
    found = []
    for key, value in expected.items():
        if key == "metrics":
            metrics = actual["metrics"]
            found += [f"{name}: {value[name]!r} != {metrics.get(name)!r}"
                      for name in value if metrics.get(name) != value[name]]
        elif actual[key] != value:
            found.append(f"{key} differs")
    return found


def verify_pass(summaries: List[Summary], tally: Optional[Tally],
                profiler: Optional[LayerProfiler] = None) -> float:
    """Per-byte check and exact atomicity checker over every kept point.

    Returns the pass's host CPU seconds; with a ``tally``, records each
    verdict and counts a violation as a failed operation (unless the
    point's round already counted it for failing the per-byte check).
    """
    def run() -> List[Tuple[Summary, bool, str]]:
        return [(summary, checks.byte_check(summary.observed, summary.writers),
                 checks.atomicity_verdict(summary.observed, summary.writers))
                for summary in summaries]

    timed = _timed(run, profiler=profiler)
    for summary, byte_ok, verdict in timed.value if tally is not None else ():
        tally.verdicts.append(verdict)
        if verdict == checks.VIOLATED and byte_ok:
            tally.fail(summary.label, "MPI atomicity violated")
    return timed.seconds


def _signatures(round_: Round) -> Dict[str, Dict]:
    return {summary.label: summary.signature for summary in round_.summaries}


def _rounds_for(workload: str, seed: int, seconds: float, tally: Tally,
                verify_seconds: Optional[float] = None
                ) -> Tuple[List[Round], List[float]]:
    """Untraced rounds for ``seconds`` (at least one) and, with
    ``verify_seconds``, exact verification passes over the first round's
    output for that long (at least one; the first records its verdicts in
    ``tally``).  Returns the rounds and the passes' seconds.

    Rounds and passes are interleaved, each next step going to whichever
    is further behind its budget, so both medians sample the whole run:
    on a shared host the CPU's speed drifts over tens of seconds.  The
    first round keeps its outputs and is the reference every later round
    must reproduce.
    """
    rounds = [run_round(workload, seed, ClusterConfig(), tally, keep_outputs=True)]
    reference = _signatures(rounds[0])
    passes: List[float] = []
    round_wall = verify_wall = 0.0

    def verify_progress() -> float:
        if verify_seconds is None:
            return 1.0
        if not passes:
            return 0.0
        return verify_wall / verify_seconds if verify_seconds else 1.0

    while True:
        round_progress = round_wall / seconds if seconds else 1.0
        if min(round_progress, verify_progress()) >= 1.0:
            return rounds, passes
        started = time.perf_counter()
        if round_progress <= verify_progress():
            rounds.append(run_round(workload, seed, ClusterConfig(), tally, reference))
            round_wall += time.perf_counter() - started
        else:
            passes.append(verify_pass(rounds[0].summaries,
                                      None if passes else tally))
            verify_wall += time.perf_counter() - started


# ----------------------------------------------------------------------
# metric helpers
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    count = len(ordered)
    if count > 10:
        return ordered[count - 11], 100.0 * (count - 10) / count, count
    return ordered[-1], 100.0, count


def _headline(summaries: List[Summary], backend: str) -> Optional[Summary]:
    for summary in summaries:
        if summary.headline and summary.backend == backend:
            return summary
    return None


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: float) -> Outcome:
    """Rounds for ``seconds`` and exact verification passes for
    ``seconds / 2``, interleaved; end-to-end metrics."""
    tally = Tally()
    rounds, passes = _rounds_for(workload, seed, seconds, tally,
                                 verify_seconds=seconds / 2)
    first = rounds[0].summaries

    metrics: Dict[str, Metric] = {
        "host_s": Metric(statistics.median(r.job_s for r in rounds), "s",
                         f"median of {len(rounds)} rounds"),
        "setup_s": Metric(statistics.median(r.setup_s for r in rounds), "s",
                          f"median of {len(rounds)} rounds"),
        "verify_s": Metric(statistics.median(passes), "s",
                           f"median of {len(passes)} verification passes"),
        "peak_rss_mib": Metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    headline = _headline(first, "versioning")
    if headline is not None:
        metrics["sim_write_mib_s"] = Metric(headline.write_mib_s, SIM_MIB_S,
                                            headline.label)
        metrics["sim_read_mib_s"] = Metric(headline.read_mib_s, SIM_MIB_S,
                                           headline.label)
        for op, samples in (("write", headline.write_latencies),
                            ("read", headline.read_latencies)):
            value, percentile, count = tail(samples)
            metrics[f"sim_{op}_p50_ms"] = Metric(
                statistics.median(samples) * 1e3, SIM_MS, f"n={count}")
            metrics[f"sim_{op}_tail_ms"] = Metric(
                value * 1e3, SIM_MS, f"p{percentile:.1f} of n={count}")
    verdicts = tally.verdicts
    metrics["verified_share"] = Metric(
        verdicts.count(checks.VERIFIED) / len(verdicts) if verdicts else 0.0,
        "share", f"{verdicts.count(checks.VERIFIED)} of {len(verdicts)} points; "
                 f"{verdicts.count(checks.UNVERIFIED)} refused by the checker")
    return Outcome(metrics, tally, first)


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced rounds for ``seconds``, then one traced, profiled round."""
    tally = Tally()
    rounds, _ = _rounds_for(workload, seed, seconds, tally)
    config = ClusterConfig(tracing=True, latency_digests=True)
    profiler = LayerProfiler()
    traced_round = run_round(workload, seed, config, tally,
                             reference=_signatures(rounds[0]),
                             keep_outputs=True, profiler=profiler)
    verify_pass(traced_round.summaries, tally, profiler)
    profile = profiler.fold()
    summaries = traced_round.summaries
    metrics: Dict[str, Metric] = {}

    for layer in REPORTED_LAYERS:
        metrics[f"{layer}.host_self_s"] = Metric(profile.seconds(layer), "s")
    metrics["profile.total_s"] = Metric(
        profile.total_seconds, "s", "sum of every layer's self time")

    def total(name: str) -> int:
        return sum(s.signature["metrics"].get(name, 0) for s in summaries)

    events = sum(s.signature["events"] for s in summaries)
    engine_s = profile.seconds("simengine")
    metrics.update({
        "blobseer.metadata.cache_puts": Metric(
            profile.entry_calls["MetadataNodeCache.put"], "count"),
        "blobseer.metadata.plan_nodes_absorbed": Metric(
            total("metadata.client.plan_nodes_absorbed"), "count"),
        "blobseer.metadata.server_read_rpcs": Metric(
            total("metadata.server.read_rpcs"), "count"),
        "simengine.events": Metric(events, "count"),
        "simengine.events_per_host_s": Metric(
            events / engine_s if engine_s else 0.0, "1/s",
            "events per profiled simengine self second"),
        "core.atomicity.candidate_orders": Metric(
            profile.entry_calls["apply_writes"], "count"),
        "core.atomicity.max_conflict_group": Metric(
            max(_largest_conflict_group(s.writers) for s in summaries), "count"),
        "core.atomicity.host_incl_s": Metric(
            profile.entry_inclusive_seconds("check_mpi_atomicity"), "s",
            "inclusive time of check_mpi_atomicity"),
        "cluster.rpc_calls": Metric(total("rpc.calls"), "count"),
        "cluster.net_bytes": Metric(total("net.bytes"), "count"),
    })

    versioning = _headline(summaries, "versioning")
    locking = _headline(summaries, "posix-locking")
    operations = versioning.critpath["operations"]
    for op in CRITPATH_OPS:
        layers = operations.get(f"file.{op}", {}).get("layers", {})
        for layer in CRITPATH_LAYERS:
            metrics[f"critpath.{op}.{layer}_s"] = Metric(
                layers.get(layer, 0.0), SIM_S, versioning.label)
    registry = versioning.signature["metrics"]
    for quantile in ("p50", "p99"):
        metrics[f"cluster.rpc_latency_{quantile}_ms"] = Metric(
            registry[f"rpc.latency.all.{quantile}"] * 1e3, SIM_MS, versioning.label)
    no_locking = "no locking point"
    metrics["posixfs.sim_lock_wait_s"] = Metric(
        locking.lock_wait_s if locking else 0.0, SIM_S,
        locking.label if locking else no_locking)
    metrics["posixfs.sim_write_mib_s"] = Metric(
        locking.write_mib_s if locking else 0.0, SIM_MIB_S,
        locking.label if locking else no_locking)
    metrics["paper.exp3_speedup"] = Metric(
        versioning.write_mib_s / locking.write_mib_s if locking else 0.0, "x",
        "versioning / posix-locking write MiB/s; paper band 3.5-10x")

    untraced_s = statistics.median(r.job_s for r in rounds)
    metrics["obs.traced_run_overhead"] = Metric(
        traced_round.job_s / untraced_s, "x",
        f"traced, profiled job seconds / untraced median of {len(rounds)} rounds")
    return Outcome(metrics, tally, summaries)


def _largest_conflict_group(writers) -> int:
    # the checker's own grouping: the groups it enumerates orders within
    writes = [VectoredWrite(rank, IOVector.for_write(list(pairs)))
              for rank, pairs in enumerate(writers)]
    return max(len(group) for group in _conflict_groups(writes))


def speedups(summaries: List[Summary]) -> List[Tuple[int, float]]:
    """EXP3 speedup (versioning / posix-locking write MiB/s) per client count."""
    by_clients: Dict[int, Dict[str, float]] = {}
    for summary in summaries:
        by_clients.setdefault(summary.clients, {})[summary.backend] = summary.write_mib_s
    return [(clients, rates["versioning"] / rates["posix-locking"])
            for clients, rates in sorted(by_clients.items())
            if rates.get("posix-locking")]

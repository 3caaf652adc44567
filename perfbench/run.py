#!/usr/bin/env python3
"""Run one benchmark workload; print every metric, then one JSON line.

    python3 perfbench/run.py --workload collective_checkpoint --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Run it from the root of a checkout: the program is imported from
``src/``.  The exit code is 1 when any check failed (wrong bytes, an
atomicity violation, a crashed job, or a traced round that changed a
simulated value) and 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("collective_checkpoint", "atomic_overlap", "tile_atomicity")
#: the paper's reported EXP3 speedup band
PAPER_BAND = (3.5, 10.0)


def pin_allocator() -> None:
    """Pin glibc malloc's adaptive thresholds at the values they adapt to.

    glibc raises its mmap threshold (up to 32 MiB, with the trim threshold
    at twice that) as large blocks are freed, so whether a 16 MiB file image
    is served from the heap or from fresh, page-faulting mmap depends on the
    process's allocation history; measured verification passes took either
    ~1 s or ~2 s (0.8 s of it system time) from one run to the next.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing adaptive to pin
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 64 << 20)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_allocator()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.measure import end_to_end, speedups, traced

    run = traced if args.trace else end_to_end
    outcome = run(args.workload, args.seed, args.seconds)

    for name, metric in outcome.metrics.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"{name:44s} {metric.value!r:>24} {metric.unit}{note}")
    for clients, speedup in speedups(outcome.summaries):
        inside = PAPER_BAND[0] <= speedup <= PAPER_BAND[1]
        print(f"EXP3 speedup at {clients} clients: {speedup:.2f}x "
              f"({'inside' if inside else 'OUTSIDE'} the paper's "
              f"{PAPER_BAND[0]}-{PAPER_BAND[1]}x band)")

    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in outcome.metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks of one job point, with three separate outcomes.

* :func:`byte_check` — cheap, runs on every point: every byte holds the
  value of one of the writers that wrote it, and untouched bytes are zero.
* :func:`atomicity_verdict` — the exact MPI-atomicity checker
  (:func:`repro.core.atomicity.check_mpi_atomicity`).  A real violation is
  ``VIOLATED``; the checker's refusal of a conflict group too large to
  enumerate (it raises ``AtomicityViolation`` for that) is ``UNVERIFIED``,
  not a failure.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.atomicity import VectoredWrite, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.errors import AtomicityViolation

VERIFIED = "verified"
UNVERIFIED = "unverified"
VIOLATED = "violated"

#: one writer's ``(file offset, payload)`` pairs
Pairs = Sequence[Tuple[int, bytes]]


def byte_check(observed: bytes, writers: Sequence[Pairs]) -> bool:
    """True when each byte is some writer's byte there, or zero if untouched."""
    image = np.frombuffer(observed, dtype=np.uint8)
    touched = np.zeros(len(image), dtype=bool)
    explained = np.zeros(len(image), dtype=bool)
    for pairs in writers:
        for offset, data in pairs:
            end = offset + len(data)
            if end > len(image):
                return False
            touched[offset:end] = True
            explained[offset:end] |= image[offset:end] == np.frombuffer(
                data, dtype=np.uint8)
    return bool(np.all(np.where(touched, explained, image == 0)))


def atomicity_verdict(observed: bytes, writers: Sequence[Pairs]) -> str:
    """Run the exact checker over a zero-initialised file of ``len(observed)``."""
    writes = [VectoredWrite(rank, IOVector.for_write(list(pairs)))
              for rank, pairs in enumerate(writers)]
    try:
        ok = check_mpi_atomicity(bytes(len(observed)), writes, observed)
    except AtomicityViolation:
        return UNVERIFIED
    return VERIFIED if ok else VIOLATED

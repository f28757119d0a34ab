"""Summary statistics and open-loop accounting used by the benchmark."""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

#: Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int, min_beyond: int = 10) -> float:
    """Highest candidate percentile with ``min_beyond`` samples above it."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= min_beyond:
            return q
    raise ValueError(
        f"{n} samples leave fewer than {min_beyond} beyond the median"
    )


def open_loop(
    dues: Sequence[float], service: Callable[[int], float]
) -> Tuple[List[float], List[float]]:
    """Replay requests against one server on the arrival clock.

    Request ``i`` starts when it is due and the server is free;
    ``service(i)`` runs it and returns how long it took.  Idle gaps
    are skipped rather than slept through, so wall time is only the
    service time.  Returns per-request ``(latency, wait)``: latency is
    completion minus due time, wait is start minus due time (time spent
    queued behind earlier requests).
    """
    free = -math.inf
    latencies: List[float] = []
    waits: List[float] = []
    for i, due in enumerate(dues):
        start = due if due > free else free
        free = start + service(i)
        latencies.append(free - due)
        waits.append(start - due)
    return latencies, waits

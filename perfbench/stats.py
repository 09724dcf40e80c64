"""The benchmark's own arithmetic: percentiles, spreads, span self time."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: Samples that must lie strictly beyond the reported tail value.
TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Tuple[int, int]:
    """Highest whole percentile ``p`` whose nearest-rank value still has
    ``beyond`` samples after it, for ``n`` samples.

    Returns ``(p, rank)`` with ``rank`` the 1-based nearest rank
    ``ceil(p * n / 100)``.  Raises ``ValueError`` when ``n`` is too
    small for any percentile to qualify.
    """
    if n <= beyond:
        raise ValueError(
            f"{n} samples cannot leave {beyond} beyond any percentile")
    p = 100 * (n - beyond) // n
    return p, -(-p * n // 100)


def op_summary(times: Sequence[float]) -> Dict[str, float]:
    """End-to-end timing metrics of one run's timed ops."""
    ordered = sorted(times)
    n = len(ordered)
    p, rank = tail_percentile(n)
    return {
        "ops_per_s": n / sum(ordered),
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": ordered[rank - 1],
        "tail_percentile": p,
        "samples_beyond_tail": n - rank,
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative spread ``(q3 - q1) / median``,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": rel}


def covered(start: float, end: float,
            intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children.  ``spans`` is a sequence
    of ``(name, start, end, parent_index, op)`` tuples; ``parent_index``
    is ``-1`` for a root."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        out.append((end - start)
                   - covered(start, end, children.get(index, [])))
    return out

"""Independent output references.

Each reference is plain Python written from the program's documented
semantics.  None of them runs this repository's compiler, VM or
``serial_oracle``: a bug there cannot make a wrong output look right.
"""

from __future__ import annotations

from typing import List, Tuple

#: Verdict each cold-verify variant must reach.
VERDICTS = {"full": "accept", "light": "accept", "baseline": "reject"}


def checksum(data: bytes) -> Tuple[List[int], List[bytes]]:
    """The session program (recv -> sum -> send 1 byte + report): the
    report is the byte sum, the one output record its low byte."""
    total = sum(data)
    return [total], [bytes([total % 256])]


def filter_score_agg(record: bytes) -> Tuple[bytes, List[int]]:
    """The filter-score-agg pipeline over one record.

    Filter keeps bytes in ``A``-``Z``; the scorer replaces each with the
    rolling score ``acc = (acc * 31 + v) % 251``; the aggregator emits
    ``(sum % 256, sum // 256 % 256, max, count % 256)`` and reports
    ``sum``.  Only the last hop's report reaches the run.
    """
    kept = [b for b in record if 65 <= b <= 90]
    scores = []
    acc = 0
    for v in kept:
        acc = (acc * 31 + v) % 251
        scores.append(acc)
    total = sum(scores)
    out = bytes([total % 256, total // 256 % 256,
                 max(scores, default=0), len(scores) % 256])
    return out, [total]


def kernel_ok(reports: List[int], warm_reports: List[int]) -> bool:
    """A registry kernel's first report is its own self-check (1 = pass);
    every run must also repeat the untimed warm-up run's reports."""
    return bool(reports) and reports[0] == 1 and reports == warm_reports

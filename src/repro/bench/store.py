"""Continuous benchmark results store — the tko-style trajectory.

The ``BENCH_*.json`` documents are point-in-time snapshots: each sweep
overwrites the last, so six PRs of perf work leave no machine-checkable
history and a regression in any hot path lands silently.  This module
is the append-only complement: every bench run — VM run matrices,
provisioning sweeps, checkpoint sweeps, the CI smoke cells — is
*ingested* into a JSONL store, one line per matrix cell, keyed by the
full measurement context::

    (kind, executor, jit tier, workload, setting, param)

plus run metadata (commit, run id, timestamp).  The store never
rewrites history; a new sweep appends a new generation of records, and
the rolling baseline for a cell is the **median of the last K accepted
runs** of that exact key (accepted = the cell completed ``ok``).
:mod:`repro.bench.gates` consumes the ordered record stream and turns
it into improved / flat / regressed classifications with per-metric
noise bands.

Design notes:

* JSONL, not a database: append is a single ``O_APPEND`` write, the
  file diffs cleanly in review, and a truncated tail line (a crashed
  writer) damages one record, not the store.
* Documents are ingested by one builder, :func:`records_from_doc`,
  driven by the bench kinds' metric declarations
  (:mod:`repro.bench.kinds`): each kind says which store cells its
  document holds and declares each metric once, as deterministic (zero
  noise band — the simulation is deterministic, so any drift is a real
  behaviour change) or wall clock (percentage band).
* One record per cell, not per run: baselines are per-cell, and a cell
  that disappears from later sweeps simply stops generating records
  instead of poisoning run-level comparisons.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ReproError
from .kinds import KINDS, SCHEMAS, read_metrics

#: Store line schema tag.
SCHEMA = "deflection-results/1"

Metric = Union[int, float, bool]


class StoreError(ReproError):
    """A results-store line could not be parsed or ingested."""


@dataclass(frozen=True)
class CellKey:
    """The measurement context a baseline is rolled over."""

    kind: str                    # a bench kind name (kinds.KINDS)
    executor: str                # bench executor label; "" when n/a
    tier: int                    # jit tier; -1 when n/a
    workload: str
    setting: str
    param: Optional[int]

    def __post_init__(self):
        # A typo'd kind raises instead of silently forking a fresh
        # baseline family nothing ever gates.
        if self.kind not in KINDS:
            raise StoreError(
                f"unknown results-store kind {self.kind!r}; "
                f"known: {sorted(KINDS)}")

    def label(self) -> str:
        """Human-oriented cell label for tables and error messages."""
        bits = [self.kind]
        if self.executor:
            bits.append(self.executor)
        bits.append(f"{self.workload}/{self.setting}")
        if self.param is not None:
            bits.append(str(self.param))
        return ":".join(bits)


@dataclass
class Record:
    """One cell observation — one JSONL line."""

    key: CellKey
    metrics: Dict[str, Metric]
    status: str = "ok"
    commit: str = "unknown"
    run_id: str = ""
    ts: float = 0.0
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """Only clean cells feed the rolling baseline."""
        return self.status == "ok"

    def to_line(self) -> str:
        doc = {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "commit": self.commit,
            "ts": round(self.ts, 3),
            "kind": self.key.kind,
            "executor": self.key.executor,
            "tier": self.key.tier,
            "workload": self.key.workload,
            "setting": self.key.setting,
            "param": self.key.param,
            "status": self.status,
            "metrics": self.metrics,
        }
        if self.detail:
            doc["detail"] = self.detail
        return json.dumps(doc, sort_keys=False)

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "Record":
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"results store line {lineno}: not JSON ({exc})") \
                from exc
        if doc.get("schema") != SCHEMA:
            raise StoreError(
                f"results store line {lineno}: schema "
                f"{doc.get('schema')!r}, want {SCHEMA!r}")
        try:
            key = CellKey(kind=doc["kind"], executor=doc["executor"],
                          tier=int(doc["tier"]),
                          workload=doc["workload"],
                          setting=doc["setting"], param=doc["param"])
            return cls(key=key, metrics=dict(doc["metrics"]),
                       status=doc["status"], commit=doc["commit"],
                       run_id=doc["run_id"], ts=float(doc["ts"]),
                       detail=doc.get("detail", ""))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"results store line {lineno}: missing/invalid field "
                f"({exc})") from exc


class ResultsStore:
    """Append-only JSONL store of :class:`Record` lines.

    File order *is* history order: the last record of a key is its
    latest observation, earlier records are its baseline window.
    """

    def __init__(self, path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, records: Iterable[Record]) -> int:
        records = list(records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            for record in records:
                fh.write(record.to_line() + "\n")
        return len(records)

    def load(self) -> List[Record]:
        if not self.path.exists():
            return []
        records = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    records.append(Record.from_line(line, lineno))
        return records

    def runs(self) -> List[str]:
        """Distinct run ids, in first-appearance (= history) order."""
        seen: Dict[str, None] = {}
        for record in self.load():
            seen.setdefault(record.run_id, None)
        return list(seen)


def new_run_id(kind: str, commit: str,
               ts: Optional[float] = None) -> str:
    ts = time.time() if ts is None else ts
    return f"{kind}-{commit}-{int(ts * 1000):x}"


def stamp_run(records: List[Record], commit: str, run_id: str = "",
              ts: Optional[float] = None) -> List[Record]:
    """Stamp one ingest's run metadata onto every record."""
    ts = time.time() if ts is None else ts
    if not run_id:
        kind = records[0].key.kind if records else "run"
        run_id = new_run_id(kind, commit, ts)
    for record in records:
        record.commit = commit
        record.run_id = run_id
        record.ts = ts
    return records


def records_from_doc(doc: dict, commit: str = "unknown",
                     run_id: str = "", ts: Optional[float] = None,
                     executor_label: Optional[str] = None
                     ) -> List[Record]:
    """Ingest a BENCH_* document: one record per store cell its kind
    declares, stamped with the run metadata.

    A cell that completed ``ok`` but fails one of its flag metrics
    (byte identity, chain verification, rollback rejection ...) is
    downgraded to ``divergent``, so it never feeds a baseline.
    ``executor_label`` names the engine of a single-matrix vm document
    (the tier-1 label is erased by the cost model).
    """
    kind = SCHEMAS.get(doc.get("schema"))
    if kind is None:
        raise StoreError(
            f"cannot ingest document schema {doc.get('schema')!r}")
    records = []
    for where, row, metrics in kind.cells(doc, executor_label):
        values = read_metrics(metrics, row)
        status = row.get("status", "ok")
        if status == "ok" and not all(values[m.name] for m in metrics
                                      if m.flag):
            status = "divergent"
        records.append(Record(key=CellKey(kind.name, *where),
                              metrics=values, status=status,
                              detail=row.get("detail", "")))
    return stamp_run(records, commit, run_id=run_id, ts=ts)

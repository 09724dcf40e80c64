"""Checkpoint/restore benchmark: resume equivalence + sealing cost.

Two questions, answered per workload over the full registry:

* **Equivalence** — does a run that is torn down at a safe point and
  resumed from its sealed chain produce a byte-identical outcome
  (status, reports, plaintext *and* wire records, cycle account) to the
  uninterrupted run?  Interrupt points are seeded per workload, so the
  sweep is a deterministic property test, not a lucky sample.  Each
  equivalence cell also re-presents the stale ``n-1`` chain and demands
  a :class:`~repro.errors.RollbackError` — an accepted rollback is a
  benchmark *failure*, not a statistic.

* **Overhead** — what does sealing cost?  Each workload runs plain and
  then once per ``checkpoint_every`` setting; the checkpointed runs
  must stay byte-identical while wall-clock overhead, checkpoint count
  and total sealed bytes are recorded.

Small parameters keep the 15-workload sweep interactive; the overhead
*ratios* are what the experiment reports, and those are governed by the
checkpoint interval, not the absolute run length.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bootstrap import BootstrapEnclave, ProvisionCache, RunOutcome
from ..errors import EnclaveTeardown, ReproError, RollbackError
from ..policy.policies import PolicySet
from ..vm.interrupts import AexSchedule
from ..workloads import get_workload
from .harness import compile_workload

#: Registry parameters small enough for an interactive full sweep.
SMALL_PARAMS = {
    "numeric_sort": 60, "string_sort": 16, "bitfield": 300,
    "fp_emulation": 30, "fourier": 3, "assignment": 2, "idea": 12,
    "huffman": 40, "neural_net": 1, "lu_decomposition": 1,
    "sequence_alignment": 24, "sequence_generation": 600,
    "credit_scoring": 40, "https_handler": 512, "image_filter": 12,
}

#: Checkpoint intervals (instructions) swept by the overhead half.
CHECKPOINT_EVERY = (100, 400, 1600)

#: Fractions of the plain run's step count where the equivalence half
#: injects a teardown (each drawn point is perturbed by a seeded
#: offset, so successive sweeps with different seeds probe different
#: safe points).
INTERRUPT_FRACTIONS = (0.35, 0.8)

#: AEX cadence used by every run in a cell — short enough that most
#: cells take asynchronous exits on *both* sides of the interrupt, so
#: equivalence also covers the checkpointed interrupt-schedule state.
AEX_INTERVAL = 2_000

#: P6 AEX-storm threshold for the bench enclaves.  The cadence above
#: is benign load, not an attack; the default threshold would trip on
#: any run past ~20k instructions and silently truncate the sweep.
AEX_THRESHOLD = 100_000


def outcome_fingerprint(outcome: RunOutcome) -> tuple:
    """Everything observable about a run except wall-clock bookkeeping.

    ``provision_stages`` (host timings), ``provision_cache_hits``,
    ``checkpoints_taken`` and ``resumed_at_step`` legitimately differ
    between an interrupted and an uninterrupted run; everything here
    must not.
    """
    result = outcome.result
    return (
        outcome.status,
        outcome.violation_code,
        outcome.detail,
        tuple(outcome.reports),
        tuple(bytes(d) for d in outcome.sent_plaintext),
        tuple(bytes(d) for d in outcome.sent_wire),
        outcome.observable_cycles,
        (result.steps, result.cycles, result.rip, result.aex_events,
         result.return_value) if result else None,
    )


@dataclass
class OverheadPoint:
    """One (workload, checkpoint_every) overhead measurement."""

    checkpoint_every: int
    wall_s: float
    checkpoints: int
    chain_bytes: int
    overhead_pct: float
    identical: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "wall_s": round(self.wall_s, 6),
                "overhead_pct": round(self.overhead_pct, 2)}


@dataclass
class ResumePoint:
    """One interrupted-and-resumed execution of a workload."""

    interrupt_step: int
    resumed_at_step: int
    chain_len: int
    identical: bool
    rollback_rejected: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckpointCell:
    """All checkpoint measurements for one workload."""

    workload: str
    param: int
    setting: str
    steps: int = 0
    plain_wall_s: float = 0.0
    overhead: List[OverheadPoint] = field(default_factory=list)
    resumes: List[ResumePoint] = field(default_factory=list)
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.status == "ok"
                and all(p.identical for p in self.overhead)
                and all(r.identical and r.rollback_rejected
                        for r in self.resumes))

    def to_dict(self) -> dict:
        return {**asdict(self),
                "plain_wall_s": round(self.plain_wall_s, 6),
                "overhead": [p.to_dict() for p in self.overhead]}


def _teardown_at(boot: BootstrapEnclave, at_step: int):
    """Interrupt callable: destroy the enclave at the first safe point
    at or past ``at_step`` — the host's view of a platform teardown."""
    def interrupt(cpu):
        if cpu.steps >= at_step:
            boot.enclave.destroy()
            raise EnclaveTeardown(
                f"bench teardown at safe point {cpu.steps}")
    return interrupt


class _Cell:
    """One workload's provision-once, run-many harness."""

    def __init__(self, name: str, setting: str, param: int,
                 cache: ProvisionCache):
        self.workload = get_workload(name)
        self.param = param
        self.blob = compile_workload(self.workload, setting, param)
        self.input = self.workload.input_bytes(param)
        self.policies = PolicySet.parse(setting)
        self.boot = BootstrapEnclave(policies=self.policies,
                                     aex_threshold=AEX_THRESHOLD,
                                     provision_cache=cache)
        self._provision()

    def _provision(self) -> None:
        self.boot.receive_binary(self.blob)
        if self.input:
            self.boot.receive_userdata(self.input)

    def recover(self) -> None:
        """Post-teardown host recovery: restart + re-provision."""
        self.boot.recover()
        self._provision()

    def run(self, **kwargs) -> Tuple[RunOutcome, float]:
        t0 = time.perf_counter()
        outcome = self.boot.run(aex_schedule=AexSchedule(AEX_INTERVAL),
                                **kwargs)
        return outcome, time.perf_counter() - t0

    def run_resume(self, blobs, **kwargs) -> Tuple[RunOutcome, float]:
        t0 = time.perf_counter()
        outcome = self.boot.resume(
            list(blobs), aex_schedule=AexSchedule(AEX_INTERVAL),
            **kwargs)
        return outcome, time.perf_counter() - t0


def measure_cell(name: str, setting: str, cache: ProvisionCache,
                 param: Optional[int] = None,
                 checkpoint_settings: Sequence[int] = CHECKPOINT_EVERY,
                 fractions: Sequence[float] = INTERRUPT_FRACTIONS,
                 seed: int = 2021) -> CheckpointCell:
    """All checkpoint measurements for one workload (non-raising)."""
    effective = param if param is not None else SMALL_PARAMS.get(
        name, get_workload(name).default_param)
    cell = CheckpointCell(workload=name, param=effective,
                          setting=setting)
    try:
        harness = _Cell(name, setting, effective, cache)
        plain, cell.plain_wall_s = harness.run()
        want = outcome_fingerprint(plain)
        cell.steps = plain.result.steps if plain.result else 0

        for every in checkpoint_settings:
            blobs: List[bytes] = []
            outcome, wall = harness.run(checkpoint_every=every,
                                        checkpoint_sink=blobs.append)
            cell.overhead.append(OverheadPoint(
                checkpoint_every=every,
                wall_s=wall,
                checkpoints=outcome.checkpoints_taken,
                chain_bytes=sum(len(b) for b in blobs),
                overhead_pct=(100.0 * (wall - cell.plain_wall_s)
                              / cell.plain_wall_s
                              if cell.plain_wall_s > 0 else 0.0),
                identical=outcome_fingerprint(outcome) == want))

        rng = random.Random(f"{seed}:{name}:{effective}")
        every = max(25, cell.steps // 40)
        for fraction in fractions:
            at = max(every, int(cell.steps * fraction)
                     + rng.randrange(2 * every))
            if at >= cell.steps:
                at = max(every, cell.steps // 2)
            blobs = []
            try:
                harness.run(checkpoint_every=every,
                            checkpoint_sink=blobs.append,
                            interrupt=_teardown_at(harness.boot, at))
                cell.status = "error"
                cell.detail = f"teardown at {at} never fired"
                break
            except EnclaveTeardown:
                pass
            harness.recover()
            resumed, _ = harness.run_resume(blobs,
                                            checkpoint_every=every)
            point = ResumePoint(
                interrupt_step=at,
                resumed_at_step=resumed.resumed_at_step or 0,
                chain_len=len(blobs),
                identical=outcome_fingerprint(resumed) == want,
                rollback_rejected=False)
            # The stale n-1 chain (a rollback replay) must fail closed.
            harness.boot.enclave.destroy()
            harness.recover()
            try:
                harness.boot.resume(list(blobs[:-1]),
                                    aex_schedule=AexSchedule(AEX_INTERVAL),
                                    checkpoint_every=every)
            except RollbackError:
                point.rollback_rejected = True
            cell.resumes.append(point)
    except ReproError as exc:
        cell.status = "error"
        cell.detail = f"{type(exc).__name__}: {exc}"
    return cell


@dataclass
class CheckpointMatrix:
    """The full sweep: one :class:`CheckpointCell` per workload."""

    cells: List[CheckpointCell]
    total_wall_s: float
    #: Interrupt-point seed the sweep ran under — recorded in the
    #: document so archived runs (and results-store records built from
    #: them) state which deterministic sweep they measured.
    seed: int = 2021

    @classmethod
    def collect(cls, workloads: Sequence[str], setting: str = "P1-P6",
                param: Optional[int] = None,
                checkpoint_settings: Sequence[int] = CHECKPOINT_EVERY,
                seed: int = 2021) -> "CheckpointMatrix":
        t0 = time.perf_counter()
        cache = ProvisionCache()
        cells = [measure_cell(name, setting, cache, param=param,
                              checkpoint_settings=checkpoint_settings,
                              seed=seed)
                 for name in workloads]
        return cls(cells=cells,
                   total_wall_s=time.perf_counter() - t0,
                   seed=seed)

    @property
    def failures(self) -> List[str]:
        return [c.workload for c in self.cells if not c.ok]

    @property
    def resume_mismatches(self) -> List[str]:
        return [c.workload for c in self.cells
                if any(not r.identical for r in c.resumes)]

    @property
    def rollbacks_accepted(self) -> List[str]:
        return [c.workload for c in self.cells
                if any(not r.rollback_rejected for r in c.resumes)]

    def mean_overhead_pct(self) -> Dict[int, float]:
        """Mean relative wall-clock overhead per checkpoint interval."""
        sums: Dict[int, List[float]] = {}
        for cell in self.cells:
            for point in cell.overhead:
                sums.setdefault(point.checkpoint_every,
                                []).append(point.overhead_pct)
        return {every: round(sum(vals) / len(vals), 2)
                for every, vals in sorted(sums.items())}

    def to_json(self) -> dict:
        return {
            "schema": "deflection-checkpoint-bench/1",
            "seed": self.seed,
            "setting": self.cells[0].setting if self.cells else "",
            "checkpoint_settings": [
                p.checkpoint_every
                for p in (self.cells[0].overhead if self.cells else [])],
            "cells": [c.to_dict() for c in self.cells],
            "totals": {
                "workloads": len(self.cells),
                "resume_points": sum(len(c.resumes)
                                     for c in self.cells),
                "resume_mismatches": self.resume_mismatches,
                "rollbacks_accepted": self.rollbacks_accepted,
                "failures": self.failures,
                "mean_overhead_pct": {
                    str(k): v
                    for k, v in self.mean_overhead_pct().items()},
                "total_wall_s": round(self.total_wall_s, 3),
            },
        }

"""Annotation-full vs annotation-light ablation (static proof tier).

For each (workload, policy setting) cell this sweep compiles the
workload twice — annotation-full (every guard inline) and
annotation-light (provably-safe guards elided, proofs shipped) — runs
both end-to-end through provisioning and execution, and records:

* the deterministic cycle accounts and the overhead each binary pays
  over the unpoliced baseline (the paper's Table II axis);
* static guard-site counts from the analyzer — how many runtime guards
  each binary actually carries, per policy, plus the annotation bytes
  the proofs saved;
* the differential safety checks: the light binary must pass full
  verification (its proof log re-derived in-enclave) and produce
  byte-identical reports to the full binary.

A light cell that fails verification, diverges, or pays *more*
overhead than full is marked failed — the ablation is a correctness
gate as much as a measurement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Optional

from ..analysis import analyze_object
from ..compiler.objfile import ObjectFile
from ..policy.policies import PolicySet
from ..workloads import get_workload
from .harness import CellMatrix, compile_workload, run_workload

#: The guard-bearing settings of the paper matrix (baseline has no
#: guards to elide; P1-P6 adds AEX markers the proof tier leaves
#: untouched, so P1-P5 is the widest interesting column).
STATIC_SETTINGS = ("P1", "P1+P2", "P1-P5")


@dataclass
class StaticResult:
    """One (workload, setting) ablation cell."""

    workload: str
    setting: str
    param: Optional[int] = None
    steps: int = 0
    cycles_full: float = 0.0
    cycles_light: float = 0.0
    #: Overhead over the unpoliced baseline, percent of baseline.
    overhead_full_pct: float = 0.0
    overhead_light_pct: float = 0.0
    #: How much of the full-annotation overhead the proofs removed.
    overhead_cut_pct: float = 0.0
    #: Runtime guard sites (store + rsp + indirect) in each binary.
    guard_sites_full: int = 0
    guard_sites_light: int = 0
    #: Elided sites by proof kind, and the proof-log length.
    elided: Dict[str, int] = field(default_factory=dict)
    proof_entries: int = 0
    text_bytes_full: int = 0
    text_bytes_light: int = 0
    annotation_bytes_saved: int = 0
    #: Differential checks: light verified in-enclave, same reports.
    verified_light: bool = False
    outputs_identical: bool = False
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {**asdict(self), **{
            name: round(getattr(self, name), 4)
            for name in ("overhead_full_pct", "overhead_light_pct",
                         "overhead_cut_pct")}}


def _guard_sites(report) -> int:
    """Per-site runtime guards in a binary (the shadow prologue/
    epilogue and P6 markers are structural, not elidable sites)."""
    from ..policy.templates import AnnotationKind as K
    guard_kinds = {K.STORE_GUARD, K.RSP_GUARD, K.INDIRECT}
    return sum(count for kind, count in report.annotation_counts.items()
               if kind in guard_kinds)


def measure_static_cell(workload: str, setting: str,
                        param: Optional[int] = None) -> StaticResult:
    """Run the full/light ablation for one cell."""
    effective = param if param is not None \
        else get_workload(workload).default_param
    result = StaticResult(workload=workload, setting=setting,
                          param=effective)
    policies = PolicySet.parse(setting)

    base = run_workload(workload, "baseline", param)
    full = run_workload(workload, setting, param)
    light = run_workload(workload, setting, param, light=True)
    result.verified_light = light.status == "ok"
    # Reports, not steps: the light binary retires fewer instructions
    # by construction (that is the point); its *outputs* must match.
    result.outputs_identical = full.reports == light.reports

    obj_full = ObjectFile.parse(compile_workload(workload, setting,
                                                 param))
    obj_light = ObjectFile.parse(compile_workload(workload, setting,
                                                  param, light=True))
    rep_full = analyze_object(obj_full, policies)
    rep_light = analyze_object(obj_light, policies)

    result.steps = light.steps
    result.cycles_full = full.cycles
    result.cycles_light = light.cycles
    if base.cycles > 0:
        result.overhead_full_pct = \
            100.0 * (full.cycles - base.cycles) / base.cycles
        result.overhead_light_pct = \
            100.0 * (light.cycles - base.cycles) / base.cycles
    over_full = full.cycles - base.cycles
    if over_full > 0:
        result.overhead_cut_pct = \
            100.0 * (full.cycles - light.cycles) / over_full
    result.guard_sites_full = _guard_sites(rep_full)
    result.guard_sites_light = _guard_sites(rep_light)
    result.elided = dict(rep_light.elided_counts)
    result.proof_entries = len(obj_light.proofs)
    result.text_bytes_full = len(obj_full.text)
    result.text_bytes_light = len(obj_light.text)
    result.annotation_bytes_saved = rep_light.annotation_bytes_saved

    if not result.verified_light:
        result.status = "unverified"
        result.detail = light.detail
    elif not result.outputs_identical:
        result.status = "divergent"
        result.detail = (f"light reports {light.reports} != "
                         f"full {full.reports}")
    elif result.cycles_light > result.cycles_full:
        result.status = "slower"
        result.detail = ("annotation-light paid more cycles than "
                         "annotation-full")
    return result


class StaticMatrix(CellMatrix):
    """A ``{workload: {setting: StaticResult}}`` ablation sweep
    (``BENCH_static.json``)."""

    schema = "deflection-static/1"
    cell = StaticResult

    @classmethod
    def collect(cls, workloads: Iterable[str],
                settings=STATIC_SETTINGS,
                param: Optional[int] = None,
                jobs: int = 1,
                strict: bool = True) -> "StaticMatrix":
        def precompile(name, setting):
            # both variants, so forked workers inherit them warm
            for light in (False, True):
                compile_workload(name, setting, param, light=light)

        return cls(parallelism=jobs)._fill(
            workloads, settings,
            lambda name, setting: measure_static_cell(
                name, setting, param=param),
            strict, precompile=precompile)

    def totals(self) -> dict:
        ok = [c for c in self.cells if c.ok]
        sites_full = sum(c.guard_sites_full for c in ok)
        sites_light = sum(c.guard_sites_light for c in ok)
        cuts = [c.overhead_cut_pct for c in ok]
        return {
            "cells": len(self.cells),
            "guard_sites_full": sites_full,
            "guard_sites_light": sites_light,
            "elided_sites": sum(c.proof_entries for c in ok),
            "annotation_bytes_saved": sum(c.annotation_bytes_saved
                                          for c in ok),
            "mean_overhead_cut_pct": round(sum(cuts) / len(cuts), 2)
            if cuts else 0.0,
            "min_overhead_cut_pct": round(min(cuts), 2) if cuts else 0.0,
            "failed_cells": self.failures,
        }

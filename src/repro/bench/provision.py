"""Provisioning-latency (delegation) benchmark — §VI-B's one-time cost.

The paper's delegation latency is the time between handing the enclave
a service binary and being ready to run it: parse, load, recursive
descent, policy verification, immediate rewriting.  This module times
that pipeline per (workload, policy setting) cell twice —

* **legacy**: the seed pipeline preserved in :mod:`repro.core.legacy`
  (multi-walk RDD, per-instruction predicate-chain verifier, per-slot
  rewriter), and
* **new**: the decode-once pipeline (:func:`~repro.core.rdd.
  recursive_descent` + dispatch-table verifier + batched rewriter) as
  driven by :meth:`~repro.core.bootstrap.BootstrapEnclave.
  receive_binary`,

plus a **warm** provisioning through a private
:class:`~repro.core.bootstrap.ProvisionCache` (the §VI-B amortized
path).  Each cell also *differentially checks* the optimization: the
rewritten text images must be byte-identical and the verification
evidence equal between the two pipelines, otherwise the cell is marked
``divergent`` and the sweep fails.

Timings are per-stage minima over ``repeats`` runs (minimum, not mean:
provisioning is deterministic, so the minimum is the least-noise
estimate of the true cost).  Cold totals are the sum of the five stage
minima for both pipelines, so the comparison excludes incidental
bookkeeping (hashing, audit records) present in only one driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional

from ..compiler.objfile import ObjectFile
from ..core.bootstrap import BootstrapEnclave, ProvisionCache
from ..core.legacy import (
    LegacyPolicyVerifier, legacy_recursive_descent, legacy_rewrite,
)
from ..core.rewriter import build_value_map
from ..policy.policies import PolicySet
from ..workloads import get_workload
from .harness import PAPER_SETTINGS, CellMatrix, compile_workload

#: The pipeline stages every cold provisioning is decomposed into.
STAGES = ("parse", "load", "rdd", "verify", "rewrite")


@dataclass
class ProvisionResult:
    """One (workload, setting) cell of a provisioning sweep."""

    workload: str
    setting: str
    #: Effective workload parameter (the registry default when the
    #: sweep did not override it) — part of the results-store key, so
    #: sweeps at different sizes never share a baseline.
    param: Optional[int] = None
    text_bytes: int = 0
    instructions: int = 0
    #: Per-stage minima (seconds) over the repeats, keys = ``STAGES``.
    legacy_stages: Dict[str, float] = field(default_factory=dict)
    new_stages: Dict[str, float] = field(default_factory=dict)
    #: Cold provisioning totals: sum of the five stage minima.
    legacy_cold_s: float = 0.0
    new_cold_s: float = 0.0
    #: Provision-cache-hit (install-only) latency, minimum over repeats.
    warm_s: float = 0.0
    #: legacy cold / new cold.
    speedup: float = 0.0
    #: Rewritten text images byte-identical and evidence equal.
    identical: bool = False
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        ms = lambda s: round(s * 1e3, 4)  # noqa: E731 - local shorthand
        return {
            "workload": self.workload,
            "setting": self.setting,
            "param": self.param,
            "text_bytes": self.text_bytes,
            "instructions": self.instructions,
            "legacy_stages_ms": {k: ms(v)
                                 for k, v in self.legacy_stages.items()},
            "new_stages_ms": {k: ms(v)
                              for k, v in self.new_stages.items()},
            "legacy_cold_ms": ms(self.legacy_cold_s),
            "new_cold_ms": ms(self.new_cold_s),
            "warm_ms": ms(self.warm_s),
            "speedup": round(self.speedup, 2),
            "identical": self.identical,
            "status": self.status,
            "detail": self.detail,
        }


def _legacy_provision(boot: BootstrapEnclave,
                      verifier: LegacyPolicyVerifier,
                      blob: bytes):
    """One seed-pipeline provisioning on ``boot``'s enclave; returns
    ``(loaded, verified, stage timings)``."""
    t0 = perf_counter()
    obj = ObjectFile.parse(blob)
    t1 = perf_counter()
    loaded = boot.loader.load(obj)
    space = boot.enclave.space
    text = space.read_raw(loaded.code_base, loaded.code_len)
    entry_off = loaded.entry_addr - loaded.code_base
    target_offs = sorted(set(addr - loaded.code_base
                             for addr in loaded.branch_target_addrs))
    t2 = perf_counter()
    code = legacy_recursive_descent(text, entry_off, target_offs)
    t3 = perf_counter()
    verified = verifier._legacy_verify_stream(code, entry_off,
                                              target_offs)
    t4 = perf_counter()
    values = build_value_map(boot.enclave.layout, loaded,
                             boot.aex_threshold, policies=boot.policies)
    legacy_rewrite(space, loaded.code_base, values,
                   verified.magic_slots)
    t5 = perf_counter()
    return loaded, verified, {
        "parse": t1 - t0, "load": t2 - t1, "rdd": t3 - t2,
        "verify": t4 - t3, "rewrite": t5 - t4,
    }


def _min_stages(minima: Dict[str, float],
                sample: Dict[str, float]) -> None:
    for stage in STAGES:
        value = sample.get(stage, 0.0)
        if stage not in minima or value < minima[stage]:
            minima[stage] = value


def measure_cell(workload: str, setting: str,
                 param: Optional[int] = None,
                 repeats: int = 3,
                 aex_threshold: int = 1000) -> ProvisionResult:
    """Time cold (legacy + new) and cache-warm provisioning of one cell.

    Re-provisioning is idempotent (the loader rewrites the full text/
    data/bss images), so repeats reuse one enclave per pipeline and the
    enclave build itself is never timed.
    """
    blob = compile_workload(workload, setting, param)
    policies = PolicySet.parse(setting)
    effective = param if param is not None \
        else get_workload(workload).default_param
    result = ProvisionResult(workload=workload, setting=setting,
                             param=effective)

    boot_l = BootstrapEnclave(policies=policies,
                              aex_threshold=aex_threshold)
    legacy_verifier = LegacyPolicyVerifier(policies,
                                           boot_l.p0.allowed_svcs)
    boot_n = BootstrapEnclave(policies=policies,
                              aex_threshold=aex_threshold)

    legacy_min: Dict[str, float] = {}
    new_min: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        loaded_l, verified_l, stages = _legacy_provision(
            boot_l, legacy_verifier, blob)
        _min_stages(legacy_min, stages)
        boot_n.receive_binary(blob)
        _min_stages(new_min, boot_n.provision_stages)

    # -- differential check: same image, same evidence -------------------
    image_l = boot_l.enclave.space.read_raw(loaded_l.code_base,
                                            loaded_l.code_len)
    image_n = boot_n.enclave.space.read_raw(boot_n.loaded.code_base,
                                            boot_n.loaded.code_len)
    result.identical = (image_l == image_n and
                        verified_l == boot_n.verified)
    result.text_bytes = loaded_l.code_len
    result.instructions = boot_n.verified.instruction_count

    # -- warm path: second provisioning through a private cache ----------
    boot_n.provision_cache = ProvisionCache()
    boot_n.receive_binary(blob)             # populate (cold, uncounted)
    warm = None
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        boot_n.receive_binary(blob)
        dt = perf_counter() - t0
        if warm is None or dt < warm:
            warm = dt

    result.legacy_stages = legacy_min
    result.new_stages = new_min
    result.legacy_cold_s = sum(legacy_min.values())
    result.new_cold_s = sum(new_min.values())
    result.warm_s = warm or 0.0
    result.speedup = (result.legacy_cold_s / result.new_cold_s
                      if result.new_cold_s > 0 else 0.0)
    if not result.identical:
        result.status = "divergent"
        result.detail = ("legacy and decode-once pipelines produced "
                         "different images or evidence")
    return result


class ProvisionMatrix(CellMatrix):
    """A ``{workload: {setting: ProvisionResult}}`` provisioning sweep
    (``BENCH_provision.json``)."""

    schema = "deflection-provision/1"
    cell = ProvisionResult

    def __init__(self, parallelism: int = 1, repeats: int = 3):
        super().__init__(parallelism)
        self.repeats = repeats

    @classmethod
    def collect(cls, workloads: Iterable[str],
                settings=PAPER_SETTINGS,
                param: Optional[int] = None,
                repeats: int = 3,
                jobs: int = 1,
                strict: bool = True) -> "ProvisionMatrix":
        """Sweep ``workloads`` × ``settings``; ``jobs > 1`` fans cells
        out to the shared fork pool (cells are independent — each builds
        its own enclaves and a private cache, so no state rides between
        them)."""
        return cls(parallelism=jobs, repeats=repeats)._fill(
            workloads, settings,
            lambda name, setting: measure_cell(
                name, setting, param=param, repeats=repeats),
            strict,
            precompile=lambda name, setting: compile_workload(
                name, setting, param))

    @property
    def divergent_cells(self) -> List[str]:
        return [f"{c.workload}/{c.setting}" for c in self.cells
                if c.status == "divergent"]

    @property
    def incomplete_cells(self) -> List[str]:
        """Ok cells missing any of the five stage timings — the CI
        smoke gate for the stage instrumentation itself."""
        return [f"{c.workload}/{c.setting}" for c in self.cells
                if c.ok and (set(c.legacy_stages) != set(STAGES) or
                             set(c.new_stages) != set(STAGES))]

    def _meta(self) -> dict:
        return {"parallelism": self.parallelism, "repeats": self.repeats}

    def totals(self) -> dict:
        ok = [c for c in self.cells if c.ok]
        legacy = sum(c.legacy_cold_s for c in ok)
        new = sum(c.new_cold_s for c in ok)
        return {
            "cells": len(self.cells),
            "legacy_cold_ms": round(legacy * 1e3, 3),
            "new_cold_ms": round(new * 1e3, 3),
            "warm_ms": round(sum(c.warm_s for c in ok) * 1e3, 3),
            "cold_speedup": round(legacy / new, 2) if new > 0 else 0.0,
            "divergent_cells": self.divergent_cells,
            "failed_cells": self.failures,
        }

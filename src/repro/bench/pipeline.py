"""Pipeline throughput/robustness benchmark (``repro bench --pipeline``).

Sweeps the multi-enclave provenance pipeline
(:mod:`repro.service.pipeline`) over a small matrix:

* **topology** — the 3-stage ``filter-score-agg`` chain and the
  4-stage ``stream-map4`` chain;
* **mode** — ``batch`` (one work item end to end) and ``stream``
  (chunked records through long-lived sessions under a bounded
  in-flight window, with per-record channel rekeying);
* **faults** — ``clean`` (honest hosts) and ``chaos`` (a seeded
  :class:`~repro.service.faults.PipelineFaultPlan`: wire mangling,
  transient ECalls, mid-hop teardowns, handoff/chain attacks, stalls,
  quarantines).

Every cell's output is chain-verified (the full provenance chain of
every chunk re-verified against the pipeline input and final output
digests) and compared byte-for-byte against the **unfaulted serial
oracle** — the same verified stages run plainly, chunk by chunk.  A
cell whose run completes but fails either check is downgraded to
``divergent`` and never feeds a baseline.

Metric families, split as the results store expects:

* **deterministic** (zero noise band): link/hop/chunk counts, resume
  and retry counters, rejected-handoff and rejected-chain-attack
  counts, migrations, stalls, discard-reruns, the chain-verified and
  output-identical booleans — all pure functions of the seed;
* **wall clock** (advisory band): total wall seconds, throughput as
  ``records_per_s`` (the one store metric where *higher* is better —
  the gate layer knows), and the p99 per-chunk latency
  ``chunk_p99_s``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.bootstrap import ProvisionCache
from ..service.faults import PipelineFaultPlan, _pipeline_data
from ..service.pipeline import (
    PipelineOrchestrator, TOPOLOGIES, serial_oracle, topology_stages,
)

#: Bench document schema tag.
SCHEMA = "deflection-pipeline/1"

#: Fault settings swept per (topology, mode) pair.
FAULT_SETTINGS = ("clean", "chaos")


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _run_cell(seed: int, topology: str, mode: str, faults: str, *,
              data_len: int, chunk_size: int, window: int,
              rekey_every: Optional[int], checkpoint_every: int,
              cache: ProvisionCache) -> dict:
    stages = topology_stages(topology)
    # NOT hash(): string hashing is per-process randomized and the
    # chaos cells' deterministic counters must replay byte-identically
    # (and identically between the smoke subset and the full matrix).
    trial = sum(f"{topology}/{mode}/{faults}".encode()) % 97
    data = _pipeline_data(trial, length=data_len)
    plan = None
    if faults == "chaos":
        plan = PipelineFaultPlan(
            seed * 1_000_003 + trial * 131 + len(stages))
    orch = PipelineOrchestrator(
        stages, pipeline_id=f"bench-{topology}-{mode}-{faults}",
        topology=topology, seed=seed, fault_plan=plan,
        provision_cache=cache, checkpoint_every=checkpoint_every,
        rekey_every=rekey_every if mode == "stream" else None,
        sleep=None)
    chunking = {"chunk_size": chunk_size} if mode == "stream" else {}
    began = time.perf_counter()
    if mode == "stream":
        run = orch.run_streaming(data, window=window, **chunking)
    else:
        run = orch.run(data)
    # The clock stops before the oracle replay: wall_s/records_per_s
    # time the pipeline, not the check.
    wall_s = time.perf_counter() - began
    oracle, _ = serial_oracle(stages, data, provision_cache=cache,
                              **chunking)
    identical = bool(run.ok and run.output == oracle)
    stats = run.stats
    status = run.status
    if status == "ok" and not (run.chain_verified and identical):
        status = "divergent"
    return {
        "topology": topology,
        "mode": mode,
        "faults": faults,
        "status": status,
        "detail": run.detail or run.chain_detail,
        "stages": len(stages),
        "chunks": run.chunks,
        "links": run.counters["links"],
        "chain_verified": bool(run.chain_verified),
        "output_identical": identical,
        "retries": stats.retries,
        "reconnects": stats.reconnects,
        "recoveries": stats.recoveries,
        "resumes": stats.resumes,
        "rollbacks_rejected": stats.rollbacks_rejected,
        "handoffs_rejected": run.counters["handoffs_rejected"],
        "chain_attacks_rejected":
            run.counters["chain_attacks_rejected"],
        "attacks_accepted": run.counters["attacks_accepted"],
        "discard_reruns": run.counters["discard_reruns"],
        "migrations": run.counters["migrations"],
        "stalls": run.counters["stalls"],
        "rekeys": run.counters["rekeys"],
        "max_in_flight": run.max_in_flight,
        "upstream_excess": run.upstream_reruns,
        "wall_s": wall_s,
        "records_per_s": run.chunks / wall_s if wall_s else 0.0,
        "chunk_p99_s": _percentile(run.chunk_latencies, 0.99),
    }


def run_pipeline_bench(seed: int = 2021, *,
                       topologies=TOPOLOGIES,
                       modes=("batch", "stream"),
                       fault_settings=FAULT_SETTINGS,
                       data_len: int = 96,
                       chunk_size: int = 16,
                       window: int = 2,
                       rekey_every: Optional[int] = 64,
                       checkpoint_every: int = 25) -> dict:
    """Run the pipeline bench matrix; JSON-ready document."""
    cache = ProvisionCache()
    began = time.perf_counter()
    cells = []
    for topology in topologies:
        for mode in modes:
            for faults in fault_settings:
                cells.append(_run_cell(
                    seed, topology, mode, faults,
                    data_len=data_len, chunk_size=chunk_size,
                    window=window, rekey_every=rekey_every,
                    checkpoint_every=checkpoint_every, cache=cache))
    bad = [c for c in cells if c["status"] != "ok"]
    return {
        "schema": SCHEMA,
        "seed": seed,
        "status": "ok" if not bad else bad[0]["status"],
        "cells": cells,
        "all_chain_verified": all(c["chain_verified"] for c in cells),
        "all_output_identical": all(c["output_identical"]
                                    for c in cells),
        "wall_s": time.perf_counter() - began,
        "provision_cache": cache.stats(),
    }

"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of the benchmark's definition.
``BENCHMARK.json`` at the repository root carries what the benchmark
contract admits: name and one-line ``why`` per workload (reason, op in
short, fixed op count), and name, unit, direction and bound per metric;
``tests/test_perfbench_spec.py`` keeps the two in step.  The per-layer
predictions (which end-to-end metric a layer metric should move, on
which workload, and where it should not move) live in ``README.md``
only, because the contract admits no extra keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Timed ops per run never go below this; the tail percentile needs at
#: least eleven samples to leave ten beyond it.
MIN_OPS = 20


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    reason: str
    #: One timed op, in short; README.md has the full definition.
    op: str
    #: Ops in one round-robin cycle; the op count is a whole number of
    #: cycles, so every run times the same multiset of programs.
    cycle: int
    #: Nominal seconds per op on the reference host.  Only used to turn
    #: ``--seconds`` into a fixed op count; never measured.
    nominal_op_s: float
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3

    def op_count(self, seconds: float) -> int:
        """Fixed op count for a ``--seconds`` budget: the same budget
        always gives the same count, so every percentile lands on the
        same rank in every run."""
        cycles = max(math.ceil(MIN_OPS / self.cycle),
                     round(seconds / (self.nominal_op_s * self.cycle)))
        return cycles * self.cycle

    def why(self, run_seconds: int) -> str:
        """The one-line ``why`` of ``BENCHMARK.json``."""
        return (f"{self.reason}; op: {self.op}; "
                f"{self.op_count(run_seconds)} ops per run")


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "session-churn",
        "public-key crypto dominates (Schnorr, DH, quotes)",
        "one attested two-party session on a warm bootstrap, "
        "provision-cache hit",
        cycle=1, nominal_op_s=0.25, setups=7),
    WorkloadSpec(
        "record-stream",
        "ChaCha20, checkpoint sealing, provenance and per-hop cold JIT "
        "dominate",
        "one 128-byte record through the warm 3-stage pipeline, rekeys "
        "firing",
        cycle=1, nominal_op_s=0.30),
    WorkloadSpec(
        "cold-verify",
        "the paper's verification cost, provision cache bypassed",
        "fresh EINIT plus one binary to a verdict (P1-P6 accept, P1-P5 "
        "proof accept, baseline reject)",
        cycle=45, nominal_op_s=0.005),
    WorkloadSpec(
        "enclave-exec",
        "the paper's annotation overhead: hot translated code, VM-bound",
        "one warm ecall_run of a provisioned P1-P6 kernel, 14 kernels "
        "round-robin",
        cycle=14, nominal_op_s=0.05),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload_spec(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


#: End-to-end metrics, measured with tracing off.  Timing bounds are
#: the contract's maximum.  On the reference host (a 2-vCPU shared VM)
#: two sets of ten runs per workload spread by at most 0.109 of their
#: median and their medians moved by at most 0.059; a slow stretch of
#: that host can widen spreads past the bound (README.md).
#: ``setup_s`` is the median of several set-ups per run.
END_TO_END: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("op_tail_s", "s", "lower", 0.25),
    Metric("success_ratio", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Exactly repeatable across two traced runs at one seed.
    deterministic: bool = False


#: Per-layer metrics of the traced run.  Times are self time (span
#: minus child spans) per op; counts are per op.  README.md gives the
#: end-to-end metric and workload each one is predicted to move.
PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("crypto.sig.verify_s", "s", "lower"),
    LayerMetric("crypto.sig.verify_calls", "count", "lower", True),
    LayerMetric("crypto.sig.sign_s", "s", "lower"),
    LayerMetric("crypto.sig.sign_calls", "count", "lower", True),
    LayerMetric("crypto.dh.s", "s", "lower"),
    LayerMetric("crypto.dh.calls", "count", "lower", True),
    LayerMetric("crypto.chacha.s", "s", "lower"),
    LayerMetric("crypto.chacha.bytes", "B", "lower", True),
    LayerMetric("crypto.channel.seal_s", "s", "lower"),
    LayerMetric("crypto.channel.open_s", "s", "lower"),
    LayerMetric("crypto.channel.records", "count", "lower", True),
    LayerMetric("sgx.attestation.verify_quote_s", "s", "lower"),
    LayerMetric("service.protocol.establish_s", "s", "lower"),
    LayerMetric("service.protocol.sessions", "count", "lower", True),
    LayerMetric("sgx.enclave.einit_s", "s", "lower"),
    LayerMetric("sgx.enclave.einit_calls", "count", "lower", True),
    LayerMetric("sgx.enclave.ecall_s", "s", "lower"),
    LayerMetric("sgx.enclave.ecalls", "count", "lower", True),
    LayerMetric("compiler.compile_s", "s", "lower"),
    LayerMetric("compiler.compile_calls", "count", "lower", True),
    LayerMetric("compiler.objfile.parse_s", "s", "lower"),
    LayerMetric("core.loader.load_s", "s", "lower"),
    LayerMetric("core.rdd.s", "s", "lower"),
    LayerMetric("core.rdd.instructions", "count", "lower", True),
    LayerMetric("core.verifier.s", "s", "lower"),
    LayerMetric("core.verifier.rejects", "count", "lower", True),
    LayerMetric("core.proofcheck.s", "s", "lower"),
    LayerMetric("core.rewriter.s", "s", "lower"),
    LayerMetric("core.bootstrap.provision_s", "s", "lower"),
    LayerMetric("core.cache.hit_ratio", "ratio", "higher", True),
    LayerMetric("core.cache.lookups", "count", "lower", True),
    LayerMetric("core.checkpoint.s", "s", "lower"),
    LayerMetric("core.checkpoint.count", "count", "lower", True),
    LayerMetric("core.provenance.verify_s", "s", "lower"),
    LayerMetric("core.provenance.links", "count", "lower", True),
    LayerMetric("service.pipeline.hop_s", "s", "lower"),
    LayerMetric("service.pipeline.rekeys", "count", "lower", True),
    LayerMetric("service.resilient.retries", "count", "lower", True),
    LayerMetric("vm.run_s", "s", "lower"),
    LayerMetric("vm.translate.s", "s", "lower"),
    LayerMetric("vm.translate.blocks", "count", "lower", True),
    LayerMetric("vm.steps", "count", "lower", True),
    LayerMetric("vm.steps_per_s", "1/s", "higher"),
    LayerMetric("trace.coverage", "ratio", "higher"),
    LayerMetric("trace.overhead", "ratio", "higher"),
)

DETERMINISTIC = tuple(m.name for m in PER_LAYER if m.deterministic)

"""Outside-in tracing: spans and counts around calls into each layer.

The benchmark wraps public functions of the program from its own files
(the program itself carries no tracing).  Each wrapper records a span —
name, start, end, parent, op id — while a timed op is active, and
counts work at the same boundary from arguments and return values.
Spans stay in memory and are written out when the run ends.  Outside an
op a wrapper calls straight through.

Wrappers are installed on classes and modules, so objects built after
:func:`install` are traced through every reference they took at build
time (a bootstrap registers its ECall handlers as bound methods when it
is constructed).  That is why the traced copy is set up after
:func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.errors import VerificationError

from . import stats
from .spec import PER_LAYER

OP_SPAN = "op"


class Recorder:
    """Spans of the ops of one traced pass, plus counts."""

    def __init__(self):
        #: ``[name, start, end, parent_index, op]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self.ops = 0
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        self.ops += 1
        return self.open(OP_SPAN)

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module:Qual.name``."""

    target: str
    #: Span name; its self time is reported as ``time_metric``.  None
    #: makes a count-only probe.
    span: Optional[str] = None
    time_metric: Optional[str] = None
    #: Count metric bumped once per call.
    calls: Optional[str] = None
    #: ``enter(args) -> state`` before the call.
    enter: Optional[Callable] = None
    #: ``leave(counts, state, args, result)`` after a normal return.
    leave: Optional[Callable] = None
    #: ``error(counts, exc)`` when the call raises.
    error: Optional[Callable] = None


def _add(metric: str, amount: Callable) -> Callable:
    def leave(counts, state, args, result):
        counts[metric] += amount(state, args, result)
    return leave


def _count_reject(counts, exc) -> None:
    if isinstance(exc, VerificationError):
        counts["core.verifier.rejects"] += 1


def _cache_lookup(counts, state, args, result) -> None:
    counts["core.cache.lookups"] += 1
    counts["cache.hits"] += result is not None


PROBES = (
    Probe("repro.crypto.sig:VerifyingKey.verify", "crypto.sig.verify",
          "crypto.sig.verify_s", "crypto.sig.verify_calls"),
    Probe("repro.crypto.sig:SigningKey.sign", "crypto.sig.sign",
          "crypto.sig.sign_s", "crypto.sig.sign_calls"),
    Probe("repro.crypto.dh:DHKeyPair.__init__", "crypto.dh",
          "crypto.dh.s", "crypto.dh.calls"),
    Probe("repro.crypto.dh:DHKeyPair.shared_secret", "crypto.dh",
          "crypto.dh.s", "crypto.dh.calls"),
    Probe("repro.crypto.channel:SecureChannel.seal", "crypto.channel.seal",
          "crypto.channel.seal_s"),
    Probe("repro.crypto.channel:SecureChannel.open", "crypto.channel.open",
          "crypto.channel.open_s"),
    # One keystream application per channel record.
    Probe("repro.crypto.channel:chacha20_xor", "crypto.chacha",
          "crypto.chacha.s", "crypto.channel.records",
          leave=_add("crypto.chacha.bytes",
                     lambda state, args, result: len(args[2]))),
    Probe("repro.sgx.attestation:AttestationService.verify_quote",
          "sgx.attestation.verify_quote", "sgx.attestation.verify_quote_s"),
    Probe("repro.service.roles:establish_session",
          "service.protocol.establish", "service.protocol.establish_s",
          "service.protocol.sessions"),
    Probe("repro.core.bootstrap:BootstrapEnclave.__init__",
          "sgx.enclave.einit", "sgx.enclave.einit_s",
          "sgx.enclave.einit_calls"),
    Probe("repro.sgx.enclave:Enclave.ecall", "sgx.enclave.ecall",
          "sgx.enclave.ecall_s", "sgx.enclave.ecalls"),
    Probe("repro.core.bootstrap:BootstrapEnclave.receive_binary",
          "core.bootstrap.provision", "core.bootstrap.provision_s",
          error=_count_reject),
    Probe("repro.compiler.frontend:CodeGenerator.compile",
          "compiler.compile", "compiler.compile_s",
          "compiler.compile_calls"),
    Probe("repro.compiler.objfile:ObjectFile.parse",
          "compiler.objfile.parse", "compiler.objfile.parse_s"),
    Probe("repro.core.loader:DynamicLoader.load", "core.loader.load",
          "core.loader.load_s"),
    Probe("repro.core.bootstrap:recursive_descent", "core.rdd",
          "core.rdd.s",
          leave=_add("core.rdd.instructions",
                     lambda state, args, result: len(result.stream))),
    Probe("repro.core.bootstrap:build_value_map", "core.rewriter",
          "core.rewriter.s"),
    Probe("repro.core.verifier:PolicyVerifier.verify_code",
          "core.verifier", "core.verifier.s"),
    Probe("repro.core.proofcheck:ProofChecker.__init__", "core.proofcheck",
          "core.proofcheck.s"),
    Probe("repro.core.proofcheck:ProofChecker.check", "core.proofcheck",
          "core.proofcheck.s"),
    Probe("repro.core.rewriter:ImmRewriter.apply", "core.rewriter",
          "core.rewriter.s"),
    Probe("repro.core.cache:ProvisionCache.lookup", leave=_cache_lookup),
    Probe("repro.core.checkpoint:take_checkpoint", "core.checkpoint",
          "core.checkpoint.s", "core.checkpoint.count"),
    Probe("repro.service.pipeline:verify_links", "core.provenance",
          "core.provenance.verify_s",
          leave=_add("core.provenance.links",
                     lambda state, args, result: len(args[2]))),
    Probe("repro.service.pipeline:PipelineOrchestrator._execute_hop",
          "service.pipeline.hop", "service.pipeline.hop_s"),
    Probe("repro.service.pipeline:PipelineOrchestrator._accept_handoff",
          "service.pipeline.hop", "service.pipeline.hop_s"),
    # Channel ratchets and retries are cumulative on their owners; the
    # probes count the change across each call.
    Probe("repro.service.pipeline:PipelineOrchestrator.run_streaming",
          enter=lambda args: args[0].counters["rekeys"],
          leave=_add("service.pipeline.rekeys",
                     lambda state, args, result:
                     result.counters["rekeys"] - state)),
    Probe("repro.service.resilient:TwoPartyWorkflow.execute",
          enter=lambda args: args[0].combined_stats().retries,
          leave=_add("service.resilient.retries",
                     lambda state, args, result:
                     args[0].combined_stats().retries - state)),
    Probe("repro.vm.cpu:CPU.run", "vm.run", "vm.run_s",
          enter=lambda args: args[0].steps,
          leave=_add("vm.steps",
                     lambda state, args, result: args[0].steps - state)),
    Probe("repro.vm.translate:BlockCache.translate", "vm.translate",
          "vm.translate.s",
          leave=_add("vm.translate.blocks",
                     lambda state, args, result: result is not None)),
)


def _wrap(fn: Callable, probe: Probe, rec: Recorder) -> Callable:
    span, calls = probe.span, probe.calls
    enter, leave, error = probe.enter, probe.leave, probe.error

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        counts = rec.counts
        if calls is not None:
            counts[calls] += 1
        state = enter(args) if enter is not None else None
        index = rec.open(span) if span is not None else -1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if error is not None:
                error(counts, exc)
            raise
        finally:
            if index >= 0:
                rec.close(index)
        if leave is not None:
            leave(counts, state, args, result)
        return result
    return wrapper


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(rec: Recorder, probes=PROBES) -> Callable[[], None]:
    """Install every probe; returns a function that removes them."""
    undo = []
    for probe in probes:
        owner, attr = _resolve(probe.target)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, probe, rec))
        else:
            wrapped = _wrap(raw, probe, rec)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return uninstall


def layer_metrics(rec: Recorder, untraced_ops_per_s: float,
                  probes=PROBES) -> Dict[str, float]:
    """Per-layer metrics of a traced pass: self time and counts per op,
    span coverage of op wall time, and the tracing overhead."""
    n = rec.ops
    time_metric = {p.span: p.time_metric for p in probes if p.span}
    spans = rec.spans
    selfs = stats.self_times(spans)
    totals: Counter = Counter()
    op_wall = top_level = 0.0
    for index, (name, start, end, parent, op) in enumerate(spans):
        if name == OP_SPAN:
            op_wall += end - start
            continue
        totals[time_metric[name]] += selfs[index]
        if spans[parent][0] == OP_SPAN:
            top_level += end - start
    counts = rec.counts
    out = {m.name: 0.0 for m in PER_LAYER}
    for metric, value in list(totals.items()) + list(counts.items()):
        if metric in out:
            out[metric] = value / n
    lookups = counts["core.cache.lookups"]
    out["core.cache.hit_ratio"] = \
        counts["cache.hits"] / lookups if lookups else 0.0
    run_s = totals["vm.run_s"]
    out["vm.steps_per_s"] = counts["vm.steps"] / run_s if run_s else 0.0
    out["trace.coverage"] = top_level / op_wall
    out["trace.overhead"] = (n / op_wall) / untraced_ops_per_s
    return out

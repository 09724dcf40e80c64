"""The bench-kind protocol: one registry entry per ``repro bench`` kind.

A :class:`BenchKind` is everything the shared machinery needs to know
about one kind of benchmark — the store kind and document schema, its
smoke slice, how to ``collect`` a document, which store cells and
metrics a document yields, and how to report it.  Everything else runs
through one path for every kind:

* :func:`repro.bench.harness.run_cells` — the one fork pool;
* :func:`repro.bench.store.records_from_doc` — the one doc ingester,
  driven by the metric declarations below;
* :mod:`repro.bench.gates` — reads each metric's class from
  :func:`metric_class` (every metric is declared exactly once, as
  deterministic or wall clock and as lower- or higher-is-better);
* ``repro bench`` — collect, store hook, ``--json``, table, failure
  lines, exit code.

Adding a kind is one :data:`KINDS` entry: its ``--<name>`` selector,
``BENCH_<name>.json`` default and ``gate --kind`` choice follow.

This module stays import-light (the store and gates read it); each
``collect`` imports its bench module lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from .tables import format_table

#: JIT tier per bench executor label (the label, not
#: ``CostModel.executor`` — ``translate-t1`` resolves to the translate
#: engine with chaining off, so only the label still knows the tier).
TIERS = {"step": 0, "translate-t1": 1, "translate": 2}

#: The engines the VM smoke runs one cell under: the step oracle, the
#: unchained tier-1 translator and the chained tier-2 translator.
SMOKE_ENGINES = ("step", "translate-t1", "translate")


@dataclass(frozen=True)
class Metric:
    """One results-store metric and its gate class.

    ``wall`` metrics are host clock (advisory noise band); the rest are
    deterministic (zero band).  ``higher`` inverts the gate's
    lower-is-better sense.  ``flag`` metrics are booleans that must
    hold for the cell to be accepted into a baseline.  A name ending in
    ``@`` declares a family (``overhead_pct@100``, ``@400`` ...).
    """

    name: str
    #: Dotted path of the value in the cell row (default: ``name``).
    src: str = ""
    wall: bool = False
    higher: bool = False
    flag: bool = False

    def read(self, row: dict):
        """The value in ``row``; None when the row does not carry it
        (an absent flag reads False: it must hold)."""
        *path, leaf = (self.src or self.name).split(".")
        for part in path:
            row = row.get(part, {})
        value = row.get(leaf)
        return bool(value) if self.flag else value


def _declare(specs: Iterable[str], **cls) -> Tuple[Metric, ...]:
    """``"name"`` or ``"name=dotted.src"`` specs, all of one class."""
    return tuple(Metric(*spec.split("="), **cls) for spec in specs)


def det(*specs: str) -> Tuple[Metric, ...]:
    return _declare(specs)


def wall(*specs: str, higher: bool = False) -> Tuple[Metric, ...]:
    return _declare(specs, wall=True, higher=higher)


def flag(*specs: str) -> Tuple[Metric, ...]:
    return _declare(specs, flag=True)


def read_metrics(metrics: Tuple[Metric, ...], row: dict) -> dict:
    """A cell row's metric values, in declaration order; family
    members follow in row order.  A metric the row does not carry is
    left out, so it neither records nor gates."""
    values = {m.name: value for m in metrics
              if not m.name.endswith("@")
              and (value := m.read(row)) is not None}
    families = tuple(m.name for m in metrics if m.name.endswith("@"))
    if families:
        values.update((k, v) for k, v in row.items()
                      if k.startswith(families))
    return values


#: ``cells(doc, executor_label)`` yields, per store cell,
#: ``((executor, tier, workload, setting, param), row, metrics)``.
Cells = Callable[[dict, str], Iterable[tuple]]


@dataclass
class BenchKind:
    """One ``repro bench`` kind (see the module docstring)."""

    #: Store kind, ``--<name>`` selector and ``BENCH_<name>.json``.
    name: str
    schema: str
    metrics: Tuple[Metric, ...]
    cells: Cells
    #: ``collect(args, smoke) -> doc``; ``smoke`` is the kind's smoke
    #: slice under ``--smoke``, else empty.
    collect: Callable[[object, dict], dict]
    #: ``report(doc, args) -> str``: table plus summary lines.
    report: Callable[[dict, object], str]
    #: ``failures(doc) -> lines``; any line fails the run.
    failures: Callable[[dict], List[str]]
    #: Printed on success, formatted with the document's fields.
    ok_line: str = ""
    smoke: dict = field(default_factory=dict)
    #: ``--<name>`` selector help; the default kind has no selector.
    help: str = ""

    @property
    def out(self) -> str:
        return f"BENCH_{self.name}.json"


# -- shared helpers ------------------------------------------------------

def _yes(value) -> str:
    return "yes" if value else "NO"


def _listed(label: str, items: List[str]) -> List[str]:
    """One failure line naming ``items``; none when empty."""
    return [f"{label} ({len(items)}): {', '.join(items)}"] if items \
        else []


def _matrix_cells(doc: dict) -> List[dict]:
    return [cell for row in doc.get("workloads", {}).values()
            for cell in row.values()]


def _matrix_store_cells(metrics):
    def cells(doc, label):
        for cell in _matrix_cells(doc):
            yield (("", -1, cell["workload"], cell["setting"],
                    cell.get("param")), cell, metrics)
    return cells


def _workloads(args, smoke: dict, default=None) -> List[str]:
    from ..workloads.nbench import NBENCH_ORDER
    names = list(args.workloads or default or NBENCH_ORDER)
    return names[:smoke.get("workloads")]


def _settings(args, default=None) -> tuple:
    from .harness import PAPER_SETTINGS
    return tuple(args.settings or default or PAPER_SETTINGS)


# -- vm: the Table II run matrix ----------------------------------------

VM_METRICS = (det("cycles", "steps", "aex_events", "text_bytes",
                  "overhead_pct")
              + wall("wall_s"))


def _vm_subdocs(doc: dict, label) -> dict:
    """``{executor label: single-matrix doc}`` of a vm document — the
    multi-executor wrapper or one ``RunMatrix.to_json()`` (whose
    ``executor`` field erases the tier-1 label, so ``label`` wins)."""
    if "executors" in doc:
        return doc["executors"]
    return {label or doc.get("executor", "translate"): doc}


def _vm_cells(doc, label):
    for ex, sub in _vm_subdocs(doc, label).items():
        for cell in _matrix_cells(sub):
            yield ((ex, TIERS.get(ex, -1), cell["workload"],
                    cell["setting"], cell.get("param")), cell,
                   VM_METRICS)


def smoke_doc(cells: Dict[str, dict], **extra) -> dict:
    """The VM smoke document: one cell dict per engine label."""
    return {"schema": "deflection-bench/1",
            "executors": {ex: {"workloads": {
                cell["workload"]: {cell["setting"]: cell}}}
                for ex, cell in cells.items()},
            **extra}


def _account(r) -> tuple:
    """A cell's deterministic cycle account."""
    return r.steps, r.cycles, r.aex_events


def _speedups(slow, fast, workloads) -> dict:
    per = {}
    for name in workloads:
        wall_fast = sum(r.wall_s for r in fast[name].values())
        per[name] = round(sum(r.wall_s for r in slow[name].values())
                          / wall_fast, 2) if wall_fast else 0.0
    return {"aggregate_speedup": round(
                slow.total_wall_s / fast.total_wall_s, 2)
            if fast.total_wall_s else 0.0,
            "per_workload_speedup": per}


def _collect_vm_smoke(args, name: str, settings: tuple) -> dict:
    """One cell under each :data:`SMOKE_ENGINES` engine, diffed
    bit-exact; with ``--jobs N`` also a one-workload matrix collected
    serially and under the pool, diffed the same way."""
    from ..vm.costmodel import CostModel
    from ..vm.interrupts import AexSchedule
    from .harness import RunMatrix, run_workload
    setting = settings[-1]
    cells = {ex: run_workload(
                name, setting, args.param,
                aex_schedule=AexSchedule(400_000),
                cost_model=CostModel.for_executor(ex),
                provision_cache=not args.no_provision_cache,
                chaos_seed=args.chaos,
                warmup=not args.cold and args.chaos is None)
             for ex in SMOKE_ENGINES}
    step = cells["step"]
    check = {"workload": name, "setting": setting, "diverged": [
        f"{key}[{ex}]" for ex in SMOKE_ENGINES[1:]
        for key in ("steps", "cycles", "aex_events", "reports",
                    "status")
        if getattr(step, key) != getattr(cells[ex], key)]}
    if args.jobs > 1:
        serial, parallel = (RunMatrix.collect(
            [name], settings=settings, param=args.param, jobs=n)
            for n in (1, args.jobs))
        a, b = ({s: (_account(r), r.overhead_pct)
                 for s, r in m[name].items()} for m in (serial, parallel))
        check["parallel"] = {
            "jobs": args.jobs,
            "wall_s": [serial.total_wall_s, parallel.total_wall_s],
            "unequal": [s for s in settings if a[s] != b[s]]}
    return smoke_doc({ex: _without_baseline(c.to_dict())
                      for ex, c in cells.items()}, smoke=check)


def _without_baseline(cell: dict) -> dict:
    """A smoke cell runs no baseline beside it, so it has no overhead
    to carry: a recorded 0.0 would become the key's baseline and gate
    the next sweep's real overhead as a regression."""
    if cell["setting"] != "baseline":
        del cell["overhead_pct"]
    return cell


def _collect_vm(args, smoke: dict) -> dict:
    from ..core.bootstrap import PROVISION_CACHE
    from ..vm.costmodel import CostModel
    from .harness import RunMatrix
    workloads, settings = _workloads(args, smoke), _settings(args)
    if args.smoke:
        return _collect_vm_smoke(args, workloads[0], settings)
    executors = {"both": ["step", "translate"],
                 "all": list(SMOKE_ENGINES)}.get(args.executor,
                                                 [args.executor])
    matrices = {ex: RunMatrix.collect(
                    workloads, settings=settings,
                    cost_model=CostModel.for_executor(ex),
                    param=args.param, jobs=args.jobs, strict=False,
                    provision_cache=not args.no_provision_cache,
                    chaos_seed=args.chaos, warmup=not args.cold)
                for ex in executors}
    if len(matrices) == 1:
        doc = matrices[executors[0]].to_json()
    else:
        # Every non-oracle executor diffs bit-exact against the step
        # oracle; speedups quote the tier-2 translator.
        oracle, fast = matrices["step"], matrices["translate"]
        divergent = [
            f"{name}/{s}" + ("" if ex == "translate" else f" [{ex}]")
            for ex, m in matrices.items() if ex != "step"
            for name in workloads for s in settings
            if _account(oracle[name][s]) != _account(m[name][s])]
        comparison = {**_speedups(oracle, fast, workloads),
                      "divergent_cells": divergent}
        if "translate-t1" in matrices:
            # Attribute the win per tier: chained tier 2 over the
            # block-at-a-time tier-1 translator.
            comparison["tier2_vs_tier1"] = _speedups(
                matrices["translate-t1"], fast, workloads)
        doc = {"schema": "deflection-bench/1",
               "parallelism": args.jobs,
               "steady_state": not args.cold,
               "executors": {ex: m.to_json()
                             for ex, m in matrices.items()},
               "comparison": comparison}
    # Parent-process cache stats plus per-cell hit counts (with --jobs,
    # hits happen inside the pool workers and ride back on the cells).
    cells = [r for m in matrices.values() for r in m.cells]
    doc["provision_cache"] = dict(
        PROVISION_CACHE.stats(),
        cell_hits=sum(r.provision_cache_hits for r in cells))
    if args.chaos is not None:
        doc["chaos_seed"] = args.chaos
        doc["chaos"] = {"retries": sum(r.retries for r in cells),
                        "recoveries": sum(r.recoveries for r in cells)}
    return doc


def _smoke_cells(doc: dict) -> Dict[str, dict]:
    return {ex: _matrix_cells(sub)[0]
            for ex, sub in doc["executors"].items()}


def _report_vm(doc: dict, args) -> str:
    if "smoke" in doc:
        check, cells = doc["smoke"], _smoke_cells(doc)
        step, t1, fast = (cells[ex] for ex in SMOKE_ENGINES)
        lines = [f"smoke {check['workload']}/{check['setting']}: "
                 f"step={step['steps']:,} steps / "
                 f"{step['cycles']:,.0f} cycles, "
                 f"translate={fast['steps']:,} steps / "
                 f"{fast['cycles']:,.0f} cycles"]
        if not check["diverged"]:
            lines.append(
                f"cycle accounts identical across 3 engines "
                f"(speedup {step['wall_s'] / fast['wall_s']:.2f}x, "
                f"tier2 vs tier1 {t1['wall_s'] / fast['wall_s']:.2f}x)")
        par = check.get("parallel")
        if par:
            lines.append(f"smoke {check['workload']} serial vs --jobs "
                         f"{par['jobs']}: wall {par['wall_s'][0]:.3f}s "
                         f"vs {par['wall_s'][1]:.3f}s")
            if not par["unequal"]:
                lines.append("parallel cell values identical to serial")
        return "\n".join(lines)
    label = None if args.executor in ("both", "all") else args.executor
    lines = [format_table(
        f"bench ({ex} executor, jobs={sub['parallelism']})",
        ["workload", "setting", "steps", "cycles", "wall s", "instr/s",
         "ovh %", "status"],
        [[c["workload"], c["setting"], f"{c['steps']:,}",
          f"{c['cycles']:,.0f}", f"{c['wall_s']:.3f}", f"{c['ips']:,.0f}",
          f"{c['overhead_pct']:+.2f}", c["status"]]
         for c in _matrix_cells(sub)])
        for ex, sub in _vm_subdocs(doc, label).items()]
    comparison = doc.get("comparison")
    if comparison:
        lines.append(f"\naggregate speedup (step wall / translate wall): "
                     f"{comparison['aggregate_speedup']}x")
        tier = comparison.get("tier2_vs_tier1")
        if tier:
            lines.append(f"tier-2 chained vs tier-1 translator: "
                         f"{tier['aggregate_speedup']}x")
        if not comparison["divergent_cells"]:
            lines.append("cycle accounts identical across executors")
    return "\n".join(lines)


def _failures_vm(doc: dict) -> List[str]:
    if "smoke" in doc:
        check = doc["smoke"]
        return (_listed("DIVERGENCE", check["diverged"])
                + _listed("PARALLEL DIVERGENCE",
                          check.get("parallel", {}).get("unequal", [])))
    failed = sorted({cell for sub in _vm_subdocs(doc, "").values()
                     for cell in sub["totals"]["failed_cells"]})
    return (_listed("DIVERGENCE",
                    doc.get("comparison", {}).get("divergent_cells", []))
            + _listed("FAILED cells", failed))


# -- provision: delegation latency, legacy vs decode-once ---------------

PROVISION_METRICS = (flag("identical")
                     + det("text_bytes", "instructions")
                     + wall("legacy_cold_ms", "new_cold_ms", "warm_ms"))


def _collect_provision(args, smoke: dict) -> dict:
    from .provision import ProvisionMatrix
    return ProvisionMatrix.collect(
        _workloads(args, smoke), settings=_settings(args),
        param=args.param, repeats=smoke.get("repeats", args.repeats),
        jobs=args.jobs, strict=False).to_json()


def _report_provision(doc: dict, args) -> str:
    totals = doc["totals"]
    return format_table(
        f"provisioning latency (repeats={doc['repeats']}, "
        f"jobs={doc['parallelism']})",
        ["workload", "setting", "legacy ms", "new ms", "warm ms",
         "speedup", "identical", "status"],
        [[c["workload"], c["setting"], f"{c['legacy_cold_ms']:.2f}",
          f"{c['new_cold_ms']:.2f}", f"{c['warm_ms']:.3f}",
          f"{c['speedup']:.2f}x", _yes(c["identical"]), c["status"]]
         for c in _matrix_cells(doc)]) + (
        f"\n\naggregate cold speedup (legacy / decode-once): "
        f"{totals['cold_speedup']}x  "
        f"(legacy {totals['legacy_cold_ms']:.1f} ms, "
        f"new {totals['new_cold_ms']:.1f} ms, "
        f"warm {totals['warm_ms']:.2f} ms)")


def _failures_provision(doc: dict) -> List[str]:
    from .provision import STAGES
    totals = doc["totals"]
    divergent = totals["divergent_cells"]
    stages = set(STAGES)
    incomplete = [f"{c['workload']}/{c['setting']}"
                  for c in _matrix_cells(doc) if c["status"] == "ok"
                  and (set(c["legacy_stages_ms"]) != stages
                       or set(c["new_stages_ms"]) != stages)]
    return (_listed("DIVERGENT cells", divergent)
            + _listed("MISSING stage timings", incomplete)
            + _listed("FAILED cells", [c for c in totals["failed_cells"]
                                       if c not in divergent]))


# -- static: annotation-full vs annotation-light ablation ---------------

STATIC_METRICS = (det("cycles_light", "overhead_light_pct",
                      "residual_guard_sites=guard_sites_light",
                      "text_bytes_light")
                  + flag("outputs_identical", "verified_light"))


def _collect_static(args, smoke: dict) -> dict:
    from .static import STATIC_SETTINGS, StaticMatrix
    # The paper matrix includes baseline (nothing to elide) and P1-P6
    # (AEX markers the proofs leave alone) — the ablation defaults to
    # the guard-bearing columns instead.
    return StaticMatrix.collect(
        _workloads(args, smoke),
        settings=_settings(args, STATIC_SETTINGS), param=args.param,
        jobs=args.jobs, strict=False).to_json()


def _report_static(doc: dict, args) -> str:
    totals = doc["totals"]
    return format_table(
        f"static proof tier ablation (jobs={doc['parallelism']})",
        ["workload", "setting", "full cyc", "light cyc", "ovh full%",
         "ovh light%", "cut %", "guards", "proofs", "verified",
         "identical", "status"],
        [[c["workload"], c["setting"], f"{c['cycles_full']:,.0f}",
          f"{c['cycles_light']:,.0f}", f"{c['overhead_full_pct']:.1f}",
          f"{c['overhead_light_pct']:.1f}",
          f"{c['overhead_cut_pct']:.1f}",
          f"{c['guard_sites_full']}->{c['guard_sites_light']}",
          c["proof_entries"], _yes(c["verified_light"]),
          _yes(c["outputs_identical"]), c["status"]]
         for c in _matrix_cells(doc)]) + (
        f"\n\nguard sites {totals['guard_sites_full']} -> "
        f"{totals['guard_sites_light']} "
        f"({totals['elided_sites']} proven elisions, "
        f"{totals['annotation_bytes_saved']} annotation bytes saved); "
        f"overhead cut mean {totals['mean_overhead_cut_pct']}%, min "
        f"{totals['min_overhead_cut_pct']}%")


# -- checkpoint: resume equivalence + sealing overhead ------------------

CHECKPOINT_METRICS = (det("steps")
                      + flag("resume_identical", "rollbacks_rejected")
                      + det("resume_points")
                      + wall("plain_wall_s", "overhead_pct@")
                      + det("chain_bytes@", "checkpoints@"))


def _checkpoint_cells(doc, label):
    for cell in doc.get("cells", []):
        resumes = cell.get("resumes", [])
        row = {**cell,
               "resume_identical": bool(resumes) and all(
                   r.get("identical") for r in resumes),
               "rollbacks_rejected": bool(resumes) and all(
                   r.get("rollback_rejected") for r in resumes),
               "resume_points": len(resumes)}
        for point in cell.get("overhead", []):
            every = point["checkpoint_every"]
            for name in ("chain_bytes", "checkpoints", "overhead_pct"):
                row[f"{name}@{every}"] = point.get(name, 0)
        yield (("", -1, cell["workload"], cell.get("setting", ""),
                cell.get("param")), row, CHECKPOINT_METRICS)


def _collect_checkpoint(args, smoke: dict) -> dict:
    from ..workloads.registry import WORKLOADS
    from .checkpointing import CheckpointMatrix
    return CheckpointMatrix.collect(
        _workloads(args, smoke, sorted(WORKLOADS)),   # full registry
        setting=_settings(args)[-1], param=args.param).to_json()


def _report_checkpoint(doc: dict, args) -> str:
    rows = [[c["workload"], f"{c['steps']:,}",
             f"{c['plain_wall_s'] * 1e3:.1f}",
             " ".join(f"{p['checkpoint_every']}:{p['overhead_pct']:+.0f}%"
                      for p in c["overhead"]),
             f"{sum(1 for r in c['resumes'] if r['identical'])}"
             f"/{len(c['resumes'])}",
             _yes(c["resumes"] and all(r["rollback_rejected"]
                                       for r in c["resumes"])),
             c["status"]]
            for c in doc["cells"]]
    return format_table(
        f"checkpoint/restore ({doc['setting']}, intervals "
        f"{doc['checkpoint_settings']})",
        ["workload", "steps", "plain ms", "ckpt overhead", "resume ==",
         "rollback rej", "status"], rows) + (
        "\n\nmean sealing overhead per interval: "
        + ", ".join(f"every {k}: {v:+.1f}%" for k, v in
                    doc["totals"]["mean_overhead_pct"].items()))


def _failures_checkpoint(doc: dict) -> List[str]:
    totals = doc["totals"]
    flagged = totals["resume_mismatches"] + totals["rollbacks_accepted"]
    return (_listed("RESUME DIVERGENCE", totals["resume_mismatches"])
            + _listed("ROLLBACK ACCEPTED", totals["rollbacks_accepted"])
            + _listed("FAILED cells", [w for w in totals["failures"]
                                       if w not in flagged]))


# -- fleet: seeded open-loop campaign -----------------------------------

FLEET_METRICS = (flag("zero_lost", "migrated")
                 + det(*(f"{name}=counters.{name}" for name in (
                     "completed", "shed", "dispatches", "preemptions",
                     "replacements")),
                     "rollbacks_rejected=stats.rollbacks_rejected",
                     "ticks", "p50_ticks=latency_ticks.p50",
                     "p99_ticks=latency_ticks.p99")
                 + wall("wall_s", "sec_per_session",
                        "p50_s=latency_s.p50", "p99_s=latency_s.p99"))

TENANT_METRICS = det("attempts", "retries", "fatal_errors", "resumes",
                     "rollbacks_rejected")


def _fleet_cells(doc, label):
    """One aggregate ``campaign`` cell plus one cell per tenant."""
    sessions, status = doc.get("sessions"), doc.get("status", "ok")
    yield (("", -1, "campaign", f"d{doc.get('drones', 0)}", sessions),
           {**doc,
            "migrated": doc.get("counters", {}).get("migrations", 0) > 0,
            "detail": ";".join(doc.get("corrupt", [])
                               + doc.get("lost", []))},
           FLEET_METRICS)
    for tenant, stats in sorted(doc.get("tenants_stats", {}).items()):
        yield (("", -1, "tenant", tenant, sessions),
               {**stats, "status": status}, TENANT_METRICS)


def _collect_fleet(args, smoke: dict) -> dict:
    from .fleet import run_fleet_bench
    return run_fleet_bench(seed=args.seed, **smoke)


def _report_fleet(doc: dict, args) -> str:
    counters, lt = doc["counters"], doc["latency_ticks"]
    rows = [
        ["sessions submitted", str(doc["sessions"])],
        ["admitted / completed",
         f"{counters['admitted']} / {counters['completed']}"],
        ["shed (typed)", str(counters["shed"])],
        ["lost", str(len(doc["lost"]))],
        ["migrations", str(counters["migrations"])],
        ["preemptions", str(counters["preemptions"])],
        ["replacements / quarantines",
         f"{counters['replacements']} / {counters['quarantines']}"],
        ["rollbacks rejected", str(doc["stats"]["rollbacks_rejected"])],
        ["latency ticks p50/p99", f"{lt['p50']:g} / {lt['p99']:g}"],
        ["sessions/sec", f"{doc['sessions_per_sec']:.1f}"],
        ["wall", f"{doc['wall_s']:.2f}s over {doc['ticks']} ticks"],
    ]
    text = format_table(
        f"fleet bench (seed {doc['seed']}, {doc['drones']} drones, "
        f"status {doc['status']})", ["metric", "value"], rows)
    check = doc["migration_check"]
    if check:
        text += (f"\n\nmigrated session {check['job_id']}: "
                 f"{' -> '.join(dict.fromkeys(check['einits']))} "
                 f"(resumed at step {check['resumed_at_step']}, outputs "
                 f"{'byte-identical' if check['outputs_match'] else 'DIVERGENT'})")
    return text


def _failures_fleet(doc: dict) -> List[str]:
    check = doc["migration_check"]
    return (_listed("CORRUPT outputs", doc["corrupt"])
            + _listed("LOST sessions", doc["lost"])
            + ([] if check and check["outputs_match"] else
               ["NO verified checkpoint migration in this campaign"]))


# -- pipeline: multi-enclave provenance pipelines -----------------------

PIPELINE_METRICS = (flag("chain_verified", "output_identical")
                    + det("links", "chunks", "stages", "resumes",
                          "retries", "recoveries", "rollbacks_rejected",
                          "handoffs_rejected", "chain_attacks_rejected",
                          "attacks_accepted", "discard_reruns",
                          "migrations", "stalls", "upstream_excess")
                    + wall("wall_s")
                    + wall("records_per_s", higher=True)
                    + wall("chunk_p99_s"))


def _pipeline_cells(doc, label):
    for cell in doc.get("cells", []):
        yield (("", -1, cell["topology"],
                f"{cell['mode']}-{cell['faults']}", cell.get("chunks")),
               cell, PIPELINE_METRICS)


def _collect_pipeline(args, smoke: dict) -> dict:
    from .pipeline import run_pipeline_bench
    return run_pipeline_bench(seed=args.seed, **smoke)


def _report_pipeline(doc: dict, args) -> str:
    return format_table(
        f"pipeline bench (seed {doc['seed']}, status {doc['status']})",
        ["cell", "status", "chain", "identical", "resumes", "rejected",
         "rec/s", "chunk p99"],
        [[f"{c['topology']}/{c['mode']}/{c['faults']}", c["status"],
          _yes(c["chain_verified"]), _yes(c["output_identical"]),
          str(c["resumes"]),
          str(c["handoffs_rejected"] + c["chain_attacks_rejected"]),
          f"{c['records_per_s']:.1f}", f"{c['chunk_p99_s'] * 1000:.0f}ms"]
         for c in doc["cells"]])


def _failures_pipeline(doc: dict) -> List[str]:
    accepted = sum(c["attacks_accepted"] for c in doc["cells"])
    return (_listed("FAILED cells", [
                f"{c['topology']}/{c['mode']}/{c['faults']}={c['status']}"
                for c in doc["cells"] if c["status"] != "ok"])
            + ([f"ATTACKS ACCEPTED: {accepted} doctored handoffs passed "
                f"chain verification"] if accepted else []))


# -- the registry --------------------------------------------------------

KINDS: Dict[str, BenchKind] = {kind.name: kind for kind in (
    BenchKind("vm", "deflection-bench/1", VM_METRICS, _vm_cells,
              _collect_vm, _report_vm, _failures_vm),
    BenchKind("provision", "deflection-provision/1", PROVISION_METRICS,
              _matrix_store_cells(PROVISION_METRICS),
              _collect_provision, _report_provision, _failures_provision,
              ok_line="legacy and decode-once images byte-identical on "
                      "every cell",
              smoke={"workloads": 1, "repeats": 1},
              help="measure delegation latency instead of execution: "
                   "time the legacy vs decode-once provisioning "
                   "pipelines per stage (plus the cache-warm path) and "
                   "byte-compare their rewritten images; exit nonzero on "
                   "divergence"),
    BenchKind("checkpoint", "deflection-checkpoint-bench/1",
              CHECKPOINT_METRICS, _checkpoint_cells, _collect_checkpoint,
              _report_checkpoint, _failures_checkpoint,
              ok_line="all {totals[resume_points]} interrupted runs "
                      "resumed byte-identically; every rollback replay "
                      "rejected",
              smoke={"workloads": 1},
              help="measure sealed checkpoint/restore instead of raw "
                   "execution: per workload, interrupt the run at seeded "
                   "safe points, resume from the sealed chain and demand "
                   "a byte-identical outcome (plus rollback-replay "
                   "rejection), and sweep the sealing overhead per "
                   "checkpoint_every interval; exit nonzero on any "
                   "divergence or accepted rollback"),
    BenchKind("fleet", "deflection-fleet/1",
              FLEET_METRICS + TENANT_METRICS, _fleet_cells,
              _collect_fleet, _report_fleet, _failures_fleet,
              ok_line="every admitted session completed or was shed "
                      "typed; zero lost",
              smoke={"drones": 3, "sessions": 10, "tenants": 3,
                     "long_every": 3, "max_queue": 12, "tenant_quota": 3},
              help="measure fleet throughput/latency instead of raw "
                   "execution: drive a supervised drone pool through a "
                   "seeded open-loop arrival process (with a scripted "
                   "mid-run kill so at least one session provably "
                   "migrates across EINITs via its sealed checkpoint "
                   "chain); exit nonzero on any lost session, divergent "
                   "output or missing migration"),
    BenchKind("static", "deflection-static/1", STATIC_METRICS,
              _matrix_store_cells(STATIC_METRICS), _collect_static,
              _report_static,
              lambda doc: _listed("FAILED cells",
                                  doc["totals"]["failed_cells"]),
              ok_line="every annotation-light binary verified in-enclave "
                      "with outputs identical to annotation-full",
              smoke={"workloads": 3},
              help="measure the static proof tier instead of raw "
                   "execution: compile every cell annotation-full and "
                   "annotation-light (provable guards elided, proofs "
                   "shipped), demand the light binary pass full "
                   "in-enclave verification with outputs identical to "
                   "full, and record the overhead the proofs cut; exit "
                   "nonzero on any unverified, divergent or slower cell"),
    BenchKind("pipeline", "deflection-pipeline/1", PIPELINE_METRICS,
              _pipeline_cells, _collect_pipeline, _report_pipeline,
              _failures_pipeline,
              ok_line="every cell chain-verified and byte-identical to "
                      "the unfaulted serial oracle",
              # one topology, both modes, clean hosts only
              smoke={"topologies": ("filter-score-agg",),
                     "fault_settings": ("clean",), "data_len": 48,
                     "chunk_size": 16},
              help="measure the multi-enclave provenance pipeline "
                   "instead of raw execution: sweep topologies x "
                   "batch/stream x clean/chaos, verify every cell's full "
                   "cross-enclave provenance chain and byte-compare its "
                   "output against the unfaulted serial oracle; exit "
                   "nonzero on any broken chain, accepted attack or "
                   "divergent output (throughput is stored as "
                   "records_per_s, latency as chunk_p99_s)"),
)}

#: Document schema -> kind, for the ingester.
SCHEMAS = {kind.schema: kind for kind in KINDS.values()}


def _metric_classes() -> Dict[str, Metric]:
    """Every declared metric by name; a name two kinds share must carry
    one gate class."""
    table: Dict[str, Metric] = {}
    for kind in KINDS.values():
        for metric in kind.metrics:
            seen = table.setdefault(metric.name, metric)
            if (seen.wall, seen.higher) != (metric.wall, metric.higher):
                raise ValueError(f"metric {metric.name!r} declared with "
                                 f"two gate classes")
    return table


_CLASSES = _metric_classes()


def metric_class(name: str) -> Metric:
    """The gate class of a store metric (a family member resolves to
    its family; an undeclared name is deterministic, lower-is-better)."""
    if name not in _CLASSES and "@" in name:
        name = name.split("@")[0] + "@"
    return _CLASSES.get(name, Metric(name))

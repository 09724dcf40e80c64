"""Run-matrix helpers shared by the test suite and the benchmarks.

``run_workload`` executes one workload under one policy setting through
the *full* pipeline — compile, instrument, link, serialize, parse, load,
RDD, verify, rewrite, execute — and returns the deterministic cycle
account.  ``overhead_matrix`` sweeps the paper's five policy settings
and computes overhead percentages relative to the baseline (the pure
loader, as in §VI-B).

Two layers of amortization keep sweeps fast:

* compiled objects are memoised — the same (source, policies) pair is
  compiled once per process;
* provisioning goes through the process-wide
  :data:`~repro.core.bootstrap.PROVISION_CACHE`, so re-running a cell
  (both-executor comparisons, figure size sweeps over one binary)
  skips RDD + verification + imm rewriting.

:func:`run_cells` is the one fork pool every matrix kind shares
(``RunMatrix``, ``ProvisionMatrix``, ``StaticMatrix``): ``jobs=N`` fans
the workload × setting cells out to ``multiprocessing`` workers, cells
are compiled once in the parent (the fork inherits the warm compile
cache), and results come back in task order — so a parallel matrix's
deterministic cell values are byte-identical to a serial run; only
wall-clock fields may differ.  :class:`CellMatrix` is the matrix shape
they share.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..compiler.frontend import compile_source
from ..core.bootstrap import PROVISION_CACHE, BootstrapEnclave, RunOutcome
from ..errors import (
    EnclaveError, EnclaveTeardown, ProtocolError, ReproError,
    RetryBudgetExceeded,
)
from ..policy.policies import PolicySet
from ..sgx.layout import EnclaveConfig
from ..vm.costmodel import CostModel
from ..vm.interrupts import AexSchedule
from ..workloads import Workload, get_workload

#: The evaluation columns of Table II / Figs 7-9.
PAPER_SETTINGS = ("baseline", "P1", "P1+P2", "P1-P5", "P1-P6")

#: Timed repetitions per steady-state cell (minimum wall wins).  The
#: repetitions are bit-identical replays of one warm execution, so
#: their spread is host-scheduler noise, not workload variance.
WARM_REPS = 3


@dataclass
class BenchResult:
    """One cell of a run matrix."""

    workload: str
    setting: str
    param: Optional[int] = None
    steps: int = 0
    cycles: float = 0.0
    reports: List[int] = field(default_factory=list)
    aex_events: int = 0
    text_bytes: int = 0
    status: str = "ok"
    #: Failure reason when ``status != "ok"`` (non-strict sweeps).
    detail: str = ""
    #: Host wall-clock seconds of the execute phase only (the enclave
    #: run, excluding compile/link/load/verify) — the executor
    #: comparison metric.
    wall_s: float = 0.0
    #: Overhead vs the row baseline, attached by ``overhead_matrix``.
    overhead_pct: float = 0.0
    #: Provision-cache hits observed while provisioning this cell.
    provision_cache_hits: int = 0
    #: Chaos-mode counters (``chaos_seed``): attempts repeated after an
    #: injected fault, and enclave rebuilds after injected teardowns.
    retries: int = 0
    recoveries: int = 0
    #: Translating-executor counters for the measured run (chain hops,
    #: IC hits, compiles, invalidations, mean instructions retired per
    #: dispatch); None under the step engine.
    jit: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def ips(self) -> float:
        """Retired instructions per host wall-clock second."""
        return self.steps / self.wall_s if self.wall_s > 0 else 0.0

    def overhead_vs(self, baseline: "BenchResult") -> float:
        """Relative overhead in percent (cycle account)."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (self.cycles - baseline.cycles) / baseline.cycles

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "setting": self.setting,
            "param": self.param,
            "steps": self.steps,
            "cycles": self.cycles,
            "aex_events": self.aex_events,
            "text_bytes": self.text_bytes,
            "status": self.status,
            "detail": self.detail,
            "wall_s": round(self.wall_s, 6),
            "ips": round(self.ips, 1),
            "overhead_pct": round(self.overhead_pct, 4),
            "provision_cache_hits": self.provision_cache_hits,
            "retries": self.retries,
            "recoveries": self.recoveries,
            **({"jit": self.jit} if self.jit is not None else {}),
        }


@functools.lru_cache(maxsize=256)
def _compile_cached(source: str, label: str, light: bool = False) -> bytes:
    return compile_source(source, PolicySet.parse(label),
                          light=light).serialize()


def _chaos_plan_seed(chaos_seed: int, name: str, setting: str,
                     param) -> int:
    """Per-cell fault-plan seed.  Derived with a real hash (not
    ``hash()``, which is salted per process) so serial and pool runs of
    the same sweep inject identical faults."""
    digest = hashlib.sha256(
        f"{chaos_seed}:{name}:{setting}:{param}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _chaos_gate(boot: BootstrapEnclave, plan, site: str) -> None:
    fault = plan.draw_ecall_fault(site)
    if fault == "teardown":
        boot.enclave.destroy()
        raise EnclaveTeardown(f"injected enclave teardown before {site}")
    if fault == "transient":
        raise EnclaveError(f"injected transient failure before {site}")


def _chaos_cell(boot: BootstrapEnclave, blob: bytes, input_bytes: bytes,
                plan, label: str, **run_kwargs):
    """Provision + run one cell under an injected-fault plan.

    Every attempt redoes the whole provisioning (re-delivery is cheap:
    the undamaged blob is a provision-cache hit), so a teardown can
    never leave a half-provisioned enclave for the next attempt.  The
    delivered blob may be corrupted or truncated in flight; the
    measurement re-check catches whatever the parser/verifier does not.
    No AEX storms are injected here — chaos must not change the cell's
    cycle accounting, only its path to completion.

    An error on an attempt that charged no fault is genuine and
    propagates immediately.  Returns ``(outcome, wall_s, retries,
    recoveries)``; the fault budget bounds the loop, so
    ``max_faults + 2`` attempts provably suffice.
    """
    expected = hashlib.sha256(blob).digest()
    retries = recoveries = 0
    last = None
    for _ in range(plan.max_faults + 2):
        charged = len(plan.injected)
        try:
            if boot.enclave.destroyed:
                boot.recover()
                recoveries += 1
            delivered, _ = plan.mangle_blob(blob)
            _chaos_gate(boot, plan, "receive_binary")
            if boot.receive_binary(delivered) != expected:
                raise ProtocolError(
                    "enclave measured a different binary "
                    "(corrupted delivery)")
            if input_bytes:
                _chaos_gate(boot, plan, "receive_userdata")
                boot.receive_userdata(input_bytes)
            _chaos_gate(boot, plan, "run")
            t0 = time.perf_counter()
            outcome = boot.run(**run_kwargs)
            return outcome, time.perf_counter() - t0, retries, recoveries
        except ReproError as exc:
            if len(plan.injected) == charged:
                raise
            retries += 1
            last = exc
    raise RetryBudgetExceeded(
        f"{label}: chaos retries exhausted "
        f"(last: {type(last).__name__}: {last})") from last


def snapshot_run_state(boot: BootstrapEnclave):
    """Capture everything a warm re-run must rewind: the enclave RAM
    image plus platform AEX bookkeeping.  Take it *after* provisioning
    (and userdata delivery); restore between the untimed warm-up run
    and each measured repetition.  Measurement machinery — it lives
    here rather than on the enclave so the TCB stays benchmark-free."""
    return boot.enclave.space.snapshot_ram(), boot.enclave.hw_aex_count


def restore_run_state(boot: BootstrapEnclave, snap) -> None:
    """Restore a :func:`snapshot_run_state` image in place."""
    boot.enclave.space.restore_ram(snap[0])
    boot.enclave.hw_aex_count = snap[1]


def compile_workload(workload: Union[str, Workload], setting: str,
                     param: Optional[int] = None,
                     light: bool = False) -> bytes:
    if isinstance(workload, str):
        workload = get_workload(workload)
    return _compile_cached(workload.source(param), setting, light)


def run_workload(workload: Union[str, Workload], setting: str,
                 param: Optional[int] = None,
                 aex_schedule: Optional[AexSchedule] = None,
                 cost_model: Optional[CostModel] = None,
                 config: Optional[EnclaveConfig] = None,
                 max_steps: int = 100_000_000,
                 aex_threshold: int = 1000,
                 strict: bool = True,
                 provision_cache: bool = True,
                 chaos_seed: Optional[int] = None,
                 warmup: bool = False,
                 light: bool = False) -> BenchResult:
    """Full-pipeline execution of one workload under one setting.

    ``strict=True`` (the default) raises on any failure — violation,
    fault, rejected binary, failed self-check.  ``strict=False``
    records the failure in ``status``/``detail`` and returns the cell,
    so a sweep survives one bad cell.

    ``warmup=True`` measures *steady state*: the cell executes once
    untimed (populating the translating executor's block cache, chain
    edges and inline caches), the enclave image is restored bit-exact,
    and the timed run repeats the identical execution on the warm CPU.
    Applied uniformly to every executor — the step engine gains
    nothing, the tier-1 translator recoups its small compile cost, the
    tier-2 translator recoups chaining warm-up — so cross-executor
    ratios compare pure execution.  The two runs are bit-identical
    (same steps, cycles, AEX arrivals); ignored under ``chaos_seed``.

    ``chaos_seed`` runs the cell under deterministic fault injection
    (see :mod:`repro.service.faults`): deliveries get corrupted, ECalls
    fail transiently, the enclave gets torn down mid-provisioning — and
    the cell must still converge to the exact same measurement.  The
    extra work is reported in ``retries``/``recoveries``.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    effective_param = param if param is not None else \
        workload.default_param
    try:
        policies = PolicySet.parse(setting)
        blob = compile_workload(workload, setting, param, light=light)
        boot = BootstrapEnclave(
            policies=policies, config=config,
            aex_threshold=aex_threshold,
            provision_cache=PROVISION_CACHE if provision_cache else None)
        input_bytes = workload.input_bytes(param)
        retries = recoveries = 0
        if chaos_seed is None:
            boot.receive_binary(blob)
            if input_bytes:
                boot.receive_userdata(input_bytes)
            if warmup:
                # Eager JIT on the priming run: the block cache hits
                # its fixed point in one pass (the lazy threshold
                # otherwise keeps crossing for many runs on stubs born
                # at AEX-resume rips), so the timed runs compile
                # nothing and measure pure warm execution.  Three
                # timed repetitions, minimum wall: the repetitions are
                # bit-identical, so the spread is pure scheduler noise
                # and the minimum is the least-disturbed measurement.
                snap = snapshot_run_state(boot)
                boot.run(aex_schedule=aex_schedule,
                         cost_model=cost_model,
                         max_steps=max_steps, reuse_cpu=True,
                         jit_eager=True)
                wall_s = None
                for rep in range(WARM_REPS):
                    restore_run_state(boot, snap)
                    t0 = time.perf_counter()
                    outcome: RunOutcome = boot.run(
                        aex_schedule=aex_schedule,
                        cost_model=cost_model,
                        max_steps=max_steps, reuse_cpu=True)
                    rep_wall = time.perf_counter() - t0
                    if wall_s is None or rep_wall < wall_s:
                        wall_s = rep_wall
            else:
                t0 = time.perf_counter()
                outcome = boot.run(aex_schedule=aex_schedule,
                                   cost_model=cost_model,
                                   max_steps=max_steps)
                wall_s = time.perf_counter() - t0
        else:
            # Imported lazily: repro.service pulls in this module via
            # the HTTPS simulator, so a top-level import would cycle.
            from ..service.faults import FaultPlan
            plan = FaultPlan(_chaos_plan_seed(
                chaos_seed, workload.name, setting, effective_param))
            outcome, wall_s, retries, recoveries = _chaos_cell(
                boot, blob, input_bytes, plan,
                f"{workload.name}/{setting}",
                aex_schedule=aex_schedule, cost_model=cost_model,
                max_steps=max_steps)
    except ReproError as exc:
        if strict:
            raise
        return BenchResult(workload=workload.name, setting=setting,
                           param=effective_param, steps=0, cycles=0.0,
                           status="error", detail=str(exc))
    result = BenchResult(
        workload=workload.name, setting=setting,
        param=effective_param,
        steps=outcome.result.steps if outcome.result else 0,
        cycles=outcome.result.cycles if outcome.result else 0.0,
        reports=list(outcome.reports),
        aex_events=outcome.result.aex_events if outcome.result else 0,
        text_bytes=boot.loaded.code_len,
        status=outcome.status,
        detail=outcome.detail,
        wall_s=wall_s,
        provision_cache_hits=outcome.provision_cache_hits,
        retries=retries,
        recoveries=recoveries,
        jit=outcome.jit_stats)
    if outcome.status != "ok":
        if strict:
            raise RuntimeError(
                f"{workload.name}/{setting}: {outcome.status} "
                f"({outcome.detail})")
        return result
    if result.reports and result.reports[0] != 1:
        if strict:
            raise RuntimeError(
                f"{workload.name}/{setting}: self-check failed "
                f"(reports={result.reports})")
        result.status = "selfcheck"
        result.detail = f"self-check failed (reports={result.reports})"
    return result


def _cell_schedule(setting: str,
                   aex_mean_interval: int) -> Optional[AexSchedule]:
    """The AEX schedule a cell runs under — P6 cells get benign OS
    timer ticks; one shared helper so serial and parallel sweeps use
    bit-identical schedules."""
    if aex_mean_interval and PolicySet.parse(setting).p6:
        return AexSchedule(aex_mean_interval)
    return None


def attach_overheads(results: Dict[str, BenchResult],
                     strict: bool = True) -> None:
    """Attach ``overhead_pct`` vs the baseline and cross-check reports.

    All settings of one workload must report identical values
    (differential check).  Failed cells are skipped: they keep
    ``overhead_pct == 0.0`` and never poison the divergence check.  In
    non-strict mode a diverging cell is downgraded to
    ``status="divergent"`` instead of raising.
    """
    baseline = results.get("baseline")
    if baseline is not None and not baseline.ok:
        baseline = None
    reports0 = None
    for setting, result in results.items():
        if not result.ok:
            continue
        if reports0 is None:
            reports0 = result.reports
        elif result.reports != reports0:
            message = (f"{result.workload}: reports diverge between "
                       f"settings ({setting}: {result.reports} vs "
                       f"{reports0})")
            if strict:
                raise RuntimeError(message)
            result.status = "divergent"
            result.detail = message
            # A downgraded cell must read like a failed one: drop any
            # overhead attached by an earlier pass over this row.
            result.overhead_pct = 0.0
            continue
        result.overhead_pct = (result.overhead_vs(baseline)
                               if baseline and setting != "baseline"
                               else 0.0)


def overhead_matrix(workload: Union[str, Workload],
                    param: Optional[int] = None,
                    settings=PAPER_SETTINGS,
                    aex_mean_interval: int = 400_000,
                    strict: bool = True,
                    **kwargs) -> Dict[str, BenchResult]:
    """Run ``workload`` under every setting; attach ``.overhead_pct``.

    The P1-P6 setting runs under a benign AEX schedule (OS timer ticks),
    so the marker path and the AEX accounting are actually exercised.
    The default threshold is sized for benign profiles of the largest
    benchmark runs, as §IV-C prescribes ("set by profiling the enclave
    program in benign environments").
    """
    results: Dict[str, BenchResult] = {}
    for setting in settings:
        results[setting] = run_workload(
            workload, setting, param,
            aex_schedule=_cell_schedule(setting, aex_mean_interval),
            strict=strict, **kwargs)
    attach_overheads(results, strict=strict)
    return results


#: Errors a non-strict sweep records on the failed cell instead of
#: raising (unknown workload names and malformed settings included).
_CELL_ERRORS = (ReproError, KeyError, ValueError)

#: The sweep a pool worker serves, installed by the pool initializer.
#: Workers fork, so the cell function (a closure) and the parent's warm
#: compile cache are inherited, never pickled; the parent's copy stays
#: empty.
_WORKER_SWEEP: dict = {}


def _safe_cell(sweep: dict, task: tuple):
    """Measure one cell; a non-strict sweep turns a cell error into a
    failed cell (``status="error"``) and keeps sweeping."""
    try:
        return sweep["measure"](*task)
    except _CELL_ERRORS as exc:
        if sweep["strict"]:
            raise
        return sweep["failed"](*task, exc)


def _pool_cell(task: tuple):
    """Pool-worker side of :func:`run_cells`.  Returns ``(cell, fresh
    provision-cache entries)`` when harvesting: workers die with the
    pool, and without the harvest a later sweep over the same binaries
    would re-verify everything."""
    sweep = _WORKER_SWEEP
    before = PROVISION_CACHE.keys() if sweep["harvest"] else None
    cell = _safe_cell(sweep, task)
    return cell, (PROVISION_CACHE.export_since(before)
                  if before is not None else {})


def run_cells(tasks: Iterable[tuple], measure: Callable, jobs: int = 1,
              *, failed: Callable, strict: bool = True,
              precompile: Optional[Callable] = None,
              harvest: bool = False) -> list:
    """Run ``measure(*task)`` for every task; results in task order.

    ``jobs == 1`` runs the cells inline; ``jobs > 1`` fans them out to
    a fork pool of ``min(jobs, len(tasks))`` workers, after running
    ``precompile(*task)`` for every task in the parent so the workers
    inherit a warm compile cache.  An empty task set never reaches the
    pool.  ``failed(*task, exc)`` builds the cell a non-strict sweep
    records for a cell error; ``harvest`` absorbs the provision-cache
    entries each worker created back into the parent's cache.
    """
    tasks = list(tasks)
    sweep = dict(measure=measure, failed=failed, strict=strict,
                 harvest=harvest)
    if jobs <= 1 or not tasks or \
            "fork" not in multiprocessing.get_all_start_methods():
        return [_safe_cell(sweep, task) for task in tasks]
    if precompile is not None:
        for task in tasks:
            try:
                precompile(*task)
            except _CELL_ERRORS:
                if strict:
                    raise
                # the worker re-raises and records the failed cell
    with multiprocessing.get_context("fork").Pool(
            processes=min(jobs, len(tasks)),
            initializer=_WORKER_SWEEP.update, initargs=(sweep,)) as pool:
        results = pool.map(_pool_cell, tasks)
    for _, fresh in results:
        PROVISION_CACHE.absorb(fresh)
    return [cell for cell, _ in results]


class CellMatrix(dict):
    """A ``{workload: {setting: cell}}`` sweep — the shape shared by
    every matrix kind.  Subclasses name their ``schema`` and ``cell``
    type (any dataclass with ``workload``/``setting``/``status``/
    ``detail`` fields, an ``ok`` property and ``to_dict``), and add
    their own ``totals``."""

    schema = ""
    cell: type

    def __init__(self, parallelism: int = 1):
        super().__init__()
        #: Worker-pool size the cells ran under (1 = serial).
        self.parallelism = max(1, int(parallelism))

    def _fill(self, workloads: Iterable[str], settings, measure,
              strict: bool, **pool) -> "CellMatrix":
        """Sweep ``workloads`` × ``settings`` through :func:`run_cells`.
        Every workload gets a row, so an empty ``settings`` yields empty
        rows and an empty ``workloads`` no rows, at any ``jobs``."""
        workloads, settings = list(workloads), tuple(settings)
        cells = iter(run_cells(
            [(name, setting) for name in workloads
             for setting in settings],
            measure, self.parallelism, strict=strict,
            failed=lambda name, setting, exc: self.cell(
                workload=name, setting=setting, status="error",
                detail=str(exc)),
            **pool))
        for name in workloads:
            self[name] = {setting: next(cells) for setting in settings}
        return self

    @property
    def cells(self) -> list:
        return [cell for row in self.values() for cell in row.values()]

    @property
    def failures(self) -> List[str]:
        """``workload/setting`` labels of every non-ok cell."""
        return [f"{c.workload}/{c.setting}" for c in self.cells
                if not c.ok]

    def _meta(self) -> dict:
        return {"parallelism": self.parallelism}

    def totals(self) -> dict:
        return {"failed_cells": self.failures}

    def to_json(self) -> dict:
        """JSON-ready document: sweep totals plus per-cell dicts."""
        return {
            "schema": self.schema,
            **self._meta(),
            "totals": self.totals(),
            "workloads": {
                name: {setting: cell.to_dict()
                       for setting, cell in row.items()}
                for name, row in self.items()
            },
        }


class RunMatrix(CellMatrix):
    """A full ``{workload: {setting: BenchResult}}`` sweep.

    Archived as ``BENCH_vm.json`` and diffed across commits.
    ``executor`` records which VM engine produced the numbers (see
    :class:`~repro.vm.costmodel.CostModel.executor`)."""

    schema = "deflection-bench/1"
    cell = BenchResult

    def __init__(self, executor: str = "translate",
                 parallelism: int = 1):
        super().__init__(parallelism)
        self.executor = executor

    @classmethod
    def collect(cls, workloads: Iterable[str],
                settings=PAPER_SETTINGS,
                executor: str = "translate",
                cost_model: Optional[CostModel] = None,
                jobs: int = 1,
                strict: bool = True,
                provision_cache: bool = True,
                aex_mean_interval: int = 400_000,
                **kwargs) -> "RunMatrix":
        """Sweep ``workloads`` × ``settings`` under one executor.

        ``jobs > 1`` dispatches cells to the shared fork pool; the
        overheads are attached per row in the parent afterwards, so the
        matrix's cell values are identical to a serial run.
        ``strict=False`` records failed cells (``status``/``detail``)
        instead of aborting the sweep.
        """
        cm = cost_model or CostModel(executor=executor)
        param = kwargs.get("param")

        def measure(name, setting):
            return run_workload(
                name, setting,
                aex_schedule=_cell_schedule(setting, aex_mean_interval),
                cost_model=cm, strict=strict,
                provision_cache=provision_cache, **kwargs)

        matrix = cls(executor=cm.executor, parallelism=jobs)._fill(
            workloads, settings, measure, strict,
            precompile=lambda name, setting: compile_workload(
                name, setting, param),
            harvest=provision_cache)
        for row in matrix.values():
            attach_overheads(row, strict=strict)
        return matrix

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.cells)

    @property
    def total_steps(self) -> int:
        return sum(r.steps for r in self.cells)

    def _meta(self) -> dict:
        return {"executor": self.executor,
                "parallelism": self.parallelism}

    def totals(self) -> dict:
        cells = self.cells
        return {
            "wall_s": round(self.total_wall_s, 6),
            "steps": self.total_steps,
            "ips": round(self.total_steps / self.total_wall_s, 1)
            if self.total_wall_s > 0 else 0.0,
            "provision_cache_hits": sum(r.provision_cache_hits
                                        for r in cells),
            "retries": sum(r.retries for r in cells),
            "recoveries": sum(r.recoveries for r in cells),
            "failed_cells": self.failures,
            **self._jit_totals(),
        }

    def _jit_totals(self) -> dict:
        """Sweep-level JIT aggregates (empty under the step engine)."""
        cells = [r.jit for r in self.cells if r.jit]
        if not cells:
            return {}
        total = {key: sum(c.get(key, 0) for c in cells)
                 for key in ("compiled", "template_hits",
                             "dispatch_calls", "chain_links",
                             "chain_hops", "ic_hits", "ic_misses",
                             "ic_fills", "invalidated_blocks",
                             "severed_edges", "evicted_blocks",
                             "elided_flag_writes", "hoisted_regs")}
        steps = sum(c.get("steps", 0) for c in cells)
        disp = total["dispatch_calls"]
        total["mean_instrs_per_dispatch"] = \
            round(steps / disp, 2) if disp else 0.0
        probes = total["ic_hits"] + total["ic_misses"]
        total["ic_hit_rate"] = \
            round(total["ic_hits"] / probes, 4) if probes else 0.0
        return {"jit": total}

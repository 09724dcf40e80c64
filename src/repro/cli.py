"""Command-line interface: ``python -m repro <command>``.

Developer-facing tooling around the library:

* ``compile`` — run the untrusted producer on a MiniC file;
* ``objdump`` — inspect a relocatable object (headers, symbols,
  relocations, branch-target list, disassembly);
* ``verify``  — run the in-enclave verifier standalone and report the
  annotation inventory or the rejection reason;
* ``run``     — full pipeline: load, verify, rewrite, execute;
* ``bench``   — Table II sweep with a machine-readable result file,
  plus a two-executor smoke/divergence check for CI; ``--record``
  appends every cell to the continuous results store and
  ``bench gate`` fails on regressions vs the rolling baseline;
* ``chaos``   — seeded fault-injection campaign over the two-party
  protocol; nonzero when any transient failure goes unrecovered or a
  fatal class was retried;
* ``tcb``     — print the measured TCB inventory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench.tables import format_table
from .compiler import CodeGenerator, ObjectFile
from .core import BootstrapEnclave
from .core.verifier import PolicyVerifier
from .errors import ReproError
from .isa.disassembler import disassemble_linear, format_instruction
from .policy import PolicySet
from .vm.interrupts import AexSchedule


#: Default continuous-results store (committed bench history).
DEFAULT_STORE = "benchmarks/results/history.jsonl"


def _policies(label: str) -> PolicySet:
    return PolicySet.parse(label)


def _git_commit() -> str:
    """Short commit id of the working tree, ``"unknown"`` outside a
    checkout — store metadata, never part of a cell key."""
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _bench_store_hook(args, doc: dict) -> None:
    """``--record``: append this sweep's cells to the store.
    ``--baseline``: print the delta report of these cells against the
    stored rolling baseline (informational — ``bench gate`` is the
    enforcing path)."""
    if not (args.record or args.baseline):
        return
    from .bench import gates
    from .bench.store import ResultsStore, records_from_doc
    records = records_from_doc(doc, commit=args.commit or _git_commit(),
                               executor_label=args.executor)
    store = ResultsStore(args.store)
    if args.record:
        count = store.append(records)
        print(f"recorded {count} cells -> {store.path}")
    if args.baseline:
        history = store.load() if args.record \
            else store.load() + list(records)
        report = gates.evaluate(history, window=args.window,
                                wall_band_pct=args.band)
        print(report.render())


def cmd_bench_gate(args) -> int:
    """``repro bench gate``: classify the latest run of every stored
    cell against its rolling baseline; nonzero on any blocking
    regression."""
    from .bench import gates
    from .bench.store import ResultsStore
    store = ResultsStore(args.store)
    if not store.exists():
        print(f"error: no results store at {store.path} "
              f"(run `repro bench --record` first)", file=sys.stderr)
        return 1
    records = store.load()
    if not records:
        print(f"error: results store {store.path} is empty",
              file=sys.stderr)
        return 1
    if args.synthetic_regression:
        records = gates.inject_synthetic_regression(
            records, args.synthetic_regression)
        print(f"[self-test] appended a synthetic run degrading every "
              f"numeric metric by {args.synthetic_regression:g}%")
    report = gates.evaluate(records, window=args.window,
                            wall_band_pct=args.band,
                            gate_wall=args.gate_wall,
                            kinds=args.kind or None)
    print(report.render(verbose=args.verbose))
    if report.regressions:
        cells = sorted({d.key.label() for d in report.regressions
                        if d.key is not None})
        print(f"REGRESSED cells ({len(cells)}): {', '.join(cells)}")
        return 1
    print("gate passed: no blocking regression vs rolling baseline")
    return 0


def cmd_compile(args) -> int:
    source = Path(args.source).read_text()
    generator = CodeGenerator(_policies(args.policies),
                              include_prelude=not args.no_prelude)
    obj = generator.compile(source, entry=args.entry)
    blob = obj.serialize()
    out = Path(args.output or (Path(args.source).stem + ".dfob"))
    out.write_bytes(blob)
    print(f"{out}: {len(blob)} bytes "
          f"(text {len(obj.text)}, data {len(obj.data)}, "
          f"bss {obj.bss_size}), policies {obj.policies_label}, "
          f"{len(obj.symbols)} symbols, "
          f"{len(obj.branch_targets)} indirect targets")
    return 0


def cmd_objdump(args) -> int:
    obj = ObjectFile.parse(Path(args.object).read_bytes())
    show_all = not (args.symbols or args.relocs or args.disasm
                    or args.stats)
    if show_all or args.headers:
        print(f"entry:     {obj.entry}")
        print(f"policies:  {obj.policies_label}")
        print(f"text:      {len(obj.text)} bytes")
        print(f"data:      {len(obj.data)} bytes")
        print(f"bss:       {obj.bss_size} bytes")
        print(f"hash:      {obj.measurement().hex()}")
    if show_all or args.symbols:
        rows = [[name, sym.section_name, f"{sym.offset:#x}",
                 "func" if sym.kind == 0 else "object",
                 "*" if name in obj.branch_targets else ""]
                for name, sym in sorted(obj.symbols.items())]
        print(format_table("symbols (* = indirect-branch target)",
                           ["name", "section", "offset", "kind", "ib"],
                           rows))
    if show_all or args.relocs:
        rows = [[f"{r.offset:#x}", r.symbol, f"{r.addend:+d}"]
                for r in obj.relocations]
        print(format_table("relocations (ABS64)",
                           ["text offset", "symbol", "addend"], rows))
    if args.stats:
        from .analysis import analyze_object
        policies = _policies(args.policies) if args.policies else None
        print(analyze_object(obj, policies).render())
    if args.disasm:
        by_offset = {}
        for name, sym in obj.symbols.items():
            if sym.section_name == "text":
                by_offset.setdefault(sym.offset, []).append(name)
        for off, ins in disassemble_linear(obj.text):
            for name in by_offset.get(off, []):
                print(f"\n{name}:")
            print(f"  {off:6x}:  {format_instruction(ins)}")
    return 0


def cmd_verify(args) -> int:
    obj = ObjectFile.parse(Path(args.object).read_bytes())
    verifier = PolicyVerifier(_policies(args.policies))
    entry = obj.symbols[obj.entry].offset
    targets = [obj.symbols[n].offset for n in obj.branch_targets]
    try:
        if obj.proofs:
            # Proof-carrying object: the log only re-derives against
            # resolved constants and enclave bounds, so verify over the
            # same synthetic relocation the link-time prover used.
            from .core.rdd import recursive_descent
            from .staticproof import synthetic_image
            stext, bases, sentry, stargets = synthetic_image(obj)
            scode = recursive_descent(stext, sentry, stargets)
            verified = verifier.verify_code(scode, sentry, stargets,
                                            proofs=obj.proofs,
                                            values=bases)
        else:
            verified = verifier.verify(obj.text, entry, targets)
    except ReproError as exc:
        print(f"REJECTED: {exc}")
        return 1
    print(f"VERIFIED under {args.policies}: "
          f"{verified.instruction_count} reachable instructions, "
          f"{sum(verified.annotation_counts.values())} annotations, "
          f"{len(verified.magic_slots)} rewriter slots")
    for kind, count in sorted(verified.annotation_counts.items()):
        print(f"  {kind:18s} {count}")
    if verified.proofs:
        print(f"  static proofs      {len(verified.proofs)} "
              f"(elided guards re-derived)")
    return 0


def cmd_run(args) -> int:
    blob = Path(args.object).read_bytes()
    boot = BootstrapEnclave(policies=_policies(args.policies),
                            aex_threshold=args.aex_threshold)
    try:
        boot.receive_binary(blob)
    except ReproError as exc:
        print(f"REJECTED: {exc}")
        return 1
    if args.input:
        boot.receive_userdata(Path(args.input).read_bytes())
    if args.trace:
        outcome, trace = boot.run_traced(max_instructions=args.trace)
        for line in trace:
            print(line)
    else:
        schedule = {"none": None,
                    "benign": AexSchedule.benign(),
                    "attack": AexSchedule.attack()}[args.aex]
        outcome = boot.run(aex_schedule=schedule,
                           max_steps=args.max_steps)
    print(f"status:  {outcome.status}"
          + (f" ({outcome.violation_name})"
             if outcome.status == "violation" else ""))
    if outcome.result:
        print(f"steps:   {outcome.result.steps:,}")
        print(f"cycles:  {outcome.result.cycles:,.0f}")
        print(f"aex:     {outcome.result.aex_events}")
        print(f"return:  {outcome.result.return_value}")
    if outcome.reports:
        print(f"reports: {outcome.reports}")
    for i, data in enumerate(outcome.sent_plaintext):
        print(f"send[{i}]: {data[:64]!r}"
              + (" ..." if len(data) > 64 else ""))
    if outcome.ok or outcome.status == "truncated":
        return 0
    return 2


def cmd_bench(args) -> int:
    """One driver for every bench kind: collect, store hook, ``--json``,
    table, failure lines, exit code."""
    from .bench.kinds import KINDS
    from .workloads import get_workload
    kind = KINDS[args.bench_kind]
    try:
        for name in args.workloads or ():
            get_workload(name)
        for setting in args.settings or ():
            PolicySet.parse(setting)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = kind.collect(args, kind.smoke if args.smoke else {})
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or kind.out)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    print(kind.report(doc, args))
    failures = kind.failures(doc)
    for line in failures:
        print(line)
    if failures:
        return 1
    if kind.ok_line:
        print(kind.ok_line.format(**doc))
    return 0


#: Error kinds that must never show up among *retried* errors — a
#: campaign that retried one of these has broken the fail-closed rule.
_NEVER_RETRY = ("PolicyViolation", "VerificationError",
                "AttestationError", "RetryBudgetExceeded",
                "RollbackError", "DeadlineExceeded",
                "ProvenanceError")


def _verdict_base(report: dict):
    """Two-party campaign (``--mid-run`` adds mid-execution faults)."""
    totals = report["totals"]
    summary = (
        f"chaos seed={report['seed']} trials={report['trials']}"
        f"{' mid-run' if report['mid_run'] else ''}: "
        f"{totals['ok']} ok, {totals['violation']} violations "
        f"trapped, {totals['aborted']} aborted | "
        f"{totals['faults_injected']} faults injected, "
        f"{totals['retries']} retries, "
        f"{totals['reconnects']} reconnects, "
        f"{totals['recoveries']} enclave recoveries, "
        f"{totals['resumes']} checkpoint resumes, "
        f"{totals['rollbacks_rejected']} rollbacks rejected")
    checks = (
        (totals["unrecovered"],
         f"UNRECOVERED transient failures: {totals['unrecovered']}"),
        (totals["corrupt"],
         f"CORRUPT OUTCOMES (resumed run diverged or tampered state was "
         f"accepted): {totals['corrupt']}"))
    return summary, checks, (
        "all transient faults recovered; no fatal class retried; every "
        "completed run produced the expected result")


def _verdict_fleet(report: dict):
    """Fleet-scoped campaign: drone kills, storms, outages."""
    counters = report["counters"]
    summary = (
        f"fleet chaos seed={report['seed']}: "
        f"{counters['completed']} completed, "
        f"{counters['shed']} shed typed, "
        f"{len(report['faults'])} faults injected | "
        f"{counters['replacements']} replacements, "
        f"{counters['quarantines']} quarantines, "
        f"{counters['migrations']} migrations, "
        f"{counters['preemptions']} preemptions, "
        f"{report['stats']['rollbacks_rejected']} rollbacks rejected")
    checks = (
        (report["lost"], f"LOST SESSIONS: {', '.join(report['lost'])}"),
        (report["corrupt"],
         f"CORRUPT OUTCOMES: {', '.join(report['corrupt'])}"))
    return summary, checks, (
        "every admitted session completed or was shed typed under "
        "fleet-scoped faults; all outputs byte-identical")


def _verdict_pipeline(report: dict):
    """Pipeline campaign: mid-hop kills, handoff and chain attacks,
    stalls, quarantines."""
    totals, trials = report["totals"], report["trials"]
    summary = (
        f"pipeline chaos seed={report['seed']} trials={trials}: "
        f"{totals['ok']} ok | "
        f"{totals['faults_injected']} faults injected, "
        f"{totals['midrun_teardowns']} mid-hop teardowns, "
        f"{totals['resumes']} checkpoint resumes, "
        f"{totals['handoffs_rejected']} corrupt handoffs rejected, "
        f"{totals['chain_attacks_rejected']} chain attacks rejected, "
        f"{totals['discard_reruns']} discard-reruns, "
        f"{totals['migrations']} migrations, "
        f"{totals['stalls']} stalls requeued")
    checks = (
        (not report["zero_lost"], f"LOST PIPELINES: {totals['lost']}"),
        (not report["zero_attacks_accepted"],
         f"ATTACKS ACCEPTED: {totals['attacks_accepted']} doctored "
         f"handoffs passed chain verification"),
        (not report["all_identical"],
         f"DIVERGENT OUTPUTS: {trials - totals['identical']} of {trials} "
         f"trials differ from the unfaulted serial oracle"),
        (not report["zero_upstream_excess"],
         f"UPSTREAM RE-EXECUTION: {totals['upstream_excess']} completed "
         f"runs beyond one per hop per chunk"),
        (not report["replay_identical"],
         "REPLAY DIVERGENCE: re-running trial 0 from the same seed "
         "produced a different report"))
    return summary, checks, (
        "zero lost pipelines; every attack rejected; every mid-hop "
        "teardown recovered by resume at that hop; all outputs "
        "byte-identical to the serial oracle; replay byte-identical")


def cmd_chaos(args) -> int:
    """One driver for every chaos campaign: run, JSON report, summary,
    failure lines (plus the shared never-retry check), exit code."""
    from .service import faults
    if args.campaign == "fleet":
        if args.trials is not None:
            print("error: --trials does not apply to --fleet",
                  file=sys.stderr)
            return 2
        report = faults.run_fleet_campaign(seed=args.seed)
        verdict = _verdict_fleet
    elif args.campaign == "pipeline":
        report = faults.run_pipeline_campaign(
            seed=args.seed, trials=6 if args.trials is None else args.trials)
        verdict = _verdict_pipeline
    else:
        report = faults.run_campaign(
            seed=args.seed, trials=20 if args.trials is None else args.trials,
            mid_run=args.campaign == "mid-run")
        verdict = _verdict_base
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    summary, checks, ok_line = verdict(report)
    print(f"\n{summary}")
    retried = sorted(kind for kind in report.get("retried_error_kinds", ())
                     if kind in _NEVER_RETRY)
    failures = [line for failed, line in checks + (
        (retried, f"FATAL CLASSES RETRIED: {', '.join(retried)}"),)
        if failed]
    for line in failures:
        print(line)
    if failures:
        return 1
    print(ok_line)
    return 0


def cmd_tcb(args) -> int:
    from .tcb import consumer_inventory, verifier_core_loc
    rows = [[c.name, c.loc, f"{c.kloc:.2f}"]
            for c in consumer_inventory().values()]
    print(format_table("measured DEFLECTION TCB",
                       ["component", "LoC", "kLoC"], rows))
    core = verifier_core_loc()
    print(f"\nloader+rewriter: {core['loader']} LoC (paper: <600)")
    print(f"verifier+RDD:    {core['verifier']} LoC (paper: <700)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .bench.kinds import KINDS
    parser = argparse.ArgumentParser(
        prog="repro", description="DEFLECTION reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile+instrument MiniC")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--policies", default="P1-P6")
    p.add_argument("--entry", default="main")
    p.add_argument("--no-prelude", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("objdump", help="inspect a relocatable object")
    p.add_argument("object")
    p.add_argument("--headers", action="store_true")
    p.add_argument("--symbols", action="store_true")
    p.add_argument("--relocs", action="store_true")
    p.add_argument("--disasm", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--policies", default=None,
                   help="include the annotation inventory for this "
                        "policy level")
    p.set_defaults(func=cmd_objdump)

    p = sub.add_parser("verify", help="run the in-enclave verifier")
    p.add_argument("object")
    p.add_argument("--policies", default="P1-P6")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="load, verify and execute")
    p.add_argument("object")
    p.add_argument("--policies", default="P1-P6")
    p.add_argument("--input")
    p.add_argument("--aex", choices=["none", "benign", "attack"],
                   default="none")
    p.add_argument("--aex-threshold", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=100_000_000)
    p.add_argument("--trace", type=int, default=0, metavar="N",
                   help="single-step and print the first N instructions")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="paper benchmark sweep")
    p.add_argument("--workloads", nargs="*", default=None,
                   help="workload names (default: the NBench suite)")
    p.add_argument("--settings", nargs="*", default=None,
                   help="policy settings (default: Table II columns)")
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--executor",
                   choices=["translate", "step", "both",
                            "translate-t1", "all"], default="both",
                   help="engine(s) to sweep: 'both' = step + tier-2 "
                        "translator, 'all' adds the unchained tier-1 "
                        "translator so the speedup attributes per tier")
    p.add_argument("--cold", action="store_true",
                   help="skip the per-cell warm-up run: report "
                        "first-run walls (compile + cold dispatch "
                        "included) instead of steady state")
    p.add_argument("--json", action="store_true",
                   help="write machine-readable results to --out")
    p.add_argument("-o", "--out", default=None,
                   help="result file (default: BENCH_<kind>.json, "
                        "e.g. BENCH_vm.json, BENCH_fleet.json with "
                        "--fleet)")
    # One kind selector per run: the kinds are mutually exclusive.
    kinds = p.add_mutually_exclusive_group()
    for kind in KINDS.values():
        if kind.help:
            kinds.add_argument(f"--{kind.name}", dest="bench_kind",
                               action="store_const", const=kind.name,
                               help=kind.help)
    p.set_defaults(bench_kind="vm")
    p.add_argument("--seed", type=int, default=2021,
                   help="campaign seed for --fleet / --pipeline "
                        "(arrival process, job mix, fault plans, retry "
                        "jitter)")
    p.add_argument("--repeats", type=int, default=3,
                   help="provisioning repetitions per cell; stage "
                        "timings are minima over the repeats")
    p.add_argument("--smoke", action="store_true",
                   help="run one kernel under both executors; exit "
                        "nonzero on cycle-account divergence (with "
                        "--jobs N, also assert a parallel sweep equals "
                        "the serial one); with --provision, sweep one "
                        "workload and fail on divergent images or "
                        "missing stage timings")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for the run matrix "
                        "(cell values are identical to a serial sweep)")
    p.add_argument("--no-provision-cache", action="store_true",
                   help="re-verify every provisioning instead of "
                        "reusing cached verified images")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="run every cell under seeded fault injection "
                        "(injected delivery corruption, transient ECall "
                        "failures, enclave teardowns); cell values must "
                        "be unchanged, the extra retry/recovery work is "
                        "recorded in the JSON document")
    p.add_argument("--record", action="store_true",
                   help="append every cell of this sweep to the "
                        "continuous results store (--store), keyed by "
                        "(commit, executor, tier, workload, setting, "
                        "param)")
    p.add_argument("--baseline", action="store_true",
                   help="after the sweep, print the delta report of "
                        "its cells vs the rolling baseline in the "
                        "store (informational; `bench gate` enforces)")
    p.add_argument("--store", default=DEFAULT_STORE,
                   help=f"results store path (default: {DEFAULT_STORE})")
    p.add_argument("--commit", default=None,
                   help="commit id stamped on recorded cells "
                        "(default: `git rev-parse --short HEAD`)")
    p.add_argument("--window", type=int, default=5,
                   help="rolling-baseline window: median of the last "
                        "N accepted runs per cell (default: 5)")
    p.add_argument("--band", type=float, default=25.0,
                   help="wall-clock noise band in percent; "
                        "deterministic metrics always use a zero band "
                        "(default: 25)")
    p.set_defaults(func=cmd_bench)

    bench_sub = p.add_subparsers(dest="bench_command", metavar="gate")
    g = bench_sub.add_parser(
        "gate",
        help="classify the latest stored run of every cell vs its "
             "rolling baseline; exit nonzero on regression",
        description="Regression gate over the continuous results "
                    "store: the latest observation of every "
                    "(executor, tier, workload, setting, param) cell "
                    "is classified improved/flat/regressed against "
                    "the median of its last --window accepted runs. "
                    "Deterministic metrics (cycles, steps, AEX "
                    "counts, byte-identity) gate with a zero noise "
                    "band; wall-clock metrics are advisory within "
                    "--band percent unless --gate-wall.")
    g.add_argument("--store", default=DEFAULT_STORE,
                   help=f"results store path (default: {DEFAULT_STORE})")
    g.add_argument("--window", type=int, default=5,
                   help="rolling-baseline window (default: 5)")
    g.add_argument("--band", type=float, default=25.0,
                   help="wall-clock noise band in percent (default: 25)")
    g.add_argument("--gate-wall", action="store_true",
                   help="make wall-clock regressions beyond the band "
                        "blocking instead of advisory")
    g.add_argument("--kind", nargs="*", default=None,
                   choices=list(KINDS),
                   help="restrict the gate to these record kinds")
    g.add_argument("--synthetic-regression", type=float, default=None,
                   metavar="PCT",
                   help="self-test: evaluate as if a new run degraded "
                        "every numeric metric by PCT percent (the "
                        "store file is not modified); the gate must "
                        "fail for PCT beyond the band")
    g.add_argument("--verbose", action="store_true",
                   help="list flat/new cells too, not only "
                        "regressions and improvements")
    g.set_defaults(func=cmd_bench_gate)

    p = sub.add_parser("chaos", help="seeded fault-injection campaign")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--trials", type=int, default=None,
                   help="campaign trials (default: 20; 6 with "
                        "--pipeline; not with --fleet)")
    # One campaign per run: the selectors are mutually exclusive.
    campaigns = p.add_mutually_exclusive_group()
    campaigns.add_argument(
        "--mid-run", dest="campaign", action="store_const",
        const="mid-run",
        help="checkpoint the runs and additionally inject "
             "mid-execution teardowns, checkpoint-chain corruption and "
             "rollback replays; fails on any non-identical resumed "
             "outcome or accepted rollback")
    campaigns.add_argument(
        "--fleet", dest="campaign", action="store_const", const="fleet",
        help="run the fleet-scoped campaign instead: drone kills "
             "mid-fleet (idle and mid-session), heartbeat storms over a "
             "subset, and a shared attestation outage under load; fails "
             "on any lost session or divergent output")
    campaigns.add_argument(
        "--pipeline", dest="campaign", action="store_const",
        const="pipeline",
        help="run the multi-enclave pipeline campaign instead: mid-hop "
             "kills, handoff corruption, provenance-chain splice/replay, "
             "stalled stages and platform quarantines across alternating "
             "topologies and batch/stream modes; fails on any lost "
             "pipeline, accepted attack, divergent output, upstream "
             "re-execution or non-replayable report")
    p.add_argument("-o", "--out", default=None,
                   help="also write the JSON report to this file")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("tcb", help="measured TCB inventory")
    p.set_defaults(func=cmd_tcb)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # output piped into head etc.


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

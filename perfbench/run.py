#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload session-churn --seed 1 \\
        --seconds 15 --trace 0

One workload per process, one closed-loop client, no threads.  The
workload is set up several times, each time from empty process-wide
caches (``setup_s`` is the median), then a fixed number of timed ops
runs; ``--seconds`` only fixes that count
(``spec.WorkloadSpec.op_count``).  Every output is checked against an
independent reference after timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up a
second copy of the workload after installing the span wrappers and runs
half as many ops on each copy, alternating untraced and traced op by
op; it prints the per-layer metrics and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from perfbench import spec, stats  # noqa: E402

_FAILED = object()


def timed_pass(lanes, n_ops: int):
    """Run ops ``0..n_ops-1`` on every ``(workload, recorder)`` lane,
    alternating lanes op by op so host drift hits them alike, and
    rotating which lane goes first so neither always runs on caches the
    other warmed.  Returns per lane ``(op seconds, failed count)``;
    outputs are checked only after the last op is timed."""
    times = [[] for _ in lanes]
    results = [[] for _ in lanes]
    for i in range(n_ops):
        for step in range(len(lanes)):
            lane = (i + step) % len(lanes)
            workload, rec = lanes[lane]
            span = rec.begin_op(i) if rec is not None else None
            began = perf_counter()
            try:
                result = workload.op(i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = _FAILED
            times[lane].append(perf_counter() - began)
            if rec is not None:
                rec.end_op(span)
            results[lane].append(result)
    return [(times[lane], sum(
        1 for i, result in enumerate(results[lane])
        if result is _FAILED or not workload.check(i, result)))
        for lane, (workload, _) in enumerate(lanes)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, clear_process_caches
    workload_spec = spec.workload_spec(args.workload)
    # A traced run times two copies, each over half the ops.
    n_ops = workload_spec.op_count(args.seconds / (2 if args.trace else 1))

    # The set-up clock starts after every import.  Every set-up starts
    # from empty process-wide caches, so each one pays the first JIT run
    # and the first stage compile.
    workload = WORKLOADS[args.workload](args.seed, n_ops)
    setups = []
    for _ in range(workload_spec.setups):
        clear_process_caches()
        began = perf_counter()
        workload.setup()
        setups.append(perf_counter() - began)
    lanes = [(workload, None)]
    if args.trace:
        # The traced copy is built after the wrappers are in place; its
        # ops alternate with the untraced copy's.
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        traced = WORKLOADS[args.workload](args.seed, n_ops)
        traced.setup()
        lanes.append((traced, rec))
    # Set-up state leaves the cyclic collector's view, so a full
    # collection during the ops scans what the ops allocated, not the
    # benchmark's own inputs and compiled programs.
    gc.collect()
    gc.freeze()
    try:
        passes = timed_pass(lanes, n_ops)
    finally:
        if args.trace:
            uninstall()
    summary = stats.op_summary(passes[0][0])
    print(f"{args.workload} seed {args.seed}: {n_ops} ops, "
          f"tail p{summary['tail_percentile']} with "
          f"{summary['samples_beyond_tail']} samples beyond, "
          f"setups {[round(s, 3) for s in setups]}")
    attempted = n_ops * len(lanes)
    failed = sum(f for _, f in passes)
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        rec.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
        values = spans.layer_metrics(rec, summary["ops_per_s"])
        units = {m.name: m.unit for m in spec.PER_LAYER}
    else:
        values = {
            "ops_per_s": summary["ops_per_s"],
            "op_p50_s": summary["op_p50_s"],
            "op_tail_s": summary["op_tail_s"],
            "success_ratio": (n_ops - failed) / n_ops,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = {m.name: m.unit for m in spec.END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Evidence about the benchmark itself: steadiness and determinism.

    python3 perfbench/check.py steady --workload cold-verify --runs 10
    python3 perfbench/check.py agree --workload cold-verify --runs 10
    python3 perfbench/check.py determinism --workload record-stream

``steady`` runs one workload ``--runs`` times, each with another seed,
and prints every end-to-end metric's median, quartiles and relative
spread ``(q3 - q1) / median`` next to its bound; it fails when any
spread, ``setup_s``'s included, exceeds its bound.  ``agree`` runs two
such sets, the second on the next seeds, and also fails when any
metric's median moves between the sets by more than its bound.

``determinism`` makes two traced runs at one seed and requires every
deterministic per-layer count to repeat exactly.

Runs are sequential: one benchmark process at a time, each waited for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import spec, stats  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
DEFAULT_SECONDS = json.loads(
    (ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} ops wrong")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(workload: str, first_seed: int, runs: int,
            seconds: float) -> list:
    """``runs`` untraced runs, seeds ``first_seed`` onwards."""
    values = []
    for seed in range(first_seed, first_seed + runs):
        began = perf_counter()
        values.append(run_once(workload, seed, seconds, 0))
        wall = perf_counter() - began
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{m.name}={values[-1][m.name]:.6g}" for m in spec.END_TO_END),
            flush=True)
    return values


def spread_table(workload: str, runs: list, seconds: float) -> float:
    """Print each metric's median, quartiles and spread; return the
    largest spread as a share of its metric's bound."""
    worst = 0.0
    print(f"\n{workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for metric in spec.END_TO_END:
        s = stats.spread([run[metric.name] for run in runs])
        flag = "" if s["spread"] < metric.bound / 3 else "  > bound/3"
        worst = max(worst, s["spread"] / metric.bound)
        print(f"{metric.name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['spread']:>8.4f} {metric.bound:>6}"
              f"{flag}", flush=True)
    return worst


def steady(args) -> int:
    runs = run_set(args.workload, args.first_seed, args.runs, args.seconds)
    worst = spread_table(args.workload, runs, args.seconds)
    return 0 if worst <= 1.0 else 1


def agree(args) -> int:
    """Two sets of runs, the second on the next seeds: each set's
    spreads and the move of every median between the sets must stay
    within the metric's bound."""
    sets = []
    worst = 0.0
    for k in range(2):
        runs = run_set(args.workload, args.first_seed + k * args.runs,
                       args.runs, args.seconds)
        worst = max(worst, spread_table(args.workload, runs, args.seconds))
        sets.append(runs)
    print(f"\n{args.workload}: median of set 2 against set 1")
    print(f"{'metric':<14} {'set 1':>12} {'set 2':>12} {'move':>8} "
          f"{'bound':>6}")
    for metric in spec.END_TO_END:
        first, second = (stats.spread([run[metric.name] for run in runs])
                         ["median"] for runs in sets)
        move = (second - first) / first
        worst = max(worst, abs(move) / metric.bound)
        flag = "" if abs(move) <= metric.bound else "  > bound"
        print(f"{metric.name:<14} {first:>12.6g} {second:>12.6g} "
              f"{move:>+8.4f} {metric.bound:>6}{flag}")
    return 0 if worst <= 1.0 else 1


def determinism(args) -> int:
    first = run_once(args.workload, args.seed, args.seconds, 1)
    second = run_once(args.workload, args.seed, args.seconds, 1)
    bad = 0
    for name in spec.DETERMINISTIC:
        same = first[name] == second[name]
        bad += not same
        print(f"{name:<28} {first[name]!r:>14} {second[name]!r:>14}"
              f"{'' if same else '  MISMATCH'}")
    print(f"tracing overhead (traced/untraced ops_per_s): "
          f"{first['trace.overhead']:.3f}, {second['trace.overhead']:.3f}; "
          f"span coverage of op time: {first['trace.coverage']:.4f}, "
          f"{second['trace.coverage']:.4f}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steady", help="spread of end-to-end metrics")
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.set_defaults(func=steady)
    p = sub.add_parser("agree", help="two sets of runs agree within bounds")
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.set_defaults(func=agree)
    p = sub.add_parser("determinism", help="repeatable per-layer counts")
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.set_defaults(func=determinism)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

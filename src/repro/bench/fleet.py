"""Fleet throughput/latency benchmark (``repro bench --fleet``).

Drives a :class:`~repro.service.scheduler.FleetScheduler` through a
**seeded open-loop arrival process**: session jobs arrive at
exponentially distributed inter-arrival ticks *regardless of how the
fleet is keeping up* (the arrival clock never waits for completions —
that is what makes the latency percentiles honest under overload;
admission control is what sheds the excess, typed).  The job mix is
mostly short checksum sessions plus every ``long_every``-th a long
checkpointed job run under a preemption quantum, and every drone
starts with a one-shot mid-run kill armed — so the first long job
dispatched provably dies mid-flight, its platform gets a fresh EINIT,
and the sealed chain resumes on the *new* instance: the campaign
always exercises at least one checkpoint migration, and the bench
verifies the migrated session's output byte-for-byte against the
analytic expectation.

Two metric families, split exactly as the results store expects:

* **deterministic** (zero noise band): session counts, shed counts,
  supervision-tick latency percentiles, migration/zero-lost booleans,
  scheduler counters — all pure functions of the seed;
* **wall clock** (advisory band): total wall time, seconds per
  completed session, and wall-scaled latency percentiles.

``sessions_per_sec`` is reported in the document for humans but the
*stored* throughput metric is its reciprocal ``sec_per_session`` —
every numeric store metric is lower-is-better by contract.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..errors import AdmissionRejected
from ..service.faults import (
    CAMPAIGN_SRC, FLEET_LONG_ROUNDS, FLEET_LONG_SRC,
)
from ..service.fleet import build_fleet
from ..service.scheduler import FleetScheduler, SessionJob

#: Bench document schema tag.
SCHEMA = "deflection-fleet/1"


def _arrival_ticks(rng: random.Random, sessions: int,
                   mean_ticks: float) -> List[int]:
    """Open-loop arrival schedule: cumulative exponential gaps."""
    clock = 0.0
    ticks = []
    for _ in range(sessions):
        clock += rng.expovariate(1.0 / mean_ticks)
        ticks.append(int(clock))
    return ticks


def run_fleet_bench(seed: int = 2021, *,
                    drones: int = 4,
                    sessions: int = 32,
                    tenants: int = 4,
                    arrival_mean_ticks: float = 1.5,
                    long_every: int = 4,
                    checkpoint_every: int = 200,
                    quantum_steps: int = 4000,
                    kill_after_steps: int = 600,
                    tenant_quota: int = 4,
                    max_queue: int = 16,
                    max_ticks: int = 400) -> dict:
    """Run one seeded open-loop fleet campaign; JSON-ready document."""
    fleet = build_fleet(drones)
    scheduler = FleetScheduler(fleet, seed=seed,
                               tenant_quota=tenant_quota,
                               max_queue=max_queue)
    for drone in fleet:
        drone.host.arm_kill(kill_after_steps)
    rng = random.Random(f"fleet-bench:{seed}")
    arrivals = _arrival_ticks(rng, sessions, arrival_mean_ticks)
    expected: Dict[str, int] = {}
    pending_jobs = []
    for index, tick in enumerate(arrivals):
        tenant = f"tenant-{index % tenants}"
        data = bytes((seed + 7 * index + k) % 251
                     for k in range(8 + index % 7))
        long = index % long_every == long_every - 1
        job = SessionJob(
            f"s{index:03d}", tenant,
            FLEET_LONG_SRC if long else CAMPAIGN_SRC, data,
            priority=1 if long else 5,
            checkpoint_every=checkpoint_every if long else None,
            quantum_steps=quantum_steps if long else None)
        expected[job.job_id] = (FLEET_LONG_ROUNDS if long else 1) \
            * sum(data)
        pending_jobs.append((tick, job))

    began = time.perf_counter()
    cursor = 0
    while cursor < len(pending_jobs) or scheduler.pending:
        if scheduler.tick_now >= max_ticks:
            break
        while cursor < len(pending_jobs) and \
                pending_jobs[cursor][0] <= scheduler.tick_now:
            try:
                scheduler.submit(pending_jobs[cursor][1])
            except AdmissionRejected:
                pass   # typed + already recorded by the scheduler
            cursor += 1
        scheduler.tick()
    wall_s = time.perf_counter() - began

    # -- verify every completed session against the analytic result --
    corrupt: List[str] = []
    for job in scheduler.jobs.values():
        if job.state != "done" or not job.outcome.ok:
            continue
        want = expected[job.job_id]
        if job.outcome.reports != [want] or \
                job.plaintexts != [bytes([want % 256])]:
            corrupt.append(job.job_id)
    report = scheduler.report()
    counters = report["counters"]
    lost = report["lost"]
    completed = counters["completed"]
    migrated_jobs = report["migrated_jobs"]
    migration_check = None
    if migrated_jobs:
        first = migrated_jobs[0]
        migration_check = {
            **first,
            "outputs_match": first["job_id"] not in corrupt,
        }
    latency = report["latency_ticks"]
    ticks = report["ticks"]
    tick_s = wall_s / ticks if ticks else 0.0
    status = "ok"
    if corrupt:
        status = "corrupt"
    elif lost:
        status = "lost-sessions"
    elif not migrated_jobs:
        status = "no-migration"
    return {
        "schema": SCHEMA,
        "seed": seed,
        "status": status,
        "drones": drones,
        "sessions": sessions,
        "tenants": tenants,
        "arrival_mean_ticks": arrival_mean_ticks,
        "ticks": ticks,
        "counters": counters,
        "lost": lost,
        "corrupt": corrupt,
        "zero_lost": not lost,
        "shed": report["shed"],
        "latency_ticks": latency,
        "latency_s": {"p50": latency["p50"] * tick_s,
                      "p99": latency["p99"] * tick_s},
        "wall_s": wall_s,
        "sessions_per_sec": completed / wall_s if wall_s else 0.0,
        "sec_per_session": wall_s / completed if completed else 0.0,
        "migration_check": migration_check,
        "migrated_jobs": migrated_jobs,
        "tenants_stats": report["tenants"],
        "stats": report["stats"],
        "drones_detail": report["drones"],
    }

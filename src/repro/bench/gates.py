"""Regression gates over the continuous results store.

Given the ordered record stream from
:class:`~repro.bench.store.ResultsStore`, the gate compares each
cell's **latest** observation against its **rolling baseline** — the
median of the last ``window`` accepted (status ``ok``) runs of the
same key — and classifies every metric:

``improved``
    better than the baseline by more than the noise band (store
    metrics are lower-is-better unless declared higher-is-better;
    booleans are good-is-true);
``flat``
    within the band;
``regressed``
    worse than the baseline by more than the band;
``new``
    no accepted history for this key/metric — nothing to compare, the
    observation simply seeds the baseline for the next run.

Noise bands are per metric *class*, not per cell: deterministic
metrics (cycle accounts, step counts, AEX counts, byte sizes,
booleans) carry a **zero band** — the simulation is deterministic, so
any drift is a real behavioural change and gates hard — while
wall-clock metrics carry a configurable percentage band and are
**advisory** by default (classified and reported, but only failing
the gate under ``gate_wall=True``): CI runners are too noisy for
wall-clock to block merges, yet the trajectory still gets recorded
and rendered.

A latest observation whose status is not ``ok`` is itself a gate
failure (metric ``status``), regardless of history: the store must
never quietly carry a failing cell forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .kinds import metric_class
from .store import CellKey, Record
from .tables import format_table

#: Default rolling-baseline window (accepted runs per cell).
DEFAULT_WINDOW = 5

#: Default wall-clock noise band, percent.
DEFAULT_WALL_BAND = 25.0


def rolling_baseline(values: Sequence[float],
                     window: int = DEFAULT_WINDOW) -> float:
    """Median of the last ``window`` values (history order)."""
    tail = sorted(values[-window:])
    n = len(tail)
    mid = n // 2
    if n % 2:
        return tail[mid]
    return (tail[mid - 1] + tail[mid]) / 2.0


@dataclass
class Delta:
    """One (cell, metric) comparison against the rolling baseline."""

    key: CellKey
    metric: str
    current: Optional[float]
    baseline: Optional[float] = None
    delta_pct: Optional[float] = None
    classification: str = "flat"   # improved | flat | regressed | new
    #: True when a ``regressed`` classification fails the gate
    #: (deterministic metrics, or wall metrics under ``gate_wall``).
    gating: bool = True
    detail: str = ""

    @property
    def blocking(self) -> bool:
        return self.classification == "regressed" and self.gating


@dataclass
class GateReport:
    """Every delta of a gate evaluation plus the verdict."""

    deltas: List[Delta] = field(default_factory=list)
    window: int = DEFAULT_WINDOW
    wall_band_pct: float = DEFAULT_WALL_BAND
    gate_wall: bool = False

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.blocking]

    @property
    def advisories(self) -> List[Delta]:
        return [d for d in self.deltas
                if d.classification == "regressed" and not d.gating]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas
                if d.classification == "improved"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def counts(self) -> Dict[str, int]:
        counts = {"improved": 0, "flat": 0, "regressed": 0, "new": 0}
        for delta in self.deltas:
            counts[delta.classification] += 1
        return counts

    def render(self, verbose: bool = False) -> str:
        """``format_table`` delta report: regressions, advisories and
        improvements (all rows under ``verbose``), plus a summary."""
        shown = [d for d in self.deltas
                 if verbose or d.classification in ("regressed",
                                                    "improved")]
        lines = []
        if shown:
            def fmt(value):
                if value is None:
                    return "-"
                if isinstance(value, bool):
                    return "yes" if value else "NO"
                if abs(value) >= 1000:
                    return f"{value:,.0f}"
                return f"{value:.4g}"

            rows = [[d.key.label(), d.metric, fmt(d.baseline),
                     fmt(d.current),
                     "-" if d.delta_pct is None
                     else f"{d.delta_pct:+.2f}%",
                     d.classification
                     + ("" if d.gating or d.classification != "regressed"
                        else " (advisory)")]
                    for d in shown]
            lines.append(format_table(
                f"bench gate (baseline = median of last "
                f"{self.window} accepted runs, wall band "
                f"±{self.wall_band_pct:g}%)",
                ["cell", "metric", "baseline", "current", "delta",
                 "class"], rows))
        counts = self.counts()
        lines.append(
            f"gate: {len(self.regressions)} regressed (blocking), "
            f"{len(self.advisories)} advisory, "
            f"{counts['improved']} improved, {counts['flat']} flat, "
            f"{counts['new']} new")
        return "\n".join(lines)


def classify(metric: str, current, baseline,
             wall_band_pct: float = DEFAULT_WALL_BAND) -> Delta:
    """Classify one metric value against its baseline.

    Numeric store metrics are lower-is-better unless their kind declares
    them higher-is-better (throughput), where the sense inverts but the
    reported ``delta_pct`` stays the raw signed change; booleans are
    good-is-true.  The baseline of a boolean series is its median as
    0/1, so one historical flake does not flip the expectation.
    """
    # Metric classes are declared once, by the bench kinds.
    declared = metric_class(metric)
    band = wall_band_pct if declared.wall else 0.0
    if isinstance(current, bool):
        expected = baseline >= 0.5
        if current and not expected:
            cls = "improved"
        elif not current and expected:
            cls = "regressed"
        elif not current:        # broken, and was already broken
            cls = "regressed"
        else:
            cls = "flat"
        return Delta(key=None, metric=metric, current=current,
                     baseline=expected, classification=cls,
                     gating=True)
    inverted = declared.higher
    if baseline == 0:
        if current == 0:
            cls, pct = "flat", 0.0
        else:
            worse = current > 0
            if inverted:
                worse = not worse
            cls, pct = ("regressed" if worse else "improved"), None
    else:
        pct = 100.0 * (current - baseline) / baseline
        if pct > band:
            cls = "improved" if inverted else "regressed"
        elif pct < -band:
            cls = "regressed" if inverted else "improved"
        else:
            cls = "flat"
    return Delta(key=None, metric=metric, current=current,
                 baseline=baseline, delta_pct=pct, classification=cls,
                 gating=band == 0.0)


def evaluate(records: Sequence[Record],
             window: int = DEFAULT_WINDOW,
             wall_band_pct: float = DEFAULT_WALL_BAND,
             gate_wall: bool = False,
             kinds: Optional[Sequence[str]] = None) -> GateReport:
    """Gate the latest observation of every cell against its rolling
    baseline.  ``records`` must be in history (file) order; ``kinds``
    restricts the evaluation to some record kinds."""
    report = GateReport(window=window, wall_band_pct=wall_band_pct,
                        gate_wall=gate_wall)
    by_key: Dict[CellKey, List[Record]] = {}
    for record in records:
        if kinds and record.key.kind not in kinds:
            continue
        by_key.setdefault(record.key, []).append(record)

    for key, history in by_key.items():
        latest = history[-1]
        prior = [r for r in history[:-1] if r.accepted]
        if not latest.accepted:
            report.deltas.append(Delta(
                key=key, metric="status", current=None,
                classification="regressed", gating=True,
                detail=f"{latest.status}: {latest.detail}"))
            continue
        for metric, current in latest.metrics.items():
            values = [r.metrics[metric] for r in prior[-window:]
                      if metric in r.metrics]
            if not values:
                report.deltas.append(Delta(
                    key=key, metric=metric, current=current,
                    classification="new", gating=False))
                continue
            baseline = rolling_baseline(
                [float(v) for v in values], window)
            delta = classify(metric, current, baseline,
                             wall_band_pct=wall_band_pct)
            delta.key = key
            if not delta.gating and gate_wall:
                delta.gating = True
            report.deltas.append(delta)
    return report


def inject_synthetic_regression(records: Sequence[Record],
                                pct: float) -> List[Record]:
    """Self-test fixture for the gate plumbing: append a synthetic run
    that degrades every numeric metric of each cell's latest accepted
    observation by ``pct`` percent (booleans and statuses untouched).
    Used by tests and the CI ``bench-gate`` job to prove the gate
    actually fires — the store file itself is never modified."""
    latest: Dict[CellKey, Record] = {}
    for record in records:
        if record.accepted:
            latest[record.key] = record
    scaled = []
    for key, record in latest.items():
        metrics = {name: (value if isinstance(value, bool)
                          else value * (1.0 + pct / 100.0))
                   for name, value in record.metrics.items()}
        scaled.append(Record(key=key, metrics=metrics, status="ok",
                             commit=record.commit,
                             run_id=record.run_id + "-synthetic",
                             ts=record.ts))
    return list(records) + scaled

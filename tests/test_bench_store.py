"""Continuous results store + regression gates."""

import json

import pytest

from repro.bench import gates
from repro.bench.store import (
    CellKey, Record, ResultsStore, StoreError, records_from_doc, stamp_run,
)
from repro.cli import main


def _key(**kw):
    base = dict(kind="vm", executor="translate", tier=2,
                workload="numeric_sort", setting="P1", param=40)
    base.update(kw)
    return CellKey(**base)


def _record(metrics, status="ok", run_id="r1", **kw):
    return Record(key=_key(**kw), metrics=dict(metrics),
                  status=status, commit="abc", run_id=run_id, ts=1.0)


VM_CELL = {
    "workload": "numeric_sort", "setting": "P1", "param": 40,
    "steps": 1000, "cycles": 2000.5, "aex_events": 3,
    "text_bytes": 512, "status": "ok", "detail": "",
    "wall_s": 0.25, "ips": 4000.0, "overhead_pct": 7.5,
    "provision_cache_hits": 0, "retries": 0, "recoveries": 0,
}


# -- store round-trip -------------------------------------------------

def test_record_line_round_trip():
    rec = _record({"cycles": 2000.5, "identical": True})
    back = Record.from_line(rec.to_line())
    assert back.key == rec.key
    assert back.metrics == {"cycles": 2000.5, "identical": True}
    assert back.metrics["identical"] is True
    assert back.accepted


def test_store_append_load_preserves_order(tmp_path):
    store = ResultsStore(tmp_path / "h.jsonl")
    assert store.load() == []
    store.append([_record({"cycles": 1.0}, run_id="r1")])
    store.append([_record({"cycles": 2.0}, run_id="r2"),
                  _record({"cycles": 9.0}, run_id="r2",
                          setting="baseline")])
    records = store.load()
    assert [r.run_id for r in records] == ["r1", "r2", "r2"]
    assert store.runs() == ["r1", "r2"]
    # append-only: re-loading after another append keeps history intact
    store.append([_record({"cycles": 3.0}, run_id="r3")])
    assert [r.metrics["cycles"] for r in store.load()
            if r.key.setting == "P1"] == [1.0, 2.0, 3.0]


def test_store_rejects_garbage_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("not json\n")
    with pytest.raises(StoreError, match="line 1"):
        ResultsStore(path).load()
    path.write_text(json.dumps({"schema": "wrong/1"}) + "\n")
    with pytest.raises(StoreError, match="schema"):
        ResultsStore(path).load()


# -- ingest builders --------------------------------------------------

def test_vm_doc_ingest_single_and_multi_executor():
    single = {"schema": "deflection-bench/1", "executor": "translate",
              "workloads": {"numeric_sort": {"P1": VM_CELL}}}
    records = records_from_doc(single, executor_label="translate-t1")
    assert len(records) == 1
    assert records[0].key.executor == "translate-t1"
    assert records[0].key.tier == 1
    assert records[0].metrics["cycles"] == 2000.5

    multi = {"schema": "deflection-bench/1",
             "executors": {ex: {"workloads":
                                {"numeric_sort": {"P1": VM_CELL}}}
                           for ex in ("step", "translate")}}
    records = records_from_doc(multi)
    tiers = sorted(r.key.tier for r in records)
    assert tiers == [0, 2]


def test_provision_doc_ingest_keys_and_acceptance():
    cell = {"workload": "huffman", "setting": "P1-P6", "param": 40,
            "text_bytes": 100, "instructions": 50,
            "legacy_cold_ms": 3.0, "new_cold_ms": 1.0, "warm_ms": 0.1,
            "identical": False, "status": "divergent",
            "detail": "images differ"}
    doc = {"schema": "deflection-provision/1",
           "workloads": {"huffman": {"P1-P6": cell}}}
    (rec,) = records_from_doc(doc)
    assert rec.key == CellKey("provision", "", -1, "huffman",
                              "P1-P6", 40)
    assert rec.metrics["identical"] is False
    assert not rec.accepted    # divergent cells never seed baselines


def test_checkpoint_doc_ingest_downgrades_silent_mismatch():
    cell = {"workload": "idea", "setting": "P1-P6", "param": 12,
            "steps": 5000, "plain_wall_s": 0.5, "status": "ok",
            "overhead": [{"checkpoint_every": 100, "wall_s": 0.9,
                          "checkpoints": 50, "chain_bytes": 4096,
                          "overhead_pct": 80.0, "identical": True}],
            "resumes": [{"interrupt_step": 100, "resumed_at_step": 90,
                         "chain_len": 2, "identical": False,
                         "rollback_rejected": True}]}
    doc = {"schema": "deflection-checkpoint-bench/1", "cells": [cell]}
    (rec,) = records_from_doc(doc)
    # CheckpointCell.status stays "ok" on a resume mismatch; the store
    # must still refuse to accept it into the rolling baseline.
    assert rec.status == "divergent"
    assert rec.metrics["resume_identical"] is False
    assert rec.metrics["overhead_pct@100"] == 80.0
    assert rec.metrics["chain_bytes@100"] == 4096


def test_records_from_doc_dispatch_and_stamp():
    doc = {"schema": "deflection-bench/1", "executor": "translate",
           "workloads": {"numeric_sort": {"P1": VM_CELL}}}
    records = records_from_doc(doc, commit="deadbeef", ts=123.0)
    assert records[0].commit == "deadbeef"
    assert records[0].ts == 123.0
    assert records[0].run_id.startswith("vm-deadbeef-")
    with pytest.raises(StoreError, match="cannot ingest"):
        records_from_doc({"schema": "nope/9"})


# -- gate classification ----------------------------------------------

def test_rolling_baseline_is_median_of_window():
    assert gates.rolling_baseline([1.0, 100.0, 3.0]) == 3.0
    assert gates.rolling_baseline([5.0, 1.0, 2.0, 100.0]) == 3.5
    # window drops the oldest runs
    assert gates.rolling_baseline([1e9, 2.0, 2.0, 2.0, 2.0, 2.0],
                                  window=5) == 2.0


def _history(*cycle_values, metric="cycles", status="ok"):
    return [_record({metric: v}, run_id=f"r{i}",
                    status=status if i == len(cycle_values) - 1
                    else "ok")
            for i, v in enumerate(cycle_values)]


def test_flat_rerun_gates_clean():
    report = gates.evaluate(_history(100.0, 100.0, 100.0))
    assert report.counts()["flat"] == 1
    assert report.exit_code == 0


def test_deterministic_drift_has_zero_band():
    report = gates.evaluate(_history(100.0, 100.0, 100.1))
    (delta,) = report.deltas
    assert delta.classification == "regressed"
    assert delta.blocking
    assert report.exit_code == 1
    improved = gates.evaluate(_history(100.0, 100.0, 99.9))
    assert improved.deltas[0].classification == "improved"
    assert improved.exit_code == 0


def test_wall_clock_band_is_advisory():
    within = gates.evaluate(_history(1.0, 1.0, 1.2, metric="wall_s"))
    assert within.deltas[0].classification == "flat"
    beyond = gates.evaluate(_history(1.0, 1.0, 1.5, metric="wall_s"))
    (delta,) = beyond.deltas
    assert delta.classification == "regressed"
    assert not delta.blocking           # advisory by default
    assert beyond.exit_code == 0
    assert beyond.advisories == [delta]
    gated = gates.evaluate(_history(1.0, 1.0, 1.5, metric="wall_s"),
                           gate_wall=True)
    assert gated.exit_code == 1


def test_boolean_metrics_gate_on_truth():
    broken = gates.evaluate(
        [_record({"identical": True}, run_id="r0"),
         _record({"identical": False}, run_id="r1")])
    assert broken.deltas[0].classification == "regressed"
    assert broken.exit_code == 1
    fixed = gates.evaluate(
        [_record({"identical": False}, run_id="r0"),
         _record({"identical": True}, run_id="r1")])
    assert fixed.deltas[0].classification == "improved"


@pytest.mark.parametrize("current,expected", [
    (-5.0, "regressed"),     # overhead rose from -10% toward zero
    (-15.0, "improved"),
    (-10.0, "flat"),
])
def test_negative_baseline_lower_is_better(current, expected):
    delta = gates.classify("overhead_pct", current, -10.0)
    assert delta.classification == expected
    assert delta.gating                      # deterministic: zero band
    assert delta.delta_pct == pytest.approx(10.0 * (current + 10.0))
    # A wall-derived family member keeps the sense under its band.
    wall = gates.classify("overhead_pct@1600", current / 2, -5.0)
    assert wall.classification == expected and not wall.gating


@pytest.mark.parametrize("current,expected", [
    (-5.0, "improved"),      # throughput rose
    (-15.0, "regressed"),
    (-11.0, "flat"),         # within the wall band
])
def test_negative_baseline_higher_is_better(current, expected):
    delta = gates.classify("records_per_s", current, -10.0)
    assert delta.classification == expected
    assert delta.delta_pct == pytest.approx(10.0 * (current + 10.0))


def test_unaccepted_latest_blocks_regardless_of_history():
    records = _history(100.0, 100.0)
    records.append(_record({"cycles": 100.0}, run_id="r9",
                           status="error"))
    report = gates.evaluate(records)
    (delta,) = report.deltas
    assert delta.metric == "status"
    assert delta.blocking


def test_new_cells_pass_and_seed_the_baseline():
    report = gates.evaluate(_history(100.0))
    assert report.counts()["new"] == 1
    assert report.exit_code == 0


def test_failed_runs_are_excluded_from_baseline():
    # error run in the middle must not drag the median
    records = [_record({"cycles": 100.0}, run_id="r0"),
               _record({"cycles": 5.0}, run_id="r1", status="error"),
               _record({"cycles": 100.0}, run_id="r2")]
    report = gates.evaluate(records)
    (delta,) = report.deltas
    assert delta.classification == "flat"
    assert delta.baseline == 100.0


def test_synthetic_regression_fires_the_gate():
    records = _history(100.0, 100.0)
    degraded = gates.inject_synthetic_regression(records, 50.0)
    assert len(degraded) == len(records) + 1
    report = gates.evaluate(degraded)
    assert report.exit_code == 1
    # the flat control: 0% injection stays clean
    flat = gates.evaluate(
        gates.inject_synthetic_regression(records, 0.0))
    assert flat.exit_code == 0


def test_kind_filter_restricts_evaluation():
    records = (_history(1.0, 2.0)
               + [_record({"warm_ms": 1.0}, kind="provision",
                          executor="", tier=-1, run_id="p0")])
    report = gates.evaluate(records, kinds=["provision"])
    assert len(report.deltas) == 1
    assert report.deltas[0].key.kind == "provision"


def test_report_render_lists_regressions():
    report = gates.evaluate(_history(100.0, 100.0, 150.0))
    text = report.render()
    assert "regressed" in text
    assert "cycles" in text
    assert "+50.00%" in text
    assert "1 regressed (blocking)" in text


# -- CLI: record + gate -----------------------------------------------

BENCH_ARGS = ["bench", "--workloads", "numeric_sort",
              "--settings", "baseline", "P1", "--param", "40",
              "--executor", "translate"]


def test_cli_record_then_flat_rerun_gates_zero(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    for commit in ("one", "two"):
        assert main(BENCH_ARGS + ["--record", "--store", str(store),
                                  "--commit", commit]) == 0
    out = capsys.readouterr().out
    assert "recorded 2 cells" in out
    assert main(["bench", "gate", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "gate passed" in out
    # the two runs are distinct generations of the same cells
    records = ResultsStore(store).load()
    assert len(records) == 4
    assert len({r.run_id for r in records}) == 2
    assert {r.commit for r in records} == {"one", "two"}


def test_cli_gate_synthetic_regression_is_nonzero(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(BENCH_ARGS + ["--record", "--store", str(store),
                              "--commit", "seed"]) == 0
    capsys.readouterr()
    assert main(["bench", "gate", "--store", str(store),
                 "--synthetic-regression", "50"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED cells" in out
    # ...and the store file itself was not modified by the self-test
    assert len(ResultsStore(store).load()) == 2
    assert main(["bench", "gate", "--store", str(store)]) == 0


def test_cli_baseline_report_without_record(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(BENCH_ARGS + ["--record", "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(BENCH_ARGS + ["--baseline", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "flat" in out
    # --baseline alone never writes
    assert len(ResultsStore(store).load()) == 2


def test_cli_smoke_then_sweep_gates_zero(tmp_path, capsys):
    # CI's bench-smoke job: the smoke records, then a sweep over the
    # same workload records, then the gate runs over both.  A smoke
    # cell has no baseline cell beside it, so it records no
    # overhead_pct that the sweep's real overhead could regress from.
    store = str(tmp_path / "history.jsonl")
    common = ["--param", "40", "--jobs", "2", "--record", "--store", store]
    assert main(["bench", "--smoke"] + common) == 0
    smoke = ResultsStore(store).load()
    assert {r.key.setting for r in smoke} == {"P1-P6"}
    assert all("overhead_pct" not in r.metrics and "cycles" in r.metrics
               for r in smoke)
    assert main(["bench", "--workloads", "numeric_sort",
                 "--executor", "both"] + common) == 0
    capsys.readouterr()
    assert main(["bench", "gate", "--store", store]) == 0
    report = gates.evaluate(ResultsStore(store).load())
    (overhead,) = [d for d in report.deltas if d.metric == "overhead_pct"
                   and d.key.setting == "P1-P6"
                   and d.key.executor == "translate"]
    assert overhead.classification == "new" and overhead.current > 0


def test_cli_gate_missing_or_empty_store(tmp_path, capsys):
    assert main(["bench", "gate", "--store",
                 str(tmp_path / "absent.jsonl")]) == 1
    assert "no results store" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["bench", "gate", "--store", str(empty)]) == 1
    assert "empty" in capsys.readouterr().err


def test_cli_smoke_records_all_three_tiers(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(["bench", "--smoke", "--workloads", "numeric_sort",
                 "--settings", "P1", "--param", "40",
                 "--record", "--store", str(store)]) == 0
    records = ResultsStore(store).load()
    assert sorted(r.key.executor for r in records) == \
        ["step", "translate"]
    assert sorted(r.key.tier for r in records) == [0, 2]
    assert main(["bench", "gate", "--store", str(store)]) == 0

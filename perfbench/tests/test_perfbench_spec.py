import json

import pytest

from perfbench import spans, spec
from perfbench.tests.conftest import ROOT

DOC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert DOC["workloads"] == [
        {"name": w.name, "why": w.why(DOC["run_seconds"])}
        for w in spec.WORKLOADS]
    assert DOC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert DOC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_benchmark_json_contract_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(DOC["workloads"]) <= 8
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in DOC[key]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in DOC["workloads"])
    assert all(m["bound"] <= 0.25 for m in DOC["end_to_end"])
    setup = [m for m in DOC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


@pytest.mark.parametrize("workload", spec.WORKLOADS,
                         ids=spec.WORKLOAD_NAMES)
def test_op_count_is_fixed_whole_cycles(workload):
    for seconds in (0.1, 1, 15, 60):
        n = workload.op_count(seconds)
        assert n == workload.op_count(seconds)
        assert n % workload.cycle == 0
        assert n >= spec.MIN_OPS


def test_every_probe_reports_a_declared_metric():
    declared = {m.name for m in spec.PER_LAYER}
    for probe in spans.PROBES:
        for name in (probe.time_metric, probe.calls):
            assert name is None or name in declared, probe.target

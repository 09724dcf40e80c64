"""The bench-kind protocol: one ingester, one metric-class table and
one fork pool for every ``repro bench`` kind."""

import json
import time
from pathlib import Path

import pytest

from repro.bench.harness import RunMatrix
from repro.bench.kinds import KINDS, metric_class, smoke_doc
from repro.bench.provision import ProvisionMatrix
from repro.bench.static import StaticMatrix
from repro.bench.store import records_from_doc

ROOT = Path(__file__).resolve().parents[1]

#: Produced by the per-kind ingesters this protocol replaced
#: (``records_from_vm_doc`` ... ``records_from_pipeline_doc`` and
#: ``records_from_smoke_cells``), run on the committed ``BENCH_*.json``
#: documents and on three-engine smoke cells of numeric_sort/P1-P6 at
#: param 40, together with each metric's gate class under the name
#: lists the gate layer kept at the time.
GOLDEN = json.loads((ROOT / "tests" / "fixtures" /
                     "ingest_golden.json").read_text())


def _as_golden(records):
    return [json.dumps({"key": [r.key.kind, r.key.executor, r.key.tier,
                                r.key.workload, r.key.setting,
                                r.key.param],
                        "metrics": r.metrics, "status": r.status,
                        "detail": r.detail})
            for r in records]


def _golden(rows):
    return [json.dumps(row) for row in rows]


@pytest.mark.parametrize("kind", sorted(GOLDEN["docs"]))
def test_ingest_matches_golden_on_committed_docs(kind):
    doc = json.loads((ROOT / KINDS[kind].out).read_text())
    records = records_from_doc(doc, commit="golden", run_id="golden",
                               ts=0.0)
    assert _as_golden(records) == _golden(GOLDEN["docs"][kind])


def test_ingest_matches_golden_on_smoke_cells():
    records = records_from_doc(smoke_doc(GOLDEN["smoke"]["cells"]))
    assert _as_golden(records) == _golden(GOLDEN["smoke"]["records"])


def test_metric_classes_match_golden():
    for name, want in GOLDEN["classes"].items():
        got = metric_class(name)
        assert (got.wall, got.higher) == (want["wall"], want["higher"]), \
            name


def test_every_declared_metric_is_covered_by_golden():
    declared = {m.name for kind in KINDS.values() for m in kind.metrics}
    families = {name for name in declared if name.endswith("@")}
    seen = {name.split("@")[0] + "@" if "@" in name else name
            for name in GOLDEN["classes"]}
    assert declared - families <= seen
    assert families <= seen


# -- one fork pool: empty cell sets match across jobs and kinds ---------

MATRICES = {"vm": RunMatrix, "provision": ProvisionMatrix,
            "static": StaticMatrix}


@pytest.mark.parametrize("kind", sorted(MATRICES))
@pytest.mark.parametrize("axes", [
    dict(workloads=[]),
    dict(workloads=["numeric_sort"], settings=()),
], ids=["no-workloads", "no-settings"])
def test_empty_sweeps_match_serial_at_any_jobs(kind, axes):
    serial = MATRICES[kind].collect(jobs=1, **axes)
    parallel = MATRICES[kind].collect(jobs=2, **axes)
    assert dict(serial) == dict(parallel)
    assert dict(serial) == {name: {} for name in axes["workloads"]}
    assert parallel.to_json()["totals"]["failed_cells"] == []


# -- pipeline throughput excludes the oracle replay ---------------------

def test_pipeline_wall_excludes_serial_oracle(monkeypatch):
    from repro.bench import pipeline
    from repro.core.bootstrap import ProvisionCache
    real, pause = pipeline.serial_oracle, 0.4

    def slow_oracle(*args, **kwargs):
        time.sleep(pause)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "serial_oracle", slow_oracle)
    began = time.perf_counter()
    cell = pipeline._run_cell(
        5, "filter-score-agg", "batch", "clean", data_len=16,
        chunk_size=16, window=2, rekey_every=None, checkpoint_every=25,
        cache=ProvisionCache())
    elapsed = time.perf_counter() - began
    assert cell["status"] == "ok"
    assert cell["wall_s"] < elapsed - pause
    assert cell["records_per_s"] == pytest.approx(
        cell["chunks"] / cell["wall_s"])

"""CLI toolkit tests."""

import pytest

from repro.cli import main

SRC = """
char buf[16];
int main() {
    int n = __recv(buf, 16);
    __report(n * 10);
    return n;
}
"""


@pytest.fixture
def obj_path(tmp_path):
    src = tmp_path / "svc.c"
    src.write_text(SRC)
    out = tmp_path / "svc.dfob"
    assert main(["compile", str(src), "-o", str(out),
                 "--policies", "P1-P6"]) == 0
    return out


def test_compile_reports_layout(tmp_path, capsys):
    src = tmp_path / "a.c"
    src.write_text("int main() { return 1; }")
    assert main(["compile", str(src), "-o",
                 str(tmp_path / "a.dfob")]) == 0
    out = capsys.readouterr().out
    assert "bytes" in out and "P6" in out


def test_compile_error_is_clean(tmp_path, capsys):
    src = tmp_path / "bad.c"
    src.write_text("int main( { }")
    assert main(["compile", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


def test_objdump_sections(obj_path, capsys):
    assert main(["objdump", str(obj_path)]) == 0
    out = capsys.readouterr().out
    assert "entry:     __start" in out
    assert "main" in out
    assert "relocations" in out


def test_objdump_disasm(obj_path, capsys):
    assert main(["objdump", str(obj_path), "--disasm"]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "ret" in out
    assert "svc" in out


def test_verify_accepts_and_counts(obj_path, capsys):
    assert main(["verify", str(obj_path), "--policies", "P1-P6"]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    assert "store_guard" in out


def test_verify_rejects_mismatched_policies(tmp_path, capsys):
    src = tmp_path / "svc.c"
    src.write_text(SRC)
    out = tmp_path / "weak.dfob"
    main(["compile", str(src), "-o", str(out), "--policies", "P1"])
    assert main(["verify", str(out), "--policies", "P1-P6"]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_run_executes_with_input(obj_path, tmp_path, capsys):
    data = tmp_path / "input.bin"
    data.write_bytes(b"abcd")
    assert main(["run", str(obj_path), "--input", str(data)]) == 0
    out = capsys.readouterr().out
    assert "status:  ok" in out
    assert "reports: [40]" in out


def test_run_reports_violation_exit_code(tmp_path, capsys):
    src = tmp_path / "leak.c"
    src.write_text("int main() { int *p = 4096; *p = 1; return 0; }")
    out = tmp_path / "leak.dfob"
    main(["compile", str(src), "-o", str(out), "--policies", "P1"])
    assert main(["run", str(out), "--policies", "P1"]) == 2
    assert "out-of-enclave store" in capsys.readouterr().out


def test_run_rejects_bad_object(tmp_path, capsys):
    bad = tmp_path / "junk.dfob"
    bad.write_bytes(b"DFOBgarbage")
    assert main(["run", str(bad)]) == 1


def test_tcb_table(capsys):
    assert main(["tcb"]) == 0
    out = capsys.readouterr().out
    assert "Loader/Verifier" in out
    assert "paper: <600" in out


def test_missing_file_handled(capsys):
    assert main(["objdump", "/nonexistent.dfob"]) == 1


def test_bench_parallel_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--workloads", "numeric_sort",
                 "--settings", "baseline", "P1",
                 "--param", "40", "--executor", "translate",
                 "--jobs", "2", "--json", "-o", str(out)]) == 0
    import json
    doc = json.loads(out.read_text())
    assert doc["parallelism"] == 2
    assert "provision_cache" in doc
    cells = doc["workloads"]["numeric_sort"]
    assert cells["P1"]["status"] == "ok"
    assert cells["P1"]["overhead_pct"] > 0
    assert "jobs=2" in capsys.readouterr().out


def test_bench_smoke_with_parallel_equality(capsys):
    assert main(["bench", "--smoke", "--workloads", "numeric_sort",
                 "--settings", "baseline", "P1",
                 "--param", "40", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "cycle accounts identical" in out
    assert "parallel cell values identical to serial" in out


def test_bench_rejects_unknown_workload(capsys):
    assert main(["bench", "--workloads", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


# -- exit-code contracts: every bad cell class must fail the sweep ----

def _provision_cell(status="ok", stages=True, identical=True):
    from repro.bench.provision import STAGES, ProvisionResult
    cell = ProvisionResult(workload="numeric_sort", setting="P1",
                           param=40, identical=identical,
                           status=status,
                           detail="" if status == "ok" else status)
    if stages:
        cell.legacy_stages = {s: 0.001 for s in STAGES}
        cell.new_stages = {s: 0.001 for s in STAGES}
        cell.legacy_cold_s = cell.new_cold_s = 0.005
        cell.speedup = 1.0
    return cell


def _patch_provision_collect(monkeypatch, cell):
    from repro.bench.provision import ProvisionMatrix

    def fake_collect(cls, workloads, **kwargs):
        matrix = cls()
        matrix.setdefault(cell.workload, {})[cell.setting] = cell
        return matrix

    monkeypatch.setattr(ProvisionMatrix, "collect",
                        classmethod(fake_collect))


PROVISION_ARGS = ["bench", "--provision",
                  "--workloads", "numeric_sort", "--settings", "P1"]


def test_bench_provision_ok_cells_exit_zero(monkeypatch, capsys):
    _patch_provision_collect(monkeypatch, _provision_cell())
    assert main(PROVISION_ARGS) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_bench_provision_divergent_cell_exits_nonzero(monkeypatch,
                                                      capsys):
    _patch_provision_collect(
        monkeypatch, _provision_cell(status="divergent",
                                     identical=False))
    assert main(PROVISION_ARGS) == 1
    assert "DIVERGENT" in capsys.readouterr().out


def test_bench_provision_incomplete_stages_exit_nonzero(monkeypatch,
                                                        capsys):
    cell = _provision_cell()
    del cell.new_stages["verify"]      # ok cell, missing one timing
    _patch_provision_collect(monkeypatch, cell)
    assert main(PROVISION_ARGS) == 1
    assert "MISSING stage timings" in capsys.readouterr().out


def test_bench_provision_failed_cell_exits_nonzero(monkeypatch,
                                                   capsys):
    _patch_provision_collect(
        monkeypatch, _provision_cell(status="error", stages=False))
    assert main(PROVISION_ARGS) == 1
    assert "FAILED cells" in capsys.readouterr().out


def test_bench_failed_cells_exit_nonzero(monkeypatch, capsys):
    from repro.bench.harness import BenchResult, RunMatrix

    def fake_collect(cls, workloads, **kwargs):
        matrix = cls(executor="translate")
        matrix["numeric_sort"] = {
            "P1": BenchResult("numeric_sort", "P1", 40, steps=0,
                              cycles=0.0, status="error",
                              detail="injected")}
        return matrix

    monkeypatch.setattr(RunMatrix, "collect", classmethod(fake_collect))
    assert main(["bench", "--workloads", "numeric_sort",
                 "--settings", "P1", "--executor", "translate"]) == 1
    out = capsys.readouterr().out
    assert "FAILED cells (1): numeric_sort/P1" in out


def test_bench_checkpoint_resume_mismatch_exits_nonzero(monkeypatch,
                                                        capsys):
    from repro.bench.checkpointing import (
        CheckpointCell, CheckpointMatrix, ResumePoint,
    )

    def fake_collect(cls, workloads, **kwargs):
        cell = CheckpointCell(workload="numeric_sort", param=60,
                              setting="P1-P6", steps=100,
                              plain_wall_s=0.01)
        cell.resumes.append(ResumePoint(
            interrupt_step=50, resumed_at_step=40, chain_len=2,
            identical=False, rollback_rejected=True))
        return cls(cells=[cell], total_wall_s=0.01)

    monkeypatch.setattr(CheckpointMatrix, "collect",
                        classmethod(fake_collect))
    assert main(["bench", "--checkpoint",
                 "--workloads", "numeric_sort"]) == 1
    assert "RESUME DIVERGENCE" in capsys.readouterr().out


# -- CLI: kind and campaign selectors are exclusive ---------------------

@pytest.mark.parametrize("argv", [
    ["bench", "--provision", "--static", "--fleet"],
    ["bench", "--checkpoint", "--pipeline"],
    ["chaos", "--fleet", "--mid-run", "--trials", "3"],
    ["chaos", "--pipeline", "--fleet"],
])
def test_conflicting_selectors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_chaos_fleet_rejects_trials(capsys):
    assert main(["chaos", "--fleet", "--trials", "3"]) == 2
    assert "--trials" in capsys.readouterr().err

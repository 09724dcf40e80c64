import json
import subprocess
import sys

import pytest

from perfbench import spec
from perfbench.tests.conftest import ROOT


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("trace,metrics", [
    ("0", spec.END_TO_END), ("1", spec.PER_LAYER)])
def test_cold_verify_prints_every_metric(trace, metrics):
    proc = _run("--workload", "cold-verify", "--seed", "5",
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 45 * (1 + int(trace))
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == [(m.name, m.unit) for m in metrics]
    if trace == "0":
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        assert "tail p77 with 10 samples beyond" in proc.stdout
    else:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["sgx.enclave.einit_calls"] == 1.0
        assert values["core.verifier.rejects"] == pytest.approx(1 / 3)
        assert values["trace.coverage"] > 0.9


def test_unknown_workload_fails_without_result():
    proc = _run("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

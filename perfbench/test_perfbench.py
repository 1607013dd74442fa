"""Smoke test of the benchmark itself: python3 -m pytest perfbench/

One short run per workload and mode must emit exactly the metrics that
BENCHMARK.json names, with their units; a tampered output file must be
counted as a failed job.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def record():
    harness.WORK.mkdir(exist_ok=True)
    path = harness.WORK / "smoke-records.jsonl"
    path.unlink(missing_ok=True)
    yield path
    path.unlink(missing_ok=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_run_emits_every_metric_with_its_unit(workload, trace, record):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=harness.ROOT,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)


def test_compare_reads_records(record, capsys):
    if not record.exists():
        pytest.skip("no records from the smoke runs")
    assert run.compare(record, record) == 0
    out = capsys.readouterr().out
    for spec in BENCH["end_to_end"]:
        assert spec["name"] in out


def test_tampered_output_counts_as_failed(monkeypatch):
    tampered = []

    def tamper(out: Path):
        # Every other job: change checks.csv so that only the comparison
        # with the job's first run can notice.
        if len(tampered) % 2 == 0:
            path = out / "checks.csv"
            path.write_text(path.read_text(encoding="utf-8")[:-1] + " \n", encoding="utf-8")
        tampered.append(out)

    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = argparse.Namespace(workload="verify-fuzz", seed=1, seconds=0.5)
    metrics, records, info = run.run_untraced(args, after_job=tamper)
    failed = [r for r in records if r.failure is not None]
    assert len(records) >= 2 and failed
    assert all("differs" in r.failure for r in failed)
    assert metrics["ok_frac"] == pytest.approx(1 - len(failed) / len(records))
    assert info["failed_frac"] == pytest.approx(len(failed) / len(records))


def test_every_layer_metric_is_mapped():
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    for spec in BENCH["per_layer"]:
        name = spec["name"]
        assert any(name == k or name.startswith(k + ".") for k in layers), name
    for entry in layers.values():
        assert set(entry["moves"]) <= {s["name"] for s in BENCH["end_to_end"]}
        assert set(entry["workloads"]) | set(entry["no_change_on"]) <= set(workloads.NAMES)

"""Smoke test of the benchmark at reduced size.

Every workload runs a few shrunken sweeps through the correctness gate and
must emit exactly the metrics BENCHMARK.json names, with their units. The
gate itself is checked against tampered outputs.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gate import GateError, check_manifest, check_pins
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_gate_and_emits_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"] + (["--spans-out", str(spans)] if trace else []),
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, done.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        records = [json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()]
        assert {"cli.sweep", "cli.cell", "oracles"} <= {r["name"] for r in records}
        for index, record in enumerate(records):
            assert set(record) == {"id", "name", "start", "end", "parent", "sweep", "size"}
            assert record["id"] == index and record["start"] <= record["end"]
            assert record["parent"] is None or 0 <= record["parent"] < len(records)


def _sweep_dir(tmp_path: Path) -> Path:
    (tmp_path / "a.bin").write_bytes(b"abc")
    digest = hashlib.sha256(b"abc").hexdigest()
    manifest = {"status": "ok", "artifacts": {"a.bin": digest}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path


def test_gate_accepts_a_faithful_manifest(tmp_path):
    assert check_manifest(_sweep_dir(tmp_path)) == {"a.bin": hashlib.sha256(b"abc").hexdigest()}


@pytest.mark.parametrize("tamper", ["edit", "extra", "status"])
def test_gate_rejects_tampered_outputs(tmp_path, tamper):
    out = _sweep_dir(tmp_path)
    if tamper == "edit":
        (out / "a.bin").write_bytes(b"abd")
    elif tamper == "extra":
        (out / "b.bin").write_bytes(b"")
    else:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        (out / "manifest.json").write_text(json.dumps({**manifest, "status": "error"}), encoding="utf-8")
    with pytest.raises(GateError):
        check_manifest(out)


def test_pins_allow_rounding_but_not_a_numeric_change():
    pinned = {"cell": {"mean": 1e-6, "rms": 1.0, "high": 50.0}}
    check_pins({"cell": {"mean": 1e-6 + 4e-16, "rms": 1.0 + 4e-16, "high": 50.0 * (1 + 1e-12)}}, pinned)
    with pytest.raises(GateError):
        check_pins({"cell": {"mean": 1e-6, "rms": 1.0, "high": 50.0 * (1 + 1e-8)}}, pinned)

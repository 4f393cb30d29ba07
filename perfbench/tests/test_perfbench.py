"""Small checks of the benchmark itself (not of perch's numerics).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("k", [0.7, 3.3, 15.5, 0.25j, 2.0 + 0.4j])
def test_reference_matches_zero_closed_form(k):
    ref = reference.Reference(reference.zero)
    assert ref.theta == pytest.approx(reference.L, abs=1e-14)
    got = ref.spectral(k)
    want = reference.zero_closed_form(k)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-11


def test_digit_cap():
    assert workloads.digits(0.0) == 16.0
    assert workloads.digits(1e-20) == 16.0
    assert workloads.digits(1e-12) == pytest.approx(12.0)
    assert workloads.digits(np.float64(2.4e-13)) == pytest.approx(12.62, abs=0.01)


def test_every_metric_named_in_benchmark_json_is_printed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == spans.PER_LAYER
    # a traced run's metrics from an empty trace still name every metric
    got = spans.layer_metrics(spans.Tracer(), "spectra", 0)
    assert {k: v["unit"] for k, v in got.items()} == layer
    # the smallest real run: one spectra round, untraced
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spectra",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (12, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in result["metrics"].values())
